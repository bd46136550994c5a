"""The leakage-contract registries stay in sync with the runtime.

:mod:`repro.analysis.leakage` declares, as data, what every ecall and every
wire verb may reveal. These tests pin that data against the live surfaces
from both directions: an ecall/verb without a contract cannot ship, and a
contract for a retired entry point cannot linger.
"""

from __future__ import annotations

from repro.analysis import leakage
from repro.analysis.engine import analyze_source
from repro.analysis.findings import RULE_UNDECLARED_CONTRACT, RULE_UNSHAPED_RESPONSE
from repro.analysis.leakage import ECALL_CONTRACTS, VERB_CONTRACTS, LeakageContract
from repro.analysis.trustmap import REGISTERED_ECALLS
from repro.encdict.enclave_app import EncDBDBEnclave
from repro.net.verbs import VERBS


def test_every_registered_ecall_has_a_contract():
    assert set(ECALL_CONTRACTS) == set(REGISTERED_ECALLS)


def test_contracts_cover_the_live_enclave_surface():
    assert set(ECALL_CONTRACTS) == set(EncDBDBEnclave().ecall_names())


def test_every_wire_verb_has_a_contract():
    assert set(VERB_CONTRACTS) == set(VERBS)


def test_contracts_declare_observables_and_kind():
    for registry, kind in ((ECALL_CONTRACTS, "ecall"), (VERB_CONTRACTS, "verb")):
        for name, contract in registry.items():
            assert contract.name == name
            assert contract.kind == kind
            # Every contract states *what* the provider observes — an empty
            # observables string would be a contract in name only.
            assert contract.observables.strip()


# A server module dispatching from the verb table, with and without the
# error-frame shaping every verb shares.
_SERVER_SOURCE = """\
from repro.net.errors import redact_exception
from repro.net.verbs import VERBS


def dispatch(dbms, method, args):
    try:
        if method not in VERBS:
            raise ValueError(method)
        return getattr(dbms, method)(*args)
    except Exception as exc:
        return redact_exception(exc)
"""

_UNSHAPED_SERVER_SOURCE = """\
from repro.net.verbs import VERBS


def dispatch(dbms, method, args):
    if method not in VERBS:
        raise ValueError(method)
    return getattr(dbms, method)(*args)
"""


def _verb_findings(source: str) -> list:
    findings = analyze_source(source, module=leakage.SERVER_MODULE, path="server.py")
    return [
        finding
        for finding in findings
        if finding.rule in (RULE_UNDECLARED_CONTRACT, RULE_UNSHAPED_RESPONSE)
    ]


def test_server_without_error_redaction_is_unshaped():
    findings = _verb_findings(_UNSHAPED_SERVER_SOURCE)
    assert [(f.rule, f.symbol) for f in findings] == [
        (RULE_UNSHAPED_RESPONSE, leakage.ERROR_SHAPER)
    ]


def test_server_with_error_redaction_is_clean():
    assert _verb_findings(_SERVER_SOURCE) == []


def test_verb_without_observables_is_undeclared(monkeypatch):
    contracts = dict(VERB_CONTRACTS)
    contracts["execute_select"] = LeakageContract("execute_select", "verb", " ", ())
    monkeypatch.setattr(leakage, "VERB_CONTRACTS", contracts)
    findings = _verb_findings(_SERVER_SOURCE)
    assert [(f.rule, f.symbol) for f in findings] == [
        (RULE_UNDECLARED_CONTRACT, "execute_select")
    ]


def test_live_server_module_is_anchored():
    """The checks run on the real server module, not only on snippets."""
    from pathlib import Path

    import repro.net.server

    source = Path(repro.net.server.__file__).read_text(encoding="utf-8")
    assert _verb_findings(source) == []
    unshaped = source.replace(leakage.ERROR_SHAPER, "_unshaped")
    assert [f.rule for f in _verb_findings(unshaped)] == [RULE_UNSHAPED_RESPONSE]
