"""Every form of the wire surface matches the verb table.

:data:`repro.net.verbs.VERBS` declares each wire verb once; the server
handler, the client stub and the cluster forwarder must exist for exactly
the declared verbs, and every verb must state its leakage contract.
"""

from __future__ import annotations

import pytest

from repro.cluster.router import ClusterRouter
from repro.net.client import RemoteServer
from repro.net.verbs import VERBS
from repro.server.dbms import EncDBDBServer


@pytest.mark.parametrize("name", sorted(VERBS))
def test_verb_surface_parity(name):
    verb = VERBS[name]
    assert callable(getattr(EncDBDBServer, name, None))
    assert callable(getattr(RemoteServer, name, None))
    assert hasattr(ClusterRouter, name) == (verb.cluster is not None)
    assert verb.observables.strip()


def test_off_wire_handlers_are_not_verbs():
    for name in ("drop_table", "load", "enable_auto_merge"):
        assert callable(getattr(EncDBDBServer, name))
        assert name not in VERBS
