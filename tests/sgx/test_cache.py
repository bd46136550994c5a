"""Unit tests of the EPC-budgeted enclave LRU cache."""

from __future__ import annotations

import pytest

from repro.exceptions import EnclaveMemoryError
from repro.sgx.cache import EnclaveLruCache, FastPathConfig
from repro.sgx.costs import CostModel
from repro.sgx.memory import EPC_USABLE_BYTES, PAGE_BYTES, EpcModel


def test_get_put_and_lru_order():
    cache = EnclaveLruCache(budget_bytes=100)
    assert cache.get("a") is None
    assert cache.put("a", 1, 40)
    assert cache.put("b", 2, 40)
    assert cache.get("a") == 1  # refreshes "a"; "b" is now LRU
    assert cache.put("c", 3, 40)  # evicts "b"
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.stats.evictions == 1


def test_used_bytes_never_exceeds_budget():
    cache = EnclaveLruCache(budget_bytes=100)
    for i in range(50):
        cache.put(i, i, 30)
        assert cache.used_bytes <= cache.budget_bytes
    assert cache.stats.peak_bytes <= cache.budget_bytes
    assert len(cache) == 3  # 3 * 30 <= 100 < 4 * 30


def test_replacing_a_key_releases_its_bytes():
    cache = EnclaveLruCache(budget_bytes=100)
    cache.put("a", 1, 60)
    cache.put("a", 2, 30)
    assert cache.used_bytes == 30
    assert cache.get("a") == 2


def test_oversized_entry_rejected_without_wiping_cache():
    cache = EnclaveLruCache(budget_bytes=100)
    cache.put("a", 1, 50)
    assert not cache.put("huge", 2, 101)
    assert cache.get("a") == 1
    assert cache.get("huge") is None
    assert cache.stats.rejected == 1


def test_eviction_charges_cost_model_as_paging():
    cost = CostModel()
    cache = EnclaveLruCache(budget_bytes=100, cost_model=cost)
    cache.put("a", 1, 60)
    cache.put("b", 2, 60)  # evicts "a"
    assert cost.epc_page_faults == 1


def test_budget_charged_against_epc_model():
    cost = CostModel()
    epc = EpcModel(cost, strict=True)
    budget = 8 * PAGE_BYTES
    cache = EnclaveLruCache(budget_bytes=budget, cost_model=cost, epc=epc)
    assert epc.allocated_pages == 8
    assert cache.budget_bytes == budget


def test_budget_beyond_epc_fails_in_strict_mode():
    cost = CostModel()
    epc = EpcModel(cost, strict=True)
    with pytest.raises(EnclaveMemoryError):
        EnclaveLruCache(
            budget_bytes=EPC_USABLE_BYTES + PAGE_BYTES,
            cost_model=cost,
            epc=epc,
        )


def test_invalidate_by_predicate():
    cache = EnclaveLruCache(budget_bytes=1000)
    cache.put(("t1", "c1", 0, b"x"), 1, 10)
    cache.put(("t1", "c2", 0, b"y"), 2, 10)
    cache.put(("t2", "c1", 0, b"z"), 3, 10)
    dropped = cache.invalidate(lambda key: key[0] == "t1")
    assert dropped == 2
    assert cache.get(("t1", "c1", 0, b"x")) is None
    assert cache.get(("t2", "c1", 0, b"z")) == 3
    assert cache.used_bytes == 10


def test_clear_drops_everything():
    cache = EnclaveLruCache(budget_bytes=1000)
    cache.put("a", 1, 10)
    cache.put("b", 2, 10)
    assert cache.clear() == 2
    assert len(cache) == 0
    assert cache.used_bytes == 0
    assert cache.stats.invalidations == 2


def test_nonpositive_budget_rejected():
    with pytest.raises(EnclaveMemoryError):
        EnclaveLruCache(budget_bytes=0)


def _run_fastpath_queries(monkeypatch, fastpath: FastPathConfig) -> dict:
    """Run one two-filter query twice over a 3-partition ED3 column and
    report what each fast-path layer observably did."""
    from repro.client.session import EncDBDBSystem
    from repro.columnstore import column as column_module
    from repro.encdict import enclave_app, kernels

    calls: dict[str, int] = {}
    scan_workers: set[int] = set()

    def spy(module, name: str, units=lambda args: 1) -> None:
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + units(args)
            if "max_workers" in kwargs:
                scan_workers.add(kwargs["max_workers"])
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    # A multi-partition scan counts one unit per partition job.
    spy(column_module, "attr_vect_search_many", units=lambda args: len(args[0]))
    spy(column_module, "attr_vect_search")
    spy(enclave_app, "derive_column_key")
    spy(kernels, "pack_ordinals")

    system = EncDBDBSystem.create(seed=5, fastpath=fastpath)
    system.execute("CREATE TABLE t (a ED3 INTEGER)")
    system.bulk_load("t", {"a": list(range(12))}, partition_rows=4)
    calls.clear()
    scan_workers.clear()
    cost = system.server.cost_model
    ecalls_before = dict(cost.ecalls_by_name)
    decryptions = []
    for _ in range(2):
        before = cost.decryptions
        rows = system.query("SELECT a FROM t WHERE a >= 3 AND a >= 3").rows
        assert sorted(row[0] for row in rows) == list(range(3, 12))
        decryptions.append(cost.decryptions - before)
    return {
        "decryptions": decryptions,
        "ecalls": {
            name: count - ecalls_before.get(name, 0)
            for name, count in cost.ecalls_by_name.items()
            if count != ecalls_before.get(name, 0)
        },
        "derivations": calls.get("derive_column_key", 0),
        "scans": calls.get("attr_vect_search_many", 0)
        + calls.get("attr_vect_search", 0),
        "scan_workers": scan_workers,
        "packs": calls.get("pack_ordinals", 0),
    }


def test_fastpath_config_master_flag_gates_every_layer(monkeypatch):
    # Two queries x two identical filters x three partitions.
    off = _run_fastpath_queries(monkeypatch, FastPathConfig.disabled())
    # No entry cache: the repeated query decrypts as much as the first.
    assert off["decryptions"][0] == off["decryptions"][1] > 0
    # One dict_search ecall per filter and partition, no batching.
    assert off["ecalls"] == {"dict_search": 12}
    # No key cache: one derivation per search.
    assert off["derivations"] == 12
    # No mask reuse: both identical filters scan every partition.
    assert off["scans"] == 12
    # Serial scans: no fan-out is ever offered to dispatch_decision.
    assert off["scan_workers"] == {1}
    # Scalar search kernels: nothing is packed.
    assert off["packs"] == 0

    # The default config with a pinned worker count (the default is
    # host-clamped, 1 on a single-core runner).
    on = _run_fastpath_queries(monkeypatch, FastPathConfig(scan_max_workers=2))
    assert on["decryptions"][1] < on["decryptions"][0]
    assert on["ecalls"] == {"dict_search_batch": 2}
    assert on["derivations"] == 1
    assert on["scans"] == 6
    assert on["scan_workers"] == {2}
    assert on["packs"] == 3


def test_invalidate_prefix_evicts_one_partition():
    cache = EnclaveLruCache(budget_bytes=1000)
    cache.put(("t", "c", 0, 5, b"x"), 1, 10)
    cache.put(("t", "c", 0, 5, b"y"), 2, 10)
    cache.put(("t", "c", 1, 5, b"x"), 3, 10)
    cache.put(("t", "d", 0, 5, b"x"), 4, 10)
    cache.put("plain-key", 5, 10)
    assert cache.invalidate_prefix(("t", "c", 0)) == 2
    assert cache.get(("t", "c", 0, 5, b"x")) is None
    assert cache.get(("t", "c", 1, 5, b"x")) == 3
    assert cache.get(("t", "d", 0, 5, b"x")) == 4
    assert cache.get("plain-key") == 5


def test_invalidate_prefix_never_matches_non_tuple_keys():
    cache = EnclaveLruCache(budget_bytes=1000)
    cache.put("abc", 1, 10)
    cache.put(("a",), 2, 10)
    assert cache.invalidate_prefix(("a",)) == 1
    assert cache.get("abc") == 1


def test_group_usage_reports_bytes_per_partition():
    cache = EnclaveLruCache(budget_bytes=1000)
    cache.put(("t", "c", 0, 5, b"x"), 1, 10)
    cache.put(("t", "c", 0, 5, b"y"), 2, 15)
    cache.put(("t", "c", 1, 5, b"x"), 3, 20)
    cache.put("plain-key", 4, 7)
    usage = cache.group_usage()
    assert usage[("t", "c", 0)] == 25
    assert usage[("t", "c", 1)] == 20
    assert usage[()] == 7
