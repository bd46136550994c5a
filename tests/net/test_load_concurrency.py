"""Bulk loads must not starve concurrent sessions (PR 4).

``bulk_load`` performs no enclave calls — the data owner ships finished
ciphertext — so the net server runs it off the ecall lock. The regression
here: while one session's (artificially slow) load is in flight, a query
on another session completes.
"""

from __future__ import annotations

import threading
import time

from repro.client.session import EncDBDBSystem
from repro.net.verbs import VERBS


def test_query_completes_while_large_load_is_in_flight(net_server):
    dbms = net_server.server.dbms
    port = net_server.port

    with EncDBDBSystem.connect("127.0.0.1", port, seed=0) as loader:
        loader.execute("CREATE TABLE small (k ED1 INTEGER)")
        loader.bulk_load("small", {"k": [1, 2, 3, 4, 5]})
        loader.execute("CREATE TABLE big (k ED1 INTEGER)")

        load_started = threading.Event()
        release_load = threading.Event()
        original_bulk_load = dbms.bulk_load

        def slow_bulk_load(*args, **kwargs):
            load_started.set()
            assert release_load.wait(20), "test never released the load"
            return original_bulk_load(*args, **kwargs)

        dbms.bulk_load = slow_bulk_load
        try:
            load_result: list = []

            def run_load() -> None:
                load_result.append(
                    loader.bulk_load("big", {"k": list(range(100))})
                )

            load_thread = threading.Thread(target=run_load)
            load_thread.start()
            assert load_started.wait(10), "load RPC never reached the DBMS"

            # The load is parked inside its RPC. A second session's query
            # must still go through the (free) ecall lock and finish.
            with EncDBDBSystem.connect("127.0.0.1", port, seed=0) as reader:
                started = time.monotonic()
                rows = reader.query("SELECT k FROM small WHERE k <= 3").rows
                elapsed = time.monotonic() - started
            assert sorted(r[0] for r in rows) == [1, 2, 3]
            assert load_thread.is_alive(), "query should finish mid-load"
            assert elapsed < 10

            release_load.set()
            load_thread.join(20)
            assert not load_thread.is_alive()
            assert load_result == [100]
        finally:
            release_load.set()
            dbms.bulk_load = original_bulk_load

    # And the loaded table is fully queryable afterwards.
    with EncDBDBSystem.connect("127.0.0.1", port, seed=0) as check:
        rows = check.query("SELECT k FROM big WHERE k < 10").rows
        assert sorted(r[0] for r in rows) == list(range(10))


def test_bulk_load_is_declared_lock_free():
    assert VERBS["bulk_load"].lock_free
    # Everything touching the enclave stays serialized.
    assert not VERBS["execute_select"].lock_free
    assert not VERBS["execute_merge"].lock_free
