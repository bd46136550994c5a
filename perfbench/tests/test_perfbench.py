"""The benchmark's own tests: tiny-scale runs and the oracle's teeth.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
from oracle import Outcome  # noqa: E402
from workloads import SESSIONS, WORKLOADS, Op  # noqa: E402

TINY = 0.01


def _run_cli(workload: str, trace: int) -> tuple[dict, str]:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
            "--scale", str(TINY),
        ],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1]), completed.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result, stdout = _run_cli(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = report.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert "tracing overhead" in stdout
        assert "stressed layers" in stdout
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert '"seed": 3' in stdout.splitlines()[0]


def _in_process_logs(workload, ops_per_session: int) -> list[list]:
    """Run each session's first ops on an in-process system (no TCP)."""
    from repro.client.session import EncDBDBSystem

    system = EncDBDBSystem.create(seed=b"perfbench-oracle-test")
    for ddl in workload.ddl:
        system.execute(ddl)
    for table, columns, partition_rows in workload.loads:
        system.bulk_load(table, columns, partition_rows=partition_rows)
    system.proxy.enable_pushdown(workload.pushdown)
    logs = []
    for session in range(SESSIONS):
        stream = workload.ops(session)
        log = []
        for _ in range(ops_per_session):
            op = next(stream)
            result = system.execute(op.sql)
            log.append(
                (op, Outcome(rows=result.rows) if op.kind == "read" else Outcome(count=result))
            )
        logs.append(log)
    return logs


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_oracle_accepts_real_results_and_flags_corrupted_ones(workload_name):
    workload = WORKLOADS[workload_name](5, TINY)
    logs = _in_process_logs(workload, ops_per_session=40)
    mismatches, user_bytes = oracle.check(workload, logs)
    assert mismatches == []
    assert user_bytes > 0

    corrupted = 0
    for log in logs:
        for index, (op, outcome) in enumerate(log):
            if op.kind == "read" and outcome.rows:
                row = outcome.rows[0]
                bad = (row[0] + 1 if isinstance(row[0], int) else row[0] + "x",) + tuple(row[1:])
                log[index] = (op, Outcome(rows=[bad] + list(outcome.rows[1:])))
                corrupted += 1
                break
    assert corrupted == SESSIONS
    mismatches, _ = oracle.check(workload, logs)
    assert len(mismatches) == corrupted


def test_oracle_counts_an_error_as_a_mismatch():
    workload = WORKLOADS["range-select"](5, TINY)
    op = next(workload.ops(0))
    mismatches, _ = oracle.check(workload, [[(op, Outcome(error="QueryError: boom"))]])
    assert len(mismatches) == 1 and "QueryError: boom" in mismatches[0]


def test_rows_match_multiset_order_and_float_tolerance():
    assert oracle.rows_match([(1, 2), (3, 4)], [(3, 4), (1, 2)], ordered=False)
    assert not oracle.rows_match([(1, 2), (3, 4)], [(3, 4), (1, 2)], ordered=True)
    assert not oracle.rows_match([(1,), (1,)], [(1,), (2,)], ordered=False)
    assert oracle.rows_match([("A", 2.0 / 3.0)], [("A", 0.6666666666666666)], ordered=False)
    assert not oracle.rows_match([("A", 0.66)], [("A", 0.67)], ordered=False)
    merge = Op("merge", "MERGE TABLE events")
    assert oracle.matches(Outcome(), Outcome(count=3), merge)


def test_layer_seconds_subtracts_server_time_from_the_rpc():
    client = [
        {"name": "link", "rpc": [7, 1], "req": [0, 0]},
        {"id": 1, "name": "client.op", "start": 0.0, "end": 1.0, "parent": None,
         "req": [0, 0], "self": 0.25},
        {"id": 2, "name": "net.rpc", "start": 0.1, "end": 0.8, "parent": 1,
         "req": [0, 0], "self": 0.7},
        {"name": "crypto.decrypt", "parent": 1, "req": [0, 0], "count": 4,
         "seconds": 0.05, "distinct": 2},
    ]
    server = [
        {"id": 1, "name": "server.execute_select", "start": 0.2, "end": 0.6,
         "parent": None, "req": [7, 1], "self": 0.3},
        {"id": 2, "name": "sql.filter", "start": 0.3, "end": 0.4, "parent": 1,
         "req": [7, 1], "self": 0.1},
        {"id": 3, "name": "server.execute_select", "start": 5.0, "end": 6.0,
         "parent": None, "req": [8, 1], "self": 1.0},
    ]
    layers, handlers, decrypts = report.layer_seconds(client, server)
    assert layers["net.transit"] == pytest.approx(0.7 - 0.4)
    assert layers["sql.render"] == pytest.approx(0.3)
    assert layers["sql.filter"] == pytest.approx(0.1)
    assert layers["client.post"] == pytest.approx(0.25)
    assert layers["crypto.decrypt"] == pytest.approx(0.05)
    assert handlers == {"execute_select": pytest.approx(0.4)}
    assert decrypts == {"count": 4, "distinct": 2}


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == report.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_write_mix_sessions_touch_disjoint_keys():
    """The sqlite3 replay is exact only if no session reads or writes a key
    another session touches."""
    import itertools
    import re

    workload = WORKLOADS["write-mix"](7)
    touched = []
    for session in range(SESSIONS):
        keys = set()
        for op in itertools.islice(workload.ops(session), 2_000):
            for low, high in re.findall(r"BETWEEN (\d+) AND (\d+)", op.sql):
                keys.update(range(int(low), int(high) + 1))
            keys.update(int(k) for k in re.findall(r"\((\d+), \d+, \d+\)", op.sql))
        touched.append(keys)
    assert not touched[0] & touched[1]


def test_window_leaves_out_the_cpu_time_lent_to_other_guests():
    # Ops as (kind, end, latency) in a 4 s window that ran 4.5 s, with the
    # (stolen, wanted) CPU ticks read at the bounds of its 4 slices: the
    # third slice got half the CPU time it wanted, the last wanted none.
    window = run.Window(
        0.0, 4.0, 4.5,
        [("read", 1.0, 1.0), ("read", 2.5, 1.5), ("insert", 4.5, 2.0), ("read", 3.0, 0.5)],
        [(0, 0), (0, 100), (0, 200), (50, 300), (50, 300)],
    )
    assert window.available() == [1.0, 1.0, 0.5, 1.0]
    assert window.available_s(0.0, 4.5) == pytest.approx(4.0)
    assert window.latencies("read") == pytest.approx([1.0, 1.25, 0.25])
    assert window.latencies("read", adjust=False) == [1.0, 1.5, 0.5]
    assert window.latencies("insert", "delete") == pytest.approx([1.75])
    assert window.ops_per_s() == pytest.approx(1.0)
    assert window.ops_per_s(adjust=False) == pytest.approx(4 / 4.5)
    assert run._available((0, 0), (0, 0)) == 1.0


def test_client_wrappers_switch_off_to_the_originals():
    import tracing
    from repro.client.proxy import Proxy

    original = Proxy.execute
    wrappers = tracing.install_client(tracing.client_tracer())
    try:
        assert Proxy.execute is not original
        wrappers.switch(False)
        assert Proxy.execute is original
        wrappers.switch(True)
        assert Proxy.execute.__wrapped__ is original
    finally:
        wrappers.switch(False)
    assert Proxy.execute is original


def test_write_mix_deletes_hit_the_last_insert():
    """Deletes correct rows still in the delta store, so a merge rarely
    finds a dirty main-store partition."""
    import itertools
    import re

    workload = WORKLOADS["write-mix"](7)
    for session in range(SESSIONS):
        last_insert: set[int] = set()
        for op in itertools.islice(workload.ops(session), 500):
            if op.kind == "insert":
                last_insert = {int(k) for k in re.findall(r"\((\d+), \d+, \d+\)", op.sql)}
            elif op.kind == "delete":
                low, high = map(int, re.search(r"BETWEEN (\d+) AND (\d+)", op.sql).groups())
                assert low in last_insert
