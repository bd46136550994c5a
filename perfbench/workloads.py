"""The three benchmark workloads: generated data, DDL and per-session ops.

Everything here is a pure function of ``(seed, scale)``: the same seed gives
the same rows and the same statement sequence for every session. A session's
sequence is endless; the closed loop takes as many ops as fit in the run.
``scale`` shrinks the row counts (and the result sizes with them) for the
benchmark's own tests; the benchmark runs at ``scale=1``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

SESSIONS = 2
#: Constants per analytics query kind (see ``analytics``).
POOL = 8


@dataclass(frozen=True)
class Op:
    """One SQL statement sent by one session."""

    kind: str  # "read", "insert", "delete" or "merge"
    sql: str
    #: ORDER BY results are compared in order, all others as multisets.
    ordered: bool = False


@dataclass
class Workload:
    name: str
    ddl: list[str]
    #: ``(table, columns, partition_rows)`` bulk loads, in order.
    loads: list[tuple[str, dict[str, list], int | None]]
    #: Plain ``CREATE TABLE`` statements for the sqlite3 oracle.
    oracle_ddl: list[str]
    #: Per-session op stream factory.
    ops: Callable[[int], Iterator[Op]]
    #: Bytes of one row of each table in its fixed-width plaintext encoding.
    row_bytes: dict[str, int]
    #: Analytics routes every op to the enclave; checked per op.
    pushdown: bool = False
    #: Layers the workload was built to stress (see ``report.py``).
    stresses: tuple[str, ...] = field(default_factory=tuple)
    stress_label: str = ""


def _session_rng(seed: int, name: str, session: int) -> np.random.Generator:
    return np.random.default_rng([seed, session, sum(map(ord, name))])


def _even_points(rng: np.random.Generator) -> Iterator[float]:
    """Points in [0, 1): the base-2 van der Corput sequence shifted by a
    seed-drawn offset. Every prefix is spread evenly over [0, 1), so a run
    sees the same mix of op sizes whatever number of ops fits in it."""
    shift = float(rng.random())
    for i in itertools.count(1):
        point, scale = 0.0, 0.5
        while i:
            point += scale * (i & 1)
            i >>= 1
            scale /= 2
        yield (point + shift) % 1.0


# ----------------------------------------------------------------------
# range-select: the result path (render, wire, proxy decryption)
# ----------------------------------------------------------------------
def range_select(seed: int, scale: float = 1.0) -> Workload:
    rows = max(200, int(100_000 * scale))
    keys = max(20, rows // 10)  # ~10 rows per k
    rng = np.random.default_rng([seed, 1])
    columns = {
        "k": rng.integers(0, keys, rows).tolist(),
        "g": rng.integers(0, 16, rows).tolist(),
        "v": rng.integers(0, 1_000_000_000, rows).tolist(),
    }
    rows_per_key = rows / keys

    def ops(session: int) -> Iterator[Op]:
        srng = _session_rng(seed, "range-select", session)
        for point in _even_points(srng):
            # Result sizes 500 .. 8 000 rows (at scale 1), log-uniform.
            target = 500 * 16**point * min(1.0, scale)
            width = max(1, int(round(target / rows_per_key)))
            low = int(srng.integers(0, keys - width + 1))
            yield Op(
                "read",
                f"SELECT k, g, v FROM sales WHERE k BETWEEN {low} AND {low + width - 1}",
            )

    return Workload(
        name="range-select",
        ddl=["CREATE TABLE sales (k ED3 INTEGER, g ED1 INTEGER, v ED7 INTEGER)"],
        loads=[("sales", columns, None)],
        oracle_ddl=["CREATE TABLE sales (k INTEGER, g INTEGER, v INTEGER)"],
        ops=ops,
        row_bytes={"sales": 12},
        stresses=("sql.render", "crypto.decrypt", "net.encode", "net.decode", "client.post"),
        stress_label="result path (render + wire codec + proxy decrypt + post)",
    )


# ----------------------------------------------------------------------
# analytics: the enclave (filter search, aggregate ecalls, AV scans)
# ----------------------------------------------------------------------
def analytics(seed: int, scale: float = 1.0) -> Workload:
    from repro.workloads import LINEITEM_DDL, generate_lineitem, tpch_lite_mix

    rows = max(200, int(100_000 * scale))
    columns = generate_lineitem(rows, seed=seed)
    mix = {query.name: query.sql for query in tpch_lite_mix()}

    # Constants come from a per-seed pool of POOL choices per query kind,
    # as a dashboard repeats its queries; it also keeps the oracle cheap.
    # Each constant takes every POOL-quantile of its range once (shifted
    # and paired by the seed), so the work per op is alike across seeds.
    prng = np.random.default_rng([seed, 2])

    def spread(low: int, high: int) -> list[int]:
        points = (prng.permutation(POOL) + prng.random()) / POOL
        return [int(low + (high - low) * point) for point in points]

    sqls = {
        "pricing-summary": [mix["pricing-summary"]],
        "shipped-revenue": [
            mix["shipped-revenue"].replace(">= 2000", f">= {day}")
            for day in spread(500, 2_000)
        ],
        "flag-volume": [
            mix["flag-volume"].replace(
                "BETWEEN 1000 AND 5000",
                f"BETWEEN {100 + 25 * low} AND {100 + 25 * (low + width)}",
            )
            for low, width in zip(spread(0, 200), spread(100, 200))
        ],
        "top-quantities": [
            mix["top-quantities"].replace("LIMIT 10", f"LIMIT {limit}")
            for limit in spread(5, 21)
        ],
        "count2": [
            "SELECT COUNT(*) FROM lineitem WHERE shipday BETWEEN "
            f"{day} AND {day + days} AND price BETWEEN "
            f"{100 + 25 * price} AND {100 + 25 * (price + prices)}"
            for day, days, price, prices in zip(
                spread(1, 1_500), spread(500, 1_000), spread(0, 200), spread(100, 200)
            )
        ],
    }

    def ops(session: int) -> Iterator[Op]:
        srng = _session_rng(seed, "analytics", session)
        kinds = list(sqls)
        for point in _even_points(srng):
            kind = kinds[int(point * len(kinds))]
            choices = sqls[kind]
            sql = choices[int(srng.integers(0, len(choices)))]
            yield Op("read", sql, ordered=kind == "top-quantities")

    return Workload(
        name="analytics",
        ddl=[LINEITEM_DDL],
        loads=[("lineitem", columns, None)],
        oracle_ddl=[
            "CREATE TABLE lineitem (returnflag TEXT, quantity INTEGER, "
            "price INTEGER, shipday INTEGER)"
        ],
        ops=ops,
        row_bytes={"lineitem": 2 + 4 + 4 + 4},
        pushdown=True,
        stresses=("sgx.ecall", "encdict.attrvect", "sql.filter"),
        stress_label="enclave (ecalls + attribute-vector scan + filter search)",
    )


# ----------------------------------------------------------------------
# write-mix: the encrypt side, the delta store and merges
# ----------------------------------------------------------------------
INSERT_ROWS = 50
ROWS_PER_KEY = 5
NEW_KEYS = 10_000_000  # key-space distance between the sessions' new rows
#: Ops of session 0 between two MERGE TABLE statements. A merge holds the
#: server's ecall lock for about 0.3 s and stalls the op the other session
#: has in flight; at this cadence that is about one op in 64, so
#: ``read_p90_ms`` stays clear of the merge-stall tail.
MERGE_EVERY = 64
PARTITION_ROWS = 2_500


def write_mix(seed: int, scale: float = 1.0) -> Workload:
    rows = max(200, int(100_000 * scale))
    keys = max(20, rows // ROWS_PER_KEY)
    half = keys // 2
    rng = np.random.default_rng([seed, 3])
    # Session s owns the loaded keys [s*half, (s+1)*half) and the new keys
    # from keys + (s+1)*NEW_KEYS on. Like a time series it appends rows at a
    # rising key frontier, ROWS_PER_KEY rows per key, corrects (deletes)
    # rows of its last INSERT, and reads loaded and recent rows, so a read
    # returns the same number of rows however far the run got. The loaded
    # rows arrive in k order and are never deleted, so a merge rebuilds only
    # the tail partitions that hold the inserted rows.
    # 10 .. 80 keys, about 50 .. 400 rows (at scale 1).
    max_width = max(1, int(80 * min(1.0, scale * 10)))
    # Each session's recent window (what it reads, the last max_width keys
    # below its frontier) starts out full.
    history = [
        np.repeat(np.arange(start - max_width, start), ROWS_PER_KEY)
        for start in (keys + (session + 1) * NEW_KEYS for session in range(SESSIONS))
    ]
    k = np.concatenate([np.sort(rng.integers(0, keys, rows)), *history])
    columns = {
        "k": k.tolist(),
        "g": rng.integers(0, 16, len(k)).tolist(),
        "v": rng.integers(0, 1_000_000_000, len(k)).tolist(),
    }

    def ops(session: int) -> Iterator[Op]:
        srng = _session_rng(seed, "write-mix", session)
        loaded = session * half
        frontier = keys + (session + 1) * NEW_KEYS
        count = 0
        points = _even_points(srng)
        while True:
            for kind in ("insert", "read", "delete", "read"):
                count += 1
                if session == 0 and count % MERGE_EVERY == 0:
                    yield Op("merge", "MERGE TABLE events")
                elif kind == "insert":
                    values = ", ".join(
                        f"({frontier + i // ROWS_PER_KEY}, "
                        f"{int(srng.integers(0, 16))}, "
                        f"{int(srng.integers(0, 1_000_000_000))})"
                        for i in range(INSERT_ROWS)
                    )
                    frontier += INSERT_ROWS // ROWS_PER_KEY
                    yield Op("insert", f"INSERT INTO events VALUES {values}")
                elif kind == "delete":
                    # A correction of the session's last INSERT: its rows are
                    # still in the delta store unless a merge came between,
                    # so merges rarely find a dirty main-store partition.
                    low = frontier - 1 - int(srng.integers(0, INSERT_ROWS // ROWS_PER_KEY))
                    yield Op("delete", f"DELETE FROM events WHERE k BETWEEN {low} AND {low + 1}")
                else:
                    width = max(1, int(max_width / 8 * 8 ** next(points)))
                    # Alternate reads of the loaded rows and of the recent rows.
                    if count % 4 == 2:
                        low = loaded + int(srng.integers(0, half - width + 1))
                    else:
                        low = frontier - width
                    yield Op(
                        "read",
                        f"SELECT k, g, v FROM events WHERE k BETWEEN {low} AND {low + width - 1}",
                    )

    return Workload(
        name="write-mix",
        ddl=["CREATE TABLE events (k ED3 INTEGER, g ED1 INTEGER, v ED7 INTEGER)"],
        loads=[("events", columns, max(50, int(PARTITION_ROWS * scale)))],
        oracle_ddl=["CREATE TABLE events (k INTEGER, g INTEGER, v INTEGER)"],
        ops=ops,
        row_bytes={"events": 12},
        stresses=(
            "crypto.insert_encrypt",
            "columnstore.write",
            "sgx.ecall",
            "net.transit",
        ),
        stress_label="write path (insert encrypt + delta/merge + write ecalls + lock wait)",
    )


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "range-select": range_select,
    "analytics": analytics,
    "write-mix": write_mix,
}
