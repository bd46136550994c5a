"""The sqlite3 oracle: an independent engine over the same generated rows.

Every op a session ran is replayed against an in-memory stdlib ``sqlite3``
database loaded with the rows the benchmark bulk-loaded, and the encrypted
system's answer is compared with sqlite's. Sessions of the write workload
own disjoint key ranges, so replaying each session's statement log in its
own order reproduces every answer that session saw, whatever the
interleaving between sessions was. Results are compared as multisets,
except for ORDER BY results, which are compared in order; floats (AVG)
compare with a relative tolerance.
"""

from __future__ import annotations

import math
import sqlite3
from dataclasses import dataclass
from typing import Any

FLOAT_TOLERANCE = 1e-9


@dataclass
class Outcome:
    """What one op returned: rows for a SELECT, a count otherwise."""

    rows: list[tuple] | None = None
    count: int | None = None
    error: str | None = None


def load(workload) -> sqlite3.Connection:
    db = sqlite3.connect(":memory:")
    for ddl in workload.oracle_ddl:
        db.execute(ddl)
    for table, columns, _ in workload.loads:
        names = list(columns)
        db.executemany(
            f"INSERT INTO {table} ({', '.join(names)}) VALUES "
            f"({', '.join('?' for _ in names)})",
            zip(*(columns[name] for name in names)),
        )
        for name in names:
            db.execute(f"CREATE INDEX {table}_{name} ON {table} ({name})")
    db.commit()
    return db


def expected(db: sqlite3.Connection, op) -> Outcome:
    """sqlite's answer to one op (``MERGE TABLE`` has no counterpart)."""
    if op.kind == "merge":
        return Outcome(count=None)
    cursor = db.execute(op.sql)
    if op.kind == "read":
        return Outcome(rows=cursor.fetchall())
    return Outcome(count=cursor.rowcount)


def _close(a: Any, b: Any) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (
            isinstance(a, (int, float))
            and isinstance(b, (int, float))
            and math.isclose(a, b, rel_tol=FLOAT_TOLERANCE, abs_tol=FLOAT_TOLERANCE)
        )
    return a == b


def _sort_key(row: tuple) -> tuple:
    return tuple(
        (1, round(value, 6)) if isinstance(value, float) else (0, repr(value))
        for value in row
    )


def rows_match(want: list[tuple], got: list[tuple], ordered: bool) -> bool:
    if len(want) != len(got):
        return False
    got = [tuple(row) for row in got]
    has_float = any(isinstance(value, float) for rows in (want, got) for row in rows for value in row)
    if not has_float:
        return want == got if ordered else sorted(want) == sorted(got)
    if not ordered:
        want = sorted(want, key=_sort_key)
        got = sorted(got, key=_sort_key)
    return all(
        len(w) == len(g) and all(_close(a, b) for a, b in zip(w, g))
        for w, g in zip(want, got)
    )


def matches(want: Outcome, got: Outcome, op) -> bool:
    if got.error is not None:
        return False
    if op.kind == "read":
        return got.rows is not None and rows_match(want.rows, got.rows, op.ordered)
    if op.kind == "merge":
        return True
    return got.count == want.count


def check(workload, session_logs: list[list]) -> tuple[list[str], int]:
    """Replay every session's log; returns ``(mismatches, live_user_bytes)``,
    one line per op whose answer differs from sqlite's.

    ``session_logs[s]`` lists ``(op, outcome)`` pairs in the order session
    ``s`` ran them.
    """
    db = load(workload)
    try:
        mismatches: list[str] = []
        # Answers to reads repeat until the next write: memoise them.
        answers: dict[str, Outcome] = {}
        for session, log in enumerate(session_logs):
            for op, outcome in log:
                if op.kind != "read":
                    answers.clear()
                    want = expected(db, op)
                else:
                    want = answers.get(op.sql)
                    if want is None:
                        want = answers[op.sql] = expected(db, op)
                if not matches(want, outcome, op):
                    mismatches.append(f"session {session}: {outcome.error or 'wrong answer'}: {op.sql[:120]}")
        user_bytes = 0
        for table, width in workload.row_bytes.items():
            (count,) = db.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
            user_bytes += count * width
    finally:
        db.close()
    return mismatches, user_bytes
