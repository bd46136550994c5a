"""Result rendering (paper §4.2 steps 12-13).

The server's result renderer resolves every matching RecordID to its
dictionary entry — ``eC = (eD[AV[i]] for i in rid)`` — and ships the column
dictionary-encoded, as the paper stores it: each distinct entry once plus a
row -> entry code vector. It attaches the table and column metadata the
proxy needs to derive each column's key and decrypt. Encrypted columns come
back as PAE blobs, plaintext columns as values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np


def code_dtype(distinct: int) -> np.dtype:
    """The narrowest unsigned dtype whose codes can index ``distinct`` values."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if distinct <= np.iinfo(dtype).max + 1:
            return np.dtype(dtype)
    return np.dtype(np.uint64)


@dataclass
class ResultColumn:
    """One rendered column of a result set, dictionary-encoded.

    Row ``i`` of the column is ``values[codes[i]]``. ``values`` holds each
    distinct PAE blob (``encrypted``) or plaintext value once, in
    first-occurrence row order, so the frame is exactly the row-order list
    with equal entries deduplicated — blob equality is visible in the
    row-order list anyway, so the encoding tells no observer anything new.
    """

    table_name: str
    column_name: str
    encrypted: bool
    #: Distinct PAE blobs when ``encrypted`` else distinct plaintext values.
    values: list
    #: Row -> index into ``values`` (1-D unsigned ndarray); ``None`` means
    #: one distinct value per row, in row order.
    codes: np.ndarray | None = None
    #: Storage-key epoch the blobs are sealed under (0 until a key rotation
    #: has finalized); the proxy derives the matching column key from it.
    key_epoch: int = 0

    def __len__(self) -> int:
        return len(self.values) if self.codes is None else len(self.codes)

    def expand(self, values: list | None = None) -> list:
        """Row-order list of ``values`` (default: this column's values)
        under this column's codes — the proxy expands decrypted values."""
        values = self.values if values is None else values
        if self.codes is None:
            return list(values)
        return list(map(values.__getitem__, self.codes.tolist()))


@dataclass
class ServerResult:
    """What the DBaaS provider returns for one SELECT/DELETE/UPDATE read."""

    table_name: str
    record_ids: np.ndarray
    columns: dict[str, ResultColumn] = field(default_factory=dict)

    @property
    def row_count(self) -> int:
        return len(self.record_ids)


@dataclass(frozen=True)
class RoutingDecision:
    """One cost-based pushdown routing decision (analytics pushdown, PR 9).

    The server records, per post-processing clause, whether the clause was
    pushed into the enclave and why (or why not) — decisions travel back
    with the result and render in EXPLAIN. Reasons are structural/cost facts
    only (kinds, partition counts, estimated cycles), never values.
    """

    clause: str
    pushed: bool
    reason: str


@dataclass(frozen=True)
class AggregateFrames:
    """Pushed-down aggregation output: padded, PAE-encrypted group frames.

    Each frame seals one group's key and aggregate states (AVG as a
    sum+count pair) under the table's aggregate transit key. All frames of
    one response share a single byte length and the frame *count* is padded
    to the next power of two with indistinguishable dummy frames, so the
    wire reveals only an upper bound on the group cardinality — never row
    sets (DESIGN.md §14).
    """

    table_name: str
    #: ``None`` for a global (ungrouped) aggregate.
    group_column: str | None
    #: Aggregate output labels, in per-frame state order.
    labels: tuple[str, ...]
    frames: tuple[bytes, ...]


@dataclass(frozen=True)
class PushdownSelectResult:
    """What ``execute_select_pushdown`` returns: decisions + one payload.

    Exactly one of ``aggregate`` / ``rows`` is set. ``ordered`` marks a row
    payload that was already ordinal-ordered and LIMIT-truncated server-side
    (the proxy still re-sorts and re-limits the survivors — both are
    idempotent on an already-ordered prefix).
    """

    decisions: tuple[RoutingDecision, ...]
    aggregate: AggregateFrames | None = None
    rows: ServerResult | None = None
    ordered: bool = False


@dataclass
class QueryResult:
    """What the application finally receives from the proxy."""

    column_names: list[str]
    rows: list[tuple]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalar(self) -> Any:
        """Convenience for single-cell results (e.g. ``COUNT(*)``)."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ValueError("result is not a single scalar")
        return self.rows[0][0]

    def column(self, name: str) -> list:
        index = self.column_names.index(name)
        return [row[index] for row in self.rows]
