"""Dictionary-encoded result rendering against a row-order reference.

Every rendered column must expand to exactly the per-row reconstruction from
attribute vector + dictionary (``eD[AV[rid]]``, delta rows from the delta
store), and its frame must be exactly that row-order list with equal entries
deduplicated in first-occurrence order — the frame carries no information
the row-order list did not. Covered: all nine ED kinds and a plaintext
column, one and three main partitions, with and without delta rows, and
RecordID sets that are sorted, shuffled, repeated (join pairs) and empty.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import EncDBDBSystem
from repro.columnstore.column import PlainStoredColumn
from repro.sql.result import code_dtype

KINDS = [f"ED{i}" for i in range(1, 10)]
COLUMNS = [f"c{i}" for i in range(1, 10)] + ["p"]
ROWS = 30
VALUES = [((i * 7) % 11) + 1 for i in range(ROWS)]  # 11 uniques, repeated
DELTA = [3, 3, 5, 12, 1]  # repeats main values and itself


def _deploy(partition_rows, delta, *, load=True):
    system = EncDBDBSystem.create(seed=7)
    specs = ", ".join(f"c{i} {kind} INTEGER" for i, kind in enumerate(KINDS, 1))
    system.execute(f"CREATE TABLE t ({specs}, p INTEGER)")
    if load:
        system.bulk_load(
            "t",
            {name: list(VALUES) for name in COLUMNS},
            partition_rows=partition_rows,
        )
    for value in delta:
        cells = ", ".join([str(value)] * len(COLUMNS))
        system.execute(f"INSERT INTO t VALUES ({cells})")
    return system


def _reference_rows(column, record_ids):
    """Per-row tuple reconstruction, the loop the renderer replaced."""
    if isinstance(column, PlainStoredColumn):
        stores = [(part.attribute_vector, part.dictionary) for part in column.partitions]
        delta = column.delta_values
    else:
        stores = [
            (build.attribute_vector, build.dictionary) for build in column.partition_builds
        ]
        delta = column.delta_blobs
    rows = []
    for rid in record_ids.tolist():
        for attribute_vector, dictionary in stores:
            if rid < len(attribute_vector):
                vid = int(attribute_vector[rid])
                rows.append(
                    dictionary[vid]
                    if isinstance(column, PlainStoredColumn)
                    else dictionary.entry(vid)
                )
                break
            rid -= len(attribute_vector)
        else:
            rows.append(delta[rid])
    return rows


def _record_id_sets(row_count):
    rng = np.random.default_rng(5)
    everything = np.arange(row_count, dtype=np.int64)
    return {
        "all": everything,
        "range": everything[4:23],
        "shuffled": rng.permutation(everything)[: row_count // 2],
        "repeated": np.repeat(everything[::3], 2),
        "empty": np.empty(0, dtype=np.int64),
    }


@pytest.mark.parametrize("delta", [[], DELTA], ids=["no-delta", "delta"])
@pytest.mark.parametrize("partition_rows", [None, 10], ids=["1-part", "3-part"])
def test_render_matches_row_order_reference(partition_rows, delta):
    system = _deploy(partition_rows, delta)
    table = system.server.catalog.table("t")
    assert len(table.column("c1").partition_builds) == (1 if partition_rows is None else 3)
    _check_render(system)


def test_render_delta_only_table():
    system = _deploy(None, DELTA, load=False)
    assert not system.server.catalog.table("t").column("c1").partition_builds
    _check_render(system)


def _check_render(system):
    table = system.server.catalog.table("t")
    executor = system.server.executor
    for label, record_ids in _record_id_sets(len(table.column("c1"))).items():
        for name in COLUMNS:
            column = table.column(name)
            rendered = executor._render_column(table, name, record_ids)
            reference = _reference_rows(column, record_ids)
            where = f"{name} / {label}"
            assert rendered.encrypted is not isinstance(column, PlainStoredColumn), where
            assert rendered.expand() == reference, where
            assert rendered.values == list(dict.fromkeys(reference)), where
            all_distinct = len(set(reference)) == len(reference)
            assert (rendered.codes is None) == all_distinct, where
            if rendered.codes is not None:
                assert rendered.codes.ndim == 1
                assert rendered.codes.dtype == code_dtype(len(rendered.values))


def test_decrypted_results_match_plaintext_through_proxy():
    system = _deploy(10, DELTA)
    truth = VALUES + DELTA
    for name in COLUMNS:
        result = system.query(f"SELECT {name} FROM t WHERE {name} BETWEEN 3 AND 9")
        expected = sorted(value for value in truth if 3 <= value <= 9)
        assert sorted(result.column(name)) == expected, name


def test_out_of_range_record_id_is_refused():
    from repro.exceptions import QueryError

    system = _deploy(None, [])
    table = system.server.catalog.table("t")
    for bad in ([ROWS], [-1]):
        with pytest.raises(QueryError):
            system.server.executor._render_column(
                table, "c3", np.asarray(bad, dtype=np.int64)
            )
