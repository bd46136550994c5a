"""QueryResult / ServerResult behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sql.result import QueryResult, ResultColumn, ServerResult


def test_query_result_iteration_and_len():
    result = QueryResult(["a", "b"], [(1, "x"), (2, "y")])
    assert len(result) == 2
    assert list(result) == [(1, "x"), (2, "y")]


def test_scalar():
    assert QueryResult(["n"], [(42,)]).scalar() == 42
    with pytest.raises(ValueError):
        QueryResult(["n"], []).scalar()
    with pytest.raises(ValueError):
        QueryResult(["n", "m"], [(1, 2)]).scalar()
    with pytest.raises(ValueError):
        QueryResult(["n"], [(1,), (2,)]).scalar()


def test_column_extraction():
    result = QueryResult(["a", "b"], [(1, "x"), (2, "y")])
    assert result.column("a") == [1, 2]
    assert result.column("b") == ["x", "y"]
    with pytest.raises(ValueError):
        result.column("missing")


def test_server_result_row_count():
    result = ServerResult("t", np.array([3, 7], dtype=np.int64))
    assert result.row_count == 2
    column = ResultColumn("t", "c", encrypted=True, values=[b"x", b"y"])
    result.columns["c"] = column
    assert len(result.columns["c"]) == 2
    coded = ResultColumn(
        "t", "c", encrypted=True, values=[b"x"], codes=np.zeros(2, dtype=np.uint8)
    )
    assert len(coded) == 2
    assert coded.expand() == [b"x", b"x"]
