"""Wire codec of dictionary-encoded result columns.

Random :class:`ResultColumn` / :class:`ServerResult` values must round-trip,
and every malformed result frame — packed blob lengths that disagree with the
tail, codes that are out of range, signed, 2-D or floating point, a tail that
is not bytes, or arbitrary byte corruption — must be refused with
:class:`ProtocolError` and nothing else.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ProtocolError
from repro.net import protocol
from repro.net.protocol import decode_payload, encode_payload
from repro.sql.result import ResultColumn, ServerResult, code_dtype


@st.composite
def result_columns(draw):
    encrypted = draw(st.booleans())
    element = (
        st.binary(min_size=0, max_size=40)
        if encrypted
        else st.one_of(st.integers(-(2**40), 2**40), st.text(max_size=8))
    )
    values = draw(st.lists(element, max_size=12, unique=True))
    codes = None
    if values and draw(st.booleans()):
        codes = np.asarray(
            draw(st.lists(st.integers(0, len(values) - 1), max_size=40)),
            dtype=np.int64,
        )
    return ResultColumn(
        "t", "c", encrypted, values, codes, key_epoch=draw(st.integers(0, 5))
    )


def _same_column(decoded: ResultColumn, column: ResultColumn) -> None:
    assert decoded.encrypted is column.encrypted
    assert decoded.values == column.values
    assert decoded.key_epoch == column.key_epoch
    if column.codes is None:
        assert decoded.codes is None
    else:
        assert decoded.codes.dtype == code_dtype(len(column.values))
        assert decoded.codes.tolist() == column.codes.tolist()
    assert decoded.expand() == column.expand()


@settings(max_examples=150, deadline=None)
@given(result_columns())
def test_result_column_roundtrip(column):
    _same_column(decode_payload(encode_payload(column)), column)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 2**33), max_size=20),
    result_columns(),
)
def test_server_result_roundtrip_widens_record_ids(record_ids, column):
    result = ServerResult("t", np.asarray(record_ids, dtype=np.int64), {"c": column})
    decoded = decode_payload(encode_payload(result))
    assert decoded.record_ids.dtype == np.int64
    assert decoded.record_ids.tolist() == record_ids
    _same_column(decoded.columns["c"], column)


def test_small_record_ids_travel_as_uint32():
    record_ids = np.arange(1000, dtype=np.int64)
    narrow = len(encode_payload(ServerResult("t", record_ids, {})))
    wide = len(encode_payload(ServerResult("t", record_ids + 2**32, {})))
    # Four bytes saved per row; the dtype names differ by a character.
    assert abs((wide - narrow) - 4 * len(record_ids)) <= 8


def _frame(**overrides) -> bytes:
    """A hand-built ResultColumn object frame with some fields replaced."""
    fields = {
        "table_name": "t",
        "column_name": "c",
        "encrypted": True,
        "values": (np.array([2, 3], dtype=np.uint32), b"abcde"),
        "codes": np.array([0, 1, 1], dtype=np.uint8),
        "key_epoch": 0,
    }
    fields.update(overrides)
    out = bytearray()
    protocol._write_object(out, "ResultColumn", fields)
    return bytes(out)


def test_handmade_frame_is_valid():
    column = decode_payload(_frame())
    assert column.values == [b"ab", b"cde"]
    assert column.expand() == [b"ab", b"cde", b"cde"]


MALFORMED = {
    "lengths over tail": {"values": (np.array([2, 4], dtype=np.uint32), b"abcde")},
    "lengths under tail": {"values": (np.array([2, 2], dtype=np.uint32), b"abcde")},
    "signed lengths": {"values": (np.array([2, 3], dtype=np.int32), b"abcde")},
    "tail not bytes": {"values": (np.array([2, 3], dtype=np.uint32), "abcde")},
    "values not a pair": {"values": [b"ab", b"cde"]},
    "plain values not a list": {"encrypted": False, "values": (b"ab",)},
    "encrypted not a bool": {"encrypted": 1},
    "code out of range": {"codes": np.array([0, 2], dtype=np.uint8)},
    "codes with no values": {
        "values": (np.empty(0, dtype=np.uint32), b""),
        "codes": np.array([0], dtype=np.uint8),
    },
    "signed codes": {"codes": np.array([0, 1], dtype=np.int8)},
    "negative codes": {"codes": np.array([0, -1], dtype=np.int64)},
    "2-D codes": {"codes": np.array([[0, 1]], dtype=np.uint8)},
    "float codes": {"codes": np.array([0.0, 1.0])},
    "bool codes": {"codes": np.array([False, True])},
    "codes not an array": {"codes": [0, 1]},
}


@pytest.mark.parametrize("overrides", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_result_column_refused(overrides):
    with pytest.raises(ProtocolError):
        decode_payload(_frame(**overrides))


def test_missing_field_refused():
    out = bytearray()
    protocol._write_object(out, "ResultColumn", {"table_name": "t"})
    with pytest.raises(ProtocolError):
        decode_payload(bytes(out))


def test_non_column_in_server_result_refused():
    out = bytearray()
    protocol._write_object(
        out,
        "ServerResult",
        {"table_name": "t", "record_ids": np.arange(2, dtype=np.uint32), "columns": {"c": [1, 2]}},
    )
    with pytest.raises(ProtocolError):
        decode_payload(bytes(out))


@pytest.mark.parametrize(
    "record_ids",
    [
        np.array([1.0, 2.0]),
        np.array([[1, 2]], dtype=np.int64),
        np.array([1, 2], dtype=np.int16),
        [1, 2],
    ],
    ids=["float", "2-D", "int16", "list"],
)
def test_malformed_record_ids_refused(record_ids):
    out = bytearray()
    protocol._write_object(
        out,
        "ServerResult",
        {"table_name": "t", "record_ids": record_ids, "columns": {}},
    )
    with pytest.raises(ProtocolError):
        decode_payload(bytes(out))


@settings(max_examples=300, deadline=None)
@given(result_columns(), st.data())
def test_corrupted_result_frames_raise_only_protocol_error(column, data):
    frame = bytearray(
        encode_payload(ServerResult("t", np.arange(3, dtype=np.int64), {"c": column}))
    )
    for _ in range(data.draw(st.integers(1, 4))):
        position = data.draw(st.integers(0, len(frame) - 1))
        frame[position] = data.draw(st.integers(0, 255))
    cut = data.draw(st.integers(0, len(frame)))
    try:
        decode_payload(bytes(frame[:cut]))
    except ProtocolError:
        pass
