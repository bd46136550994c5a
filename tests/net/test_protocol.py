"""Wire codec and framing tests (no sockets involved)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import AttestationError, ProtocolError
from repro.net.protocol import (
    HEADER,
    MAGIC,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameType,
    decode_payload,
    encode_frame,
    encode_payload,
    parse_header,
    read_frame,
)
from repro.columnstore.types import ColumnSpec, parse_type
from repro.encdict.options import ED1, ED5, kind_by_name
from repro.sgx.attestation import Quote
from repro.sql.ast_nodes import Aggregate, OrderItem
from repro.sql.planner import (
    EncryptedRangeFilter,
    FilterNode,
    PostProcessing,
    RangeFilter,
    SelectPlan,
)
from repro.sql.result import ResultColumn, ServerResult


def roundtrip(value):
    return decode_payload(encode_payload(value))


# ----------------------------------------------------------------------
# Scalar and container round trips
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -1,
        2**2048 - 1,  # a DH public value
        -(2**70),
        3.25,
        "hello",
        "späße",
        b"\x00\xffciphertext",
        [1, "two", None],
        (1, 2, 3),
        {"a": 1, 2: "b", b"k": [True]},
        {"nested": {"deep": [(1, b"x")]}},
    ],
)
def test_scalar_roundtrip(value):
    assert roundtrip(value) == value


def test_tuple_and_list_are_distinguished():
    assert roundtrip((1, 2)) == (1, 2)
    assert isinstance(roundtrip((1, 2)), tuple)
    assert isinstance(roundtrip([1, 2]), list)


@pytest.mark.parametrize(
    "array",
    [
        np.arange(10, dtype=np.int64),
        np.array([], dtype=np.int32),
        np.arange(6, dtype=np.float64).reshape(2, 3),
        np.frombuffer(b"\x01\x00\xfe", dtype=np.uint8),
    ],
)
def test_ndarray_roundtrip(array):
    decoded = roundtrip(array)
    assert decoded.dtype == array.dtype
    assert decoded.shape == array.shape
    assert np.array_equal(decoded, array)


def test_numpy_scalars_decay_to_python():
    assert roundtrip(np.int64(7)) == 7
    assert isinstance(roundtrip(np.int64(7)), int)
    assert roundtrip(np.float64(1.5)) == 1.5


def test_object_dtype_rejected():
    with pytest.raises(ProtocolError):
        encode_payload(np.array([object()], dtype=object))


# ----------------------------------------------------------------------
# Registered dataclasses
# ----------------------------------------------------------------------


def test_column_spec_roundtrip():
    spec = ColumnSpec("age", parse_type("INTEGER"), ED1)
    decoded = roundtrip(spec)
    assert decoded.name == "age"
    assert decoded.protection is ED1
    assert decoded.value_type.sql_name == "INTEGER"
    assert decoded.bsmax == spec.bsmax

    varchar = ColumnSpec("name", parse_type("VARCHAR(30)"), ED5, 4)
    decoded = roundtrip(varchar)
    assert decoded.bsmax == 4
    assert decoded.value_type.sql_name == "VARCHAR(30)"


def test_kind_roundtrip():
    assert roundtrip(ED5) is kind_by_name("ED5")


def test_select_plan_roundtrip():
    plan = SelectPlan(
        table="people",
        needed_columns=["name", "age"],
        filter=FilterNode(
            "and",
            [
                EncryptedRangeFilter("name", (b"\x01tau-lo", b"\x02tau-hi"), False),
                RangeFilter("age", 30, True, 50, False, False),
            ],
        ),
        post=PostProcessing(
            items=[Aggregate("count", "*")],
            group_by=["name"],
            order_by=[OrderItem("name", True)],
            limit=5,
            distinct=True,
        ),
    )
    decoded = roundtrip(plan)
    assert decoded.table == "people"
    assert decoded.filter.operator == "and"
    assert decoded.filter.children[0].tau == (b"\x01tau-lo", b"\x02tau-hi")
    assert decoded.post.order_by[0].descending is True
    assert decoded.post.items[0].function == "count"


def test_server_result_roundtrip():
    result = ServerResult(
        table_name="t",
        record_ids=np.array([3, 1, 4], dtype=np.int64),
        columns={
            "c": ResultColumn(
                "t", "c", True, [b"ct-1", b"ct-2"], np.array([0, 1, 0], dtype=np.uint8)
            ),
        },
    )
    decoded = roundtrip(result)
    assert np.array_equal(decoded.record_ids, result.record_ids)
    assert decoded.record_ids.dtype == np.int64
    assert decoded.columns["c"].encrypted is True
    assert decoded.columns["c"].values == [b"ct-1", b"ct-2"]
    assert decoded.columns["c"].expand() == [b"ct-1", b"ct-2", b"ct-1"]


def test_unregistered_type_rejected_on_encode():
    class Unknown:
        pass

    with pytest.raises(ProtocolError, match="not registered"):
        encode_payload(Unknown())


def test_unregistered_type_rejected_on_decode():
    # Hand-craft an object frame naming a type the registry does not know.
    out = bytearray([0x0B])  # _T_OBJECT
    name = b"EvilType"
    out += len(name).to_bytes(4, "big") + name
    out += (0).to_bytes(4, "big")
    with pytest.raises(ProtocolError, match="unregistered wire type"):
        decode_payload(bytes(out))


def test_unexpected_field_rejected_on_decode():
    # A registered wire type with a field outside its allowlist must not
    # decode (no attribute smuggling through known types).
    out = bytearray([0x0B])  # _T_OBJECT
    name = b"OrderItem"
    out += len(name).to_bytes(4, "big") + name
    out += (1).to_bytes(4, "big")
    field = b"__class__"
    out += len(field).to_bytes(4, "big") + field
    out += encode_payload("repro.evil")
    with pytest.raises(ProtocolError, match="unexpected field"):
        decode_payload(bytes(out))


# ----------------------------------------------------------------------
# Quotes
# ----------------------------------------------------------------------


def test_quote_wire_roundtrip():
    quote = Quote(
        measurement=b"m" * 32, report_data=b"r" * 256, signature=b"sig-bytes"
    )
    decoded = roundtrip(quote)
    assert decoded.measurement == quote.measurement
    assert decoded.report_data == quote.report_data
    assert decoded.signature == quote.signature


def test_quote_from_wire_rejects_truncation():
    quote = Quote(measurement=b"m" * 32, report_data=b"r" * 256, signature=b"s" * 4)
    wire = quote.to_wire()
    with pytest.raises(AttestationError):
        Quote.from_wire(wire[:-1])
    with pytest.raises(AttestationError):
        Quote.from_wire(wire + b"\x00")


# ----------------------------------------------------------------------
# Framing and hostile input
# ----------------------------------------------------------------------


def test_frame_roundtrip():
    payload = encode_payload({"method": "table_names"})
    frame = encode_frame(FrameType.QUERY, payload)
    chunks = [frame]

    def read_exact(n):
        data = chunks[0][:n]
        chunks[0] = chunks[0][n:]
        return data

    frame_type, raw = read_frame(read_exact)
    assert frame_type is FrameType.QUERY
    assert decode_payload(raw) == {"method": "table_names"}


def test_bad_magic_rejected():
    with pytest.raises(ProtocolError, match="magic"):
        parse_header(b"HTTP" + bytes(HEADER.size - 4))


def test_version_mismatch_rejected():
    header = HEADER.pack(MAGIC, PROTOCOL_VERSION + 1, int(FrameType.HELLO), 0)
    with pytest.raises(ProtocolError, match="version mismatch"):
        parse_header(header)


def test_unknown_frame_type_rejected():
    header = HEADER.pack(MAGIC, PROTOCOL_VERSION, 99, 0)
    with pytest.raises(ProtocolError, match="unknown frame type"):
        parse_header(header)


def test_oversized_announcement_rejected():
    header = HEADER.pack(
        MAGIC, PROTOCOL_VERSION, int(FrameType.QUERY), MAX_FRAME_BYTES + 1
    )
    with pytest.raises(ProtocolError, match="exceeds"):
        parse_header(header)


def test_truncated_payload_rejected():
    payload = encode_payload([1, 2, 3])
    with pytest.raises(ProtocolError):
        decode_payload(payload[:-1])


def test_trailing_bytes_rejected():
    with pytest.raises(ProtocolError, match="trailing"):
        decode_payload(encode_payload(1) + b"\x00")


def test_huge_collection_count_rejected_before_allocation():
    # A list header claiming 2**31 elements in a 5-byte payload.
    evil = bytes([0x07]) + (2**31).to_bytes(4, "big")
    with pytest.raises(ProtocolError, match="count exceeds"):
        decode_payload(evil)


def test_nesting_depth_bounded():
    evil = bytes([0x07]) + (1).to_bytes(4, "big")  # [ [ [ ...
    payload = evil * 100 + bytes([0x00])
    with pytest.raises(ProtocolError, match="nesting too deep"):
        decode_payload(payload)
