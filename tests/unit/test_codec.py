"""Unit tests for the binary event codec and byte primitives."""

from __future__ import annotations

import pytest

from repro.broker import decode_event, encode_event
from repro.errors import CodecError
from repro.matching import Event, EventSchema
from tests.byte_primitives import ByteReader, ByteWriter


class TestBytePrimitives:
    def test_integer_roundtrips(self):
        writer = ByteWriter().u8(255).u16(65535).u32(4_000_000_000).u64(2**63)
        writer.i64(-42)
        reader = ByteReader(writer.getvalue())
        assert reader.u8() == 255
        assert reader.u16() == 65535
        assert reader.u32() == 4_000_000_000
        assert reader.u64() == 2**63
        assert reader.i64() == -42
        assert reader.exhausted

    def test_float_roundtrip(self):
        data = ByteWriter().f64(119.25).getvalue()
        assert ByteReader(data).f64() == 119.25

    def test_boolean_roundtrip(self):
        data = ByteWriter().boolean(True).boolean(False).getvalue()
        reader = ByteReader(data)
        assert reader.boolean() is True
        assert reader.boolean() is False

    def test_string_roundtrip(self):
        data = ByteWriter().string("héllo wörld").getvalue()
        assert ByteReader(data).string() == "héllo wörld"

    def test_empty_string(self):
        data = ByteWriter().string("").getvalue()
        assert ByteReader(data).string() == ""

    def test_oversized_string_rejected(self):
        with pytest.raises(CodecError):
            ByteWriter().string("x" * 70_000)

    def test_truncated_read(self):
        reader = ByteReader(b"\x00")
        with pytest.raises(CodecError):
            reader.u32()

    def test_truncated_string(self):
        data = ByteWriter().u16(10).getvalue() + b"abc"
        with pytest.raises(CodecError):
            ByteReader(data).string()

    def test_invalid_utf8(self):
        data = ByteWriter().u16(2).getvalue() + b"\xff\xfe"
        with pytest.raises(CodecError):
            ByteReader(data).string()

    def test_expect_exhausted(self):
        reader = ByteReader(b"\x01\x02")
        reader.u8()
        with pytest.raises(CodecError):
            reader.expect_exhausted()


class TestEventCodec:
    def test_stock_event_roundtrip(self, stock_schema, ibm_event):
        data = encode_event(ibm_event)
        decoded = decode_event(stock_schema, data)
        assert decoded == ibm_event

    def test_publisher_passthrough(self, stock_schema, ibm_event):
        decoded = decode_event(stock_schema, encode_event(ibm_event), publisher="P1")
        assert decoded.publisher == "P1"

    def test_all_types_roundtrip(self):
        schema = EventSchema(
            [("s", "string"), ("i", "integer"), ("f", "float"), ("d", "dollar"), ("b", "boolean")]
        )
        event = Event(schema, {"s": "x", "i": -7, "f": 2.5, "d": 0.01, "b": True})
        assert decode_event(schema, encode_event(event)) == event

    def test_integer_event_roundtrip(self, schema5):
        event = Event.from_tuple(schema5, (0, 1, 2, 3, 4))
        assert decode_event(schema5, encode_event(event)) == event

    def test_negative_and_large_integers(self, schema5):
        event = Event.from_tuple(schema5, (-(2**62), 2**62, 0, -1, 1))
        assert decode_event(schema5, encode_event(event)).as_tuple() == event.as_tuple()

    def test_wrong_schema_rejected(self, stock_schema, schema5):
        event = Event.from_tuple(schema5, (1, 2, 3, 4, 5))
        data = encode_event(event)
        with pytest.raises(CodecError):
            decode_event(stock_schema, data)

    def test_trailing_bytes_rejected(self, schema5):
        event = Event.from_tuple(schema5, (1, 2, 3, 4, 5))
        with pytest.raises(CodecError):
            decode_event(schema5, encode_event(event) + b"\x00")

    def test_truncated_event_rejected(self, schema5):
        event = Event.from_tuple(schema5, (1, 2, 3, 4, 5))
        with pytest.raises(CodecError):
            decode_event(schema5, encode_event(event)[:-1])

    def test_encoding_is_deterministic(self, ibm_event):
        assert encode_event(ibm_event) == encode_event(ibm_event)


ALL_TYPES = EventSchema(
    [("s", "string"), ("i", "integer"), ("f", "float"), ("d", "dollar"), ("b", "boolean")]
)
# Bytes produced by the field-by-field codec of PR 12 and earlier (quoted in
# docs/wire-protocol.md); the compiled per-schema layout must reproduce them.
GOLDEN_EVENTS = [
    (
        ALL_TYPES,
        {"s": "IBM", "i": -7, "f": 2.5, "d": 119, "b": True},
        "000349424dfffffffffffffff94004000000000000405dc0000000000001",
    ),
    (
        ALL_TYPES,
        {"s": "", "i": 2**63 - 1, "f": -0.0, "d": 0.01, "b": False},
        "00007fffffffffffffff80000000000000003f847ae147ae147b00",
    ),
    (
        ALL_TYPES,
        {"s": "é✓", "i": -(2**63), "f": 1e300, "d": 7, "b": True},
        "0005c3a9e29c9380000000000000007e37e43c8800759c401c00000000000001",
    ),
    (
        EventSchema([("a", "integer"), ("b", "integer"), ("c", "boolean")]),
        {"a": 1, "b": -2, "c": False},
        "0000000000000001fffffffffffffffe00",
    ),
    (
        EventSchema([("issue", "string"), ("price", "dollar"), ("volume", "integer")]),
        {"issue": "IBM", "price": 119.5, "volume": 2000},
        "000349424d405de0000000000000000000000007d0",
    ),
]


class TestCompiledLayout:
    @pytest.mark.parametrize("schema,values,expected", GOLDEN_EVENTS)
    def test_golden_vectors(self, schema, values, expected):
        event = Event(schema, values)
        assert encode_event(event).hex() == expected
        assert decode_event(schema, bytes.fromhex(expected)) == event

    def test_any_nonzero_byte_is_true(self):
        schema = EventSchema([("b", "boolean")])
        assert decode_event(schema, b"\x02").as_tuple() == (True,)

    def test_layout_is_cached_on_the_schema(self):
        schema = EventSchema([("s", "string"), ("i", "integer")])
        assert schema.wire_plan is None
        encode_event(Event(schema, {"s": "x", "i": 1}))
        plan = schema.wire_plan
        assert plan is not None
        decode_event(schema, encode_event(Event(schema, {"s": "y", "i": 2})))
        assert schema.wire_plan is plan

    def test_schema_with_a_compiled_layout_still_pickles(self):
        import pickle

        event = Event(ALL_TYPES, GOLDEN_EVENTS[0][1])
        encode_event(event)
        clone = pickle.loads(pickle.dumps(ALL_TYPES))
        assert clone == ALL_TYPES
        assert encode_event(Event(clone, GOLDEN_EVENTS[0][1])) == encode_event(event)

    def test_out_of_range_integer_names_the_attribute(self, schema5):
        event = Event.from_tuple(schema5, (1, 2, 2**63, 4, 5))
        with pytest.raises(CodecError, match="a3"):
            encode_event(event)

    def test_string_too_long(self):
        schema = EventSchema([("i", "integer"), ("s", "string")])
        with pytest.raises(CodecError, match="too long"):
            encode_event(Event(schema, {"i": 1, "s": "x" * 70_000}))

    def test_string_length_past_the_end_is_truncation(self):
        schema = EventSchema([("s", "string"), ("i", "integer")])
        with pytest.raises(CodecError, match="truncated"):
            decode_event(schema, b"\x00\x09abc")

    def test_decoded_event_behaves_like_a_validated_one(self, stock_schema, ibm_event):
        decoded = decode_event(stock_schema, encode_event(ibm_event))
        assert decoded.values == ibm_event.values
        assert decoded["issue"] == ibm_event["issue"]
        assert decoded.with_metadata(publisher="P", sequence=3) == ibm_event
        assert decoded.event_id != ibm_event.event_id
        assert decoded.publisher is None and decoded.sequence is None
