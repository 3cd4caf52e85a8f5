"""Unit tests for the wire-message codec."""

from __future__ import annotations

import pytest

from repro.broker import decode_message, encode_message
from repro.broker import messages as wire
from repro.errors import CodecError
from repro.matching.digest import MatchDigest

ROUNDTRIP_CASES = [
    wire.Connect("alice", 0),
    wire.Connect("bob", 2**40),
    wire.ConnAck("B0", 17),
    wire.Subscribe(1, "issue='IBM' & price<120"),
    wire.SubAck(1, 1_000_001),
    wire.Unsubscribe(2, 1_000_001),
    wire.UnsubAck(2, 1_000_001),
    wire.Publish(b"\x00\x01payload"),
    wire.EventDelivery(99, b"event-bytes"),
    wire.Ack(99),
    wire.Disconnect(),
    wire.BrokerHello("T0.M1"),
    wire.BrokerEvent("T0.L00", "P1", b"\xffdata"),
    wire.SubPropagate(5, "S.T0.L00.01", "a1=1 & a2=*", "T0.L00"),
    wire.UnsubPropagate(5, "T0.L00"),
    wire.ErrorReply(3, "unknown attribute 'nope'"),
]


class TestRoundtrip:
    @pytest.mark.parametrize("message", ROUNDTRIP_CASES, ids=lambda m: type(m).__name__)
    def test_roundtrip(self, message):
        assert decode_message(encode_message(message)) == message

    def test_empty_payload_blob(self):
        assert decode_message(encode_message(wire.Publish(b""))) == wire.Publish(b"")

    def test_unicode_expression(self):
        message = wire.Subscribe(1, "issue='Müller'")
        assert decode_message(encode_message(message)) == message


class TestErrors:
    def test_unknown_type_byte(self):
        with pytest.raises(CodecError):
            decode_message(b"\xf0")

    def test_truncated_payload(self):
        data = encode_message(wire.Connect("alice", 3))
        with pytest.raises(CodecError):
            decode_message(data[:-2])

    def test_trailing_bytes(self):
        data = encode_message(wire.Ack(1))
        with pytest.raises(CodecError):
            decode_message(data + b"\x00")

    def test_non_message_rejected(self):
        with pytest.raises(CodecError):
            encode_message("not a message")  # type: ignore[arg-type]

    def test_empty_input(self):
        with pytest.raises(CodecError):
            decode_message(b"")


class TestFraming:
    def test_type_byte_is_first(self):
        data = encode_message(wire.Ack(1))
        assert data[0] == int(wire.MessageType.ACK)

    def test_distinct_types_have_distinct_bytes(self):
        seen = set()
        for message in ROUNDTRIP_CASES:
            byte = encode_message(message)[0]
            seen.add((type(message), byte))
        type_bytes = [b for _t, b in seen]
        assert len(type_bytes) == len(set(type_bytes))


# One message of each of the 17 types (digest-bearing variants included) with
# the bytes the field-by-field codec of PR 12 and earlier produced for it;
# docs/wire-protocol.md quotes the same table.  A new broker must interoperate
# with an old client, so these never change.
SPARSE = MatchDigest(7, 0xDEADBEEF, (3, 2**33))
DENSE = MatchDigest(7, 0xDEADBEEF, (1000, 1001, 1003, 1010))
GOLDEN = [
    (wire.Connect("alice", 5), "010005616c6963650000000000000005"),
    (wire.ConnAck("B0", 17), "020002423000000011"),
    (wire.Subscribe(1, "issue='Müller'"), "0300000001000f69737375653d274dc3bc6c6c657227"),
    (wire.SubAck(1, 1_000_001), "040000000100000000000f4241"),
    (wire.Unsubscribe(2, 1_000_001), "050000000200000000000f4241"),
    (wire.UnsubAck(2, 1_000_001), "060000000200000000000f4241"),
    (wire.Publish(b"\x00\x01ev"), "070000000400016576"),
    (wire.EventDelivery(99, b"ev"), "080000000000000063000000026576"),
    (wire.Ack(99), "090000000000000063"),
    (wire.Disconnect(), "0a"),
    (wire.BrokerHello("B1"), "0b00024231"),
    (wire.BrokerEvent("B0", "pub", b"ev"), "0c000242300003707562000000026576"),
    (
        wire.BrokerEvent("B0", "pub", b"ev", SPARSE),
        "0c0002423000037075620000000265760000002500000000000000000700000000deadbeef"
        "0000000200000000000000030000000200000000",
    ),
    (wire.SubPropagate(5, "s0", "a1=1", "B0"), "0d000000000000000500027330000461313d3100024230"),
    (wire.UnsubPropagate(5, "B0"), "0e000000000000000500024230"),
    (wire.ErrorReply(3, "nope"), "0f0000000300046e6f7065"),
    (
        wire.BrokerEventBatch("B0", (("p", b"e1"), ("q", b""))),
        "10000242300000000200017000000002653100017100000000",
    ),
    (
        wire.BrokerEventBatch("B0", (("p", b"e1"), ("q", b"")), (None, DENSE)),
        "1000024230000000020001700000000265310001710000000000000001000000010000001f"
        "01000000000000000700000000deadbeef00000000000003e8000000020b04",
    ),
    (wire.PublishBatch((b"e1", b"", b"e3")), "110000000300000002653100000000000000026533"),
]


def _without_digests(message):
    if isinstance(message, wire.BrokerEvent):
        return wire.BrokerEvent(message.root, message.publisher, message.event_data)
    if isinstance(message, wire.BrokerEventBatch):
        return wire.BrokerEventBatch(message.root, message.entries)
    return message


class TestGoldenVectors:
    def test_every_message_type_is_covered(self):
        assert {type(message) for message, _hex in GOLDEN} == set(wire._ENCODERS)
        assert len(wire._ENCODERS) == len(wire._DECODERS) == len(wire.MessageType) == 17

    @pytest.mark.parametrize("message,expected", GOLDEN, ids=lambda v: type(v).__name__)
    def test_bytes_and_roundtrip(self, message, expected):
        assert encode_message(message).hex() == expected
        assert decode_message(bytes.fromhex(expected)) == message

    @pytest.mark.parametrize("message,expected", GOLDEN, ids=lambda v: type(v).__name__)
    def test_every_prefix_and_trailing_byte_rejected(self, message, expected):
        data = bytes.fromhex(expected)
        with pytest.raises(CodecError):
            decode_message(data + b"\x00")
        for cut in range(len(data)):
            try:
                decoded = decode_message(data[:cut])
            except CodecError:
                continue
            # The digest trailer is optional: a cut at the classic-field
            # boundary is the digest-less message (see test_prop_codec).
            assert decoded != message and decoded == _without_digests(message)


class TestValueSemantics:
    """A message is a value: equal to another exactly when the type and every
    field are equal.  (A tuple-based message would compare equal to another
    type with the same fields, and to a plain tuple.)"""

    @pytest.mark.parametrize("message,_hex", GOLDEN, ids=lambda v: type(v).__name__)
    def test_every_type_decodes_to_an_equal_message(self, message, _hex):
        decoded = decode_message(encode_message(message))
        assert decoded == message and type(decoded) is type(message)
        assert repr(decoded) == repr(message)

    def test_equality_depends_on_the_type(self):
        assert wire.SubAck(1, 2) == wire.SubAck(1, 2)
        assert wire.SubAck(1, 2) != wire.UnsubAck(1, 2)
        assert wire.Ack(5) != (5,)
        assert wire.Ack(5) != wire.Ack(6)
        assert wire.Disconnect() == wire.Disconnect()


class TestEncodeRange:
    @pytest.mark.parametrize(
        "message",
        [
            wire.Ack(-1),
            wire.Ack(2**64),
            wire.EventDelivery(2**64, b"ev"),
            wire.Subscribe(2**32, "a1=1"),
            wire.SubAck(1, -5),
            wire.Connect("alice", 2**64),
            wire.ConnAck("B0", 2**32),
        ],
        ids=repr,
    )
    def test_out_of_range_field_is_a_codec_error(self, message):
        with pytest.raises(CodecError):
            encode_message(message)

    def test_flat_message_names_the_field(self):
        with pytest.raises(CodecError, match="request_id"):
            encode_message(wire.Subscribe(2**32, "a1=1"))

    def test_string_too_long(self):
        with pytest.raises(CodecError, match="too long"):
            encode_message(wire.BrokerHello("x" * 70_000))
        with pytest.raises(CodecError, match="too long"):
            encode_message(wire.BrokerEvent("x" * 70_000, "p", b""))
