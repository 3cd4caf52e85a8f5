"""Property-based tests of the binary codecs (events and wire messages)."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.broker import decode_event, decode_message, encode_event, encode_message
from repro.broker import messages as wire
from repro.errors import CodecError
from repro.matching import AttributeType, Event, EventSchema
from repro.matching.digest import MatchDigest
from tests.byte_primitives import ByteWriter

import pytest

SCHEMA = EventSchema(
    [("s", "string"), ("i", "integer"), ("f", "float"), ("d", "dollar"), ("b", "boolean")]
)

safe_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200
)
i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
u64 = st.integers(min_value=0, max_value=2**64 - 1)
u32 = st.integers(min_value=0, max_value=2**32 - 1)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


event_values = st.fixed_dictionaries(
    {
        "s": safe_text,
        "i": i64,
        "f": finite_floats,
        "d": finite_floats,
        "b": st.booleans(),
    }
)


class TestEventCodec:
    @given(values=event_values)
    @settings(max_examples=200)
    def test_roundtrip(self, values):
        event = Event(SCHEMA, values)
        assert decode_event(SCHEMA, encode_event(event)) == event

    @given(values=event_values)
    @settings(max_examples=50)
    def test_truncation_always_detected(self, values):
        data = encode_event(Event(SCHEMA, values))
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                decode_event(SCHEMA, data[:cut])

    @given(values=event_values, trailing=st.binary(min_size=1, max_size=4))
    @settings(max_examples=50)
    def test_trailing_bytes_detected(self, values, trailing):
        data = encode_event(Event(SCHEMA, values))
        with pytest.raises(CodecError):
            decode_event(SCHEMA, data + trailing)


# ----------------------------------------------------------------------
# The compiled per-schema layout, over random schemas.

_numbers = st.one_of(finite_floats, st.integers(min_value=-(2**53), max_value=2**53))
_VALUES_OF = {
    AttributeType.STRING: safe_text,
    AttributeType.INTEGER: i64,
    AttributeType.FLOAT: _numbers,  # integers are accepted and widened
    AttributeType.DOLLAR: _numbers,
    AttributeType.BOOLEAN: st.booleans(),
}


@st.composite
def schema_and_values(draw):
    types = draw(st.lists(st.sampled_from(list(AttributeType)), min_size=1, max_size=8))
    schema = EventSchema([(f"a{i}", kind) for i, kind in enumerate(types)])
    values = {f"a{i}": draw(_VALUES_OF[kind]) for i, kind in enumerate(types)}
    return schema, values


def reference_encoding(event, raw_strings=()):
    """The field-by-field encoding the compiled layout replaced.
    ``raw_strings`` maps attribute names to bytes written in place of the
    value's UTF-8 (to forge malformed strings)."""
    raw_strings = dict(raw_strings)
    writer = ByteWriter()
    for attribute, value in zip(event.schema, event.as_tuple()):
        if attribute.name in raw_strings:
            data = raw_strings[attribute.name]
            writer.u16(len(data)).raw(data)
        elif attribute.type is AttributeType.STRING:
            writer.string(value)
        elif attribute.type is AttributeType.INTEGER:
            writer.i64(value)
        elif attribute.type is AttributeType.BOOLEAN:
            writer.boolean(value)
        else:
            writer.f64(value)
    return writer.getvalue()


class TestCompiledEventCodec:
    @given(drawn=schema_and_values())
    @settings(max_examples=300)
    def test_roundtrip_equals_validated_event_and_reference_bytes(self, drawn):
        schema, values = drawn
        event = Event(schema, values)
        data = encode_event(event)
        assert data == reference_encoding(event)
        decoded = decode_event(schema, data, publisher="P")
        assert decoded == event and decoded.publisher == "P"
        assert decoded.as_tuple() == event.as_tuple()
        # The codec's constructor skips validation; what it builds must be
        # what the validating constructor builds, value types included.
        validated = Event(schema, decoded.values)
        assert decoded == validated and hash(decoded) == hash(validated)
        assert [type(v) for v in decoded] == [type(v) for v in validated]

    @given(drawn=schema_and_values())
    @settings(max_examples=100)
    def test_every_truncation_and_trailing_byte_rejected(self, drawn):
        schema, values = drawn
        data = encode_event(Event(schema, values))
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                decode_event(schema, data[:cut])
        with pytest.raises(CodecError):
            decode_event(schema, data + b"\x00")

    @given(drawn=schema_and_values(), choice=st.integers(min_value=0, max_value=7))
    @settings(max_examples=100)
    def test_invalid_utf8_rejected(self, drawn, choice):
        schema, values = drawn
        strings = [a.name for a in schema if a.type is AttributeType.STRING]
        if not strings:
            return
        forged = reference_encoding(
            Event(schema, values), {strings[choice % len(strings)]: b"\xff\xfe"}
        )
        with pytest.raises(CodecError):
            decode_event(schema, forged)


# Sorted unique id sets spanning both wire encodings: wide spans stay an id
# list, tight clusters cross over to the packed bitmap.
_id_sets = st.one_of(
    st.lists(st.integers(min_value=0, max_value=2**40), unique=True, max_size=12),
    st.lists(st.integers(min_value=1000, max_value=1100), unique=True, max_size=40),
).map(lambda ids: tuple(sorted(ids)))

digests = st.builds(MatchDigest, epoch=u64, checksum=u64, ids=_id_sets)


@st.composite
def broker_event_batches(draw):
    """Entries plus an index-aligned digest table (canonical form: the empty
    tuple whenever no entry carries a digest, matching the decoder)."""
    entries = tuple(
        draw(st.lists(st.tuples(safe_text, st.binary(max_size=200)), max_size=8))
    )
    aligned = tuple(
        draw(st.one_of(st.none(), digests)) for _ in entries
    )
    root = draw(safe_text)
    if any(digest is not None for digest in aligned):
        return wire.BrokerEventBatch(root, entries, aligned)
    return wire.BrokerEventBatch(root, entries)


messages = st.one_of(
    st.builds(wire.Connect, client_name=safe_text.filter(bool), last_seq=u64),
    st.builds(wire.ConnAck, broker_name=safe_text, backlog=u32),
    st.builds(wire.Subscribe, request_id=u32, expression=safe_text),
    st.builds(wire.SubAck, request_id=u32, subscription_id=u64),
    st.builds(wire.Unsubscribe, request_id=u32, subscription_id=u64),
    st.builds(wire.UnsubAck, request_id=u32, subscription_id=u64),
    st.builds(wire.Publish, event_data=st.binary(max_size=500)),
    st.builds(wire.EventDelivery, seq=u64, event_data=st.binary(max_size=500)),
    st.builds(wire.Ack, seq=u64),
    st.builds(wire.Disconnect),
    st.builds(wire.BrokerHello, broker_name=safe_text),
    st.builds(
        wire.BrokerEvent, root=safe_text, publisher=safe_text,
        event_data=st.binary(max_size=500),
        digest=st.one_of(st.none(), digests),
    ),
    broker_event_batches(),
    st.builds(
        wire.PublishBatch,
        events=st.lists(st.binary(max_size=200), max_size=8).map(tuple),
    ),
    st.builds(
        wire.SubPropagate,
        subscription_id=u64, subscriber=safe_text,
        expression=safe_text, origin=safe_text,
    ),
    st.builds(wire.UnsubPropagate, subscription_id=u64, origin=safe_text),
    st.builds(wire.ErrorReply, request_id=u32, reason=safe_text),
)


# Arbitrary bytes; half the draws start with a valid message type byte, so
# they get past the dispatch into a decoder.
junk_payloads = st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda kind, rest: bytes((kind,)) + rest,
        st.sampled_from(sorted(int(kind) for kind in wire.MessageType)),
        st.binary(max_size=64),
    ),
)


class TestMessageCodec:
    @given(message=messages)
    @settings(max_examples=300)
    def test_roundtrip(self, message):
        assert decode_message(encode_message(message)) == message

    @given(message=messages)
    @settings(max_examples=60)
    def test_no_partial_decode(self, message):
        data = encode_message(message)
        for cut in range(len(data)):
            try:
                decoded = decode_message(data[:cut])
            except CodecError:
                continue
            # The only prefixes allowed to decode are (a) one that equals the
            # whole message (possible when trailing fields are empty strings)
            # and (b) the digest-stripped projection of a digest-bearing
            # broker event — the digest is an *optional trailing section*, so
            # a cut at the classic-field boundary decodes as a digest-less
            # message.  That is semantically safe (the digest is a pure
            # optimization; losing it means the next hop rematches), and the
            # transports length-frame every payload so such cuts never occur
            # on a real wire.
            if decoded == message:
                assert cut == len(data)
            else:
                assert decoded == _without_digests(message)

    @given(junk=junk_payloads)
    @settings(max_examples=400)
    def test_junk_never_crashes_decoder(self, junk):
        try:
            decode_message(junk)
        except CodecError:
            pass  # rejection is the expected path

    @given(junk=junk_payloads)
    @settings(max_examples=400)
    def test_junk_event_never_crashes_decoder(self, junk):
        try:
            decode_event(SCHEMA, junk)
        except CodecError:
            pass


def _without_digests(message):
    """The digest-stripped projection of a broker event message."""
    if isinstance(message, wire.BrokerEvent):
        return wire.BrokerEvent(message.root, message.publisher, message.event_data)
    if isinstance(message, wire.BrokerEventBatch):
        return wire.BrokerEventBatch(message.root, message.entries)
    return message


class TestMatchDigestCodec:
    @given(digest=digests)
    @settings(max_examples=300)
    def test_roundtrip(self, digest):
        assert MatchDigest.from_bytes(digest.to_bytes()) == digest

    @given(digest=digests)
    @settings(max_examples=60)
    def test_truncation_always_detected(self, digest):
        data = digest.to_bytes()
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                MatchDigest.from_bytes(data[:cut])

    @given(digest=digests)
    @settings(max_examples=100)
    def test_encoded_size_is_exact(self, digest):
        assert digest.encoded_size_bytes == len(digest.to_bytes())

    @given(digest=digests)
    @settings(max_examples=100)
    def test_dense_form_is_never_larger(self, digest):
        sparse_size = 17 + 4 + 8 * len(digest.ids)
        if digest.dense:
            assert len(digest.to_bytes()) < sparse_size
        else:
            assert len(digest.to_bytes()) == sparse_size
