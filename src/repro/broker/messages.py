"""Wire messages of the client and broker protocols (Figure 7).

Messages are dataclasses with a compact binary encoding (one type byte plus
typed fields — see :mod:`repro.broker.codec`).  Framing (length prefix) is
the transport's job; this module converts between message objects and
payload bytes.

Client protocol: ``CONNECT``/``CONNACK`` (with resume point for reliable
redelivery), ``SUBSCRIBE``/``SUBACK``, ``UNSUBSCRIBE``/``UNSUBACK``,
``PUBLISH`` (client → broker), ``EVENT`` (broker → client, sequenced) and
``ACK`` (client → broker, drives log garbage collection).

Broker protocol: ``BROKER_EVENT`` (an event in transit on a spanning tree),
``SUB_PROPAGATE``/``UNSUB_PROPAGATE`` (replicating the subscription set to
every broker, flooded with origin-based deduplication) and ``BROKER_HELLO``
(identifying the dialing broker when a broker-broker connection opens).
"""

from __future__ import annotations

import dataclasses
import enum
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import CodecError
from repro.broker.codec import WirePlan, utf8_field
from repro.matching.digest import MatchDigest


class MessageType(enum.IntEnum):
    CONNECT = 1
    CONNACK = 2
    SUBSCRIBE = 3
    SUBACK = 4
    UNSUBSCRIBE = 5
    UNSUBACK = 6
    PUBLISH = 7
    EVENT = 8
    ACK = 9
    DISCONNECT = 10
    BROKER_HELLO = 11
    BROKER_EVENT = 12
    SUB_PROPAGATE = 13
    UNSUB_PROPAGATE = 14
    ERROR = 15
    BROKER_EVENT_BATCH = 16
    PUBLISH_BATCH = 17


@dataclass
class Connect:
    """Client → broker: open (or resume) a session.

    ``last_seq`` is the highest event sequence number the client has safely
    processed; the broker redelivers everything after it.
    """

    client_name: str
    last_seq: int = 0


@dataclass
class ConnAck:
    broker_name: str
    backlog: int  # events about to be redelivered


@dataclass
class Subscribe:
    request_id: int
    expression: str


@dataclass
class SubAck:
    request_id: int
    subscription_id: int


@dataclass
class Unsubscribe:
    request_id: int
    subscription_id: int


@dataclass
class UnsubAck:
    request_id: int
    subscription_id: int


@dataclass
class Publish:
    event_data: bytes


@dataclass
class EventDelivery:
    seq: int
    event_data: bytes


@dataclass
class Ack:
    seq: int


@dataclass
class Disconnect:
    pass


@dataclass
class BrokerHello:
    broker_name: str


@dataclass
class BrokerEvent:
    """An event in transit on a spanning tree.

    ``digest`` is the optional match-once forwarding summary (see
    :mod:`repro.matching.digest`): the matched-subscription set computed at
    the publisher's broker, which downstream brokers project straight onto
    their links instead of rematching.  On the wire it is a trailing
    section, absent when ``None`` — pre-digest payloads decode unchanged.
    """

    root: str
    publisher: str
    event_data: bytes
    digest: Optional[MatchDigest] = None


@dataclass
class BrokerEventBatch:
    """A coalesced batch of events in transit on one spanning tree.

    Emitted when a broker's batched route decides to forward several events
    over the same link: one wire message (and one framing/syscall round)
    carries them all.  ``entries`` are ``(publisher, event_data)`` pairs in
    arrival order.  ``digests`` aligns by index with ``entries`` when
    non-empty (the empty default means "no entry carries a digest"); on the
    wire the digest table is a trailing section listing only the entries
    that have one, so pre-digest payloads decode unchanged.
    """

    root: str
    entries: Tuple[Tuple[str, bytes], ...]
    digests: Tuple[Optional[MatchDigest], ...] = ()

    def digest_for(self, index: int) -> Optional[MatchDigest]:
        """The digest of entry ``index`` (``None`` when the batch carries no
        digest table)."""
        return self.digests[index] if self.digests else None


@dataclass
class PublishBatch:
    """Client → broker: publish several events in one message.

    The broker enqueues all of them and drains its ingest queue through the
    batched matching path.
    """

    events: Tuple[bytes, ...]


@dataclass
class SubPropagate:
    subscription_id: int
    subscriber: str
    expression: str
    origin: str  # broker that accepted the subscription


@dataclass
class UnsubPropagate:
    subscription_id: int
    origin: str


@dataclass
class ErrorReply:
    request_id: int
    reason: str


# ----------------------------------------------------------------------
# The codec: one encoder per message class, one decoder per type byte.
#
# A *flat* message (scalars and strings only) is one WirePlan record whose
# first field is the type byte.  The messages that carry event payloads are
# written out by hand over precompiled header layouts: they are the per-event
# traffic, and their shape (blobs, repeated entries, optional digest
# trailers) is not a flat record.

Encoder = Callable[[Any], bytes]
Decoder = Callable[[bytes], object]
_ENCODERS: Dict[type, Encoder] = {}
_DECODERS: Dict[int, Decoder] = {}

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_PUBLISH_HEAD = struct.Struct(">BI")  # type, payload length (or batch count)
_EVENT_HEAD = struct.Struct(">BQI")  # type, seq, payload length
_ACK_LAYOUT = struct.Struct(">BQ")  # type, seq
# Type bytes of the per-event messages as plain values (an enum attribute
# lookup per encode costs as much as the pack itself).
_PUBLISH = int(MessageType.PUBLISH)
_EVENT = int(MessageType.EVENT)
_ACK = int(MessageType.ACK)
_PUBLISH_BATCH = int(MessageType.PUBLISH_BATCH)
_BROKER_EVENT = bytes((MessageType.BROKER_EVENT,))
_BROKER_EVENT_BATCH = bytes((MessageType.BROKER_EVENT_BATCH,))


def _register(cls: type, message_type: MessageType, encode: Encoder, decode: Decoder) -> None:
    _ENCODERS[cls] = encode
    _DECODERS[int(message_type)] = decode


def _register_flat(cls: type, message_type: MessageType, codes: str) -> None:
    """A message whose dataclass fields are, in order, the wire fields
    ``codes`` (see :class:`~repro.broker.codec.WirePlan`)."""
    names = tuple(field.name for field in dataclasses.fields(cls))
    plan = WirePlan(("type",) + names, "B" + codes)
    type_byte = int(message_type)
    _register(
        cls,
        message_type,
        lambda message: plan.pack([type_byte] + [getattr(message, name) for name in names]),
        lambda payload: cls(*plan.unpack(payload)[1:]),
    )


_register_flat(Connect, MessageType.CONNECT, "sQ")
_register_flat(ConnAck, MessageType.CONNACK, "sI")
_register_flat(Subscribe, MessageType.SUBSCRIBE, "Is")
_register_flat(SubAck, MessageType.SUBACK, "IQ")
_register_flat(Unsubscribe, MessageType.UNSUBSCRIBE, "IQ")
_register_flat(UnsubAck, MessageType.UNSUBACK, "IQ")
_register_flat(Disconnect, MessageType.DISCONNECT, "")
_register_flat(BrokerHello, MessageType.BROKER_HELLO, "s")
_register_flat(SubPropagate, MessageType.SUB_PROPAGATE, "Qsss")
_register_flat(UnsubPropagate, MessageType.UNSUB_PROPAGATE, "Qs")
_register_flat(ErrorReply, MessageType.ERROR, "Is")


def _string(value: str) -> bytes:
    data = utf8_field(value)
    return _U16.pack(len(data)) + data


def _blob(data: bytes) -> bytes:
    return _U32.pack(len(data)) + data


def _take(payload: bytes, offset: int, length: int) -> Tuple[bytes, int]:
    end = offset + length
    if end > len(payload):
        raise CodecError(
            f"truncated message: wanted {length} bytes at offset {offset}, "
            f"have {len(payload) - offset}"
        )
    return payload[offset:end], end


def _read_string(payload: bytes, offset: int) -> Tuple[str, int]:
    (length,) = _U16.unpack_from(payload, offset)
    data, end = _take(payload, offset + 2, length)
    return str(data, "utf-8"), end


def _read_blob(payload: bytes, offset: int) -> Tuple[bytes, int]:
    (length,) = _U32.unpack_from(payload, offset)
    return _take(payload, offset + 4, length)


def _expect_end(payload: bytes, offset: int) -> None:
    if offset != len(payload):
        raise CodecError(f"{len(payload) - offset} trailing bytes after message payload")


def _final_blob(payload: bytes, offset: int, length: int) -> bytes:
    """The ``length`` bytes at ``offset``, which must end the payload."""
    if offset + length != len(payload):
        _expect_end(payload, _take(payload, offset, length)[1])
    return payload[offset:]


def _encode_publish(message: Publish) -> bytes:
    data = message.event_data
    return _PUBLISH_HEAD.pack(_PUBLISH, len(data)) + data


def _decode_publish(payload: bytes) -> Publish:
    _type, length = _PUBLISH_HEAD.unpack_from(payload)
    return Publish(_final_blob(payload, _PUBLISH_HEAD.size, length))


def _encode_event_delivery(message: EventDelivery) -> bytes:
    data = message.event_data
    return _EVENT_HEAD.pack(_EVENT, message.seq, len(data)) + data


def _decode_event_delivery(payload: bytes) -> EventDelivery:
    _type, seq, length = _EVENT_HEAD.unpack_from(payload)
    return EventDelivery(seq, _final_blob(payload, _EVENT_HEAD.size, length))


def _encode_ack(message: Ack) -> bytes:
    return _ACK_LAYOUT.pack(_ACK, message.seq)


def _decode_ack(payload: bytes) -> Ack:
    _type, seq = _ACK_LAYOUT.unpack_from(payload)
    _expect_end(payload, _ACK_LAYOUT.size)
    return Ack(seq)


def _encode_broker_event(message: BrokerEvent) -> bytes:
    digest = message.digest
    return b"".join(
        (
            _BROKER_EVENT,
            _string(message.root),
            _string(message.publisher),
            _blob(message.event_data),
            b"" if digest is None else _blob(digest.to_bytes()),
        )
    )


def _decode_broker_event(payload: bytes) -> BrokerEvent:
    root, offset = _read_string(payload, 1)
    publisher, offset = _read_string(payload, offset)
    event_data, offset = _read_blob(payload, offset)
    if offset == len(payload):
        return BrokerEvent(root, publisher, event_data)
    (length,) = _U32.unpack_from(payload, offset)
    digest = MatchDigest.from_bytes(_final_blob(payload, offset + 4, length))
    return BrokerEvent(root, publisher, event_data, digest)


def _encode_broker_event_batch(message: BrokerEventBatch) -> bytes:
    entries, digests = message.entries, message.digests
    parts = [_BROKER_EVENT_BATCH, _string(message.root), _U32.pack(len(entries))]
    for publisher, event_data in entries:
        parts += (_string(publisher), _blob(event_data))
    if digests and len(digests) != len(entries):
        raise CodecError(
            f"digest table length {len(digests)} does not match {len(entries)} batch entries"
        )
    carried = [
        _U32.pack(index) + _blob(digest.to_bytes())
        for index, digest in enumerate(digests)
        if digest is not None
    ]
    if carried:
        parts.append(_U32.pack(len(carried)))
        parts += carried
    return b"".join(parts)


def _decode_broker_event_batch(payload: bytes) -> BrokerEventBatch:
    root, offset = _read_string(payload, 1)
    (count,) = _U32.unpack_from(payload, offset)
    offset += 4
    entries = []
    for _ in range(count):
        publisher, offset = _read_string(payload, offset)
        event_data, offset = _read_blob(payload, offset)
        entries.append((publisher, event_data))
    if offset == len(payload):
        return BrokerEventBatch(root, tuple(entries))
    digests: List[Optional[MatchDigest]] = [None] * count
    (carried,) = _U32.unpack_from(payload, offset)
    offset += 4
    for _ in range(carried):
        (index,) = _U32.unpack_from(payload, offset)
        if index >= count:
            raise CodecError(f"digest table references entry {index} of a {count}-entry batch")
        blob, offset = _read_blob(payload, offset + 4)
        digests[index] = MatchDigest.from_bytes(blob)
    _expect_end(payload, offset)
    return BrokerEventBatch(root, tuple(entries), tuple(digests))


def _encode_publish_batch(message: PublishBatch) -> bytes:
    parts = [_PUBLISH_HEAD.pack(_PUBLISH_BATCH, len(message.events))]
    parts += map(_blob, message.events)
    return b"".join(parts)


def _decode_publish_batch(payload: bytes) -> PublishBatch:
    _type, count = _PUBLISH_HEAD.unpack_from(payload)
    offset = _PUBLISH_HEAD.size
    events = []
    for _ in range(count):
        event_data, offset = _read_blob(payload, offset)
        events.append(event_data)
    _expect_end(payload, offset)
    return PublishBatch(tuple(events))


_register(Publish, MessageType.PUBLISH, _encode_publish, _decode_publish)
_register(EventDelivery, MessageType.EVENT, _encode_event_delivery, _decode_event_delivery)
_register(Ack, MessageType.ACK, _encode_ack, _decode_ack)
_register(BrokerEvent, MessageType.BROKER_EVENT, _encode_broker_event, _decode_broker_event)
_register(
    BrokerEventBatch,
    MessageType.BROKER_EVENT_BATCH,
    _encode_broker_event_batch,
    _decode_broker_event_batch,
)
_register(PublishBatch, MessageType.PUBLISH_BATCH, _encode_publish_batch, _decode_publish_batch)


def encode_message(message: object) -> bytes:
    """Message object → payload bytes (type byte + fields)."""
    encode = _ENCODERS.get(type(message))
    if encode is None:
        raise CodecError(f"not a wire message: {message!r}")
    try:
        return encode(message)
    except struct.error as exc:
        raise CodecError(f"cannot marshal {message!r}: a field is out of range ({exc})") from exc


def decode_message(payload: bytes) -> object:
    """Payload bytes → message object; raises :class:`CodecError` on any
    malformed input (unknown type byte, truncation, trailing bytes)."""
    decode = _DECODERS.get(payload[0]) if payload else None
    if decode is None:
        raise CodecError(f"unknown message type byte in {bytes(payload[:1])!r}")
    try:
        return decode(payload)
    except struct.error as exc:
        raise CodecError(f"truncated message: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid UTF-8 in string field: {exc}") from exc
