"""Binary marshalling for events and primitive wire fields.

The prototype broker's event parser "first parses a received event, then
un-marshals it according to the pre-defined event schema" — events travel as
compact schema-ordered binary tuples, not self-describing documents:

* ``STRING`` — u16 length + UTF-8 bytes,
* ``INTEGER`` — signed 64-bit big-endian,
* ``FLOAT`` / ``DOLLAR`` — IEEE-754 double,
* ``BOOLEAN`` — one byte.

Each schema compiles once into a :class:`WirePlan`.  All multi-byte
integers are big-endian ("network order").
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

from repro.errors import CodecError
from repro.matching.events import Event
from repro.matching.schema import AttributeType, EventSchema


class WirePlan:
    """The compiled wire layout of one flat record.

    ``codes`` holds one character per field: a :mod:`struct` format code
    for a fixed-width field, or ``"s"`` for a string (u16 length + UTF-8
    bytes).  Every run of fixed-width fields is fused, together with the
    length prefix of the string that ends it, into one precompiled
    :class:`struct.Struct`: a record without strings packs and unpacks in a
    single C call, one with strings in a few.  ``names`` label the fields in
    error messages.  The bytes are those of writing the fields one by one
    (u16 length + UTF-8 for strings, big-endian for numbers).
    """

    __slots__ = ("names", "codes", "_runs", "_tail")

    def __init__(self, names: Sequence[str], codes: str) -> None:
        if len(names) != len(codes):
            raise CodecError(f"{len(names)} field names for {len(codes)} field codes")
        self.names = tuple(names)
        self.codes = codes
        *runs, tail = codes.split("s")
        #: Per string field: the layout of the fixed-width fields before it
        #: plus its own length prefix, and how many fields that is.
        self._runs = [(struct.Struct(f">{run}H"), len(run)) for run in runs]
        #: The fixed-width fields after the last string (maybe none).
        self._tail = struct.Struct(">" + tail)

    def __reduce__(self) -> Tuple[type, Tuple[Tuple[str, ...], str]]:
        return (WirePlan, (self.names, self.codes))  # Structs do not pickle

    def pack(self, values: Sequence[object]) -> bytes:
        """``values`` (one per field, already of the field's type) → bytes."""
        try:
            if not self._runs:
                return self._tail.pack(*values)
            parts: List[bytes] = []
            start = 0
            for layout, count in self._runs:
                end = start + count
                text = utf8_field(values[end])  # type: ignore[arg-type]
                parts += (layout.pack(*values[start:end], len(text)), text)
                start = end + 1
            parts.append(self._tail.pack(*values[start:]))
            return b"".join(parts)
        except struct.error as exc:
            raise CodecError(f"cannot marshal {self._refused(values)}: {exc}") from exc

    def _refused(self, values: Sequence[object]) -> str:
        """The field :mod:`struct` refuses (the error path of :meth:`pack`)."""
        for name, code, value in zip(self.names, self.codes, values):
            if code != "s":
                try:
                    struct.pack(">" + code, value)
                except struct.error:
                    return f"field {name!r} = {value!r}"
        return f"fields {self.names!r}"

    def unpack(self, data: bytes) -> Tuple[object, ...]:
        """Bytes → one value per field; :class:`CodecError` unless ``data``
        is exactly one well-formed record."""
        tail = self._tail
        try:
            if not self._runs:
                return tail.unpack(data)
            values: List[object] = []
            offset = 0
            for layout, _count in self._runs:
                *fields, length = layout.unpack_from(data, offset)
                offset += layout.size
                end = offset + length
                if end > len(data):
                    raise self._malformed(data, end)
                values += fields
                values.append(str(data[offset:end], "utf-8"))
                offset = end
            values += tail.unpack_from(data, offset)
        except struct.error:  # the buffer ends inside a run (or, all fixed, is too long)
            raise self._malformed(data, tail.size if not self._runs else len(data)) from None
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid UTF-8 in string field: {exc}") from exc
        if offset + tail.size != len(data):
            raise self._malformed(data, offset + tail.size)
        return tuple(values)

    def _malformed(self, data: bytes, needed: int) -> CodecError:
        """The error for a buffer that is not exactly ``needed`` bytes."""
        if needed < len(data):
            return CodecError(f"{len(data) - needed} trailing bytes after fields {self.names!r}")
        return CodecError(f"truncated record: {len(data)} bytes for fields {self.names!r}")


def utf8_field(value: str) -> bytes:
    """The UTF-8 bytes of a string field, checked against the u16 length."""
    data = value.encode("utf-8")
    if len(data) > 0xFFFF:
        raise CodecError(f"string too long to marshal ({len(data)} bytes)")
    return data


_CODE_OF = {
    AttributeType.STRING: "s",
    AttributeType.INTEGER: "q",
    AttributeType.FLOAT: "d",
    AttributeType.DOLLAR: "d",
    AttributeType.BOOLEAN: "?",
}


def _compile(schema: EventSchema) -> WirePlan:
    """Compile (once — the schema caches it) the wire layout of ``schema``."""
    plan = schema.wire_plan = WirePlan(
        schema.names, "".join(_CODE_OF[attribute.type] for attribute in schema)
    )
    return plan


def encode_event(event: Event) -> bytes:
    """Marshal an event's values in schema order (no schema data on the wire
    — both ends know the information space's schema)."""
    schema = event.schema
    return (schema.wire_plan or _compile(schema)).pack(event.as_tuple())


def decode_event(schema: EventSchema, data: bytes, *, publisher: str = "") -> Event:
    """Unmarshal an event against ``schema`` (the broker's event parser)."""
    values = (schema.wire_plan or _compile(schema)).unpack(data)
    # noqa below: _from_wire is this codec's constructor (see its docstring).
    return Event._from_wire(schema, values, publisher or None)  # noqa: SLF001
