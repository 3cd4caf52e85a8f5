"""Events — the unit of information published into an information space.

An :class:`Event` is an immutable, schema-validated tuple of attribute values
plus optional delivery metadata (a publisher id and a sequence number, used by
the prototype broker's reliable-delivery log and by the simulator to track
individual events end to end).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

from repro.errors import EventError, SchemaError
from repro.matching.schema import AttributeValue, EventSchema

_event_ids = itertools.count(1)


class Event:
    """An immutable, validated event, holding its values as one tuple.

    Values can be given as a mapping or as a tuple in schema order::

        schema = stock_trade_schema()
        Event(schema, {"issue": "IBM", "price": 119.5, "volume": 2000})
        Event.from_tuple(schema, ("IBM", 119.5, 2000))

    ``event_id`` is a process-local unique id assigned at construction; it is
    *not* part of equality (two events with the same values compare equal) but
    lets the simulator and broker logs track a specific published instance.
    """

    __slots__ = ("schema", "_tuple", "event_id", "publisher", "sequence")

    def __init__(
        self,
        schema: EventSchema,
        values: Union[Mapping[str, AttributeValue], Tuple[AttributeValue, ...]],
        *,
        publisher: Optional[str] = None,
        sequence: Optional[int] = None,
    ) -> None:
        try:
            self._tuple: Tuple[AttributeValue, ...] = schema.validate_values(values)
        except SchemaError as exc:
            raise EventError(str(exc)) from exc
        self.schema = schema
        self.event_id = next(_event_ids)
        self.publisher = publisher
        self.sequence = sequence

    @classmethod
    def from_tuple(
        cls,
        schema: EventSchema,
        values: Tuple[AttributeValue, ...],
        *,
        publisher: Optional[str] = None,
        sequence: Optional[int] = None,
    ) -> "Event":
        """Build an event from values given in schema order."""
        return cls(schema, tuple(values), publisher=publisher, sequence=sequence)

    @classmethod
    def _from_wire(
        cls, schema: EventSchema, values: Tuple[AttributeValue, ...], publisher: Optional[str]
    ) -> "Event":
        """The event codec's constructor, and nobody else's: ``values`` is
        the tuple it just unmarshalled against ``schema``'s compiled layout,
        so each value already has exactly the type ``validate_values`` would
        coerce it to (DESIGN.md §4.6) and is stored as is."""
        event = cls.__new__(cls)
        event.schema = schema
        event._tuple = values
        event.event_id = next(_event_ids)
        event.publisher = publisher
        event.sequence = None
        return event

    def value(self, name: str) -> AttributeValue:
        """The value of attribute ``name``."""
        try:
            return self._tuple[self.schema.positions[name]]
        except KeyError:
            raise EventError(f"event has no attribute {name!r}") from None

    def __getitem__(self, name: str) -> AttributeValue:
        return self.value(name)

    @property
    def values(self) -> Dict[str, AttributeValue]:
        """A new attribute map, built on each call."""
        return dict(zip(self.schema.names, self._tuple))

    def as_tuple(self) -> Tuple[AttributeValue, ...]:
        """Attribute values in schema order (as drawn in the paper's figures,
        e.g. ``a = <1, 2, 3, 1, 2>``): the one tuple the event holds, so
        every call returns the same object."""
        return self._tuple

    def with_metadata(
        self, *, publisher: Optional[str] = None, sequence: Optional[int] = None
    ) -> "Event":
        """Return a copy carrying the given delivery metadata; it shares this
        event's validated values tuple rather than validating it again."""
        event = Event.__new__(Event)
        event.schema, event._tuple, event.event_id = self.schema, self._tuple, next(_event_ids)
        event.publisher = publisher if publisher is not None else self.publisher
        event.sequence = sequence if sequence is not None else self.sequence
        return event

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.schema == other.schema and self._tuple == other._tuple

    def __hash__(self) -> int:
        return hash((self.schema, self._tuple))

    def __iter__(self) -> Iterator[AttributeValue]:
        return iter(self._tuple)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in zip(self.schema.names, self._tuple))
        return f"Event({inner})"
