"""Event schemas and information spaces.

The paper models a pub/sub system as a set of *information spaces*, each
associated with an *event schema* that defines the typed attributes carried by
every event published into that space.  The running example is a stock-trade
space with schema ``[issue: string, price: dollar, volume: integer]``.

This module provides:

* :class:`AttributeType` — the small set of value types the matching engine
  understands (strings, integers, floats/dollars, booleans).
* :class:`Attribute` — a named, typed schema slot.
* :class:`EventSchema` — an ordered collection of attributes with validation
  and coercion helpers.
* :class:`InformationSpace` — a named schema, the unit a client subscribes to.

Schemas are immutable once constructed: brokers across the network must agree
on attribute order (the Parallel Search Tree is built over a fixed attribute
order), so mutation after distribution would corrupt routing state.
"""

from __future__ import annotations

import enum
import functools
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import SchemaError

#: The runtime types an attribute value may take.
AttributeValue = Union[str, int, float, bool]


class AttributeType(enum.Enum):
    """Value type of a schema attribute.

    ``DOLLAR`` is the paper's name for a fixed-point currency amount; we model
    it as a float but keep the distinct type tag so codecs can choose a
    fixed-point wire encoding.
    """

    STRING = "string"
    INTEGER = "integer"
    FLOAT = "float"
    DOLLAR = "dollar"
    BOOLEAN = "boolean"

    def coerce(self, value: AttributeValue) -> AttributeValue:
        """Coerce ``value`` to this type, raising :class:`SchemaError` if the
        value is not acceptable.

        Integers are accepted for ``FLOAT``/``DOLLAR`` attributes and widened;
        booleans are *not* accepted for ``INTEGER`` (a common silent-bug
        source, since ``bool`` subclasses ``int`` in Python).
        """
        if self in _NUMBER_TYPES:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"expected a number for {self.value}, got {value!r}")
            return float(value)
        if self is _INTEGER:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"expected an integer, got {value!r}")
            return value
        if self is _BOOLEAN:
            if not isinstance(value, bool):
                raise SchemaError(f"expected a boolean, got {value!r}")
            return value
        if not isinstance(value, str):
            raise SchemaError(f"expected a string, got {value!r}")
        return value

    @property
    def is_ordered(self) -> bool:
        """Whether range tests (``<``, ``>=``, ...) are meaningful."""
        return self is not AttributeType.BOOLEAN


#: ``coerce`` runs per equality test parsed: aliases, not enum class lookups.
_NUMBER_TYPES = (AttributeType.FLOAT, AttributeType.DOLLAR)
_INTEGER = AttributeType.INTEGER
_BOOLEAN = AttributeType.BOOLEAN

_IDENTIFIER_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


class Attribute:
    """A named, typed slot in an event schema.

    Attributes are value objects: equality and hashing are by ``(name, type)``.
    """

    __slots__ = ("name", "type")

    def __init__(self, name: str, type: AttributeType) -> None:
        if not name or name[0].isdigit() or not set(name) <= _IDENTIFIER_OK:
            raise SchemaError(f"invalid attribute name {name!r}")
        self.name = name
        self.type = type

    def __repr__(self) -> str:
        return f"Attribute({self.name!r}, {self.type.value})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Attribute):
            return NotImplemented
        return self.name == other.name and self.type is other.type

    def __hash__(self) -> int:
        return hash((self.name, self.type))


class EventSchema:
    """An ordered, immutable sequence of :class:`Attribute`.

    The order matters: the Parallel Search Tree tests attributes in schema
    order (possibly permuted by an explicit ordering heuristic — see
    :mod:`repro.matching.ordering`), and all brokers must agree on the order.

    Construction accepts either :class:`Attribute` instances or
    ``(name, type)`` pairs where ``type`` may be an :class:`AttributeType` or
    its string value::

        schema = EventSchema([("issue", "string"), ("price", "dollar"),
                              ("volume", "integer")])
    """

    __slots__ = ("_attributes", "_index", "_names", "wire_plan")

    def __init__(
        self, attributes: Iterable[Union[Attribute, Tuple[str, Union[AttributeType, str]]]]
    ) -> None:
        attrs: List[Attribute] = []
        for item in attributes:
            if isinstance(item, Attribute):
                attrs.append(item)
            else:
                name, type_spec = item
                if isinstance(type_spec, str):
                    try:
                        type_spec = AttributeType(type_spec)
                    except ValueError:
                        raise SchemaError(f"unknown attribute type {type_spec!r}") from None
                attrs.append(Attribute(name, type_spec))
        if not attrs:
            raise SchemaError("a schema needs at least one attribute")
        index: Dict[str, int] = {}
        for position, attribute in enumerate(attrs):
            if attribute.name in index:
                raise SchemaError(f"duplicate attribute name {attribute.name!r}")
            index[attribute.name] = position
        self._attributes: Tuple[Attribute, ...] = tuple(attrs)
        self._index = index
        self._names: Tuple[str, ...] = tuple(a.name for a in self._attributes)
        #: Cache slot of :mod:`repro.broker.codec`: this schema's compiled
        #: wire layout, built on the first event marshalled against it.
        self.wire_plan: Optional[object] = None

    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        """The schema's attributes, in declaration order."""
        return self._attributes

    @property
    def names(self) -> Tuple[str, ...]:
        """Attribute names in declaration order."""
        return self._names

    @property
    def positions(self) -> Mapping[str, int]:
        """Attribute name → position (read-only: the parser's lookup)."""
        return self._index

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __getitem__(self, key: Union[int, str]) -> Attribute:
        if isinstance(key, int):
            return self._attributes[key]
        return self._attributes[self.position_of(key)]

    def position_of(self, name: str) -> int:
        """Return the index of the attribute called ``name``.

        Raises :class:`SchemaError` for unknown names.
        """
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"schema has no attribute {name!r}") from None

    def coerce_value(self, name: str, value: AttributeValue) -> AttributeValue:
        """Validate and coerce ``value`` for attribute ``name``."""
        return self[name].type.coerce(value)

    def validate_values(
        self, values: Union[Mapping[str, AttributeValue], Tuple[AttributeValue, ...]]
    ) -> Tuple[AttributeValue, ...]:
        """Validate a full event: a map with every attribute and no other key
        (the paper's events are complete tuples), or a tuple in schema order.
        Returns the coerced values in schema order, in one pass over the
        attributes; what is unknown or missing is found only if it fails."""
        attributes = self._attributes
        if isinstance(values, tuple):
            if len(values) == len(attributes):
                return tuple([a.type.coerce(value) for a, value in zip(attributes, values)])
            raise SchemaError(f"expected {len(self)} values for schema {self!r}, got {len(values)}")
        failure = None
        try:
            coerced = tuple([a.type.coerce(values[a.name]) for a in attributes])
            if len(values) == len(attributes):
                return coerced
        except (KeyError, SchemaError) as exc:
            failure = exc
        unknown = set(values) - set(self._index)
        if unknown:
            raise SchemaError(f"unknown attributes: {sorted(unknown)!r}")
        missing = set(self._index) - set(values)
        if missing:
            raise SchemaError(f"missing attributes: {sorted(missing)!r}")
        raise failure  # a SchemaError: a value its attribute's type refuses

    def reordered(self, names: Sequence[str]) -> "EventSchema":
        """Return a new schema with attributes permuted into ``names`` order.

        ``names`` must be a permutation of this schema's attribute names.
        Used by ordering heuristics to place selective attributes near the
        PST root.
        """
        if sorted(names) != sorted(self.names):
            raise SchemaError(
                f"reorder list {list(names)!r} is not a permutation of {list(self.names)!r}"
            )
        return EventSchema([self[name] for name in names])

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, EventSchema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a.name}: {a.type.value}" for a in self._attributes)
        return f"EventSchema([{inner}])"


class InformationSpace:
    """A named event schema — the unit of subscription in the paper.

    A broker network may host several information spaces; events and
    subscriptions are always relative to exactly one space.
    """

    __slots__ = ("name", "schema")

    def __init__(self, name: str, schema: EventSchema) -> None:
        if not name:
            raise SchemaError("information space name must be non-empty")
        self.name = name
        self.schema = schema

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InformationSpace):
            return NotImplemented
        return self.name == other.name and self.schema == other.schema

    def __hash__(self) -> int:
        return hash((self.name, self.schema))

    def __repr__(self) -> str:
        return f"InformationSpace({self.name!r}, {self.schema!r})"


def stock_trade_schema() -> EventSchema:
    """The paper's running example: ``[issue, price, volume]``."""
    return EventSchema(
        [
            ("issue", AttributeType.STRING),
            ("price", AttributeType.DOLLAR),
            ("volume", AttributeType.INTEGER),
        ]
    )


@functools.lru_cache(maxsize=None)
def uniform_schema(
    num_attributes: int, prefix: str = "a", type: AttributeType = AttributeType.INTEGER
) -> EventSchema:
    """A synthetic schema ``[a1, a2, ..., aN]`` as used throughout the paper's
    simulations (e.g. the five-attribute schema of Figure 2 and the
    ten-attribute schemas of Charts 1 and 2), one shared object per argument list."""
    if num_attributes < 1:
        raise SchemaError("num_attributes must be >= 1")
    return EventSchema([(f"{prefix}{i + 1}", type) for i in range(num_attributes)])
