"""An event is its values tuple: every constructor against a dict reference.

``Event`` keeps one tuple of validated values.  The reference below is the
dict-based event it replaced, written out here: validate a mapping (unknown
keys first, then missing ones, then each value's coercion in schema order),
keep the coerced values in a dict in schema order, and read everything from
that dict.  ``Event(schema, mapping)``, ``Event.from_tuple`` and
``decode_event(encode_event(e))`` must all agree with it, and refuse what it
refuses with the same error and message.
"""

from __future__ import annotations

from typing import Dict, Mapping

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker import decode_event, encode_event
from repro.errors import EventError, SchemaError
from repro.matching import Event, EventSchema

SCHEMA = EventSchema(
    [("s", "string"), ("i", "integer"), ("f", "float"), ("d", "dollar"), ("b", "boolean")]
)

i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
number = st.one_of(st.sampled_from([1, 1.0, 0, -0.0]), i64, st.floats(allow_nan=False))
#: Accepted inputs per attribute, the coercion cases (``1`` and ``1.0``
#: for a number, ``True`` for a boolean) drawn often.
ACCEPTED = {
    "s": st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12),
    "i": st.one_of(st.just(1), i64),
    "f": number,
    "d": number,
    "b": st.one_of(st.just(True), st.booleans()),
}
#: Inputs some attribute refuses: ``True`` is not an integer or a number,
#: ``1`` is not a boolean or a string, ``1.0`` is not an integer.
ANY_VALUE = st.sampled_from([True, False, 1, 1.0, 0, "1", "x"])


def reference(schema: EventSchema, mapping: Mapping[str, object]) -> Dict[str, object]:
    """The dict-based event: the coerced values by name, in schema order."""
    unknown = set(mapping) - set(schema.names)
    if unknown:
        raise SchemaError(f"unknown attributes: {sorted(unknown)!r}")
    missing = set(schema.names) - set(mapping)
    if missing:
        raise SchemaError(f"missing attributes: {sorted(missing)!r}")
    return {name: schema[name].type.coerce(mapping[name]) for name in schema.names}


def reference_of_tuple(schema: EventSchema, values: tuple) -> Dict[str, object]:
    if len(values) != len(schema):
        raise SchemaError(
            f"expected {len(schema)} values for schema {schema!r}, got {len(values)}"
        )
    return reference(schema, dict(zip(schema.names, values)))


def typed(values):
    return [(type(value), value) for value in values]


def agrees(event: Event, ref: Dict[str, object]) -> None:
    expected = tuple(ref.values())
    assert typed(event.as_tuple()) == typed(expected)
    assert typed(event) == typed(expected)
    assert list(event.values.items()) == list(ref.items())
    assert typed(event.values.values()) == typed(expected)
    for name, value in ref.items():
        assert typed([event.value(name), event[name]]) == typed([value, value])
    with pytest.raises(EventError, match="event has no attribute 'zz'"):
        event.value("zz")
    assert repr(event) == "Event(" + ", ".join(f"{k}={v!r}" for k, v in ref.items()) + ")"
    assert hash(event) == hash((SCHEMA, expected))
    stamped = event.with_metadata(publisher="P9", sequence=7)
    assert (stamped.publisher, stamped.sequence) == ("P9", 7)
    assert stamped == event and hash(stamped) == hash(event)
    assert repr(stamped) == repr(event)
    assert stamped.event_id != event.event_id
    assert stamped.with_metadata(sequence=8).publisher == "P9"


@settings(max_examples=150, deadline=None)
@given(mapping=st.fixed_dictionaries(ACCEPTED))
def test_every_constructor_agrees_with_the_dict_reference(mapping):
    ref = reference(SCHEMA, mapping)
    raw = tuple(mapping[name] for name in SCHEMA.names)
    built = Event(SCHEMA, mapping)
    events = [built, Event.from_tuple(SCHEMA, raw), decode_event(SCHEMA, encode_event(built))]
    for event in events:
        agrees(event, ref)
        assert all(event == other for other in events)
        assert len({hash(other) for other in events}) == 1
    reordered = dict(reversed(list(mapping.items())))
    assert Event(SCHEMA, reordered) == built
    assert repr(Event(SCHEMA, reordered)) == repr(built)


@settings(max_examples=200, deadline=None)
@given(
    present=st.lists(st.sampled_from(SCHEMA.names), unique=True),
    extra=st.lists(st.sampled_from(["x", "y", "zz"]), unique=True, max_size=2),
    data=st.data(),
)
def test_a_refused_mapping_raises_what_the_reference_raises(present, extra, data):
    mapping = {name: data.draw(ANY_VALUE, label=name) for name in present + extra}
    try:
        ref = reference(SCHEMA, mapping)
    except SchemaError as exc:
        with pytest.raises(EventError) as raised:
            Event(SCHEMA, mapping)
        assert str(raised.value) == str(exc)
        with pytest.raises(SchemaError) as raised:
            SCHEMA.validate_values(mapping)
        assert str(raised.value) == str(exc)
    else:
        agrees(Event(SCHEMA, mapping), ref)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(ANY_VALUE, max_size=7).map(tuple))
def test_a_refused_tuple_raises_what_the_reference_raises(values):
    try:
        ref = reference_of_tuple(SCHEMA, values)
    except SchemaError as exc:
        with pytest.raises(EventError) as raised:
            Event.from_tuple(SCHEMA, values)
        assert str(raised.value) == str(exc)
    else:
        agrees(Event.from_tuple(SCHEMA, values), ref)
