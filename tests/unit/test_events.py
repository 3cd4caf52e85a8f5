"""Unit tests for events."""

from __future__ import annotations

import gc

import pytest

from repro.broker.codec import WirePlan, decode_event, encode_event
from repro.errors import EventError
from repro.matching import Event, uniform_schema
from repro.workload import EventGenerator, WorkloadSpec


class TestConstruction:
    def test_from_mapping(self, stock_schema):
        event = Event(stock_schema, {"issue": "IBM", "price": 119, "volume": 2000})
        assert event["issue"] == "IBM"
        assert event["price"] == 119.0  # coerced to float

    def test_from_tuple(self, schema5):
        event = Event.from_tuple(schema5, (1, 2, 3, 1, 2))
        assert event.as_tuple() == (1, 2, 3, 1, 2)

    def test_from_tuple_wrong_arity(self, schema5):
        with pytest.raises(EventError):
            Event.from_tuple(schema5, (1, 2, 3))

    def test_missing_attribute_rejected(self, stock_schema):
        with pytest.raises(EventError):
            Event(stock_schema, {"issue": "IBM", "price": 119})

    def test_extra_attribute_rejected(self, stock_schema):
        with pytest.raises(EventError):
            Event(stock_schema, {"issue": "IBM", "price": 1, "volume": 1, "x": 1})

    def test_wrong_type_rejected(self, stock_schema):
        with pytest.raises(EventError):
            Event(stock_schema, {"issue": 42, "price": 1, "volume": 1})


class TestAccess:
    def test_unknown_attribute_access(self, ibm_event):
        with pytest.raises(EventError):
            ibm_event.value("nope")

    def test_values_returns_copy(self, ibm_event):
        values = ibm_event.values
        values["issue"] = "MUTATED"
        assert ibm_event["issue"] == "IBM"

    def test_iteration_in_schema_order(self, ibm_event):
        assert list(ibm_event) == ["IBM", 119.0, 2000]


class TestIdentityAndEquality:
    def test_equality_by_values(self, stock_schema):
        a = Event(stock_schema, {"issue": "IBM", "price": 1, "volume": 2})
        b = Event(stock_schema, {"issue": "IBM", "price": 1, "volume": 2})
        assert a == b
        assert hash(a) == hash(b)

    def test_event_ids_unique(self, stock_schema):
        a = Event(stock_schema, {"issue": "IBM", "price": 1, "volume": 2})
        b = Event(stock_schema, {"issue": "IBM", "price": 1, "volume": 2})
        assert a.event_id != b.event_id

    def test_inequality_across_schemas(self, stock_schema):
        a = Event(stock_schema, {"issue": "IBM", "price": 1, "volume": 2})
        other = Event.from_tuple(uniform_schema(2), (1, 2))
        assert a != other


class TestMetadata:
    def test_publisher_and_sequence(self, stock_schema):
        event = Event(
            stock_schema,
            {"issue": "IBM", "price": 1, "volume": 2},
            publisher="P1",
            sequence=9,
        )
        assert event.publisher == "P1"
        assert event.sequence == 9

    def test_with_metadata_copies(self, ibm_event):
        stamped = ibm_event.with_metadata(publisher="P2", sequence=3)
        assert stamped.publisher == "P2"
        assert stamped.sequence == 3
        assert ibm_event.publisher is None
        assert stamped == ibm_event  # metadata is not part of equality

    def test_with_metadata_keeps_existing(self, stock_schema):
        event = Event(
            stock_schema, {"issue": "X", "price": 1, "volume": 2}, publisher="P1"
        )
        assert event.with_metadata(sequence=5).publisher == "P1"


class TestOneTuple:
    """An event holds its values as one tuple and no per-event dict, on
    every path that builds one."""

    @staticmethod
    def built(stock_schema):
        event = Event(stock_schema, {"issue": "IBM", "price": 119, "volume": 2000})
        return {
            "mapping": event,
            "from_tuple": Event.from_tuple(stock_schema, ("IBM", 119, 2000)),
            "decode_event": decode_event(stock_schema, encode_event(event), publisher="P1"),
            "with_metadata": event.with_metadata(publisher="P2", sequence=4),
            "generator": EventGenerator(WorkloadSpec(num_attributes=10), seed=3).event_for("P1"),
        }

    @pytest.mark.parametrize(
        "path", ["mapping", "from_tuple", "decode_event", "with_metadata", "generator"]
    )
    def test_no_dict_is_referenced(self, stock_schema, path):
        event = self.built(stock_schema)[path]
        referents = gc.get_referents(event)
        assert not [r for r in referents if isinstance(r, dict)]
        assert event.as_tuple() in referents and type(event.as_tuple()) is tuple
        assert event.as_tuple() is event.as_tuple()
        assert not hasattr(event, "__dict__")

    def test_decoded_event_keeps_the_unpacked_tuple(self, stock_schema, ibm_event, monkeypatch):
        unpacked = []
        unpack = WirePlan.unpack

        def spy(plan, data):
            unpacked.append(unpack(plan, data))
            return unpacked[-1]

        monkeypatch.setattr(WirePlan, "unpack", spy)
        event = decode_event(stock_schema, encode_event(ibm_event))
        assert len(unpacked) == 1 and event.as_tuple() is unpacked[0]

    def test_with_metadata_shares_the_tuple(self, ibm_event):
        assert ibm_event.with_metadata(sequence=1).as_tuple() is ibm_event.as_tuple()
