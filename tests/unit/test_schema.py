"""Unit tests for event schemas and information spaces."""

from __future__ import annotations

import pytest

from repro.errors import SchemaError
from repro.matching import (
    Attribute,
    AttributeType,
    EventSchema,
    InformationSpace,
    stock_trade_schema,
    uniform_schema,
)


class TestAttributeType:
    def test_coerce_integer_accepts_int(self):
        assert AttributeType.INTEGER.coerce(7) == 7

    def test_coerce_integer_rejects_bool(self):
        # bool subclasses int in Python; silently accepting it invites bugs.
        with pytest.raises(SchemaError):
            AttributeType.INTEGER.coerce(True)

    def test_coerce_integer_rejects_float(self):
        with pytest.raises(SchemaError):
            AttributeType.INTEGER.coerce(1.5)

    def test_coerce_float_widens_int(self):
        value = AttributeType.FLOAT.coerce(3)
        assert value == 3.0
        assert isinstance(value, float)

    def test_coerce_dollar_widens_int(self):
        assert AttributeType.DOLLAR.coerce(120) == 120.0

    def test_coerce_float_rejects_bool(self):
        with pytest.raises(SchemaError):
            AttributeType.FLOAT.coerce(False)

    def test_coerce_string(self):
        assert AttributeType.STRING.coerce("IBM") == "IBM"

    def test_coerce_string_rejects_number(self):
        with pytest.raises(SchemaError):
            AttributeType.STRING.coerce(42)

    def test_coerce_boolean(self):
        assert AttributeType.BOOLEAN.coerce(True) is True

    def test_coerce_boolean_rejects_int(self):
        with pytest.raises(SchemaError):
            AttributeType.BOOLEAN.coerce(1)

    def test_boolean_is_not_ordered(self):
        assert not AttributeType.BOOLEAN.is_ordered

    def test_numbers_and_strings_are_ordered(self):
        for type in (AttributeType.STRING, AttributeType.INTEGER, AttributeType.FLOAT):
            assert type.is_ordered


class TestAttribute:
    def test_equality_by_name_and_type(self):
        assert Attribute("a", AttributeType.STRING) == Attribute("a", AttributeType.STRING)
        assert Attribute("a", AttributeType.STRING) != Attribute("a", AttributeType.INTEGER)
        assert Attribute("a", AttributeType.STRING) != Attribute("b", AttributeType.STRING)

    def test_hashable(self):
        attributes = {Attribute("a", AttributeType.STRING), Attribute("a", AttributeType.STRING)}
        assert len(attributes) == 1

    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError):
            Attribute("", AttributeType.STRING)

    def test_rejects_leading_digit(self):
        with pytest.raises(SchemaError):
            Attribute("1bad", AttributeType.STRING)

    def test_rejects_bad_characters(self):
        with pytest.raises(SchemaError):
            Attribute("a-b", AttributeType.STRING)


class TestEventSchema:
    def test_from_pairs_with_string_types(self):
        schema = EventSchema([("issue", "string"), ("price", "dollar")])
        assert schema.names == ("issue", "price")
        assert schema["price"].type is AttributeType.DOLLAR

    def test_unknown_string_type_rejected(self):
        with pytest.raises(SchemaError):
            EventSchema([("x", "decimal")])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            EventSchema([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            EventSchema([("a", "string"), ("a", "integer")])

    def test_position_of(self, stock_schema):
        assert stock_schema.position_of("issue") == 0
        assert stock_schema.position_of("volume") == 2

    def test_position_of_unknown(self, stock_schema):
        with pytest.raises(SchemaError):
            stock_schema.position_of("nope")

    def test_contains(self, stock_schema):
        assert "price" in stock_schema
        assert "nope" not in stock_schema

    def test_getitem_by_index_and_name(self, stock_schema):
        assert stock_schema[0].name == "issue"
        assert stock_schema["volume"].name == "volume"

    def test_len_and_iter(self, stock_schema):
        assert len(stock_schema) == 3
        assert [a.name for a in stock_schema] == ["issue", "price", "volume"]

    @staticmethod
    def typed(values):
        return [(type(value), value) for value in values]

    def test_validate_values_roundtrip(self, stock_schema):
        values = stock_schema.validate_values({"issue": "IBM", "price": 10, "volume": 5})
        assert self.typed(values) == [(str, "IBM"), (float, 10.0), (int, 5)]
        assert type(values) is tuple

    def test_validate_values_missing(self, stock_schema):
        with pytest.raises(SchemaError, match=r"^missing attributes: \['price', 'volume'\]$"):
            stock_schema.validate_values({"issue": "IBM"})
        values = stock_schema.validate_values({"issue": "IBM", "price": 10, "volume": 0})
        assert self.typed(values) == [(str, "IBM"), (float, 10.0), (int, 0)]

    def test_validate_values_unknown(self, stock_schema):
        with pytest.raises(SchemaError, match=r"^unknown attributes: \['extra'\]$"):
            stock_schema.validate_values(
                {"issue": "IBM", "price": 1, "volume": 2, "extra": 3}
            )
        values = stock_schema.validate_values({"issue": "IBM", "price": 1, "volume": 2})
        assert self.typed(values) == [(str, "IBM"), (float, 1.0), (int, 2)]

    def test_validate_values_returns_schema_order(self, stock_schema):
        values = {"volume": 5, "issue": "IBM", "price": 1.0}
        assert stock_schema.validate_values(values) == ("IBM", 1.0, 5)
        assert stock_schema.validate_values(("IBM", 1, 5)) == ("IBM", 1.0, 5)

    def test_reordered(self, stock_schema):
        reordered = stock_schema.reordered(["volume", "issue", "price"])
        assert reordered.names == ("volume", "issue", "price")
        # Original untouched.
        assert stock_schema.names == ("issue", "price", "volume")

    def test_reordered_rejects_non_permutation(self, stock_schema):
        with pytest.raises(SchemaError):
            stock_schema.reordered(["volume", "issue"])

    def test_equality_and_hash(self):
        assert stock_trade_schema() == stock_trade_schema()
        assert hash(stock_trade_schema()) == hash(stock_trade_schema())
        assert stock_trade_schema() != uniform_schema(3)


class TestHelpers:
    def test_uniform_schema_names(self):
        schema = uniform_schema(3)
        assert schema.names == ("a1", "a2", "a3")
        assert all(a.type is AttributeType.INTEGER for a in schema)

    def test_uniform_schema_is_one_shared_object(self):
        assert uniform_schema(3) is uniform_schema(3)
        assert uniform_schema(3) is not uniform_schema(4)
        assert uniform_schema(3, prefix="b") is not uniform_schema(3)

    def test_uniform_schema_rejects_zero(self):
        with pytest.raises(SchemaError):
            uniform_schema(0)

    def test_stock_trade_schema_types(self):
        schema = stock_trade_schema()
        assert schema["issue"].type is AttributeType.STRING
        assert schema["price"].type is AttributeType.DOLLAR
        assert schema["volume"].type is AttributeType.INTEGER

    def test_information_space(self, stock_schema):
        space = InformationSpace("trades", stock_schema)
        assert space == InformationSpace("trades", stock_trade_schema())
        assert space != InformationSpace("quotes", stock_schema)

    def test_information_space_rejects_empty_name(self, stock_schema):
        with pytest.raises(SchemaError):
            InformationSpace("", stock_schema)
