"""Unit tests for attribute tests, predicates and subscriptions."""

from __future__ import annotations

import copy
import gc
import pickle

import pytest

from repro.errors import PredicateError
from repro.matching import (
    DONT_CARE,
    DontCare,
    EqualityTest,
    Event,
    EventSchema,
    IntervalTest,
    Predicate,
    RangeOp,
    RangeTest,
    Subscription,
    normalize_tests,
    uniform_schema,
)
from repro.matching.predicates import _INTERNED_EQUALITIES


class TestDontCare:
    def test_matches_everything(self):
        for value in ("x", 0, 3.5, True):
            assert DONT_CARE.evaluate(value)

    def test_is_dont_care(self):
        assert DONT_CARE.is_dont_care
        assert not EqualityTest(1).is_dont_care

    def test_singleton_equality(self):
        assert DontCare() == DONT_CARE
        assert hash(DontCare()) == hash(DONT_CARE)


class TestEqualityTest:
    def test_evaluate(self):
        test = EqualityTest("IBM")
        assert test.evaluate("IBM")
        assert not test.evaluate("MSFT")

    def test_equality_is_type_sensitive(self):
        # 1 == 1.0 in Python, but a branch keyed by int 1 is a different
        # branch from one keyed by 1.0 only if types differ in the test.
        assert EqualityTest(1) != EqualityTest(1.0)
        assert EqualityTest(1) == EqualityTest(1)

    def test_describe(self):
        assert EqualityTest(5).describe("a1") == "a1=5"


class TestEqualityTestInterning:
    def test_equal_type_and_value_is_one_instance(self):
        assert EqualityTest("IBM") is EqualityTest("IBM")
        assert EqualityTest(7) is EqualityTest(7)

    def test_one_true_and_one_point_oh_stay_distinct(self):
        tests = [EqualityTest(1), EqualityTest(True), EqualityTest(1.0)]
        assert len({id(test) for test in tests}) == 3
        assert [type(test.value) for test in tests] == [int, bool, float]

    def test_value_is_read_only(self):
        test = EqualityTest(3)
        with pytest.raises(AttributeError):
            test.value = 4
        with pytest.raises(AttributeError):
            del test.value
        assert EqualityTest(3).value == 3

    def test_copies_and_pickles_are_the_interned_instance(self):
        test = EqualityTest("x")
        assert copy.copy(test) is test
        assert copy.deepcopy(test) is test
        assert pickle.loads(pickle.dumps(test)) is test
        held = EqualityTest(5)
        assert copy.deepcopy(Predicate(uniform_schema(1), {"a1": held})).tests[0] is held

    def test_table_holds_only_live_tests(self):
        value = 987_654_321  # held by this test's predicate only
        predicate = Predicate(uniform_schema(1), {"a1": EqualityTest(value)})
        gc.collect()
        size = len(_INTERNED_EQUALITIES)
        assert (int, value) in _INTERNED_EQUALITIES
        del predicate
        gc.collect()
        assert len(_INTERNED_EQUALITIES) == size - 1
        assert (int, value) not in _INTERNED_EQUALITIES


class TestRangeTest:
    @pytest.mark.parametrize(
        "op,bound,value,expected",
        [
            (RangeOp.LT, 10, 5, True),
            (RangeOp.LT, 10, 10, False),
            (RangeOp.LE, 10, 10, True),
            (RangeOp.GT, 10, 11, True),
            (RangeOp.GT, 10, 10, False),
            (RangeOp.GE, 10, 10, True),
            (RangeOp.NE, 10, 10, False),
            (RangeOp.NE, 10, 11, True),
        ],
    )
    def test_evaluate(self, op, bound, value, expected):
        assert RangeTest(op, bound).evaluate(value) is expected

    def test_incomparable_types_do_not_match(self):
        assert not RangeTest(RangeOp.LT, 10).evaluate("string")

    def test_rejects_boolean_bound(self):
        with pytest.raises(PredicateError):
            RangeTest(RangeOp.LT, True)

    def test_from_symbol(self):
        assert RangeOp.from_symbol("<=") is RangeOp.LE
        with pytest.raises(PredicateError):
            RangeOp.from_symbol("~")


class TestIntervalTest:
    def test_closed_interval(self):
        test = IntervalTest(low=1, high=5)
        assert test.evaluate(1) and test.evaluate(5) and test.evaluate(3)
        assert not test.evaluate(0) and not test.evaluate(6)

    def test_open_interval(self):
        test = IntervalTest(low=1, high=5, low_closed=False, high_closed=False)
        assert not test.evaluate(1) and not test.evaluate(5)
        assert test.evaluate(2)

    def test_half_unbounded(self):
        assert IntervalTest(low=3).evaluate(1_000_000)
        assert IntervalTest(high=3).evaluate(-1_000_000)

    def test_exclusions(self):
        test = IntervalTest(low=0, high=10, excluded=(5,))
        assert test.evaluate(4)
        assert not test.evaluate(5)

    def test_emptiness(self):
        assert IntervalTest(low=5, high=3).is_empty
        assert IntervalTest(low=5, high=5, high_closed=False).is_empty
        assert not IntervalTest(low=5, high=5).is_empty


class TestNormalizeTests:
    def test_empty_is_dont_care(self):
        assert normalize_tests([]) is DONT_CARE
        assert normalize_tests([DONT_CARE, DONT_CARE]) is DONT_CARE

    def test_single_equality_passthrough(self):
        assert normalize_tests([EqualityTest(3)]) == EqualityTest(3)

    def test_agreeing_equalities_collapse(self):
        assert normalize_tests([EqualityTest(3), EqualityTest(3)]) == EqualityTest(3)

    def test_conflicting_equalities_are_empty(self):
        result = normalize_tests([EqualityTest(3), EqualityTest(4)])
        assert isinstance(result, IntervalTest) and result.is_empty

    def test_equality_consistent_with_range(self):
        result = normalize_tests([EqualityTest(3), RangeTest(RangeOp.LT, 10)])
        assert result == EqualityTest(3)

    def test_equality_inconsistent_with_range(self):
        result = normalize_tests([EqualityTest(30), RangeTest(RangeOp.LT, 10)])
        assert isinstance(result, IntervalTest) and result.is_empty

    def test_two_ranges_to_interval(self):
        result = normalize_tests(
            [RangeTest(RangeOp.GT, 100), RangeTest(RangeOp.LT, 120)]
        )
        assert isinstance(result, IntervalTest)
        assert result.evaluate(110)
        assert not result.evaluate(100)
        assert not result.evaluate(120)

    def test_tightest_bounds_win(self):
        result = normalize_tests(
            [RangeTest(RangeOp.GE, 1), RangeTest(RangeOp.GT, 1), RangeTest(RangeOp.LE, 9)]
        )
        assert not result.evaluate(1)
        assert result.evaluate(2)

    def test_not_equal_becomes_exclusion(self):
        result = normalize_tests([RangeTest(RangeOp.NE, 5), RangeTest(RangeOp.LT, 10)])
        assert not result.evaluate(5)
        assert result.evaluate(4)


class TestPredicate:
    def test_matches_conjunction(self, stock_schema, ibm_event):
        predicate = Predicate(
            stock_schema,
            {
                "issue": EqualityTest("IBM"),
                "price": RangeTest(RangeOp.LT, 120),
                "volume": RangeTest(RangeOp.GT, 1000),
            },
        )
        assert predicate.matches(ibm_event)

    def test_an_equal_foreign_schema_matches(self, stock_schema, ibm_event):
        """Schemas compare by value: an equal schema object that is not the
        predicate's still matches; a different schema raises."""
        foreign = EventSchema([(a.name, a.type) for a in stock_schema])
        assert foreign is not stock_schema and foreign == stock_schema
        predicate = Predicate(stock_schema, {"issue": EqualityTest("IBM")})
        assert predicate.matches(Event.from_tuple(foreign, ibm_event.as_tuple()))
        assert predicate.matches(ibm_event)
        other = EventSchema([("issue", "string"), ("price", "dollar"), ("size", "integer")])
        with pytest.raises(PredicateError, match="different schemas"):
            predicate.matches(Event(other, {"issue": "IBM", "price": 100.0, "size": 1}))

    def test_unconstrained_attributes_are_dont_care(self, stock_schema, ibm_event):
        predicate = Predicate(stock_schema, {"issue": EqualityTest("IBM")})
        assert predicate.test_for("price").is_dont_care
        assert predicate.matches(ibm_event)

    def test_unknown_attribute_rejected(self, stock_schema):
        with pytest.raises(PredicateError):
            Predicate(stock_schema, {"nope": EqualityTest(1)})

    def test_range_on_boolean_rejected(self):
        from repro.matching import EventSchema

        schema = EventSchema([("flag", "boolean")])
        with pytest.raises(PredicateError):
            Predicate(schema, {"flag": RangeTest(RangeOp.LT, 1)})

    @pytest.mark.parametrize(
        "attribute, test",
        [
            ("price", EqualityTest("x")),
            ("volume", EqualityTest(2.5)),
            ("volume", EqualityTest(True)),
            ("price", RangeTest(RangeOp.LT, "x")),
            ("issue", RangeTest(RangeOp.GE, 5)),
            ("volume", [RangeTest(RangeOp.GT, 1), RangeTest(RangeOp.LT, "9")]),
        ],
    )
    def test_mistyped_literal_rejected(self, stock_schema, attribute, test):
        """Regression: a value that does not coerce raised SchemaError, and a
        mistyped range bound made a predicate that never matched (or, beside
        a second bound, raised TypeError)."""
        with pytest.raises(PredicateError, match=f"'{attribute}'"):
            Predicate(stock_schema, {attribute: test})

    def test_range_bounds_of_either_number_type(self, stock_schema):
        predicate = Predicate(
            stock_schema,
            {"volume": RangeTest(RangeOp.GT, 2.5), "price": RangeTest(RangeOp.LT, 3)},
        )
        assert predicate.test_for("volume") == RangeTest(RangeOp.GT, 2.5)

    def test_at_positions_is_init_by_position(self, stock_schema):
        tests = {"issue": EqualityTest("IBM"), "price": [RangeTest(RangeOp.GT, 1), DONT_CARE]}
        placed = {stock_schema.positions[name]: test for name, test in tests.items()}
        assert Predicate.at_positions(stock_schema, placed) == Predicate(stock_schema, tests)
        with pytest.raises(PredicateError, match="'volume'"):
            Predicate.at_positions(stock_schema, {2: EqualityTest("x")})

    def test_equality_value_coerced(self, stock_schema):
        predicate = Predicate(stock_schema, {"price": EqualityTest(120)})
        test = predicate.test_for("price")
        assert isinstance(test, EqualityTest) and test.value == 120.0

    def test_from_values(self, stock_schema, ibm_event):
        predicate = Predicate.from_values(stock_schema, issue="IBM", volume=2000)
        assert predicate.matches(ibm_event)

    def test_mismatched_schema_rejected(self, stock_schema, schema5):
        predicate = Predicate(stock_schema, {})
        event = Event.from_tuple(schema5, (1, 2, 3, 4, 5))
        with pytest.raises(PredicateError):
            predicate.matches(event)

    def test_num_dont_cares(self, stock_schema):
        predicate = Predicate.from_values(stock_schema, issue="IBM")
        assert predicate.num_dont_cares == 2

    def test_satisfiability(self, stock_schema):
        ok = Predicate(stock_schema, {"price": [RangeTest(RangeOp.LT, 10)]})
        bad = Predicate(
            stock_schema,
            {"price": [RangeTest(RangeOp.LT, 10), RangeTest(RangeOp.GT, 20)]},
        )
        assert ok.is_satisfiable
        assert not bad.is_satisfiable

    def test_describe_round_trips_through_parser(self, stock_schema):
        from repro.matching import parse_predicate

        predicate = Predicate(
            stock_schema,
            {"issue": EqualityTest("IBM"), "volume": [RangeTest(RangeOp.GT, 1000)]},
        )
        assert parse_predicate(stock_schema, predicate.describe()) == predicate

    def test_describe_empty(self, stock_schema):
        assert Predicate(stock_schema, {}).describe() == "*"

    def test_equality_and_hash(self, stock_schema):
        a = Predicate.from_values(stock_schema, issue="IBM")
        b = Predicate.from_values(stock_schema, issue="IBM")
        assert a == b and hash(a) == hash(b)


class TestSubscription:
    def test_ids_unique(self, stock_schema):
        predicate = Predicate.from_values(stock_schema, issue="IBM")
        a = Subscription(predicate, "alice")
        b = Subscription(predicate, "alice")
        assert a.subscription_id != b.subscription_id
        assert a != b

    def test_explicit_id(self, stock_schema):
        predicate = Predicate(stock_schema, {})
        sub = Subscription(predicate, "alice", subscription_id=77)
        assert sub.subscription_id == 77

    def test_matches_delegates(self, stock_schema, ibm_event):
        sub = Subscription(Predicate.from_values(stock_schema, issue="IBM"), "alice")
        assert sub.matches(ibm_event)

    def test_equality_by_id(self, stock_schema):
        predicate = Predicate(stock_schema, {})
        assert Subscription(predicate, "a", subscription_id=1) == Subscription(
            predicate, "b", subscription_id=1
        )
