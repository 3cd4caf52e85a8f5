"""Unit tests for predicate subsumption (covering)."""

from __future__ import annotations

import pytest

from repro.errors import PredicateError
from repro.matching import (
    DONT_CARE,
    EqualityTest,
    IntervalTest,
    Predicate,
    RangeOp,
    RangeTest,
    Subscription,
    parse_predicate,
    uniform_schema,
)
from repro.matching.subsumption import (
    covers,
    predicate_subsumes,
    redundant_subscriptions,
)

SCHEMA = uniform_schema(3)


def predicate(expression: str) -> Predicate:
    return parse_predicate(SCHEMA, expression)


class TestCovers:
    def test_dont_care_covers_everything(self):
        assert covers(DONT_CARE, EqualityTest(5))
        assert covers(DONT_CARE, RangeTest(RangeOp.LT, 10))
        assert covers(DONT_CARE, DONT_CARE)

    def test_nothing_else_covers_dont_care(self):
        assert not covers(EqualityTest(5), DONT_CARE)
        assert not covers(RangeTest(RangeOp.GT, -(10**18)), DONT_CARE)

    def test_equality_covers_itself_only(self):
        assert covers(EqualityTest(5), EqualityTest(5))
        assert not covers(EqualityTest(5), EqualityTest(6))

    def test_range_covers_equality_inside(self):
        assert covers(RangeTest(RangeOp.LT, 10), EqualityTest(5))
        assert not covers(RangeTest(RangeOp.LT, 10), EqualityTest(10))

    def test_range_covers_tighter_range(self):
        assert covers(RangeTest(RangeOp.LT, 10), RangeTest(RangeOp.LT, 5))
        assert not covers(RangeTest(RangeOp.LT, 5), RangeTest(RangeOp.LT, 10))
        assert covers(RangeTest(RangeOp.LE, 10), RangeTest(RangeOp.LT, 10))
        assert not covers(RangeTest(RangeOp.LT, 10), RangeTest(RangeOp.LE, 10))

    def test_opposite_directions_do_not_cover(self):
        assert not covers(RangeTest(RangeOp.LT, 10), RangeTest(RangeOp.GT, 0))

    def test_interval_containment(self):
        outer = IntervalTest(low=0, high=10)
        inner = IntervalTest(low=2, high=8)
        assert covers(outer, inner)
        assert not covers(inner, outer)

    def test_exclusions_block_containment(self):
        outer = IntervalTest(low=0, high=10, excluded=(5,))
        inner = IntervalTest(low=2, high=8)
        assert not covers(outer, inner)  # inner accepts 5, outer not
        assert covers(outer, IntervalTest(low=6, high=8))

    def test_unsatisfiable_specific_always_covered(self):
        empty = IntervalTest(low=5, high=3)
        assert covers(EqualityTest(0), empty)

    def test_equality_covers_pinned_interval(self):
        point = IntervalTest(low=5, high=5)
        assert covers(EqualityTest(5), point)
        assert not covers(EqualityTest(6), point)


class TestPredicateSubsumption:
    @pytest.mark.parametrize(
        "general,specific,expected",
        [
            ("*", "a1=1", True),
            ("a1=1", "*", False),
            ("a1=1", "a1=1 & a2=2", True),
            ("a1=1 & a2=2", "a1=1", False),
            ("a1<10", "a1<5 & a2=1", True),
            ("a1<5", "a1<10", False),
            ("a1=1 & a3>0", "a1=1 & a3>5", True),
            ("a1=1", "a1=1", True),
        ],
    )
    def test_examples(self, general, specific, expected):
        assert predicate_subsumes(predicate(general), predicate(specific)) is expected

    def test_sound_against_exhaustive_check(self):
        import itertools
        import random

        rng = random.Random(5)
        operators = ["=", "<", "<=", ">", ">=", "!="]

        def random_predicate():
            clauses = [
                f"a{k}{rng.choice(operators)}{rng.randrange(4)}"
                for k in (1, 2, 3)
                if rng.random() < 0.6
            ]
            return predicate(" & ".join(clauses) if clauses else "*")

        from repro.matching import Event

        space = [
            Event.from_tuple(SCHEMA, values)
            for values in itertools.product(range(-1, 5), repeat=3)
        ]
        for _ in range(300):
            p, q = random_predicate(), random_predicate()
            claimed = predicate_subsumes(p, q)
            truth = all(p.matches(e) for e in space if q.matches(e))
            if claimed:
                assert truth, (p.describe(), q.describe())
            # (not claimed) may still be true: the check is allowed to be
            # conservative, never unsound.

    def test_integer_empty_open_interval_is_covered_by_anything(self):
        # 0 < a1 < 1 holds for no integer, so a2=0 covers it even though
        # a2=0 does not cover the specific predicate's don't-care on a2.
        empty = predicate("a1>0 & a1<1")
        assert predicate_subsumes(predicate("a2=0"), empty)

    def test_cross_schema_rejected(self):
        other = uniform_schema(2)
        with pytest.raises(PredicateError):
            predicate_subsumes(predicate("*"), parse_predicate(other, "a1=1"))


class TestRedundancy:
    def test_covered_subscription_flagged(self):
        broad = Subscription(predicate("a1=1"), "alice")
        narrow = Subscription(predicate("a1=1 & a2=2"), "alice")
        pairs = redundant_subscriptions([broad, narrow])
        assert [(r.subscription_id, c.subscription_id) for r, c in pairs] == [
            (narrow.subscription_id, broad.subscription_id)
        ]

    def test_different_subscribers_never_redundant(self):
        broad = Subscription(predicate("a1=1"), "alice")
        narrow = Subscription(predicate("a1=1 & a2=2"), "bob")
        assert redundant_subscriptions([broad, narrow]) == []

    def test_identical_predicates_keep_the_older(self):
        first = Subscription(predicate("a1=1"), "alice")
        second = Subscription(predicate("a1=1"), "alice")
        pairs = redundant_subscriptions([second, first])
        assert len(pairs) == 1
        assert pairs[0][0] is second

    def test_removal_preserves_deliveries(self):
        """The semantic guarantee: dropping redundant subscriptions changes
        no delivery decision."""
        import random

        from repro.core import ContentRoutedNetwork
        from repro.network import linear_chain

        rng = random.Random(9)
        topology = linear_chain(3, subscribers_per_broker=2)
        network = ContentRoutedNetwork(topology, SCHEMA)
        live = []
        for client in topology.subscribers():
            for _ in range(4):
                clauses = [
                    f"a{k}={rng.randrange(3)}" for k in (1, 2, 3) if rng.random() < 0.5
                ]
                live.append(
                    network.subscribe(client, " & ".join(clauses) if clauses else "*")
                )
        events = [
            {f"a{k}": rng.randrange(3) for k in (1, 2, 3)} for _ in range(40)
        ]
        before = [network.publish("P1", event).delivered_clients for event in events]
        for redundant, _cover in redundant_subscriptions(live):
            network.unsubscribe(redundant.subscription_id)
        after = [network.publish("P1", event).delivered_clients for event in events]
        assert before == after
