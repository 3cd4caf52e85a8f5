"""Unit tests for the Parallel Search Tree (Section 2)."""

from __future__ import annotations

import random

import pytest

from repro.errors import SubscriptionError
from repro.matching import Event, Predicate, RangeOp, RangeTest, Subscription
from tests.conftest import make_subscription
from tests.oracle.pst import ParallelSearchTree, build_pst


def star_only_nodes(tree):
    """Reachable non-leaf nodes whose only child hangs off the ``*``-branch."""
    return [
        node
        for node in tree.nodes()
        if node.star_child is not None and not node.value_branches and not node.range_branches
    ]


def figure2_tree(schema5) -> ParallelSearchTree:
    """A small tree in the spirit of Figure 2."""
    subscriptions = [
        make_subscription(schema5, "a1=1 & a2=2 & a3=3 & a5=3", "s1"),
        make_subscription(schema5, "a1=1 & a2=2", "s2"),
        make_subscription(schema5, "a3=3", "s3"),
        make_subscription(schema5, "a1=1 & a3=4", "s4"),
    ]
    return build_pst(schema5, subscriptions)


class TestInsertAndStructure:
    def test_empty_tree(self, schema5):
        tree = ParallelSearchTree(schema5)
        assert len(tree) == 0
        result = tree.match(Event.from_tuple(schema5, (1, 2, 3, 4, 5)))
        assert result.subscriptions == []
        assert result.steps >= 1

    def test_insert_registers(self, schema5):
        tree = ParallelSearchTree(schema5)
        sub = make_subscription(schema5, "a1=1", "alice")
        tree.insert(sub)
        assert len(tree) == 1
        assert sub.subscription_id in tree

    def test_duplicate_id_rejected(self, schema5):
        tree = ParallelSearchTree(schema5)
        sub = make_subscription(schema5, "a1=1", "alice")
        tree.insert(sub)
        with pytest.raises(SubscriptionError):
            tree.insert(sub)

    def test_wrong_schema_rejected(self, schema5, stock_schema):
        tree = ParallelSearchTree(schema5)
        with pytest.raises(SubscriptionError):
            tree.insert(make_subscription(stock_schema, "issue='IBM'", "alice"))

    def test_unsatisfiable_rejected(self, schema5):
        tree = ParallelSearchTree(schema5)
        predicate = Predicate(
            schema5,
            {"a1": [RangeTest(RangeOp.GT, 5), RangeTest(RangeOp.LT, 3)]},
        )
        with pytest.raises(SubscriptionError):
            tree.insert(Subscription(predicate, "alice"))

    def test_shared_prefixes_share_nodes(self, schema5):
        # Two subscriptions sharing a1=1 & a2=2 should share that path.
        tree = build_pst(
            schema5,
            [
                make_subscription(schema5, "a1=1 & a2=2 & a3=1", "x"),
                make_subscription(schema5, "a1=1 & a2=2 & a3=2", "y"),
            ],
        )
        solo = build_pst(
            schema5, [make_subscription(schema5, "a1=1 & a2=2 & a3=1", "x")]
        )
        # Adding the second subscription costs fewer nodes than a new path.
        assert tree.node_count() < 2 * solo.node_count()

    def test_attribute_order_permutation_checked(self, schema5):
        with pytest.raises(SubscriptionError):
            ParallelSearchTree(schema5, attribute_order=["a1", "a2"])

    def test_custom_attribute_order(self, schema5):
        tree = ParallelSearchTree(
            schema5, attribute_order=["a5", "a4", "a3", "a2", "a1"]
        )
        sub = make_subscription(schema5, "a5=3", "alice")
        tree.insert(sub)
        event_hit = Event.from_tuple(schema5, (0, 0, 0, 0, 3))
        event_miss = Event.from_tuple(schema5, (3, 0, 0, 0, 0))
        assert tree.match(event_hit).subscribers == {"alice"}
        assert tree.match(event_miss).subscribers == set()


class TestMatching:
    def test_figure2_walk(self, schema5):
        tree = figure2_tree(schema5)
        result = tree.match(Event.from_tuple(schema5, (1, 2, 3, 1, 2)))
        assert result.subscribers == {"s2", "s3"}

    def test_figure2_all_matching(self, schema5):
        tree = figure2_tree(schema5)
        result = tree.match(Event.from_tuple(schema5, (1, 2, 3, 1, 3)))
        assert result.subscribers == {"s1", "s2", "s3"}

    def test_star_only_path(self, schema5):
        tree = figure2_tree(schema5)
        result = tree.match(Event.from_tuple(schema5, (9, 9, 3, 9, 9)))
        assert result.subscribers == {"s3"}

    def test_no_match(self, schema5):
        tree = figure2_tree(schema5)
        assert tree.match(Event.from_tuple(schema5, (9, 9, 9, 9, 9))).subscribers == set()

    def test_range_branches(self, stock_schema):
        tree = build_pst(
            stock_schema,
            [
                make_subscription(stock_schema, "price<120", "cheap"),
                make_subscription(stock_schema, "price>=120", "expensive"),
            ],
        )
        low = Event(stock_schema, {"issue": "X", "price": 100.0, "volume": 1})
        high = Event(stock_schema, {"issue": "X", "price": 150.0, "volume": 1})
        assert tree.match(low).subscribers == {"cheap"}
        assert tree.match(high).subscribers == {"expensive"}

    def test_matches_equal_brute_force_randomized(self, schema5):
        rng = random.Random(5)
        subscriptions = []
        for i in range(120):
            tests = [
                f"a{j}={rng.randrange(3)}" for j in range(1, 6) if rng.random() < 0.5
            ]
            subscriptions.append(
                make_subscription(schema5, " & ".join(tests) if tests else "*", f"s{i}")
            )
        tree = build_pst(schema5, subscriptions)
        for _ in range(200):
            event = Event.from_tuple(
                schema5, tuple(rng.randrange(3) for _ in range(5))
            )
            expected = {s.subscription_id for s in tree.match_brute_force(event)}
            actual = {s.subscription_id for s in tree.match(event).subscriptions}
            assert actual == expected

    def test_steps_counted(self, schema5):
        tree = figure2_tree(schema5)
        result = tree.match(Event.from_tuple(schema5, (1, 2, 3, 1, 2)))
        assert result.steps >= 5  # at least the constrained path is walked

    def test_wrong_schema_event(self, schema5, ibm_event):
        tree = figure2_tree(schema5)
        with pytest.raises(SubscriptionError):
            tree.match(ibm_event)

    def test_duplicate_subscriber_reported_once_per_subscription(self, schema5):
        a = make_subscription(schema5, "a1=1", "alice")
        b = make_subscription(schema5, "a2=2", "alice")
        tree = build_pst(schema5, [a, b])
        result = tree.match(Event.from_tuple(schema5, (1, 2, 0, 0, 0)))
        assert len(result.subscriptions) == 2
        assert result.subscribers == {"alice"}


class TestRemove:
    def test_remove_returns_subscription(self, schema5):
        tree = figure2_tree(schema5)
        target = next(s for s in tree.subscriptions if s.subscriber == "s3")
        removed = tree.remove(target.subscription_id)
        assert removed is target
        assert len(tree) == 3

    def test_removed_subscription_no_longer_matches(self, schema5):
        tree = figure2_tree(schema5)
        target = next(s for s in tree.subscriptions if s.subscriber == "s3")
        tree.remove(target.subscription_id)
        result = tree.match(Event.from_tuple(schema5, (9, 9, 3, 9, 9)))
        assert result.subscribers == set()

    def test_remove_unknown_id(self, schema5):
        tree = figure2_tree(schema5)
        with pytest.raises(SubscriptionError):
            tree.remove(999_999_999)

    def test_remove_prunes_empty_branches(self, schema5):
        tree = ParallelSearchTree(schema5)
        sub = make_subscription(schema5, "a1=1 & a2=2", "alice")
        tree.insert(sub)
        nodes_with = tree.node_count()
        tree.remove(sub.subscription_id)
        assert tree.node_count() < nodes_with
        # Root always remains.
        assert tree.node_count() == 1

    def test_remove_all_then_reinsert(self, schema5):
        subscriptions = [
            make_subscription(schema5, "a1=1", "a"),
            make_subscription(schema5, "a1=2 & a3=1", "b"),
        ]
        tree = build_pst(schema5, subscriptions)
        for sub in subscriptions:
            tree.remove(sub.subscription_id)
        assert len(tree) == 0
        again = make_subscription(schema5, "a1=1", "a")
        tree.insert(again)
        assert tree.match(Event.from_tuple(schema5, (1, 0, 0, 0, 0))).subscribers == {"a"}


class TestTrivialTestElimination:
    """Section 2.1, item 2, as an invariant of insert and remove: no
    reachable non-leaf node has only a ``*``-child."""

    def test_eliminates_star_only_levels(self, schema5):
        tree = build_pst(schema5, [make_subscription(schema5, "a5=3", "alice")])
        # The a1..a4 levels are don't-care: the root tests a5 directly, and
        # the path is the root and its leaf (six nodes without elimination).
        assert tree.root.attribute_position == 4
        assert tree.node_count() == 2
        assert star_only_nodes(tree) == []

    def test_match_all_subscription_is_a_root_leaf(self, schema5):
        tree = build_pst(schema5, [make_subscription(schema5, "*", "alice")])
        assert tree.root.is_leaf
        assert tree.node_count() == 1

    def test_matching_unchanged_after_elimination(self, schema5):
        tree = figure2_tree(schema5)
        assert star_only_nodes(tree) == []
        # s3 (a3=3 alone) hangs off the root's *-branch straight at a3.
        assert tree.root.star_child.attribute_position == 2
        for a in range(3):
            for b in range(3):
                for c in range(5):
                    for e in range(4):
                        event = Event.from_tuple(schema5, (a, b, c, 1, e))
                        got = {s.subscription_id for s in tree.match(event).subscriptions}
                        want = {s.subscription_id for s in tree.match_brute_force(event)}
                        assert got == want

    def test_steps_do_not_increase(self, schema5):
        tree = figure2_tree(schema5)
        event = Event.from_tuple(schema5, (1, 2, 3, 1, 3))
        # 15 steps over 18 nodes when every level had a node.
        assert tree.node_count() == 10
        assert tree.match(event).steps == 9

    def test_insert_after_elimination_rematerializes(self, schema5):
        tree = build_pst(schema5, [make_subscription(schema5, "a5=3", "alice")])
        # This subscription constrains a2, a level the path skips.
        newcomer = make_subscription(schema5, "a2=7 & a5=3", "bob")
        tree.insert(newcomer)
        assert tree.root.attribute_position == 1
        assert tree.root.star_child.attribute_position == 4
        assert star_only_nodes(tree) == []
        hit = Event.from_tuple(schema5, (0, 7, 0, 0, 3))
        miss = Event.from_tuple(schema5, (0, 8, 0, 0, 3))
        assert tree.match(hit).subscribers == {"alice", "bob"}
        assert tree.match(miss).subscribers == {"alice"}

    def test_remove_after_elimination(self, schema5):
        alice = make_subscription(schema5, "a5=3", "alice")
        bob = make_subscription(schema5, "a3=1 & a5=3", "bob")
        tree = build_pst(schema5, [alice, bob])
        assert tree.root.attribute_position == 2
        tree.remove(bob.subscription_id)
        # The a3 root kept only its *-branch: its child replaced it.
        assert tree.root.attribute_position == 4
        assert tree.node_count() == 2
        assert star_only_nodes(tree) == []
        event = Event.from_tuple(schema5, (0, 0, 1, 0, 3))
        assert tree.match(event).subscribers == {"alice"}

    def test_remove_splices_below_the_root(self, schema5):
        keep = make_subscription(schema5, "a1=1 & a4=2", "keep")
        gone = make_subscription(schema5, "a1=1 & a2=5 & a4=2", "gone")
        tree = build_pst(schema5, [keep, gone])
        assert tree.root.value_branches[1].attribute_position == 1
        tree.remove(gone.subscription_id)
        assert tree.root.value_branches[1].attribute_position == 3
        assert star_only_nodes(tree) == []

    def test_shape_is_history_independent(self, schema5):
        expressions = ["a5=3", "a3=1 & a5=3", "a1=1 & a3=1", "a2=2", "*", "a1=2 & a4=4"]
        subscriptions = [
            make_subscription(schema5, expression, f"s{i}")
            for i, expression in enumerate(expressions)
        ]
        churned = build_pst(schema5, subscriptions)
        for victim in subscriptions[1::2]:
            churned.remove(victim.subscription_id)
        fresh = build_pst(schema5, subscriptions[0::2])

        def shape(node):
            if node.is_leaf:
                return frozenset(s.subscription_id for s in node.subscriptions)
            return (
                node.attribute_position,
                frozenset((v, shape(c)) for v, c in node.value_branches.items()),
                shape(node.star_child) if node.star_child is not None else None,
            )

        assert shape(churned.root) == shape(fresh.root)


class TestDomains:
    def test_domain_validation(self, schema5):
        with pytest.raises(Exception):
            ParallelSearchTree(schema5, domains={"zzz": [1, 2]})

    def test_domain_lookup(self, schema5):
        tree = ParallelSearchTree(schema5, domains={"a1": [0, 1, 2]})
        assert tree.domain_of(0) == frozenset({0, 1, 2})
        assert tree.domain_of(1) is None
