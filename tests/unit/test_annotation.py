"""Unit tests for PST trit-vector annotation (Section 3.1)."""

from __future__ import annotations

import pytest

from repro.core import M, N, TreeAnnotation, TritVector, Y
from repro.errors import RoutingError
from repro.matching import ParallelSearchTree, build_pst
from tests.conftest import make_subscription

#: Map subscriber names to link positions for these tests.
LINKS = {"l0": 0, "l1": 1, "l2": 2}


def link_of(subscription) -> int:
    return LINKS[subscription.subscriber]


def annotate(tree: ParallelSearchTree, num_links: int = 3) -> TreeAnnotation:
    annotation = TreeAnnotation(num_links, link_of)
    annotation.annotate(tree)
    return annotation


class TestLeafAnnotation:
    def test_leaf_yes_at_subscriber_links(self, schema5):
        tree = build_pst(
            schema5,
            [
                make_subscription(schema5, "a1=1", "l0"),
                make_subscription(schema5, "a1=1", "l2"),
            ],
        )
        annotation = annotate(tree)
        leaf = next(node for node in tree.nodes() if node.is_leaf)
        assert annotation.vector_for(leaf) == TritVector("YNY")

    def test_out_of_range_link_position(self, schema5):
        tree = build_pst(schema5, [make_subscription(schema5, "a1=1", "l2")])
        annotation = TreeAnnotation(2, link_of)  # only 2 links but position 2
        with pytest.raises(RoutingError):
            annotation.annotate(tree)


class TestPropagation:
    def test_star_only_tree_is_yes(self, schema5):
        # A match-all subscription guarantees delivery on its link at the root.
        tree = build_pst(schema5, [make_subscription(schema5, "*", "l1")])
        annotation = annotate(tree)
        assert annotation.vector_for(tree.root)[1] is Y

    def test_value_branch_without_domain_is_maybe(self, schema5):
        tree = build_pst(schema5, [make_subscription(schema5, "a1=1", "l0")])
        annotation = annotate(tree)
        # Without domain knowledge the root cannot promise a match: an event
        # with a1 != 1 misses the only subscription.
        assert annotation.vector_for(tree.root)[0] is M
        assert annotation.vector_for(tree.root)[1] is N

    def test_covered_domain_promotes_to_yes(self, schema5):
        subscriptions = [
            make_subscription(schema5, f"a1={value}", "l0") for value in (0, 1, 2)
        ]
        tree = build_pst(schema5, subscriptions, domains={"a1": [0, 1, 2]})
        annotation = annotate(tree)
        # Every domain value has a subscription on link 0: guaranteed match.
        assert annotation.vector_for(tree.root)[0] is Y

    def test_partially_covered_domain_stays_maybe(self, schema5):
        subscriptions = [
            make_subscription(schema5, f"a1={value}", "l0") for value in (0, 1)
        ]
        tree = build_pst(schema5, subscriptions, domains={"a1": [0, 1, 2]})
        annotation = annotate(tree)
        assert annotation.vector_for(tree.root)[0] is M

    def test_no_subscriptions_is_all_no(self, schema5):
        tree = ParallelSearchTree(schema5)
        annotation = annotate(tree)
        assert annotation.vector_for(tree.root) == TritVector("NNN")

    def test_mixed_links(self, schema5):
        tree = build_pst(
            schema5,
            [
                make_subscription(schema5, "*", "l0"),       # guaranteed on l0
                make_subscription(schema5, "a2=1", "l1"),    # conditional on l1
            ],
        )
        annotation = annotate(tree)
        root = annotation.vector_for(tree.root)
        assert root[0] is Y
        assert root[1] is M
        assert root[2] is N

    def test_range_branches_are_conservative(self, stock_schema):
        def stock_link(subscription):
            return 0

        tree = build_pst(
            stock_schema, [make_subscription(stock_schema, "price<120", "any")]
        )
        annotation = TreeAnnotation(1, stock_link)
        annotation.annotate(tree)
        # A range test can never produce Yes at the root (no domain coverage
        # reasoning for ranges) but must not produce No either.
        assert annotation.vector_for(tree.root)[0] is M


class TestStaleness:
    def test_vector_for_unannotated_node(self, schema5):
        tree = build_pst(schema5, [make_subscription(schema5, "a1=1", "l0")])
        annotation = annotate(tree)
        tree.insert(make_subscription(schema5, "a1=2", "l1"))
        new_leaf = [
            node
            for node in tree.nodes()
            if node.is_leaf and any(s.subscriber == "l1" for s in node.subscriptions)
        ][0]
        with pytest.raises(RoutingError):
            annotation.vector_for(new_leaf)

    def test_reannotation_picks_up_changes(self, schema5):
        tree = build_pst(schema5, [make_subscription(schema5, "a1=1", "l0")])
        annotation = annotate(tree)
        tree.insert(make_subscription(schema5, "*", "l1"))
        annotation.annotate(tree)
        assert annotation.vector_for(tree.root)[1] is Y
