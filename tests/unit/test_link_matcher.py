"""Unit tests for the link-matching refinement search (Section 3.3)."""

from __future__ import annotations

import itertools

import pytest

from repro.core import TritVector
from repro.errors import RoutingError
from repro.matching import Event, create_matcher, view_of
from tests.conftest import make_subscription
from tests.oracle import (
    LinkMatcher,
    OracleView,
    ParallelSearchTree,
    TreeAnnotation,
    build_pst,
)

LINKS = {"l0": 0, "l1": 1, "l2": 2}


def build_matcher(schema, expressions):
    """expressions: list of (expression, link_name)."""
    subscriptions = [
        make_subscription(schema, expression, link)
        for expression, link in expressions
    ]
    tree = build_pst(schema, subscriptions)
    annotation = TreeAnnotation(3, lambda s: LINKS[s.subscriber])
    annotation.annotate(tree)
    return LinkMatcher(tree, annotation)


class TestRefinement:
    def test_event_matching_one_link(self, schema5):
        matcher = build_matcher(
            schema5, [("a1=1", "l0"), ("a1=2", "l1")]
        )
        result = matcher.match_links(
            Event.from_tuple(schema5, (1, 0, 0, 0, 0)), TritVector("MMM")
        )
        assert result.mask == TritVector("YNN")

    def test_event_matching_no_link(self, schema5):
        matcher = build_matcher(schema5, [("a1=1", "l0"), ("a1=2", "l1")])
        result = matcher.match_links(
            Event.from_tuple(schema5, (7, 0, 0, 0, 0)), TritVector("MMM")
        )
        assert result.mask == TritVector("NNN")

    def test_no_trits_beyond_mask(self, schema5):
        # A No in the initialization mask is never revisited, even though a
        # matching subscriber exists on that link (it is not downstream).
        matcher = build_matcher(schema5, [("a1=1", "l0")])
        result = matcher.match_links(
            Event.from_tuple(schema5, (1, 0, 0, 0, 0)), TritVector("NMM")
        )
        assert result.mask == TritVector("NNN")

    def test_star_subscription_resolves_immediately(self, schema5):
        matcher = build_matcher(schema5, [("*", "l1")])
        result = matcher.match_links(
            Event.from_tuple(schema5, (0, 0, 0, 0, 0)), TritVector("MMM")
        )
        assert result.mask[1].value == "Y"
        # The guaranteed link resolves at the root: one step, no descent.
        assert result.steps == 1

    def test_early_termination_saves_steps(self, schema5):
        # With one guaranteed and one impossible link, refinement finishes at
        # the root; a full match of the same tree would walk further.
        expressions = [("*", "l0")] + [(f"a3={v}", "l0") for v in range(3)]
        matcher = build_matcher(schema5, expressions)
        event = Event.from_tuple(schema5, (0, 0, 1, 0, 0))
        link_result = matcher.match_links(event, TritVector("MNN"))
        full = matcher.tree.match(event)
        assert link_result.steps < full.steps

    def test_partial_match_fewer_steps_than_full(self, schema5):
        # Typical case: many subscriptions on one link; once any of them is
        # guaranteed the rest need not be searched.
        expressions = [(f"a1=1 & a2={v}", "l0") for v in range(3)]
        expressions += [("a1=1", "l0")]
        matcher = build_matcher(schema5, expressions)
        event = Event.from_tuple(schema5, (1, 1, 0, 0, 0))
        link_result = matcher.match_links(event, TritVector("MNN"))
        full_steps = matcher.tree.match(event).steps
        assert link_result.mask[0].value == "Y"
        assert link_result.steps <= full_steps

    def test_wrong_schema(self, schema5, ibm_event):
        matcher = build_matcher(schema5, [("a1=1", "l0")])
        with pytest.raises(RoutingError):
            matcher.match_links(ibm_event, TritVector("MMM"))

    def test_mask_with_no_maybes_is_returned_as_is(self, schema5):
        matcher = build_matcher(schema5, [("a1=1", "l0")])
        result = matcher.match_links(
            Event.from_tuple(schema5, (1, 0, 0, 0, 0)), TritVector("NNN")
        )
        assert result.mask == TritVector("NNN")
        assert result.steps == 1

    def test_multiple_links_resolved_independently(self, schema5):
        matcher = build_matcher(
            schema5,
            [("a1=1", "l0"), ("a2=2", "l1"), ("a3=3", "l2")],
        )
        result = matcher.match_links(
            Event.from_tuple(schema5, (1, 2, 9, 0, 0)), TritVector("MMM")
        )
        assert result.mask == TritVector("YYN")

    def test_stale_annotation_detected(self, schema5):
        matcher = build_matcher(schema5, [("a1=1", "l0")])
        matcher.tree.insert(make_subscription(schema5, "a1=3", "l1"))
        with pytest.raises(RoutingError):
            matcher.match_links(
                Event.from_tuple(schema5, (3, 0, 0, 0, 0)), TritVector("MMM")
            )


def compiled_and_oracle(schema, expressions, num_links):
    """The compiled view and the oracle view over the same subscriptions,
    each bound to ``num_links`` links (``lN`` is link ``N``)."""
    compiled = view_of(create_matcher(schema))
    oracle = OracleView(ParallelSearchTree(schema))
    for expression, link in expressions:
        subscription = make_subscription(schema, expression, link)
        compiled.insert(subscription)
        oracle.insert(subscription)
    for view in (compiled, oracle):
        view.bind_links(num_links, lambda s: int(s.subscriber[1:]))
    return compiled, oracle


def trit_masks(num_links):
    """Every initialization mask over ``num_links`` links as
    ``(yes_bits, maybe_bits)``."""
    for trits in itertools.product("YNM", repeat=num_links):
        yield (
            sum(1 << i for i, t in enumerate(trits) if t == "Y"),
            sum(1 << i for i, t in enumerate(trits) if t == "M"),
        )


def assert_refines_like_the_oracle(compiled, oracle, event, num_links):
    for yes_bits, maybe_bits in trit_masks(num_links):
        assert compiled.match_links(event, yes_bits, maybe_bits) == oracle.match_links(
            event, yes_bits, maybe_bits
        ), (event, bin(yes_bits), bin(maybe_bits))


class TestCompiledRefinementFrames:
    """The compiled kernel searches a node's last applicable child in the
    node's place, without a frame; it answers, mask for mask and step for
    step, like the oracle's recursive search."""

    # The root tests a1; for a1=5 it has a value child, two matching range
    # children and a `*`-child, and each resolves a different link.
    FOUR_CHILDREN = [
        ("a1=5 & a2=0", "l0"),
        ("a1>2 & a2=0", "l1"),
        ("a1<9 & a2=0", "l2"),
        ("a2=0", "l3"),
        ("a1=5 & a2=9", "l1"),
        ("a1>2 & a2=7", "l2"),
        ("a1<9 & a2=8", "l3"),
    ]

    def test_maybes_survive_the_first_child(self, schema5):
        compiled, oracle = compiled_and_oracle(schema5, self.FOUR_CHILDREN, 4)
        event = Event.from_tuple(schema5, (5, 0, 0, 0, 0))
        # Each child resolves one link, the `*`-child (the last) resolves l3.
        assert compiled.match_links(event, 0, 0b1111) == (0b1111, 9)
        # Only l3 open: l3 is No at the first two children and Maybe at the
        # third's a2 test (a2=8), so it is still Maybe at the `*`-child.
        assert compiled.match_links(event, 0, 0b1000) == (0b1000, 7)
        for values in ((5, 0, 0, 0, 0), (5, 9, 0, 0, 0), (1, 0, 0, 0, 0), (9, 8, 0, 0, 0)):
            event = Event.from_tuple(schema5, values)
            assert_refines_like_the_oracle(compiled, oracle, event, 4)

    def test_an_early_exit_at_a_middle_child(self, schema5):
        compiled, oracle = compiled_and_oracle(schema5, self.FOUR_CHILDREN, 4)
        event = Event.from_tuple(schema5, (5, 0, 0, 0, 0))
        # l1 is resolved by the second child: the third and the `*`-child
        # are never visited.
        assert compiled.match_links(event, 0, 0b0011) == (0b0011, 5)
        assert compiled.match_links(event, 0, 0b0010) == oracle.match_links(event, 0, 0b0010)
        assert compiled.match_links(event, 0, 0b0010)[1] < compiled.match_links(
            event, 0, 0b1000
        )[1]
        assert_refines_like_the_oracle(compiled, oracle, event, 4)

    def test_a_chain_of_single_child_nodes(self, schema5):
        expressions = [
            ("a1=1 & a2=2 & a3=3 & a4=4 & a5=5", "l0"),
            ("a1=1 & a2=2 & a3=3 & a4=4 & a5=6", "l1"),
            ("a1=1 & a2=2 & a3=3 & a4=4 & a5=5", "l2"),
        ]
        compiled, oracle = compiled_and_oracle(schema5, expressions, 3)
        # Five tests and a leaf, one applicable child each.
        event = Event.from_tuple(schema5, (1, 2, 3, 4, 5))
        assert compiled.match_links(event, 0, 0b111) == (0b101, 6)
        assert compiled.match_links(event, 0b010, 0b101) == (0b111, 6)
        event = Event.from_tuple(schema5, (1, 2, 3, 4, 6))
        assert compiled.match_links(event, 0, 0b111) == (0b010, 6)
        for values in ((1, 2, 3, 4, 5), (1, 2, 3, 4, 6), (1, 2, 3, 8, 5), (1, 2, 9, 4, 5)):
            event = Event.from_tuple(schema5, values)
            assert_refines_like_the_oracle(compiled, oracle, event, 3)
