"""Unit tests for the link-matching refinement search (Section 3.3)."""

from __future__ import annotations

import pytest

from repro.core import TritVector
from repro.errors import RoutingError
from repro.matching import Event
from tests.conftest import make_subscription
from tests.oracle import LinkMatcher, TreeAnnotation, build_pst

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
