"""Tests for precise range-test annotation over declared domains, and the
domain contract enforcement in routing."""

from __future__ import annotations

import random

import pytest

from repro.core import ContentRoutedNetwork, M, N, Y
from repro.errors import RoutingError
from repro.matching import uniform_schema
from repro.network import linear_chain
from tests.conftest import make_subscription
from tests.oracle import TreeAnnotation, build_pst

SCHEMA = uniform_schema(2)
DOMAINS = {"a1": [0, 1, 2, 3], "a2": [0, 1, 2, 3]}
LINKS = {"l0": 0, "l1": 1}


def annotate(tree):
    annotation = TreeAnnotation(2, lambda s: LINKS[s.subscriber])
    root = annotation.annotate(tree)
    return annotation, root


class TestPreciseRangeAnnotation:
    def test_range_covering_domain_promotes_to_yes(self):
        # a1>=0 accepts the whole domain: a guaranteed match on l0.
        tree = build_pst(
            SCHEMA, [make_subscription(SCHEMA, "a1>=0", "l0")], domains=DOMAINS
        )
        _annotation, root = annotate(tree)
        assert root[0] is Y

    def test_partial_range_is_maybe(self):
        tree = build_pst(
            SCHEMA, [make_subscription(SCHEMA, "a1>1", "l0")], domains=DOMAINS
        )
        _annotation, root = annotate(tree)
        assert root[0] is M

    def test_unsatisfiable_range_over_domain_is_no(self):
        # a1>5 accepts no domain value: definitely-No on that link.
        tree = build_pst(
            SCHEMA, [make_subscription(SCHEMA, "a1>5", "l0")], domains=DOMAINS
        )
        _annotation, root = annotate(tree)
        assert root[0] is N

    def test_complementary_ranges_promote_to_yes(self):
        # a1<2 and a1>=2 jointly cover the domain on the same link.
        tree = build_pst(
            SCHEMA,
            [
                make_subscription(SCHEMA, "a1<2", "l0"),
                make_subscription(SCHEMA, "a1>=2", "l0"),
            ],
            domains=DOMAINS,
        )
        _annotation, root = annotate(tree)
        assert root[0] is Y

    def test_complementary_ranges_on_different_links(self):
        tree = build_pst(
            SCHEMA,
            [
                make_subscription(SCHEMA, "a1<2", "l0"),
                make_subscription(SCHEMA, "a1>=2", "l1"),
            ],
            domains=DOMAINS,
        )
        _annotation, root = annotate(tree)
        assert root[0] is M and root[1] is M  # each link only sometimes

    def test_equality_plus_range_cover(self):
        # values {0} via equality, {1,2,3} via range: jointly exhaustive.
        tree = build_pst(
            SCHEMA,
            [
                make_subscription(SCHEMA, "a1=0", "l0"),
                make_subscription(SCHEMA, "a1>0", "l0"),
            ],
            domains=DOMAINS,
        )
        _annotation, root = annotate(tree)
        assert root[0] is Y

    def test_without_domain_ranges_stay_conservative(self):
        tree = build_pst(SCHEMA, [make_subscription(SCHEMA, "a1>=0", "l0")])
        _annotation, root = annotate(tree)
        assert root[0] is M  # open domain: cannot promise anything


class TestDomainContract:
    def test_out_of_domain_event_rejected_by_router(self):
        network = ContentRoutedNetwork(
            linear_chain(2, subscribers_per_broker=1), SCHEMA, domains=DOMAINS
        )
        network.subscribe("S.B1.00", "a1=1")
        with pytest.raises(RoutingError, match="outside the declared domain"):
            network.publish("P1", {"a1": 9, "a2": 0})

    def test_in_domain_events_route_normally(self):
        network = ContentRoutedNetwork(
            linear_chain(2, subscribers_per_broker=1), SCHEMA, domains=DOMAINS
        )
        network.subscribe("S.B1.00", "a1=1")
        trace = network.publish("P1", {"a1": 1, "a2": 0})
        assert trace.delivered_clients == {"S.B1.00"}

    def test_no_domains_no_restriction(self):
        network = ContentRoutedNetwork(
            linear_chain(2, subscribers_per_broker=1), SCHEMA
        )
        network.subscribe("S.B1.00", "a1=9000")
        trace = network.publish("P1", {"a1": 9000, "a2": 0})
        assert trace.delivered_clients == {"S.B1.00"}


class TestRangeRoutingEquivalence:
    def test_random_range_workload_delivers_exactly(self):
        rng = random.Random(17)
        topology = linear_chain(4, subscribers_per_broker=2)
        network = ContentRoutedNetwork(topology, SCHEMA, domains=DOMAINS)
        operators = ["<", "<=", ">", ">=", "=", "!="]
        for client in topology.subscribers():
            clauses = []
            for name in ("a1", "a2"):
                if rng.random() < 0.7:
                    op = rng.choice(operators)
                    clauses.append(f"{name}{op}{rng.randrange(4)}")
            network.subscribe(client, " & ".join(clauses) if clauses else "*")
        for _ in range(200):
            event = {"a1": rng.randrange(4), "a2": rng.randrange(4)}
            trace = network.publish("P1", event)
            assert trace.delivered_clients == network.expected_recipients(event)
