"""Regression: a repair that changes the virtual-link layout must rebind the
engine's link annotations.

After a topology repair changes which destination sits behind which link
position, the same packed mask bits denote *different* links — annotations
(or anything else) keyed on the old positions would route events to the
pre-failure destinations.  ``ContentRouter.rebuild_links`` must therefore
rebind the engine exactly when the layout changed.  The tree engine rides
along as the oracle.
"""

from __future__ import annotations

import pytest

from repro.core.router import ContentRouter
from repro.matching import Event, Subscription, create_matcher, parse_predicate, uniform_schema
from repro.network.paths import RoutingTable
from repro.network.spanning import SpanningTree
from repro.network.topology import NodeKind, Topology

SCHEMA = uniform_schema(2)
DOMAINS = {"a1": [0, 1], "a2": [0, 1]}
ROOT = "B0"


def build_topology() -> Topology:
    """B0-B1-B2-B3 chain with a B1-B3 lateral; subscriber behind each tail
    broker.  Failing B1-B2 re-parents B2 under B3 via the lateral, which
    reverses which of B1's links reaches which subscriber."""
    topology = Topology()
    for i in range(4):
        topology.add_broker(f"B{i}")
    for i in range(3):
        topology.add_link(f"B{i}", f"B{i + 1}", latency_ms=10.0)
    topology.add_link("B1", "B3", latency_ms=25.0)
    topology.add_client("P1", "B0", kind=NodeKind.PUBLISHER)
    topology.add_client("S2", "B2")
    topology.add_client("S3", "B3")
    return topology


def build_router(topology, table, trees, engine):
    replica = create_matcher(SCHEMA, engine=engine, domains=DOMAINS)
    router = ContentRouter(topology, "B1", table, trees, replica)
    for subscriber, expression in (("S2", "a1=0"), ("S3", "a1=1")):
        subscription = Subscription(parse_predicate(SCHEMA, expression), subscriber)
        replica.insert(subscription)
        router.add_subscription(subscription)
    return router


EVENTS = [Event.from_tuple(SCHEMA, (0, 0)), Event.from_tuple(SCHEMA, (1, 0))]


@pytest.mark.parametrize("engine", ["compiled", "tree"])
def test_routes_follow_the_repaired_layout_after_failover(engine):
    topology = build_topology()
    tree = SpanningTree(topology, ROOT)
    table = RoutingTable(topology, "B1")
    router = build_router(topology, table, {ROOT: tree}, engine)

    # Every domain event routed once against the healthy layout.
    before = {e.as_tuple(): router.route(e, ROOT).forward_to for e in EVENTS}
    assert before[(0, 0)] == ["B2"]
    assert before[(1, 0)] == ["B2"]  # S3 also sits behind B2 when healthy

    topology.remove_link("B1", "B2")
    tree.repair()
    table.repair()
    changed = router.rebuild_links(table, {ROOT: tree})
    assert changed, "layout must be reported as changed"

    # The same events now hit the repaired layout: both subscribers hang
    # off the lateral to B3.  A stale annotation would keep saying B2.
    fresh_tree = SpanningTree(topology, ROOT, partial=True)
    fresh_router = build_router(
        topology, RoutingTable(topology, "B1"), {ROOT: fresh_tree}, engine
    )
    for event in EVENTS:
        repaired = router.route(event, ROOT)
        fresh = fresh_router.route(event, ROOT)
        assert repaired.forward_to == fresh.forward_to == ["B3"]
        assert repaired.deliver_to == fresh.deliver_to
        assert str(repaired.mask) == str(fresh.mask)


@pytest.mark.parametrize("engine", ["compiled", "tree"])
def test_unchanged_layout_reports_no_change(engine):
    """Failing a link the layout never used rebinds nothing."""
    topology = build_topology()
    tree = SpanningTree(topology, ROOT)
    table = RoutingTable(topology, "B1")
    router = build_router(topology, table, {ROOT: tree}, engine)
    before = {e.as_tuple(): router.route(e, ROOT).forward_to for e in EVENTS}

    # The lateral is not on any shortest path while the chain is healthy.
    topology.remove_link("B1", "B3")
    tree.repair()
    table.repair()
    assert router.rebuild_links(table, {ROOT: tree}) is False
    for event in EVENTS:
        assert router.route(event, ROOT).forward_to == before[event.as_tuple()]
