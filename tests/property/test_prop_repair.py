"""Property: incremental topology repair ≡ rebuild-from-scratch.

After any single element failure (or its recovery), the repaired spanning
tree, routing tables, virtual-link tables / initialization masks, and the
routing decisions driven by per-link trit annotations must be *identical*
to structures built fresh on the mutated topology.  This is the contract
the fault coordinator leans on: it never rebuilds, it only repairs.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.masks import VirtualLinkTable
from repro.core.router import ContentRouter
from repro.matching import Event, Subscription, create_matcher, parse_predicate, uniform_schema
from repro.errors import RoutingError
from repro.network.paths import RoutingTable
from repro.network.spanning import SpanningTree
from repro.network.topology import NodeKind, Topology

SCHEMA = uniform_schema(3)
DOMAINS = {f"a{i}": [0, 1, 2] for i in range(1, 4)}
ALL_EVENTS = [
    Event.from_tuple(SCHEMA, (a, b, c))
    for a in range(3)
    for b in range(3)
    for c in range(3)
]


def chain_with_lateral() -> Topology:
    topology = Topology()
    for i in range(5):
        topology.add_broker(f"B{i}")
    for i in range(4):
        topology.add_link(f"B{i}", f"B{i + 1}", latency_ms=10.0)
    topology.add_link("B1", "B3", latency_ms=25.0)
    topology.add_client("P1", "B0", kind=NodeKind.PUBLISHER)
    for i in range(5):
        topology.add_client(f"S.B{i}.0", f"B{i}")
    return topology


def diamond() -> Topology:
    topology = Topology()
    for name in ("B0", "B1", "B2", "B3"):
        topology.add_broker(name)
    topology.add_link("B0", "B1", latency_ms=10.0)
    topology.add_link("B0", "B2", latency_ms=15.0)
    topology.add_link("B1", "B3", latency_ms=10.0)
    topology.add_link("B2", "B3", latency_ms=15.0)
    topology.add_client("P1", "B0", kind=NodeKind.PUBLISHER)
    for name in ("B1", "B2", "B3"):
        topology.add_client(f"S.{name}", name)
    return topology


BUILDERS = {"chain": chain_with_lateral, "diamond": diamond}
ROOT = "B0"


def broker_links(topology: Topology):
    return sorted(
        link.key()
        for link in topology.links()
        if not topology.node(link.a).kind.is_client
        and not topology.node(link.b).kind.is_client
    )


def fail_element(topology: Topology, element):
    """Mutate like the fault coordinator: cut a link, or every broker-broker
    link of a broker (clients stay attached).  Returns the cut links."""
    if isinstance(element, tuple):
        return [topology.remove_link(*element)]
    return [
        topology.remove_link(element, neighbor)
        for neighbor in list(topology.broker_neighbors(element))
    ]


def restore(topology: Topology, removed) -> None:
    for link in removed:
        topology.add_link(link.a, link.b, latency_ms=link.latency_ms)


def subscriptions_for(topology: Topology):
    rng = random.Random(4)
    subscriptions = []
    for client in sorted(topology.subscribers()):
        tests = [f"a{j}={rng.randrange(3)}" for j in range(1, 4) if rng.random() < 0.6]
        expression = " & ".join(tests) if tests else "*"
        subscriptions.append(
            Subscription(parse_predicate(SCHEMA, expression), client)
        )
    return subscriptions


def assert_structures_equal(topology, tree, tables, link_tables) -> None:
    """Repaired structures vs fresh builds on the mutated topology."""
    fresh_tree = SpanningTree(topology, ROOT, partial=True)
    assert tree.parent == fresh_tree.parent
    assert {n: sorted(c) for n, c in tree.children.items()} == {
        n: sorted(c) for n, c in fresh_tree.children.items()
    }
    assert all(
        tree.descendants(node) == fresh_tree.descendants(node)
        for node in tree.parent
    )
    fresh_trees = {ROOT: fresh_tree}
    for broker, table in tables.items():
        fresh_table = RoutingTable(topology, broker)
        for destination in sorted(topology.clients()) + sorted(topology.brokers()):
            assert table.reaches(destination) == fresh_table.reaches(destination)
            if table.reaches(destination) and destination != broker:
                assert table.next_hop(destination) == fresh_table.next_hop(destination)
        fresh_links = VirtualLinkTable(topology, broker, fresh_table, fresh_trees)
        assert link_tables[broker].layout() == fresh_links.layout()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_repair_equals_rebuild(data):
    name = data.draw(st.sampled_from(sorted(BUILDERS)), label="topology")
    topology = BUILDERS[name]()
    elements = list(broker_links(topology)) + [
        broker for broker in sorted(topology.brokers()) if broker != ROOT
    ]
    element = data.draw(st.sampled_from(elements), label="failed element")
    recover = data.draw(st.booleans(), label="recover")

    tree = SpanningTree(topology, ROOT)
    tables = {broker: RoutingTable(topology, broker) for broker in topology.brokers()}
    link_tables = {
        broker: VirtualLinkTable(topology, broker, tables[broker], {ROOT: tree})
        for broker in topology.brokers()
    }

    removed = fail_element(topology, element)
    tree.repair()
    for broker, table in tables.items():
        table.repair()
        link_tables[broker].rebuild(table, {ROOT: tree})
    assert_structures_equal(topology, tree, tables, link_tables)

    if recover:
        restore(topology, removed)
        tree.repair()
        for broker, table in tables.items():
            table.repair()
            link_tables[broker].rebuild(table, {ROOT: tree})
        assert_structures_equal(topology, tree, tables, link_tables)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_repaired_router_decisions_equal_fresh(data):
    """Per-link trit annotations, functionally: a repaired router (rebuilt
    virtual links, rebound engine) routes every event in the domain exactly
    like a router built from scratch on the mutated topology."""
    topology = chain_with_lateral()
    elements = [
        key for key in broker_links(topology) if key != ("B0", "B1")
    ] + ["B2", "B3", "B4"]
    element = data.draw(st.sampled_from(elements), label="failed element")
    subscriptions = subscriptions_for(topology)

    def build_router(table, trees):
        replica = create_matcher(SCHEMA, domains=DOMAINS)
        router = ContentRouter(topology, "B1", table, trees, replica)
        for subscription in subscriptions:
            replica.insert(subscription)
            try:
                router.add_subscription(subscription)
            except RoutingError:
                # Subscriber currently cut off — the protocol defers these
                # (see LinkMatchingProtocol._build_router); the replica
                # keeps them indexed with no link to light, which must route
                # identically.
                pass
        return router

    tree = SpanningTree(topology, ROOT)
    table = RoutingTable(topology, "B1")
    router = build_router(table, {ROOT: tree})
    for event in ALL_EVENTS[:3]:  # warm caches pre-failure
        router.route(event, ROOT)

    fail_element(topology, element)
    tree.repair()
    table.repair()
    router.rebuild_links(table, {ROOT: tree})

    fresh_tree = SpanningTree(topology, ROOT, partial=True)
    fresh_table = RoutingTable(topology, "B1")
    fresh_router = build_router(fresh_table, {ROOT: fresh_tree})

    for event in ALL_EVENTS:
        repaired = router.route(event, ROOT)
        fresh = fresh_router.route(event, ROOT)
        assert repaired.forward_to == fresh.forward_to, event
        assert repaired.deliver_to == fresh.deliver_to, event
        assert str(repaired.mask) == str(fresh.mask), event
