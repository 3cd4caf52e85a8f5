"""Property-based tests of end-to-end link-matching delivery.

Hypothesis builds random tree-plus-chords broker topologies, random client
placements, random subscription sets and random events, then checks the
delivery-equivalence invariant (exact match set, one copy per link, no
broker visited twice).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ContentRoutedNetwork
from repro.core.router import ContentRouter
from repro.matching import (
    EqualityTest,
    Event,
    Predicate,
    Subscription,
    create_matcher,
    uniform_schema,
)
from repro.network import NodeKind, Topology
from repro.network.paths import all_routing_tables
from repro.network.spanning import spanning_trees_for_publishers
from tests.integration.test_config_matrix import CONSTRUCTIBLE

SCHEMA = uniform_schema(3)
DOMAIN = [0, 1]
DOMAINS = {name: DOMAIN for name in SCHEMA.names}


@st.composite
def topologies(draw):
    """A connected broker graph: random tree + up to 2 extra chord links."""
    num_brokers = draw(st.integers(min_value=1, max_value=6))
    topology = Topology()
    names = [f"B{i}" for i in range(num_brokers)]
    for i, name in enumerate(names):
        topology.add_broker(name)
        if i > 0:
            parent = names[draw(st.integers(min_value=0, max_value=i - 1))]
            latency = draw(st.sampled_from([5.0, 10.0, 25.0]))
            topology.add_link(parent, name, latency_ms=latency)
    # Chords make the graph cyclic, exercising virtual links.
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        a = draw(st.sampled_from(names))
        b = draw(st.sampled_from(names))
        if a != b:
            try:
                topology.add_link(a, b, latency_ms=draw(st.sampled_from([5.0, 40.0])))
            except Exception:
                pass  # duplicate link; skip
    num_subscribers = draw(st.integers(min_value=1, max_value=5))
    for i in range(num_subscribers):
        home = draw(st.sampled_from(names))
        topology.add_client(f"c{i}", home)
    num_publishers = draw(st.integers(min_value=1, max_value=2))
    for i in range(num_publishers):
        home = draw(st.sampled_from(names))
        topology.add_client(f"P{i}", home, kind=NodeKind.PUBLISHER)
    return topology


predicate_specs = st.tuples(
    *(st.one_of(st.none(), st.sampled_from(DOMAIN)) for _ in range(3))
)
events = st.tuples(*(st.sampled_from(DOMAIN) for _ in range(3)))


def add_subscriptions(network, specs_by_client):
    for client, specs in specs_by_client:
        tests = {
            name: EqualityTest(value)
            for name, value in zip(SCHEMA.names, specs)
            if value is not None
        }
        network.subscribe(client, Predicate(SCHEMA, tests))


class TestRandomNetworks:
    @given(
        topology=topologies(),
        subscription_data=st.lists(predicate_specs, min_size=0, max_size=10),
        event_values=events,
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_delivery_equivalence(self, topology, subscription_data, event_values, data):
        network = ContentRoutedNetwork(topology, SCHEMA, domains=DOMAINS)
        subscribers = topology.subscribers()
        specs_by_client = [
            (data.draw(st.sampled_from(subscribers)), specs)
            for specs in subscription_data
        ]
        add_subscriptions(network, specs_by_client)
        event = Event.from_tuple(SCHEMA, event_values)
        expected = network.expected_recipients(event)
        for publisher in topology.publishers():
            trace = network.publish(publisher, event)
            assert trace.delivered_clients == expected
            assert len(trace.links_used) == len(set(trace.links_used))
            targets = [target for _source, target in trace.links_used]
            assert len(targets) == len(set(targets))  # nobody reached twice

    @given(
        topology=topologies(),
        subscription_data=st.lists(predicate_specs, min_size=0, max_size=8),
        event_values=events,
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_factored_routing_agrees_with_plain(
        self, topology, subscription_data, event_values, data
    ):
        plain = ContentRoutedNetwork(topology, SCHEMA, domains=DOMAINS)
        factored = ContentRoutedNetwork(
            topology, SCHEMA, domains=DOMAINS, factoring_attributes=["a1"]
        )
        subscribers = topology.subscribers()
        specs_by_client = [
            (data.draw(st.sampled_from(subscribers)), specs)
            for specs in subscription_data
        ]
        add_subscriptions(plain, specs_by_client)
        add_subscriptions(factored, specs_by_client)
        event = Event.from_tuple(SCHEMA, event_values)
        for publisher in topology.publishers():
            assert (
                plain.publish(publisher, event).delivered_clients
                == factored.publish(publisher, event).delivered_clients
            )


def decision_fields(decision):
    return (
        decision.forward_to,
        decision.deliver_to,
        decision.steps,
        str(decision.mask),
        decision.epoch,
    )


class _RouterSet:
    """One router per broker over one subscription set, configured by one
    ``(engine, factored)`` row: all viewing one replica (``shared``) or each
    its own — by default the unfactored tree-engine oracle."""

    def __init__(self, topology, tables, trees, row=("tree", False), shared=False):
        engine, factored = row
        options = dict(
            domains=DOMAINS, engine=engine, factoring_attributes=["a1"] if factored else None
        )
        self.replica = create_matcher(SCHEMA, **options) if shared else None
        self.routers = {
            broker: ContentRouter(
                topology,
                broker,
                tables[broker],
                trees,
                self.replica if shared else create_matcher(SCHEMA, **options),
            )
            for broker in topology.brokers()
        }

    def replicas(self):
        if self.replica is not None:
            return [self.replica]
        return [router.replica for router in self.routers.values()]

    def add(self, subscription):
        for replica in self.replicas():
            replica.insert(subscription)
        for router in self.routers.values():
            router.add_subscription(subscription)

    def remove(self, subscription_id):
        for replica in self.replicas():
            replica.remove(subscription_id)
        for router in self.routers.values():
            router.remove_subscription(subscription_id)


@pytest.mark.parametrize(
    "row",
    CONSTRUCTIBLE,
    ids=[engine if factored else f"{engine}-whole" for engine, factored in CONSTRUCTIBLE],
)
class TestSharedMatcherEqualsPrivate:
    """N routers sharing one subscription replica decide exactly what N
    routers with a private replica each decide — same neighbors, same
    steps, same mask, same epoch — through any interleaving of subscription
    churn, routing and link rebuilds, on every configuration; and both send
    where the unfactored tree-engine router sends (a staleness bug common to
    both would otherwise compare equal)."""

    @given(topology=topologies(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_interleaved_operations(self, row, topology, data):
        tables = all_routing_tables(topology)
        trees = spanning_trees_for_publishers(topology)
        shared = _RouterSet(topology, tables, trees, row, shared=True)
        private = _RouterSet(topology, tables, trees, row)
        oracle = _RouterSet(topology, tables, trees)
        assert {id(r.replica) for r in shared.routers.values()} == {id(shared.replica)}
        brokers, roots = topology.brokers(), sorted(trees)
        live = []
        for _ in range(data.draw(st.integers(min_value=3, max_value=14))):
            op = data.draw(
                st.sampled_from(["add", "add", "remove", "route", "batch", "local", "links"])
            )
            if op == "add":
                specs = data.draw(predicate_specs)
                tests = {
                    name: EqualityTest(value)
                    for name, value in zip(SCHEMA.names, specs)
                    if value is not None
                }
                subscription = Subscription(
                    Predicate(SCHEMA, tests),
                    data.draw(st.sampled_from(topology.subscribers())),
                )
                live.append(subscription.subscription_id)
                for routers in (shared, private, oracle):
                    routers.add(subscription)
            elif op == "remove" and live:
                victim = live.pop(data.draw(st.integers(0, len(live) - 1)))
                for routers in (shared, private, oracle):
                    routers.remove(victim)
            elif op == "links":
                a, b = data.draw(st.sampled_from(brokers)), data.draw(st.sampled_from(brokers))
                if a == b:
                    continue
                if topology.has_link(a, b):
                    removed = topology.remove_link(a, b)
                    if not topology.is_connected():  # keep every subscriber reachable
                        topology.add_link(a, b, latency_ms=removed.latency_ms)
                        continue
                else:
                    topology.add_link(a, b, latency_ms=15.0)
                for tree in trees.values():
                    tree.repair()
                for table in tables.values():
                    table.repair()
                for broker in brokers:
                    assert len(
                        {
                            routers.routers[broker].rebuild_links(tables[broker], trees)
                            for routers in (shared, private, oracle)
                        }
                    ) == 1
                # Rebinding views leaks none: one per live router.
                assert len(shared.replica.views) == len(brokers)
            else:
                broker = data.draw(st.sampled_from(brokers))
                ours, theirs = shared.routers[broker], private.routers[broker]
                batch = [
                    Event.from_tuple(SCHEMA, values)
                    for values in data.draw(st.lists(events, min_size=1, max_size=4))
                ]
                if op == "local":
                    for a, b in zip(
                        ours.match_locally_batch(batch), theirs.match_locally_batch(batch)
                    ):
                        assert a.steps == b.steps
                        assert sorted(s.subscription_id for s in a.subscriptions) == sorted(
                            s.subscription_id for s in b.subscriptions
                        )
                    continue
                root = data.draw(st.sampled_from(roots))
                if op == "route":
                    got = [ours.route(event, root) for event in batch]
                    want = [theirs.route(event, root) for event in batch]
                else:
                    got, want = ours.route_batch(batch, root), theirs.route_batch(batch, root)
                assert [decision_fields(d) for d in got] == [decision_fields(d) for d in want]
                assert [(d.forward_to, d.deliver_to) for d in got] == [
                    (d.forward_to, d.deliver_to)
                    for d in oracle.routers[broker].route_batch(batch, root)
                ]
        # Whatever the history, every broker agrees with its private twin on
        # every event of the (tiny) event space, from every root.
        everything = [
            Event.from_tuple(SCHEMA, (a, b, c)) for a in DOMAIN for b in DOMAIN for c in DOMAIN
        ]
        for broker in brokers:
            for root in roots:
                got, want, truth = (
                    routers.routers[broker].route_batch(everything, root)
                    for routers in (shared, private, oracle)
                )
                assert [decision_fields(d) for d in got] == [decision_fields(d) for d in want]
                assert [(d.forward_to, d.deliver_to) for d in got] == [
                    (d.forward_to, d.deliver_to) for d in truth
                ]
