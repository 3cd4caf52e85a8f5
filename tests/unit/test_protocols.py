"""Unit tests for the three routing protocols' decision logic."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.matching import Event, uniform_schema
from repro.protocols import (
    Decision,
    FloodingProtocol,
    LinkMatchingProtocol,
    MatchFirstProtocol,
    ProtocolContext,
    SimMessage,
)
from repro.protocols.base import TopologyRepair
from tests.conftest import make_subscription

SCHEMA2 = uniform_schema(2)


def context_for(topology, expressions) -> ProtocolContext:
    subscriptions = [
        make_subscription(SCHEMA2, expression, subscriber)
        for subscriber, expression in expressions
    ]
    return ProtocolContext(topology, SCHEMA2, subscriptions)


def drive(protocol, publisher_broker, event) -> dict:
    """Run an event through the protocol hop by hop; returns broker->Decision."""
    message = protocol.make_message(event, publisher_broker)
    decisions = {}
    frontier = [(publisher_broker, message)]
    while frontier:
        broker, incoming = frontier.pop()
        decision = protocol.handle(broker, incoming)
        assert broker not in decisions, "a broker saw the event twice"
        decisions[broker] = decision
        frontier.extend(decision.sends)
    return decisions


class TestSimMessage:
    def test_forwarded_increments_hop(self, schema5):
        event = Event.from_tuple(SCHEMA2, (0, 0))
        message = SimMessage(event, "B0", publish_time_ticks=42)
        forwarded = message.forwarded()
        assert forwarded.hop == 1
        assert forwarded.publish_time_ticks == 42
        assert forwarded.message_id != message.message_id

    def test_header_entries(self):
        event = Event.from_tuple(SCHEMA2, (0, 0))
        assert SimMessage(event, "B0").header_entries == 0
        assert SimMessage(event, "B0", destinations=("a", "b")).header_entries == 2


class TestLinkMatching:
    def test_delivery_set(self, diamond_topology):
        context = context_for(
            diamond_topology, [("c.B0", "a1=1"), ("c.B3", "a1=1"), ("c.B1", "a1=2")]
        )
        protocol = LinkMatchingProtocol(context)
        decisions = drive(protocol, "B0", Event.from_tuple(SCHEMA2, (1, 0)))
        delivered = {c for d in decisions.values() for c in d.matched_deliveries}
        assert delivered == {"c.B0", "c.B3"}

    def test_untouched_brokers_not_visited(self, diamond_topology):
        context = context_for(diamond_topology, [("c.B0", "a1=1")])
        protocol = LinkMatchingProtocol(context)
        decisions = drive(protocol, "B0", Event.from_tuple(SCHEMA2, (1, 0)))
        assert set(decisions) == {"B0"}  # only the publishing broker works

    def test_a_rejoined_brokers_router_releases_its_view(self, diamond_topology):
        """One replica for every router, and one view of it per live
        router: a broker that joins again gets a new router, and the one it
        replaces stops being kept live."""
        context = context_for(diamond_topology, [("c.B0", "a1=1"), ("c.B3", "a1=1")])
        protocol = LinkMatchingProtocol(context)
        replaced = protocol.routers["B1"]
        protocol.on_topology_repaired(TopologyRepair({}, {}, ("B1",)))
        assert protocol.routers["B1"] is not replaced
        assert len(protocol.replica.views) == len(protocol.routers) == 4
        decisions = drive(protocol, "B0", Event.from_tuple(SCHEMA2, (1, 0)))
        assert {c for d in decisions.values() for c in d.matched_deliveries} == {"c.B0", "c.B3"}


class TestFlooding:
    def test_visits_every_broker(self, diamond_topology):
        context = context_for(diamond_topology, [("c.B0", "a1=1")])
        protocol = FloodingProtocol(context)
        decisions = drive(protocol, "B0", Event.from_tuple(SCHEMA2, (1, 0)))
        assert set(decisions) == set(diamond_topology.brokers())

    def test_pure_flooding_delivers_to_all_subscribers(self, diamond_topology):
        context = context_for(diamond_topology, [("c.B1", "a1=1")])
        protocol = FloodingProtocol(context)
        decisions = drive(protocol, "B0", Event.from_tuple(SCHEMA2, (9, 0)))
        sent_to = {c for d in decisions.values() for c in d.deliveries}
        assert sent_to == set(diamond_topology.subscribers())
        matched = {c for d in decisions.values() for c in d.matched_deliveries}
        assert matched == set()

    def test_pure_flooding_charges_no_matching(self, diamond_topology):
        context = context_for(diamond_topology, [("c.B1", "a1=1")])
        protocol = FloodingProtocol(context)
        decisions = drive(protocol, "B0", Event.from_tuple(SCHEMA2, (1, 0)))
        assert all(d.matching_steps == 0 for d in decisions.values())

    def test_no_duplicate_broker_visits(self, diamond_topology):
        context = context_for(diamond_topology, [])
        protocol = FloodingProtocol(context)
        # drive() asserts each broker is visited at most once.
        drive(protocol, "B3", Event.from_tuple(SCHEMA2, (0, 0)))


class TestMatchFirst:
    def test_destination_lists_carried_and_split(self, diamond_topology):
        context = context_for(
            diamond_topology, [("c.B1", "a1=1"), ("c.B3", "a1=1")]
        )
        protocol = MatchFirstProtocol(context)
        message = protocol.make_message(Event.from_tuple(SCHEMA2, (1, 0)), "B0")
        decision = protocol.handle("B0", message)
        assert decision.matching_steps > 0
        assert decision.destination_entries == 2
        forwarded = dict(decision.sends)
        assert set(forwarded) == {"B1"}
        assert set(forwarded["B1"].destinations) == {"c.B1", "c.B3"}

    def test_downstream_brokers_do_not_match(self, diamond_topology):
        context = context_for(diamond_topology, [("c.B3", "a1=1")])
        protocol = MatchFirstProtocol(context)
        decisions = drive(protocol, "B0", Event.from_tuple(SCHEMA2, (1, 0)))
        non_root = {b: d for b, d in decisions.items() if b != "B0"}
        assert all(d.matching_steps == 0 for d in non_root.values())
        delivered = {c for d in decisions.values() for c in d.deliveries}
        assert delivered == {"c.B3"}

    def test_message_without_list_at_non_publisher_rejected(self, diamond_topology):
        context = context_for(diamond_topology, [])
        protocol = MatchFirstProtocol(context)
        message = protocol.make_message(Event.from_tuple(SCHEMA2, (1, 0)), "B0")
        with pytest.raises(SimulationError):
            protocol.handle("B1", message)

    def test_empty_match_sends_nothing(self, diamond_topology):
        context = context_for(diamond_topology, [("c.B3", "a1=1")])
        protocol = MatchFirstProtocol(context)
        decisions = drive(protocol, "B0", Event.from_tuple(SCHEMA2, (5, 0)))
        assert decisions["B0"].sends == []
        assert decisions["B0"].deliveries == []


    @pytest.mark.parametrize("factoring", [None, ["a1"]])
    def test_one_matcher_serves_every_publisher_broker(self, diamond_topology, factoring):
        """Match-first only ever runs the full match, which does not depend
        on where it runs: one matcher, no router (link table, masks, private
        subscription copy) per spanning-tree root — and the same destination
        list and step count a router's ``match_locally`` reports."""
        from repro.matching.optimizations import FactoredMatcher
        from tests.unit.test_router import router_for, subscribe

        subscriptions = [
            make_subscription(SCHEMA2, expression, subscriber)
            for subscriber, expression in [("c.B1", "a1=1"), ("c.B3", "a1=1 & a2=0"), ("c.B2", "*")]
        ]
        domains = {"a1": [0, 1], "a2": [0, 1]}
        context = ProtocolContext(
            diamond_topology, SCHEMA2, subscriptions, domains=domains,
            factoring_attributes=factoring,
        )
        protocol = MatchFirstProtocol(context)
        assert isinstance(protocol._matcher, FactoredMatcher) == bool(factoring)
        assert not hasattr(protocol, "_matchers")
        event = Event.from_tuple(SCHEMA2, (1, 0))
        for root in ("B0", "B3"):  # both publisher-hosting brokers
            router = router_for(
                diamond_topology, root, SCHEMA2, domains=domains, factoring_attributes=factoring
            )
            for subscription in subscriptions:
                subscribe(router, subscription)
            local = router.match_locally(event)
            decision = protocol.handle(root, protocol.make_message(event, root))
            assert decision.matching_steps == local.steps
            assert decision.destination_entries == len(local.subscribers) == 3


class TestProtocolEquivalence:
    def test_all_protocols_deliver_the_same_matched_set(self, diamond_topology):
        import random

        rng = random.Random(3)
        expressions = []
        for i, client in enumerate(sorted(diamond_topology.subscribers())):
            tests = [f"a{j}={rng.randrange(3)}" for j in (1, 2) if rng.random() < 0.6]
            expressions.append((client, " & ".join(tests) if tests else "*"))
        context = context_for(diamond_topology, expressions)
        protocols = [
            LinkMatchingProtocol(context),
            FloodingProtocol(context),
            MatchFirstProtocol(context),
        ]
        for trial in range(50):
            event = Event.from_tuple(SCHEMA2, (rng.randrange(3), rng.randrange(3)))
            for root in ("B0", "B3"):
                results = []
                for protocol in protocols:
                    decisions = drive(protocol, root, event)
                    results.append(
                        {c for d in decisions.values() for c in d.matched_deliveries}
                    )
                assert all(r == results[0] for r in results), (trial, event, results)


class TestDecision:
    def test_matched_defaults_to_deliveries(self):
        decision = Decision(deliveries=["a", "b"])
        assert decision.matched_deliveries == ["a", "b"]

    def test_send_count(self):
        event = Event.from_tuple(SCHEMA2, (0, 0))
        decision = Decision(
            sends=[("B1", SimMessage(event, "B0"))], deliveries=["c0", "c1"]
        )
        assert decision.send_count == 3
