"""Broker restart and subscription resync (anti-entropy on hello)."""

from __future__ import annotations

import pytest

from repro.broker import (
    BrokerClient,
    BrokerNetworkConfig,
    BrokerNode,
    InMemoryTransport,
)
from repro.matching import uniform_schema
from repro.network import NodeKind, Topology
from repro.testkit import InMemoryBrokerHarness

SCHEMA = uniform_schema(2)


def build_world():
    topology = Topology()
    topology.add_broker("B0")
    topology.add_broker("B1")
    topology.add_link("B0", "B1", latency_ms=5.0)
    topology.add_client("alice", "B0")
    topology.add_client("bob", "B1")
    topology.add_client("pub", "B0", kind=NodeKind.PUBLISHER)
    config = BrokerNetworkConfig(topology, SCHEMA)
    transport = InMemoryTransport()
    endpoints = {"B0": "mem://B0", "B1": "mem://B1"}
    return topology, config, transport, endpoints


def start_node(config, name, transport, endpoints):
    node = BrokerNode(config, name, transport, endpoints)
    node.start()
    return node


def attach(name, transport, broker_endpoint):
    client = BrokerClient(name, SCHEMA, transport, broker_endpoint, pump=transport.pump)
    client.connect()
    transport.pump()
    return client


class TestRestartResync:
    def test_restarted_broker_relearns_subscriptions(self):
        topology, config, transport, endpoints = build_world()
        b0 = start_node(config, "B0", transport, endpoints)
        b1 = start_node(config, "B1", transport, endpoints)
        b0.connect_neighbors()
        transport.pump()
        alice = attach("alice", transport, "mem://B0")
        alice.subscribe_and_wait("a1=1")
        transport.pump()
        assert b1.subscription_count == 1

        # B1 crashes and restarts with empty state.
        b1.stop()
        transport.pump()
        b1_listener_free = InMemoryTransport(transport.hub)  # same hub
        b1_restarted = start_node(config, "B1", b1_listener_free, endpoints)
        assert b1_restarted.subscription_count == 0
        # B0 re-dials; the hello handshake must resync B1.
        b0.dial_broker("B1")
        transport.pump()
        assert b1_restarted.subscription_count == 1

        # And routing through the restarted broker works again.
        bob = attach("bob", transport, "mem://B1")
        bob.subscribe_and_wait("a2=1")
        transport.pump()
        pub = attach("pub", transport, "mem://B0")
        pub.publish({"a1": 0, "a2": 1})
        transport.pump()
        assert len(bob.received_events) == 1

    def test_restarted_broker_dialing_out_gets_resynced(self):
        topology, config, transport, endpoints = build_world()
        b0 = start_node(config, "B0", transport, endpoints)
        b1 = start_node(config, "B1", transport, endpoints)
        b0.connect_neighbors()
        transport.pump()
        alice = attach("alice", transport, "mem://B0")
        alice.subscribe_and_wait("a1=1")
        transport.pump()

        b1.stop()
        transport.pump()
        b1_restarted = start_node(config, "B1", InMemoryTransport(transport.hub), endpoints)
        # This time the restarted broker dials out itself.
        b1_restarted.dial_broker("B0")
        transport.pump()
        assert b1_restarted.subscription_count == 1

    def test_resync_is_idempotent(self):
        topology, config, transport, endpoints = build_world()
        b0 = start_node(config, "B0", transport, endpoints)
        b1 = start_node(config, "B1", transport, endpoints)
        b0.connect_neighbors()
        transport.pump()
        alice = attach("alice", transport, "mem://B0")
        alice.subscribe_and_wait("a1=1")
        transport.pump()
        # Redundant re-dials must not duplicate subscriptions anywhere.
        b0.dial_broker("B1")
        transport.pump()
        b1.dial_broker("B0")
        transport.pump()
        assert b0.subscription_count == 1
        assert b1.subscription_count == 1


class TestRestartReplay:
    def test_forwards_parked_for_a_stopped_broker_reach_the_far_side_once(self):
        with InMemoryBrokerHarness.for_chain(3, SCHEMA) as harness:
            far = harness.attach("S.B2.00")
            pub = harness.attach("P1")
            far.subscribe_and_wait("*")
            harness.settle()
            pub.publish({"a1": 0, "a2": 0})
            harness.settle()
            harness.node("B1").stop()
            harness.settle()
            for a2 in (1, 2, 3):
                pub.publish({"a1": 0, "a2": a2})
            harness.settle()
            assert len(far.received_events) == 1
            harness.restart_broker("B1")
            pub.publish({"a1": 0, "a2": 4})
            harness.settle()
            assert [event.value("a2") for event in far.received_events] == [0, 1, 2, 3, 4]


class TestOutageUnsubscribe:
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 18")
    def test_an_unsubscribe_during_an_outage_stays_undone(self):
        """F9: the re-dial's subscription sync brings back a subscription
        cancelled while the link was down, at every broker."""
        with InMemoryBrokerHarness.for_chain(3, SCHEMA) as harness:
            subscriber = harness.attach("S.B2.00")
            pub = harness.attach("P1")
            subscription_id = subscriber.subscribe_and_wait("a1=1")
            harness.settle()

            def counts():
                return [harness.node(b).subscription_count for b in ("B0", "B1", "B2")]

            assert counts() == [1, 1, 1]
            harness.node("B0")._broker_connections["B1"].close()
            harness.settle()
            subscriber.unsubscribe_and_wait(subscription_id)
            harness.settle()
            assert counts() == [1, 0, 0]
            harness.node("B0").dial_broker("B1")
            harness.settle()
            pub.publish({"a1": 1, "a2": 0})
            harness.settle()
            assert (counts(), subscriber.received_events) == ([0, 0, 0], [])
