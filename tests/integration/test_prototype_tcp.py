"""TCP end-to-end test of the prototype broker network (real sockets)."""

from __future__ import annotations

import contextlib
import time

import pytest

from repro.broker import (
    BrokerClient,
    BrokerNetworkConfig,
    BrokerNode,
    RequestFailed,
    TcpTransport,
)
from repro.broker import messages as wire
from repro.matching import stock_trade_schema
from repro.network import NodeKind, Topology


def wait_until(predicate, timeout_s=8.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


@contextlib.contextmanager
def running_tcp_network(**config_kwargs):
    """B0 - B1 - B2 over loopback: alice@B0, carol@B2, pub@B1."""
    schema = stock_trade_schema()
    topology = Topology()
    topology.add_broker("B0")
    topology.add_broker("B1")
    topology.add_broker("B2")
    topology.add_link("B0", "B1", latency_ms=1.0)
    topology.add_link("B1", "B2", latency_ms=1.0)
    topology.add_client("alice", "B0")
    topology.add_client("carol", "B2")
    topology.add_client("pub", "B1", kind=NodeKind.PUBLISHER)
    config = BrokerNetworkConfig(topology, schema, **config_kwargs)
    transport = TcpTransport(sender_threads=2)
    # Ephemeral ports: every node listens on :0 and publishes its actual
    # port back into the shared endpoints mapping at start().
    endpoints = {b: "127.0.0.1:0" for b in topology.brokers()}
    nodes = {b: BrokerNode(config, b, transport, endpoints) for b in topology.brokers()}
    for node in nodes.values():
        node.start()
    for node in nodes.values():
        node.connect_neighbors()
    assert wait_until(
        lambda: all(len(n.connected_brokers) >= 1 for n in nodes.values())
    )
    try:
        yield schema, transport, endpoints, nodes
    finally:
        for node in nodes.values():
            node.stop()
        transport.close()


@pytest.fixture
def tcp_network():
    with running_tcp_network() as network:
        yield network


class TestTcpEndToEnd:
    def test_pubsub_across_three_brokers(self, tcp_network):
        schema, transport, endpoints, nodes = tcp_network
        alice_events = []
        carol_events = []
        alice = BrokerClient(
            "alice", schema, transport, endpoints["B0"],
            on_event=lambda e, s: alice_events.append(e),
        )
        carol = BrokerClient(
            "carol", schema, transport, endpoints["B2"],
            on_event=lambda e, s: carol_events.append(e),
        )
        pub = BrokerClient("pub", schema, transport, endpoints["B1"])
        alice.connect()
        carol.connect()
        pub.connect()
        assert wait_until(lambda: alice.connected_broker == "B0")
        assert wait_until(lambda: carol.connected_broker == "B2")
        assert wait_until(lambda: pub.connected_broker == "B1")
        alice.subscribe_and_wait("issue='IBM'", timeout_s=8.0)
        carol.subscribe_and_wait("volume>=1000", timeout_s=8.0)
        # Give the subscription flood a moment to reach every broker.
        assert wait_until(
            lambda: all(n.subscription_count == 2 for n in nodes.values())
        )
        for i in range(60):
            pub.publish(
                {"issue": "IBM" if i % 2 == 0 else "MSFT", "price": 1.0, "volume": i * 100}
            )
        assert wait_until(lambda: len(alice_events) == 30)
        assert wait_until(lambda: len(carol_events) == 50)

    def test_reconnect_over_tcp(self, tcp_network):
        schema, transport, endpoints, nodes = tcp_network
        alice = BrokerClient("alice", schema, transport, endpoints["B0"])
        pub = BrokerClient("pub", schema, transport, endpoints["B1"])
        alice.connect()
        pub.connect()
        assert wait_until(lambda: alice.connected_broker == "B0")
        assert wait_until(lambda: pub.connected_broker == "B1")
        alice.subscribe_and_wait("*", timeout_s=8.0)
        assert wait_until(lambda: nodes["B1"].subscription_count == 1)
        pub.publish({"issue": "A", "price": 1.0, "volume": 1})
        assert wait_until(lambda: len(alice.received_events) == 1)
        alice.drop_connection()
        pub.publish({"issue": "B", "price": 2.0, "volume": 2})
        assert wait_until(lambda: len(nodes["B0"].session("alice").log) >= 1)
        alice.connect(resume=True)
        assert wait_until(lambda: len(alice.received_events) == 2)
        assert [e["issue"] for e in alice.received_events] == ["A", "B"]


class TestTcpFailClosed:
    def test_unsatisfiable_subscribe_gets_error_reply(self, tcp_network):
        """A well-framed SUBSCRIBE the router would refuse is answered with
        an error at once; the receiver thread lives on, so the same
        connection subscribes next."""
        schema, transport, endpoints, nodes = tcp_network
        alice = BrokerClient("alice", schema, transport, endpoints["B0"])
        alice.connect()
        assert wait_until(lambda: alice.connected_broker == "B0")
        began = time.monotonic()
        with pytest.raises(RequestFailed, match="unsatisfiable"):
            alice.subscribe_and_wait("volume>3 & volume<2", timeout_s=1.0)
        assert time.monotonic() - began < 1.0
        alice.subscribe_and_wait("volume>3", timeout_s=8.0)
        assert wait_until(lambda: all(n.subscription_count == 1 for n in nodes.values()))

    def test_bad_sub_propagate_closes_the_peer_and_is_counted(self, tcp_network, live_registry):
        """A framed SUB_PROPAGATE whose expression does not parse is a bad
        frame: the receiver counts it and drops that connection, no
        subscription is recorded, and the broker keeps serving everyone
        else."""
        schema, transport, endpoints, nodes = tcp_network
        peer = transport.connect(endpoints["B1"])
        try:
            peer.send(wire.encode_message(wire.BrokerHello("B0")))  # a broker link
            peer.send(wire.encode_message(wire.SubPropagate(10**9, "alice", "price <", "B0")))
            assert wait_until(lambda: live_registry.value_of("transport.tcp.bad_frames") == 1)
        finally:
            peer.close()
        assert 10**9 not in nodes["B1"]._subscriber_of
        alice = BrokerClient("alice", schema, transport, endpoints["B0"])
        alice.connect()
        assert wait_until(lambda: alice.connected_broker == "B0")
        alice.subscribe_and_wait("volume>3", timeout_s=8.0)
        assert wait_until(lambda: all(n.subscription_count == 1 for n in nodes.values()))

    def test_mistyped_sub_propagate_closes_the_peer_and_is_counted(
        self, tcp_network, live_registry
    ):
        """Regression: a SUB_PROPAGATE whose literal the attribute's type
        refuses raised SchemaError out of the receiver thread, uncounted."""
        _schema, transport, endpoints, nodes = tcp_network
        peer = transport.connect(endpoints["B1"])
        peer.start()  # its receiver sees the broker hang up
        try:
            peer.send(wire.encode_message(wire.BrokerHello("B0")))  # a broker link
            peer.send(wire.encode_message(wire.SubPropagate(10**9, "alice", "price = 'x'", "B0")))
            assert wait_until(lambda: live_registry.value_of("transport.tcp.bad_frames") == 1)
            assert wait_until(lambda: not peer.is_open)
        finally:
            peer.close()
        assert 10**9 not in nodes["B1"]._subscriber_of
        assert all(node.subscription_count == 0 for node in nodes.values())

    def test_sub_propagate_for_an_unknown_subscriber_closes_the_peer_and_is_counted(
        self, tcp_network, live_registry
    ):
        """Regression: a SUB_PROPAGATE naming a subscriber the broker does
        not know raised RoutingError out of the receiver thread, uncounted."""
        _schema, transport, endpoints, nodes = tcp_network
        peer = transport.connect(endpoints["B1"])
        peer.start()  # its receiver sees the broker hang up
        try:
            peer.send(wire.encode_message(wire.BrokerHello("B0")))  # a broker link
            peer.send(wire.encode_message(wire.SubPropagate(10**9, "nobody", "price < 3", "B0")))
            assert wait_until(lambda: live_registry.value_of("transport.tcp.bad_frames") == 1)
            assert wait_until(lambda: not peer.is_open)
        finally:
            peer.close()
        assert 10**9 not in nodes["B1"]._subscriber_of
        assert all(node.subscription_count == 0 for node in nodes.values())

    def test_out_of_domain_publish_is_refused_and_the_connection_stays(self, live_registry):
        """A publish outside a declared domain is answered with an error
        naming the attribute and counted; the publisher's connection stays
        open and its next event is delivered."""
        with running_tcp_network(domains={"issue": ["IBM", "MSFT"]}) as network:
            schema, transport, endpoints, nodes = network
            alice = BrokerClient("alice", schema, transport, endpoints["B0"])
            pub = BrokerClient("pub", schema, transport, endpoints["B1"])
            alice.connect()
            pub.connect()
            assert wait_until(lambda: alice.connected_broker == "B0")
            assert wait_until(lambda: pub.connected_broker == "B1")
            alice.subscribe_and_wait("*", timeout_s=8.0)
            assert wait_until(lambda: nodes["B1"].subscription_count == 1)
            pub.publish({"issue": "HP", "price": 1.0, "volume": 1})
            assert wait_until(lambda: len(pub.errors) == 1)
            assert "'issue'" in pub.errors[0]
            rejected = live_registry.counter("broker.events_rejected", broker="B1")
            assert rejected.value == 1
            assert pub.is_connected and nodes["B1"].session("pub").is_connected
            pub.publish({"issue": "IBM", "price": 1.0, "volume": 1})
            assert wait_until(lambda: len(alice.received_events) == 1)
            assert alice.received_events[0]["issue"] == "IBM"
