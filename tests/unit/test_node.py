"""Unit tests for the prototype broker node and client (in-memory)."""

from __future__ import annotations

import pytest

from repro.broker import (
    BrokerClient,
    BrokerNetworkConfig,
    BrokerNode,
    InMemoryTransport,
    RequestFailed,
)
from repro.broker import messages as wire
from repro.broker.codec import encode_event
from repro.errors import ProtocolError, RoutingError, TransportError
from repro.matching import (
    Event,
    Subscription,
    parse_predicate,
    stock_trade_schema,
    uniform_schema,
)
from repro.network import NodeKind, Topology
from repro.testkit import InMemoryBrokerHarness
from tests.integration.test_prototype_tcp import running_tcp_network, wait_until


def two_broker_network(domains=None):
    """B0 -- B1; alice@B0, bob@B1, pub@B0."""
    schema = stock_trade_schema()
    topology = Topology()
    topology.add_broker("B0")
    topology.add_broker("B1")
    topology.add_link("B0", "B1", latency_ms=5.0)
    topology.add_client("alice", "B0")
    topology.add_client("bob", "B1")
    topology.add_client("pub", "B0", kind=NodeKind.PUBLISHER)
    config = BrokerNetworkConfig(topology, schema, domains=domains)
    transport = InMemoryTransport()
    endpoints = {name: f"mem://{name}" for name in topology.brokers()}
    nodes = {name: BrokerNode(config, name, transport, endpoints) for name in topology.brokers()}
    for node in nodes.values():
        node.start()
    for node in nodes.values():
        node.connect_neighbors()
    transport.pump()
    return schema, transport, nodes


def client(name, schema, transport, broker, **kwargs):
    endpoint = f"mem://{broker}"
    c = BrokerClient(name, schema, transport, endpoint, pump=transport.pump, **kwargs)
    c.connect()
    transport.pump()
    return c


class TestStartupAndConnections:
    def test_brokers_interconnect(self):
        _schema, _transport, nodes = two_broker_network()
        assert nodes["B0"].connected_brokers == ["B1"]
        assert nodes["B1"].connected_brokers == ["B0"]

    def test_client_connects_to_home_broker(self):
        schema, transport, _nodes = two_broker_network()
        alice = client("alice", schema, transport, "B0")
        assert alice.connected_broker == "B0"

    def test_unknown_client_rejected(self):
        schema, transport, _nodes = two_broker_network()
        stranger = BrokerClient("stranger", schema, transport, "mem://B0", pump=transport.pump)
        stranger.connect()
        transport.pump()
        assert not stranger.is_connected

    def test_wrong_home_broker_rejected(self):
        schema, transport, _nodes = two_broker_network()
        bob = BrokerClient("bob", schema, transport, "mem://B0", pump=transport.pump)
        bob.connect()  # bob is attached to B1 in the topology
        transport.pump()
        assert not bob.is_connected

    def test_node_name_must_be_broker(self):
        schema = stock_trade_schema()
        topology = Topology()
        topology.add_broker("B0")
        topology.add_client("pub", "B0", kind=NodeKind.PUBLISHER)
        config = BrokerNetworkConfig(topology, schema)
        with pytest.raises(ProtocolError):
            BrokerNode(config, "pub", InMemoryTransport(), {})

    def test_missing_endpoint(self):
        schema = stock_trade_schema()
        topology = Topology()
        topology.add_broker("B0")
        topology.add_client("pub", "B0", kind=NodeKind.PUBLISHER)
        config = BrokerNetworkConfig(topology, schema)
        node = BrokerNode(config, "B0", InMemoryTransport(), {})
        with pytest.raises(TransportError):
            node.start()

    def test_config_requires_publishers(self):
        schema = stock_trade_schema()
        topology = Topology()
        topology.add_broker("B0")
        topology.add_client("c", "B0")
        with pytest.raises(RoutingError):
            BrokerNetworkConfig(topology, schema)


class TestSubscriptionPropagation:
    def test_subscription_replicated_to_all_brokers(self):
        schema, transport, nodes = two_broker_network()
        alice = client("alice", schema, transport, "B0")
        alice.subscribe_and_wait("issue='IBM'")
        transport.pump()
        assert nodes["B0"].subscription_count == 1
        assert nodes["B1"].subscription_count == 1

    def test_unsubscribe_replicated(self):
        schema, transport, nodes = two_broker_network()
        alice = client("alice", schema, transport, "B0")
        subscription_id = alice.subscribe_and_wait("issue='IBM'")
        transport.pump()
        alice.unsubscribe_and_wait(subscription_id)
        transport.pump()
        assert nodes["B0"].subscription_count == 0
        assert nodes["B1"].subscription_count == 0

    def test_bad_expression_reported(self):
        schema, transport, _nodes = two_broker_network()
        alice = client("alice", schema, transport, "B0")
        with pytest.raises(RequestFailed):
            alice.subscribe_and_wait("nope===")

    def test_unsatisfiable_expression_reported(self):
        """Regression: the router's refusal escaped the SUBSCRIBE handler (on
        this transport, out of the client's own wait)."""
        schema, transport, nodes = two_broker_network()
        alice = client("alice", schema, transport, "B0")
        with pytest.raises(RequestFailed, match="unsatisfiable"):
            alice.subscribe_and_wait("volume>3 & volume<2")
        transport.pump()
        assert [node.subscription_count for node in nodes.values()] == [0, 0]
        alice.subscribe_and_wait("volume>3")
        transport.pump()
        assert [node.subscription_count for node in nodes.values()] == [1, 1]

    @pytest.mark.parametrize("domains", [None, {"issue": ["IBM", "HP"]}])
    @pytest.mark.parametrize(
        "expression, attribute",
        [
            ("price = 'x'", "price"),
            ("price < 'x'", "price"),
            ("issue < 5", "issue"),
            ("volume > 1 & volume = 2.5", "volume"),
        ],
    )
    def test_mistyped_literal_reported(self, domains, expression, attribute):
        """Regression: an equality literal that does not coerce escaped the
        parser as a SchemaError, and a mistyped range bound was granted as
        a subscription that could never match."""
        schema, transport, nodes = two_broker_network(domains=domains)
        alice = client("alice", schema, transport, "B0")
        with pytest.raises(RequestFailed, match=f"'{attribute}'"):
            alice.subscribe_and_wait(expression)
        transport.pump()
        assert [node.subscription_count for node in nodes.values()] == [0, 0]

    def test_cannot_remove_another_clients_subscription(self):
        schema, transport, nodes = two_broker_network()
        alice = client("alice", schema, transport, "B0")
        bob = client("bob", schema, transport, "B1")
        subscription_id = bob.subscribe_and_wait("volume>0")
        transport.pump()
        with pytest.raises(RequestFailed):
            alice.unsubscribe_and_wait(subscription_id)
        transport.pump()
        assert nodes["B0"].subscription_count == 1


class TestBadSubPropagate:
    """A peer's SUB_PROPAGATE that does not parse, or names an unsatisfiable
    predicate, is a protocol violation naming the subscription id — and
    leaves no trace: no subscriber recorded, so the matching
    UNSUB_PROPAGATE is a no-op rather than an unknown-id error."""

    @pytest.mark.parametrize(
        "expression", ["price <", "price > 5 & price < 3", "price = 'x'", "price < 'x'"]
    )
    def test_refused_without_a_phantom_id(self, expression):
        _schema, _transport, nodes = two_broker_network()
        node = nodes["B1"]
        peer = node._broker_connections["B0"]
        subscription_id = 10**9
        with pytest.raises(ProtocolError, match=f"#{subscription_id}"):
            node._dispatch(peer, wire.SubPropagate(subscription_id, "alice", expression, "B0"))
        assert subscription_id not in node._subscriber_of
        assert node.subscription_count == 0
        node._dispatch(peer, wire.UnsubPropagate(subscription_id, "B0"))  # a no-op
        assert node.subscription_count == 0
        # The broker still takes a good one under the same id.
        node._dispatch(peer, wire.SubPropagate(subscription_id, "alice", "price < 3", "B0"))
        assert node.subscription_count == 1

    @pytest.mark.parametrize("subscriber", ["nobody", "B0"])
    def test_unknown_subscriber_refused_without_a_phantom_id(self, subscriber):
        """A subscriber this broker does not know (a name outside the
        topology, or a broker's) is refused before the replica takes the
        id."""
        _schema, _transport, nodes = two_broker_network()
        node = nodes["B1"]
        peer = node._broker_connections["B0"]
        subscription_id = 10**9
        with pytest.raises(ProtocolError, match=f"#{subscription_id}"):
            node._dispatch(peer, wire.SubPropagate(subscription_id, subscriber, "price < 3", "B0"))
        assert subscription_id not in node._subscriber_of
        assert subscription_id not in node.replica
        assert node.subscription_count == 0
        node._dispatch(peer, wire.UnsubPropagate(subscription_id, "B0"))  # a no-op
        node._dispatch(peer, wire.SubPropagate(subscription_id, "alice", "price < 3", "B0"))
        assert node.subscription_count == 1


class TestPropagatedSubscriberName:
    def test_one_clients_subscriptions_share_the_name_object(self):
        """Each SUB_PROPAGATE decodes a fresh subscriber string; the broker
        keeps one object per name, in its subscriber map and its replica."""
        _schema, _transport, nodes = two_broker_network()
        node = nodes["B1"]
        peer = node._broker_connections["B0"]
        names = ["".join(("ali", "ce")) for _ in range(2)]
        assert names[0] == names[1] and names[0] is not names[1]
        for subscription_id, name in zip((10**9, 10**9 + 1), names):
            node._dispatch(peer, wire.SubPropagate(subscription_id, name, "price < 3", "B0"))
        first, second = (node._subscriber_of[i] for i in (10**9, 10**9 + 1))
        assert first is second
        held = [s.subscriber for s in node.replica.subscriptions]
        assert len(held) == 2 and held[0] is held[1] is first


class TestRefusedUnsubscribe:
    def test_refusal_leaves_epochs_counters_and_digests_alone(self, live_registry):
        """Regression: a refused UNSUBSCRIBE used to remove the subscription
        and put it back — two epoch bumps at that broker only, so every
        digest it minted afterwards failed the epoch check downstream."""
        schema, transport, nodes = two_broker_network()
        alice = client("alice", schema, transport, "B0")
        bob = client("bob", schema, transport, "B1")
        pub = client("pub", schema, transport, "B0")
        bobs = bob.subscribe_and_wait("volume>0")
        alices = alice.subscribe_and_wait("issue='IBM'")
        alice.unsubscribe_and_wait(alices)  # a granted one, for the counters
        transport.pump()

        def epochs():
            return {name: node.router.subscription_epoch for name, node in nodes.items()}

        before = epochs()
        assert len(set(before.values())) == 1
        with pytest.raises(RequestFailed, match="not your subscription"):
            alice.unsubscribe_and_wait(bobs)
        with pytest.raises(RequestFailed, match="unknown subscription"):
            alice.unsubscribe_and_wait(10**9)
        transport.pump()
        assert epochs() == before

        hits = live_registry.counter("broker.digest_hits", broker="B1")
        fallbacks = live_registry.counter("broker.digest_fallbacks", broker="B1")
        for volume in (1, 2, 3):
            hits_before = hits.value
            pub.publish({"issue": "IBM", "price": 10.0, "volume": volume})
            transport.pump()
            assert hits.value == hits_before + 1
        assert fallbacks.value == 0
        assert len(bob.received_events) == 3
        for name, node in nodes.items():
            added = live_registry.counter("broker.subscriptions_added", broker=name)
            removed = live_registry.counter("broker.subscriptions_removed", broker=name)
            assert (added.value, removed.value) == (2, 1)
            assert added.value - removed.value == node.subscription_count


class TestForwardAccounting:
    def test_forwards_to_a_down_neighbor_are_counted_per_event(self, live_registry):
        schema, transport, nodes = two_broker_network()
        bob = client("bob", schema, transport, "B1")
        pub = client("pub", schema, transport, "B0")
        bob.subscribe_and_wait("*")
        transport.pump()
        nodes["B0"]._broker_connections["B1"].close()
        transport.pump()
        assert nodes["B0"].connected_brokers == []
        pub.publish({"issue": "A", "price": 1.0, "volume": 1})
        pub.publish_many(
            [{"issue": "B", "price": 2.0, "volume": 2}, {"issue": "C", "price": 3.0, "volume": 3}]
        )
        transport.pump()
        parked = live_registry.counter("broker.forwards_parked", broker="B0")
        replayed = live_registry.counter("broker.forwards_replayed", broker="B0")
        assert (parked.value, replayed.value) == (3, 0)
        assert bob.received_events == []
        # The link comes back: the parked forwards follow the hello and the
        # sync on it, carry no digest (B1 verifies none), and B1 routes each
        # one it needed.
        nodes["B0"].dial_broker("B1")
        transport.pump()
        assert replayed.value == 3
        assert [event.value("issue") for event in bob.received_events] == ["A", "B", "C"]
        for name in ("link.unneeded_forwards", "broker.digest_fallbacks", "broker.digest_hits"):
            assert live_registry.counter(name, broker="B1").value == 0

    def test_no_unneeded_forward_on_a_steady_chain(self, live_registry):
        schema, transport, nodes = two_broker_network()
        alice = client("alice", schema, transport, "B0")
        bob = client("bob", schema, transport, "B1")
        pub = client("pub", schema, transport, "B0")
        alice.subscribe_and_wait("issue='IBM'")
        bob.subscribe_and_wait("volume>100")
        transport.pump()
        for volume in (50, 150, 250, 5):
            for issue in ("IBM", "HP"):
                pub.publish({"issue": issue, "price": 1.0, "volume": volume})
        transport.pump()
        assert len(bob.received_events) == 4  # forwards did happen
        for name in nodes:
            assert live_registry.counter("link.unneeded_forwards", broker=name).value == 0

    def test_a_desynchronised_replica_forwards_for_nothing(self, live_registry):
        schema, transport, nodes = two_broker_network()
        pub = client("pub", schema, transport, "B0")
        # Only B0's replica holds this subscription of bob's (B1 never heard
        # of it), so B0 forwards events that B1 has no use for.
        hidden = Subscription(parse_predicate(schema, "issue='IBM'"), "bob")
        nodes["B0"].replica.insert(hidden)
        nodes["B0"].router.add_subscription(hidden)
        pub.publish({"issue": "IBM", "price": 1.0, "volume": 1})
        pub.publish({"issue": "HP", "price": 1.0, "volume": 1})
        transport.pump()
        unneeded = live_registry.counter("link.unneeded_forwards", broker="B1")
        assert unneeded.value == 1
        assert live_registry.counter("link.unneeded_forwards", broker="B0").value == 0


class TestOutOfDomainPublish:
    """An event outside a declared domain is refused on its own: the rest
    of its ingest batch routes, the publisher hears why, and the broker
    counts it."""

    DOMAINS = {"a1": [0, 1, 2], "a2": [0, 1, 2]}

    def harness(self):
        harness = InMemoryBrokerHarness.for_chain(2, uniform_schema(2), domains=self.DOMAINS)
        subscriber = harness.attach("S.B1.00")
        subscriber.subscribe_and_wait("a1=1")
        harness.settle()
        return harness, subscriber, harness.attach("P1")

    def test_a_batch_delivers_everything_but_the_bad_event(self, live_registry):
        harness, subscriber, publisher = self.harness()
        publisher.publish_many(
            [{"a1": 1, "a2": 0}, {"a1": 7, "a2": 0}, {"a1": 1, "a2": 1}]
        )
        harness.settle()
        assert [e.as_tuple() for e in subscriber.received_events] == [(1, 0), (1, 1)]
        assert len(publisher.errors) == 1
        assert "'a1'" in publisher.errors[0] and "7" in publisher.errors[0]
        rejected = live_registry.counter("broker.events_rejected", broker="B0")
        assert rejected.value == 1
        assert harness.node("B0").events_routed == 2
        assert live_registry.counter("broker.events_rejected", broker="B1").value == 0
        harness.shutdown()

    def test_a_single_publish_is_refused_and_the_next_one_routes(self, live_registry):
        harness, subscriber, publisher = self.harness()
        publisher.publish({"a1": 1, "a2": 9})
        harness.settle()
        assert subscriber.received_events == []
        assert len(publisher.errors) == 1 and "'a2'" in publisher.errors[0]
        publisher.publish({"a1": 1, "a2": 2})
        harness.settle()
        assert [e.as_tuple() for e in subscriber.received_events] == [(1, 2)]
        assert live_registry.counter("broker.events_rejected", broker="B0").value == 1
        harness.shutdown()


class TestPublishAndDeliver:
    def test_local_and_remote_delivery(self):
        schema, transport, _nodes = two_broker_network()
        alice = client("alice", schema, transport, "B0")
        bob = client("bob", schema, transport, "B1")
        pub = client("pub", schema, transport, "B0")
        alice.subscribe_and_wait("issue='IBM'")
        bob.subscribe_and_wait("volume>100")
        transport.pump()
        pub.publish({"issue": "IBM", "price": 10.0, "volume": 500})
        transport.pump()
        assert len(alice.received_events) == 1
        assert len(bob.received_events) == 1

    def test_event_not_delivered_to_non_matching(self):
        schema, transport, _nodes = two_broker_network()
        alice = client("alice", schema, transport, "B0")
        pub = client("pub", schema, transport, "B0")
        alice.subscribe_and_wait("issue='IBM'")
        transport.pump()
        pub.publish({"issue": "MSFT", "price": 10.0, "volume": 500})
        transport.pump()
        assert alice.received_events == []

    def test_subscriber_cannot_publish_without_publisher_broker(self):
        schema, transport, _nodes = two_broker_network()
        bob = client("bob", schema, transport, "B1")  # B1 hosts no publisher
        bob.publish({"issue": "IBM", "price": 1.0, "volume": 1})
        transport.pump()
        # No spanning tree rooted at B1: broker answers with an error, and
        # nothing is delivered anywhere.
        assert bob.received_events == []

    def test_on_event_callback(self):
        schema, transport, _nodes = two_broker_network()
        seen = []
        alice = client(
            "alice", schema, transport, "B0", on_event=lambda e, seq: seen.append(seq)
        )
        pub = client("pub", schema, transport, "B0")
        alice.subscribe_and_wait("*")
        transport.pump()
        pub.publish({"issue": "X", "price": 1.0, "volume": 1})
        transport.pump()
        assert seen == [1]

    def test_sequencing_per_client(self):
        schema, transport, _nodes = two_broker_network()
        alice = client("alice", schema, transport, "B0")
        pub = client("pub", schema, transport, "B0")
        alice.subscribe_and_wait("*")
        transport.pump()
        for i in range(5):
            pub.publish({"issue": "X", "price": float(i), "volume": i})
        transport.pump()
        assert [seq for seq, _e in alice.deliveries] == [1, 2, 3, 4, 5]


class TestReliability:
    def test_offline_events_logged_and_redelivered(self):
        schema, transport, nodes = two_broker_network()
        alice = client("alice", schema, transport, "B0")
        pub = client("pub", schema, transport, "B0")
        alice.subscribe_and_wait("*")
        transport.pump()
        pub.publish({"issue": "A", "price": 1.0, "volume": 1})
        transport.pump()
        alice.drop_connection()
        transport.pump()
        pub.publish({"issue": "B", "price": 2.0, "volume": 2})
        pub.publish({"issue": "C", "price": 3.0, "volume": 3})
        transport.pump()
        assert len(alice.received_events) == 1
        alice.connect(resume=True)
        transport.pump()
        issues = [e["issue"] for e in alice.received_events]
        assert issues == ["A", "B", "C"]

    def test_no_duplicates_after_reconnect(self):
        schema, transport, _nodes = two_broker_network()
        alice = client("alice", schema, transport, "B0")
        pub = client("pub", schema, transport, "B0")
        alice.subscribe_and_wait("*")
        transport.pump()
        pub.publish({"issue": "A", "price": 1.0, "volume": 1})
        transport.pump()
        alice.drop_connection()
        transport.pump()
        alice.connect(resume=True)
        transport.pump()
        assert [e["issue"] for e in alice.received_events] == ["A"]

    def test_acks_drive_gc(self):
        schema, transport, nodes = two_broker_network()
        alice = client("alice", schema, transport, "B0")
        pub = client("pub", schema, transport, "B0")
        alice.subscribe_and_wait("*")
        transport.pump()
        pub.publish({"issue": "A", "price": 1.0, "volume": 1})
        transport.pump()  # delivery + auto-ack
        collected = nodes["B0"].collect_garbage()
        assert collected == 1
        assert len(nodes["B0"].session("alice").log) == 0

    def test_graceful_disconnect_keeps_session(self):
        schema, transport, nodes = two_broker_network()
        alice = client("alice", schema, transport, "B0")
        alice.subscribe_and_wait("*")
        transport.pump()
        alice.disconnect()
        transport.pump()
        assert not nodes["B0"].session("alice").is_connected
        assert nodes["B0"].subscription_count == 1  # subscriptions persist


class TestStatsSnapshot:
    def test_stats_reflect_activity(self):
        schema, transport, nodes = two_broker_network()
        alice = client("alice", schema, transport, "B0")
        pub = client("pub", schema, transport, "B0")
        alice.subscribe_and_wait("*")
        transport.pump()
        pub.publish({"issue": "X", "price": 1.0, "volume": 1})
        transport.pump()
        stats = nodes["B0"].stats()
        assert stats["broker"] == "B0"
        assert stats["subscriptions"] == 1
        assert stats["events_routed"] == 1
        assert stats["events_delivered"] == 1
        assert stats["connected_brokers"] == ["B1"]
        assert set(stats["connected_clients"]) == {"alice", "pub"}
        assert stats["logged_entries"] >= 0

    def test_stats_on_idle_node(self):
        _schema, _transport, nodes = two_broker_network()
        stats = nodes["B1"].stats()
        assert stats["subscriptions"] == 0
        assert stats["events_routed"] == 0
        assert stats["connected_clients"] == []


class TestConnectionToSessionMap:
    """The node looks a message's sender up in a connection -> session map
    (``_session_of``); it must hold exactly the live client connections."""

    def test_reconnect_unmaps_the_replaced_connection(self):
        schema, transport, nodes = two_broker_network()
        node = nodes["B0"]
        first = client("alice", schema, transport, "B0")
        replaced = node.session("alice").connection
        second = client("alice", schema, transport, "B0")  # while `first` is live
        session = node.session("alice")
        assert not replaced.is_open and session.connection is not replaced
        assert node._session_of == {session.connection: session}
        assert not first.is_connected and second.is_connected
        # Over TCP the replaced connection's close notification arrives later,
        # from its receiver thread: it must not disconnect the new session.
        node._on_connection_closed(replaced)
        assert session.is_connected
        second.subscribe_and_wait("*")
        pub = client("pub", schema, transport, "B0")
        pub.publish({"issue": "X", "price": 1.0, "volume": 1})
        transport.pump()
        assert [seq for seq, _event in second.deliveries] == [1]
        assert first.deliveries == []

    def test_disconnect_and_dropped_connection_unmap(self):
        schema, transport, nodes = two_broker_network()
        node = nodes["B0"]
        alice = client("alice", schema, transport, "B0")
        pub = client("pub", schema, transport, "B0")
        assert len(node._session_of) == 2
        alice.disconnect()
        transport.pump()
        assert [session.name for session in node._session_of.values()] == ["pub"]
        pub.drop_connection()
        transport.pump()
        assert node._session_of == {}
        assert not node.session("alice").is_connected
        assert not node.session("pub").is_connected

    def test_requests_before_connect_are_refused(self):
        schema, transport, nodes = two_broker_network()
        stranger = BrokerClient("alice", schema, transport, "mem://B0", pump=transport.pump)
        connection = transport.connect("mem://B0")
        connection.on_message = stranger._on_payload
        connection.start()
        stranger._connection = connection  # skip CONNECT
        with pytest.raises(RequestFailed, match="not connected"):
            stranger.subscribe_and_wait("*")
        stranger.publish({"issue": "X", "price": 1.0, "volume": 1})
        transport.pump()
        assert stranger.errors == ["not connected"]
        assert nodes["B0"].events_routed == 0


def _sample_event(schema):
    return encode_event(Event(schema, {"issue": "IBM", "price": 1.0, "volume": 5}))


class TestBrokerMessageOrigin:
    """Broker-protocol messages are taken from broker connections only.

    Sent on a client's own connection, each is a :class:`ProtocolError` that
    changes nothing: alice cannot drop bob's subscription or subscribe him
    to something, and bob cannot publish through a broker that hosts no
    publisher by posing as a forwarding broker."""

    MESSAGES = {
        "unsub_propagate": ("alice", lambda bobs, data: wire.UnsubPropagate(bobs, "B1")),
        "sub_propagate": (
            "alice",
            lambda bobs, data: wire.SubPropagate(10**9, "bob", "issue='HP'", "B0"),
        ),
        "broker_event": ("bob", lambda bobs, data: wire.BrokerEvent("B0", "pub", data)),
        "broker_event_batch": (
            "bob",
            lambda bobs, data: wire.BrokerEventBatch("B0", (("pub", data), ("pub", data))),
        ),
        "broker_hello": ("alice", lambda bobs, data: wire.BrokerHello("B1")),
    }

    def network(self):
        schema, transport, nodes = two_broker_network()
        clients = {
            name: client(name, schema, transport, home)
            for name, home in (("alice", "B0"), ("bob", "B1"))
        }
        bobs = clients["bob"].subscribe_and_wait("volume>0")
        transport.pump()
        return schema, transport, nodes, clients, bobs

    @staticmethod
    def unchanged(nodes, clients, bobs):
        assert [node.subscription_count for node in nodes.values()] == [1, 1]
        assert all(bobs in node._subscriber_of for node in nodes.values())
        assert [node.events_delivered for node in nodes.values()] == [0, 0]
        assert clients["bob"].received_events == []

    @pytest.mark.parametrize("kind", sorted(MESSAGES))
    def test_refused_on_a_client_connection(self, kind):
        schema, transport, nodes, clients, bobs = self.network()
        sender, make = self.MESSAGES[kind]
        message = make(bobs, _sample_event(schema))
        clients[sender]._connection.send(wire.encode_message(message))
        with pytest.raises(ProtocolError):
            transport.pump()
        transport.pump()
        self.unchanged(nodes, clients, bobs)
        assert nodes["B0"].connected_brokers == ["B1"]
        assert nodes["B1"].connected_brokers == ["B0"]

    @pytest.mark.parametrize("name", ["B1", "alice", "nobody"])
    def test_hello_from_a_non_neighbor_is_refused(self, name):
        """B1 is B1 itself, alice a client: neither is B1's neighbor, so
        the connection stays anonymous and its propagation is refused too."""
        schema, transport, nodes, clients, bobs = self.network()
        peer = transport.connect("mem://B1")
        peer.start()
        peer.send(wire.encode_message(wire.BrokerHello(name)))
        with pytest.raises(ProtocolError, match="BROKER_HELLO"):
            transport.pump()
        peer.send(wire.encode_message(wire.UnsubPropagate(bobs, "B0")))
        with pytest.raises(ProtocolError):
            transport.pump()
        self.unchanged(nodes, clients, bobs)
        assert nodes["B1"].connected_brokers == ["B0"]

    def test_a_neighbors_hello_makes_a_broker_connection(self):
        _schema, transport, nodes, _clients, bobs = self.network()
        peer = transport.connect("mem://B1")
        peer.start()
        peer.send(wire.encode_message(wire.BrokerHello("B0")))
        peer.send(wire.encode_message(wire.UnsubPropagate(bobs, "B0")))
        transport.pump()
        assert nodes["B1"].subscription_count == 0

    def test_refused_over_tcp_counted_and_dropped(self, live_registry):
        with running_tcp_network() as (schema, transport, endpoints, nodes):
            carol = BrokerClient("carol", schema, transport, endpoints["B2"])
            carol.connect()
            assert wait_until(lambda: carol.connected_broker == "B2")
            carols = carol.subscribe_and_wait("*", timeout_s=8.0)
            assert wait_until(lambda: all(n.subscription_count == 1 for n in nodes.values()))
            peer = transport.connect(endpoints["B0"])
            peer.start()  # its receiver sees the broker hang up
            try:
                peer.send(wire.encode_message(wire.Connect("alice")))
                assert wait_until(lambda: nodes["B0"].session("alice").is_connected)
                peer.send(wire.encode_message(wire.UnsubPropagate(carols, "B2")))
                assert wait_until(lambda: live_registry.value_of("transport.tcp.bad_frames") == 1)
                assert wait_until(lambda: not peer.is_open)
            finally:
                peer.close()
            assert all(n.subscription_count == 1 for n in nodes.values())
            assert all(carols in n._subscriber_of for n in nodes.values())


class TestOneLinkPerNeighbor:
    """A second connection announced under a neighbour's name does not take
    over that neighbour's live link: it becomes a broker peer (a restarted
    neighbour needs that) and carries the link only once the first closes."""

    @staticmethod
    def network_and_newcomer():
        schema, transport, nodes = two_broker_network()
        bob = client("bob", schema, transport, "B1")
        bobs = bob.subscribe_and_wait("volume>0")
        transport.pump()
        newcomer = transport.connect("mem://B1")
        heard = []
        newcomer.on_message = lambda payload: heard.append(wire.decode_message(payload))
        newcomer.start()
        newcomer.send(wire.encode_message(wire.BrokerHello("B0")))
        transport.pump()
        return schema, transport, nodes, bob, bobs, newcomer, heard

    def test_a_flood_from_the_newcomer_reaches_the_live_link(self):
        _schema, transport, nodes, _bob, bobs, newcomer, _heard = self.network_and_newcomer()
        newcomer.send(wire.encode_message(wire.UnsubPropagate(bobs, "B0")))
        transport.pump()
        assert [node.subscription_count for node in nodes.values()] == [0, 0]

    def test_the_link_outlives_the_newcomer(self):
        _schema, transport, nodes, bob, _bobs, newcomer, _heard = self.network_and_newcomer()
        newcomer.close()
        transport.pump()
        assert nodes["B1"].connected_brokers == ["B0"]
        assert nodes["B0"].connected_brokers == ["B1"]
        bob.subscribe_and_wait("volume>5")
        transport.pump()
        assert [node.subscription_count for node in nodes.values()] == [2, 2]

    def test_the_newcomer_takes_over_when_the_link_closes(self):
        _schema, transport, nodes, bob, _bobs, _newcomer, heard = self.network_and_newcomer()
        nodes["B0"]._broker_connections["B1"].close()
        transport.pump()
        assert nodes["B1"].connected_brokers == ["B0"]
        heard.clear()
        bobs = bob.subscribe_and_wait("volume>5")
        transport.pump()
        assert [(type(m), m.subscription_id) for m in heard] == [(wire.SubPropagate, bobs)]

    def test_a_broker_connection_keeps_its_name(self):
        with InMemoryBrokerHarness.for_star(2, uniform_schema(2)) as harness:
            peer = harness.transport.connect("mem://HUB")
            peer.start()
            peer.send(wire.encode_message(wire.BrokerHello("E0")))
            harness.settle()
            peer.send(wire.encode_message(wire.BrokerHello("E1")))
            with pytest.raises(ProtocolError, match="BROKER_HELLO from 'E1'"):
                harness.settle()
            peer.close()
            harness.settle()
            assert harness.node("HUB").connected_brokers == ["E0", "E1"]
