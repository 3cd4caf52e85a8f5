"""The batched event pipeline: client batches and broker ingest.

Batching is a throughput optimization, never a semantics change: a
``publish_many`` call must deliver exactly what the equivalent ``publish``
loop delivers (same events, same per-client sequencing), and coalesced
``BROKER_EVENT_BATCH`` forwarding must fan out like individual
``BROKER_EVENT`` messages.
"""

from __future__ import annotations

import pytest

from repro.broker import (
    BrokerClient,
    BrokerNetworkConfig,
    BrokerNode,
    InMemoryTransport,
)
from repro.errors import ProtocolError
from repro.matching import stock_trade_schema
from repro.network import NodeKind, Topology


def two_broker_network(**node_kwargs):
    """B0 -- B1; alice@B0, bob@B1, pub@B0."""
    schema = stock_trade_schema()
    topology = Topology()
    topology.add_broker("B0")
    topology.add_broker("B1")
    topology.add_link("B0", "B1", latency_ms=5.0)
    topology.add_client("alice", "B0")
    topology.add_client("bob", "B1")
    topology.add_client("pub", "B0", kind=NodeKind.PUBLISHER)
    config = BrokerNetworkConfig(topology, schema)
    transport = InMemoryTransport()
    endpoints = {name: f"mem://{name}" for name in topology.brokers()}
    nodes = {
        name: BrokerNode(config, name, transport, endpoints, **node_kwargs)
        for name in topology.brokers()
    }
    for node in nodes.values():
        node.start()
    for node in nodes.values():
        node.connect_neighbors()
    transport.pump()
    return schema, transport, nodes


def client(name, schema, transport, broker, **kwargs):
    c = BrokerClient(
        name, schema, transport, f"mem://{broker}", pump=transport.pump, **kwargs
    )
    c.connect()
    transport.pump()
    return c


def trades(count):
    return [
        {"issue": "IBM", "price": float(i), "volume": 100 + i} for i in range(count)
    ]


class TestPublishMany:
    def test_batch_delivers_local_and_remote(self):
        schema, transport, _nodes = two_broker_network()
        alice = client("alice", schema, transport, "B0")
        bob = client("bob", schema, transport, "B1")
        pub = client("pub", schema, transport, "B0")
        alice.subscribe_and_wait("issue='IBM'")
        bob.subscribe_and_wait("volume>=100")
        transport.pump()
        pub.publish_many(trades(5))
        transport.pump()
        assert [e["price"] for e in alice.received_events] == [float(i) for i in range(5)]
        assert [e["price"] for e in bob.received_events] == [float(i) for i in range(5)]
        assert [seq for seq, _e in alice.deliveries] == [1, 2, 3, 4, 5]
        assert [seq for seq, _e in bob.deliveries] == [1, 2, 3, 4, 5]

    def test_batch_equals_publish_loop(self):
        published = trades(7)

        def deliveries(send):
            schema, transport, _nodes = two_broker_network()
            bob = client("bob", schema, transport, "B1")
            pub = client("pub", schema, transport, "B0")
            bob.subscribe_and_wait("*")
            transport.pump()
            send(pub, published)
            transport.pump()
            return [(seq, e.as_tuple()) for seq, e in bob.deliveries]

        def loop(publisher, events):
            for values in events:
                publisher.publish(values)

        assert deliveries(lambda p, evs: p.publish_many(evs)) == deliveries(loop)

    def test_batch_filters_non_matching(self):
        schema, transport, _nodes = two_broker_network()
        alice = client("alice", schema, transport, "B0")
        pub = client("pub", schema, transport, "B0")
        alice.subscribe_and_wait("price>=3")
        transport.pump()
        pub.publish_many(trades(5))
        transport.pump()
        assert [e["price"] for e in alice.received_events] == [3.0, 4.0]

    def test_empty_batch_is_a_no_op(self):
        schema, transport, nodes = two_broker_network()
        pub = client("pub", schema, transport, "B0")
        pub.publish_many([])
        transport.pump()
        assert nodes["B0"].events_routed == 0

    def test_remote_forwarding_is_coalesced(self):
        """A multi-event batch crossing B0->B1 rides one BROKER_EVENT_BATCH
        (visible as routed-but-single-forward bookkeeping on B1)."""
        schema, transport, nodes = two_broker_network()
        bob = client("bob", schema, transport, "B1")
        pub = client("pub", schema, transport, "B0")
        bob.subscribe_and_wait("*")
        transport.pump()
        pub.publish_many(trades(6))
        transport.pump()
        assert nodes["B0"].events_routed == 6
        assert nodes["B1"].events_routed == 6
        assert len(bob.received_events) == 6

    def test_mixed_publish_and_batch_sequencing(self):
        schema, transport, _nodes = two_broker_network()
        alice = client("alice", schema, transport, "B0")
        pub = client("pub", schema, transport, "B0")
        alice.subscribe_and_wait("*")
        transport.pump()
        pub.publish({"issue": "IBM", "price": 0.5, "volume": 1})
        pub.publish_many(trades(3))
        pub.publish({"issue": "IBM", "price": 9.5, "volume": 1})
        transport.pump()
        assert [seq for seq, _e in alice.deliveries] == [1, 2, 3, 4, 5]
        assert [e["price"] for e in alice.received_events] == [0.5, 0.0, 1.0, 2.0, 9.5]


class TestIngestBatchSize:
    def test_batch_size_must_be_positive(self):
        with pytest.raises(ProtocolError):
            two_broker_network(ingest_batch_size=0)

    def test_small_ingest_batches_still_deliver_everything(self):
        schema, transport, _nodes = two_broker_network(ingest_batch_size=2)
        bob = client("bob", schema, transport, "B1")
        pub = client("pub", schema, transport, "B0")
        bob.subscribe_and_wait("*")
        transport.pump()
        pub.publish_many(trades(7))
        transport.pump()
        assert [seq for seq, _e in bob.deliveries] == list(range(1, 8))

