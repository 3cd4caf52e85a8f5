"""Broker throughput — the paper's "up to 14,000 events/sec" claim.

Section 4.2: on a 200 MHz Pentium Pro broker, "the current implementation of
the broker can deliver up to 14,000 events/sec.  [...] In fact, our matching
algorithms are so efficient that the transport system and network costs of a
broker outweigh the cost of matching at a broker."

This harness pumps events through a real single-broker :class:`BrokerNode`
over the in-memory transport (full pipeline: marshalling, framing, protocol
dispatch, matching, per-client logs) and separately measures the pure
matching rate, so the table shows both the achievable events/sec and the
matching-vs-transport cost split the paper comments on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.broker.client import BrokerClient
from repro.broker.engine import MatchingEngine
from repro.broker.node import BrokerNetworkConfig, BrokerNode
from repro.broker.transport import InMemoryTransport
from repro.experiments.tables import ExperimentTable
from repro.obs import metrics_output
from repro.network.topology import NodeKind, Topology
from repro.workload.generators import EventGenerator, SubscriptionGenerator
from repro.workload.spec import WorkloadSpec


@dataclass(frozen=True)
class ThroughputConfig:
    spec: WorkloadSpec = WorkloadSpec(
        num_attributes=10, values_per_attribute=5, factoring_levels=2, locality_regions=1
    )
    subscription_counts: Tuple[int, ...] = (10, 100, 1000)
    num_subscriber_clients: int = 10
    num_events: int = 2000
    seed: int = 0
    engine: str = "compiled"
    #: Optional path: write the global obs-registry JSON snapshot here.
    metrics_out: Optional[str] = None


def _single_broker_topology(num_subscribers: int) -> Topology:
    topology = Topology()
    topology.add_broker("B0")
    for index in range(num_subscribers):
        topology.add_client(f"sub{index:02d}", "B0")
    topology.add_client("pub", "B0", kind=NodeKind.PUBLISHER)
    return topology


def run_throughput(config: ThroughputConfig = ThroughputConfig()) -> ExperimentTable:
    """Measure full-pipeline events/sec and the matching share of the cost."""
    with metrics_output(config.metrics_out):
        return _run_throughput(config)


def _run_throughput(config: ThroughputConfig) -> ExperimentTable:
    table = ExperimentTable(
        "Broker throughput (single prototype broker, in-memory transport)",
        [
            "subscriptions",
            "events_per_sec",
            "deliveries_per_sec",
            "match_only_events_per_sec",
            "matching_cost_share",
        ],
    )
    spec = config.spec
    for count in config.subscription_counts:
        topology = _single_broker_topology(config.num_subscriber_clients)
        broker_config = BrokerNetworkConfig(
            topology,
            spec.schema(),
            domains=spec.domains(),
            factoring_attributes=spec.factoring_attributes,
            engine=config.engine,
        )
        transport = InMemoryTransport()
        node = BrokerNode(broker_config, "B0", transport, {"B0": "mem://B0"})
        node.start()
        subscribers = topology.subscribers()
        clients = [
            BrokerClient(name, spec.schema(), transport, "mem://B0", pump=transport.pump)
            for name in subscribers
        ]
        publisher = BrokerClient("pub", spec.schema(), transport, "mem://B0", pump=transport.pump)
        for client in clients + [publisher]:
            client.connect()
        transport.pump()
        generator = SubscriptionGenerator(spec, seed=config.seed + count)
        for index in range(count):
            subscriber = clients[index % len(clients)]
            predicate = generator.predicate_for(subscriber.name)
            subscriber.subscribe_and_wait(predicate.describe())
        events = EventGenerator(spec, seed=config.seed + count + 1)
        sample = [events.event_for("pub") for _ in range(config.num_events)]

        start = time.perf_counter()
        for event in sample:
            publisher.publish(event)
            transport.pump()
        elapsed = time.perf_counter() - start
        deliveries = sum(len(c.received_events) for c in clients)

        # Pure matching rate on an identical engine, for the cost split.
        engine = MatchingEngine(
            spec.schema(),
            domains=spec.domains(),
            factoring_attributes=spec.factoring_attributes,
            engine=config.engine,
        )
        for subscription in node.replica.subscriptions:
            engine.matcher.insert(subscription)
        for event in sample:
            engine.match(event)  # steady state: lazily built kernel state
        match_start = time.perf_counter()
        for event in sample:
            engine.match(event)
        match_elapsed = time.perf_counter() - match_start

        events_per_sec = config.num_events / elapsed
        match_only_rate = config.num_events / match_elapsed if match_elapsed else float("inf")
        table.add_row(
            count,
            events_per_sec,
            deliveries / elapsed,
            match_only_rate,
            match_elapsed / elapsed,
        )
        node.stop()
    return table
