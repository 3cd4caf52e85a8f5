"""Network-loading comparison of all three protocols (Section 5's argument).

Chart 1 compares saturation points for flooding vs link matching; the
paper's related-work section argues the *other* baseline, match-first, fails
differently — "in a large system with thousands of potential destinations,
the increase in message size makes the approach impractical".  This study
quantifies both failure modes on one table: for each subscription count, a
fixed-rate run per protocol reporting broker messages processed, link
messages and bytes crossed, header bytes per useful delivery, and wasted
deliveries.

Expected shapes:

* flooding processes every event at every broker (max messages) and wastes
  most client deliveries;
* match-first matches link matching on message *counts* (one copy per link)
  but its bytes grow with the destination-list length — the per-useful-
  delivery header overhead rises with the subscription count;
* link matching carries no lists and touches only interested brokers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments.tables import ExperimentTable
from repro.network.figures import figure6_topology
from repro.protocols.base import ProtocolContext, RoutingProtocol
from repro.protocols.flooding import FloodingProtocol
from repro.protocols.link_matching import LinkMatchingProtocol
from repro.protocols.match_first import MatchFirstProtocol
from repro.sim.runner import NetworkSimulation
from repro.workload.generators import (
    EventGenerator,
    SubscriptionGenerator,
    figure6_region_of,
)
from repro.workload.spec import CHART1_SPEC, WorkloadSpec


@dataclass(frozen=True)
class BaselineConfig:
    spec: WorkloadSpec = CHART1_SPEC
    subscription_counts: Tuple[int, ...] = (100, 400, 1600)
    subscribers_per_broker: int = 3
    publish_rate: float = 1500.0
    num_events_per_publisher: int = 150
    seed: int = 0


def run_baseline_comparison(config: BaselineConfig = BaselineConfig()) -> ExperimentTable:
    """One row per (subscription count, protocol)."""
    table = ExperimentTable(
        "Network loading: link matching vs flooding vs match-first "
        f"(fixed {config.publish_rate:.0f} events/s)",
        [
            "subscriptions",
            "protocol",
            "broker_msgs",
            "link_msgs",
            "link_kbytes",
            "hdr_bytes_per_delivery",
            "wasted_deliveries",
        ],
    )
    topology = figure6_topology(subscribers_per_broker=config.subscribers_per_broker)
    spec = config.spec
    publishers = topology.publishers()
    for count in config.subscription_counts:
        generator = SubscriptionGenerator(
            spec, seed=config.seed + count, region_of=figure6_region_of
        )
        subscriptions = generator.subscriptions_for(topology.subscribers(), count)
        events = EventGenerator(
            spec, seed=config.seed + count + 1, region_of=figure6_region_of
        )
        context = ProtocolContext(
            topology,
            spec.schema(),
            subscriptions,
            domains=spec.domains(),
            factoring_attributes=spec.factoring_attributes,
        )
        protocols: List[RoutingProtocol] = [
            LinkMatchingProtocol(context),
            FloodingProtocol(context),
            MatchFirstProtocol(context),
        ]
        for protocol in protocols:
            simulation = NetworkSimulation(topology, protocol, seed=config.seed)
            for publisher in publishers:
                simulation.add_poisson_publisher(
                    publisher,
                    config.publish_rate / len(publishers),
                    events.factory_for(publisher),
                    config.num_events_per_publisher,
                )
            result = simulation.run()
            useful = max(1, len(result.matched_deliveries))
            # Header overhead beyond the bare event, amortized per useful
            # delivery — the match-first "message size" cost, isolated.
            base = protocol.make_message(events.event_for(), publishers[0])
            bare_bytes = base.wire_size_bytes
            header_overhead = result.total_link_bytes - bare_bytes * result.total_link_messages
            table.add_row(
                count,
                protocol.name,
                result.total_broker_messages,
                result.total_link_messages,
                result.total_link_bytes / 1024.0,
                header_overhead / useful,
                result.wasted_deliveries,
            )
    return table
