"""Chart 1 — "Saturation points".

For each subscription count, find the aggregate event publish rate at which
the Figure 6 broker network overloads, under flooding and under link
matching.  The paper's claim: "a broker network running the flooding
protocol saturates at significantly lower event publish rates than the link
matching protocol for any number of subscriptions", with the gap largest
when events are selective.

Paper parameters (``CHART1_SPEC``): 10 attributes, 2 factored, 5 values per
attribute, first-attribute non-``*`` probability 0.98 decaying at 85%, 500
tracked events, Zipf values, locality of interest, Poisson arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments.tables import ExperimentTable
from repro.network.figures import figure6_topology
from repro.network.topology import Topology
from repro.protocols.base import ProtocolContext, RoutingProtocol
from repro.protocols.flooding import FloodingProtocol
from repro.protocols.link_matching import LinkMatchingProtocol
from repro.protocols.match_first import MatchFirstProtocol
from repro.sim.runner import NetworkSimulation
from repro.sim.saturation import SaturationSearchResult, find_saturation_rate
from repro.workload.generators import (
    EventGenerator,
    SubscriptionGenerator,
    figure6_region_of,
)
from repro.workload.spec import CHART1_SPEC, WorkloadSpec


@dataclass(frozen=True)
class Chart1Config:
    """Knobs for the Chart 1 run.

    ``subscription_counts`` defaults to a scaled-down sweep so the benchmark
    suite stays fast; the paper's sweep went to several thousand (pass
    larger counts to match it — nothing else changes).
    """

    spec: WorkloadSpec = CHART1_SPEC
    subscription_counts: Tuple[int, ...] = (100, 250, 500, 1000)
    subscribers_per_broker: int = 3
    probe_duration_s: float = 0.5
    abort_queue_length: int = 100
    initial_rate: float = 500.0
    max_rate: float = 5e5
    seed: int = 0
    include_match_first: bool = False


def _protocols(context: ProtocolContext, config: Chart1Config) -> List[RoutingProtocol]:
    protocols: List[RoutingProtocol] = [
        FloodingProtocol(context),
        LinkMatchingProtocol(context),
    ]
    if config.include_match_first:
        protocols.append(MatchFirstProtocol(context))
    return protocols


def saturation_for(
    topology: Topology,
    protocol: RoutingProtocol,
    event_generator: EventGenerator,
    config: Chart1Config,
) -> SaturationSearchResult:
    """Find one protocol's saturation rate on one workload."""
    publishers = topology.publishers()

    def probe(rate: float):
        simulation = NetworkSimulation(
            topology,
            protocol,
            seed=config.seed,
            queue_sample_interval_ms=config.probe_duration_s * 1000.0 / 50.0,
        )
        per_publisher = rate / len(publishers)
        for publisher in publishers:
            simulation.add_poisson_publisher(
                publisher,
                per_publisher,
                event_generator.factory_for(publisher),
                int(per_publisher * config.probe_duration_s) + 1,
            )
        return simulation.run(
            max_seconds=config.probe_duration_s,
            drain=False,
            abort_on_queue=config.abort_queue_length,
        )

    return find_saturation_rate(
        probe, initial_rate=config.initial_rate, max_rate=config.max_rate
    )


def run_chart1(config: Chart1Config = Chart1Config()) -> ExperimentTable:
    """Regenerate Chart 1's series (one row per protocol × subscription count)."""
    table = ExperimentTable(
        "Chart 1: saturation publish rate (events/s) vs number of subscriptions",
        ["subscriptions", "protocol", "saturation_rate_eps", "probes"],
    )
    topology = figure6_topology(subscribers_per_broker=config.subscribers_per_broker)
    spec = config.spec
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
        for protocol in _protocols(context, config):
            result = saturation_for(topology, protocol, events, config)
            table.add_row(count, protocol.name, result.saturation_rate, len(result.probes))
    return table
