"""Bursty-load study — the paper's stated future work.

Section 6: "since many publish/subscribe applications exhibit peak activity
periods, we are examining how our protocol performs with bursty message
loads."  This harness runs the Chart 1 setup under an ON/OFF (interrupted
Poisson) arrival process at the same long-run mean rate as a plain Poisson
run, for several burstiness factors, and reports queue buildup, delivery
latency and whether the network overloads — quantifying how much headroom
below the Poisson saturation point bursts consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.experiments.tables import ExperimentTable
from repro.obs import metrics_output
from repro.network.figures import figure6_topology
from repro.protocols.base import ProtocolContext
from repro.protocols.link_matching import LinkMatchingProtocol
from repro.sim.runner import NetworkSimulation
from repro.workload.generators import (
    EventGenerator,
    SubscriptionGenerator,
    figure6_region_of,
)
from repro.workload.spec import CHART1_SPEC, WorkloadSpec


@dataclass(frozen=True)
class BurstyConfig:
    spec: WorkloadSpec = CHART1_SPEC
    num_subscriptions: int = 300
    subscribers_per_broker: int = 3
    #: Aggregate mean publish rate (events/s) — pick below the Poisson
    #: saturation point so burstiness is the variable under test.
    mean_rate: float = 4000.0
    burstiness_factors: Tuple[float, ...] = (1.0, 3.0, 10.0)
    duration_s: float = 1.0
    on_mean_s: float = 0.05
    seed: int = 0
    engine: str = "compiled"
    #: Optional path: write the global obs-registry JSON snapshot here.
    metrics_out: Optional[str] = None


def run_bursty(config: BurstyConfig = BurstyConfig()) -> ExperimentTable:
    """One row per burstiness factor (1.0 = plain Poisson)."""
    with metrics_output(config.metrics_out):
        return _run_bursty(config)


def _run_bursty(config: BurstyConfig) -> ExperimentTable:
    table = ExperimentTable(
        "Bursty loads: link matching at fixed mean rate, varying burstiness",
        [
            "burstiness",
            "published",
            "max_queue",
            "mean_latency_ms",
            "overloaded",
        ],
    )
    topology = figure6_topology(subscribers_per_broker=config.subscribers_per_broker)
    spec = config.spec
    generator = SubscriptionGenerator(spec, seed=config.seed, region_of=figure6_region_of)
    subscriptions = generator.subscriptions_for(
        topology.subscribers(), config.num_subscriptions
    )
    events = EventGenerator(spec, seed=config.seed + 1, region_of=figure6_region_of)
    context = ProtocolContext(
        topology,
        spec.schema(),
        subscriptions,
        domains=spec.domains(),
        factoring_attributes=spec.factoring_attributes,
        engine=config.engine,
    )
    protocol = LinkMatchingProtocol(context)
    publishers = topology.publishers()
    for burstiness in config.burstiness_factors:
        simulation = NetworkSimulation(
            topology,
            protocol,
            seed=config.seed,
            queue_sample_interval_ms=config.duration_s * 1000.0 / 100.0,
        )
        per_publisher = config.mean_rate / len(publishers)
        budget = int(per_publisher * config.duration_s) + 1
        for publisher in publishers:
            if burstiness <= 1.0:
                simulation.add_poisson_publisher(
                    publisher, per_publisher, events.factory_for(publisher), budget
                )
            else:
                simulation.add_bursty_publisher(
                    publisher,
                    per_publisher,
                    events.factory_for(publisher),
                    budget,
                    burstiness=burstiness,
                    on_mean_s=config.on_mean_s,
                )
        result = simulation.run(max_seconds=config.duration_s, drain=False)
        max_queue = max(stats.max_queue for stats in result.broker_stats.values())
        latency = result.mean_latency_ms()
        table.add_row(
            burstiness,
            result.published_events,
            max_queue,
            latency if latency is not None else "",
            result.is_overloaded,
        )
    return table
