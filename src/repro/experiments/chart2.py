"""Chart 2 — "Matching time" (cumulative matching steps by hop count).

For the link-matching algorithm the per-event cost is "the sum of the times
for all the partial matches at intermediate brokers along the way from
publisher to subscriber".  Chart 2 plots, against the number of
subscriptions, the average cumulative matching *steps* for deliveries 1
through 6 broker-hops away, next to the steps of the centralized (non-trit)
algorithm run once at the publishing broker.

Expected shape (paper): cumulative steps grow with hop count; up to ~4 hops
link matching costs no more than centralized; beyond that it costs more but
the per-step cost (microseconds) is negligible against WAN latencies, and
the slopes indicate centralized eventually overtakes link matching for very
large subscription counts.

Paper parameters (``CHART2_SPEC``): 10 attributes, 3 factored, 3 values per
attribute, non-``*`` probability 0.98 decaying at 82%, 1000 events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.fabric import ContentRoutedNetwork
from repro.experiments.tables import ExperimentTable
from repro.obs import metrics_output
from repro.network.figures import figure6_topology
from repro.workload.generators import (
    EventGenerator,
    SubscriptionGenerator,
    figure6_region_of,
)
from repro.workload.spec import CHART2_SPEC, WorkloadSpec


@dataclass(frozen=True)
class Chart2Config:
    """Knobs for the Chart 2 run (defaults scaled down from the paper's
    2000-10000 subscriptions / 1000 events for benchmark speed; pass the
    paper's values to reproduce at full scale)."""

    spec: WorkloadSpec = CHART2_SPEC
    subscription_counts: Tuple[int, ...] = (500, 1000, 2000)
    num_events: int = 100
    subscribers_per_broker: int = 3
    max_hops: int = 6
    seed: int = 0
    use_factoring: bool = True
    engine: str = "compiled"
    #: Optional path: write the global obs-registry JSON snapshot here.
    metrics_out: Optional[str] = None


@dataclass
class Chart2Point:
    """Aggregated measurements for one subscription count."""

    subscriptions: int
    #: hop count -> (mean cumulative link-matching steps, deliveries counted)
    steps_by_hop: Dict[int, Tuple[float, int]]
    centralized_steps: float


def measure_chart2_point(
    network: ContentRoutedNetwork,
    events: EventGenerator,
    publishers: List[str],
    num_events: int,
    max_hops: int,
) -> Tuple[Dict[int, Tuple[float, int]], float]:
    """Publish ``num_events`` per publisher; collect cumulative steps per hop
    plus the centralized matcher's steps at the publishing broker."""
    step_totals: Dict[int, int] = {}
    step_counts: Dict[int, int] = {}
    centralized_total = 0
    published = 0
    for index in range(num_events):
        publisher = publishers[index % len(publishers)]
        event = events.event_for(publisher)
        trace = network.publish(publisher, event)
        centralized_total += network.centralized_match(publisher, event).steps
        published += 1
        for client, hop in trace.deliveries.items():
            if hop > max_hops:
                continue
            cumulative = trace.cumulative_steps_to(client)
            step_totals[hop] = step_totals.get(hop, 0) + cumulative
            step_counts[hop] = step_counts.get(hop, 0) + 1
    steps_by_hop = {
        hop: (step_totals[hop] / step_counts[hop], step_counts[hop])
        for hop in sorted(step_totals)
    }
    return steps_by_hop, centralized_total / max(1, published)


def run_chart2(config: Chart2Config = Chart2Config()) -> ExperimentTable:
    """Regenerate Chart 2's series.

    Columns: subscription count, then ``lm_1_hop`` .. ``lm_<max>_hops``
    (mean cumulative steps; blank when no delivery at that distance), then
    ``centralized``.
    """
    with metrics_output(config.metrics_out):
        return _run_chart2(config)


def _run_chart2(config: Chart2Config) -> ExperimentTable:
    columns = ["subscriptions"]
    columns += [f"lm_{h}_hop{'s' if h > 1 else ''}" for h in range(1, config.max_hops + 1)]
    columns.append("centralized")
    table = ExperimentTable(
        "Chart 2: cumulative matching steps per event vs number of subscriptions",
        columns,
    )
    topology = figure6_topology(subscribers_per_broker=config.subscribers_per_broker)
    publishers = topology.publishers()
    spec = config.spec
    for count in config.subscription_counts:
        generator = SubscriptionGenerator(
            spec, seed=config.seed + count, region_of=figure6_region_of
        )
        subscriptions = generator.subscriptions_for(topology.subscribers(), count)
        network = ContentRoutedNetwork(
            topology,
            spec.schema(),
            domains=spec.domains(),
            factoring_attributes=(
                spec.factoring_attributes if config.use_factoring else None
            ),
            engine=config.engine,
        )
        for subscription in subscriptions:
            network.subscribe(subscription.subscriber, subscription.predicate)
        events = EventGenerator(
            spec, seed=config.seed + count + 1, region_of=figure6_region_of
        )
        steps_by_hop, centralized = measure_chart2_point(
            network, events, publishers, config.num_events, config.max_hops
        )
        row: List[object] = [count]
        for hop in range(1, config.max_hops + 1):
            entry = steps_by_hop.get(hop)
            row.append(entry[0] if entry is not None else "")
        row.append(centralized)
        table.add_row(*row)
    return table
