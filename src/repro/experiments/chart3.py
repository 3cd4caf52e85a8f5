"""Chart 3 — "Performance of Matching" on the prototype broker.

The paper measures the prototype's pure matching algorithm: average matching
time per event against the number of subscriptions, "about 4ms for 25,000
subscribers" on a 200 MHz Pentium Pro.  Absolute times on modern hardware
under Python differ, but the *shape* — matching time growing sublinearly in
the subscription count — is the claim worth checking, so the table reports
both the measured milliseconds and the growth ratio between successive
subscription counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.broker.engine import MatchingEngine
from repro.experiments.tables import ExperimentTable
from repro.obs import metrics_output
from repro.workload.generators import EventGenerator, SubscriptionGenerator
from repro.workload.spec import CHART1_SPEC, WorkloadSpec


@dataclass(frozen=True)
class Chart3Config:
    """Knobs for the prototype matching-time measurement.

    The paper sweeps to 25,000 subscriptions; the default sweep is smaller
    for benchmark speed (pass the paper's counts for full scale).
    """

    spec: WorkloadSpec = CHART1_SPEC
    subscription_counts: Tuple[int, ...] = (1000, 5000, 10000, 25000)
    num_events: int = 200
    seed: int = 0
    use_factoring: bool = True
    engine: str = "compiled"
    #: Optional path: write the global obs-registry JSON snapshot here.
    metrics_out: Optional[str] = None


def measure_matching_time(
    engine: MatchingEngine, events: List, repeats: int = 1
) -> Tuple[float, float, int]:
    """Return (avg ms per match, avg matches per event, avg steps).

    One untimed warmup pass brings the engine to steady state (first-use
    annotation) before measurement: the paper's Chart 3 measures matching
    time, not one-time subscription processing.
    """
    total_matches = 0
    total_steps = 0
    for event in events:
        engine.match(event)
    start = time.perf_counter()
    for _ in range(repeats):
        for event in events:
            result = engine.match(event)
            total_matches += len(result.subscriptions)
            total_steps += result.steps
    elapsed = time.perf_counter() - start
    runs = repeats * len(events)
    return (
        (elapsed / runs) * 1000.0,
        total_matches / runs,
        total_steps // runs,
    )


def run_chart3(config: Chart3Config = Chart3Config()) -> ExperimentTable:
    """Regenerate Chart 3: average matching time vs subscription count."""
    with metrics_output(config.metrics_out):
        return _run_chart3(config)


def _run_chart3(config: Chart3Config) -> ExperimentTable:
    table = ExperimentTable(
        "Chart 3: prototype matching time vs number of subscriptions",
        [
            "subscriptions",
            "avg_match_ms",
            "avg_matches",
            "avg_steps",
            "growth_vs_prev",
        ],
    )
    spec = config.spec
    subscribers = [f"client{i:04d}" for i in range(100)]
    previous_ms: Optional[float] = None
    for count in config.subscription_counts:
        generator = SubscriptionGenerator(spec, seed=config.seed + count)
        subscriptions = generator.subscriptions_for(subscribers, count)
        engine = MatchingEngine(
            spec.schema(),
            domains=spec.domains(),
            factoring_attributes=(
                spec.factoring_attributes if config.use_factoring else None
            ),
            engine=config.engine,
        )
        for subscription in subscriptions:
            engine.matcher.insert(subscription)
        events = EventGenerator(spec, seed=config.seed + count + 1)
        sample = [events.event_for() for _ in range(config.num_events)]
        avg_ms, avg_matches, avg_steps = measure_matching_time(engine, sample)
        growth = (avg_ms / previous_ms) if previous_ms else 1.0
        table.add_row(count, avg_ms, avg_matches, avg_steps, growth)
        previous_ms = avg_ms
    return table
