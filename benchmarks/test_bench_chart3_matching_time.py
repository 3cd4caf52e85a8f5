"""Chart 3 — prototype matching time vs number of subscriptions.

Regenerates the paper's Chart 3 on this machine: average wall-clock matching
time per event as the subscription count grows to 25,000 (the paper's top
point; their 200 MHz Pentium Pro took ~4 ms there).  The asserted shape is
sublinear growth of matching *steps* in the subscription count.
"""

from __future__ import annotations

from conftest import archive_table, paper_scale

from repro.experiments import Chart3Config, run_chart3


def chart3_config() -> Chart3Config:
    if paper_scale():
        return Chart3Config(
            subscription_counts=(1000, 5000, 10000, 25000), num_events=300
        )
    return Chart3Config(subscription_counts=(1000, 5000, 15000), num_events=120)


def test_chart3_matching_time(once):
    config = chart3_config()
    table = once(lambda: run_chart3(config))
    archive_table(
        "chart3_matching_time",
        table,
        workload=config,
        wall_clock_s=once.last_wall_clock_s,
    )
    subs = table.column("subscriptions")
    steps = table.column("avg_steps")
    for i in range(1, len(subs)):
        subscription_growth = subs[i] / subs[i - 1]
        step_growth = steps[i] / max(1, steps[i - 1])
        assert step_growth < subscription_growth, (
            "matching steps must grow sublinearly in the subscription count"
        )


def test_single_match_latency(benchmark):
    """Microbenchmark: one match against 10,000 subscriptions (the hot path
    the paper quotes at ~4 ms for 25,000 subscriptions on 1999 hardware)."""
    from repro.broker import MatchingEngine
    from repro.workload import CHART1_SPEC, EventGenerator, SubscriptionGenerator

    spec = CHART1_SPEC
    engine = MatchingEngine(
        spec.schema(),
        domains=spec.domains(),
        factoring_attributes=spec.factoring_attributes,
    )
    generator = SubscriptionGenerator(spec, seed=1)
    for subscription in generator.subscriptions_for(["c"], 10000):
        engine.matcher.insert(subscription)
    events = EventGenerator(spec, seed=2)
    sample = [events.event_for() for _ in range(64)]
    state = {"i": 0}

    def one_match():
        state["i"] = (state["i"] + 1) % len(sample)
        return engine.match(sample[state["i"]])

    benchmark(one_match)
