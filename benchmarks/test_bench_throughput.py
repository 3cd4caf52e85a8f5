"""Broker throughput — the "14,000 events/sec" claim of Section 4.2.

Drives the full prototype pipeline (client protocol, codec, matching,
per-client logs) on a single broker over the in-memory transport, and
reports events/sec plus matching's share of the cost.  The asserted shape is
the paper's observation that transport costs outweigh matching costs.
"""

from __future__ import annotations

from conftest import archive_table, paper_scale

from repro.experiments import ThroughputConfig, run_throughput


def throughput_config() -> ThroughputConfig:
    if paper_scale():
        return ThroughputConfig(subscription_counts=(10, 100, 1000, 5000), num_events=4000)
    return ThroughputConfig(subscription_counts=(10, 100, 1000), num_events=1200)


def test_broker_throughput(once):
    config = throughput_config()
    table = once(lambda: run_throughput(config))
    archive_table(
        "throughput",
        table,
        workload=config,
        wall_clock_s=once.last_wall_clock_s,
    )
    for row in table.rows:
        by_column = dict(zip(table.columns, row))
        assert by_column["events_per_sec"] > 100
        assert by_column["matching_cost_share"] < 0.6, (
            "matching must not dominate the broker's cost (Section 4.2)"
        )


def test_event_pipeline_microbench(benchmark):
    """Marshal -> frame -> unmarshal -> match, the broker's per-event work."""
    from repro.broker import MatchingEngine, decode_event, encode_event
    from repro.workload import CHART1_SPEC, EventGenerator, SubscriptionGenerator

    spec = CHART1_SPEC
    engine = MatchingEngine(spec.schema(), domains=spec.domains())
    generator = SubscriptionGenerator(spec, seed=3)
    for subscription in generator.subscriptions_for(["c"], 500):
        engine.matcher.insert(subscription)
    event = EventGenerator(spec, seed=4).event_for()
    data = encode_event(event)

    def pipeline():
        parsed = decode_event(spec.schema(), data)
        return engine.match(parsed)

    benchmark(pipeline)
