"""Bursty message loads — the paper's stated future work (Section 6).

Runs the Chart 1 setup under ON/OFF arrivals at a fixed mean rate for
several burstiness factors and reports queue buildup, latency and overload,
quantifying how much headroom below the Poisson saturation point bursts
consume.
"""

from __future__ import annotations

from conftest import archive_table, paper_scale

from repro.experiments import BurstyConfig, run_bursty


def bursty_config() -> BurstyConfig:
    if paper_scale():
        return BurstyConfig(
            num_subscriptions=1000,
            subscribers_per_broker=10,
            mean_rate=5000.0,
            burstiness_factors=(1.0, 2.0, 5.0, 10.0, 20.0),
            duration_s=2.0,
        )
    return BurstyConfig(
        num_subscriptions=200,
        subscribers_per_broker=3,
        mean_rate=3000.0,
        burstiness_factors=(1.0, 3.0, 10.0),
        duration_s=0.8,
    )


def test_bursty_loads(once):
    config = bursty_config()
    table = once(lambda: run_bursty(config))
    archive_table(
        "bursty_loads",
        table,
        workload=config,
        wall_clock_s=once.last_wall_clock_s,
    )
    queues = dict(zip(table.column("burstiness"), table.column("max_queue")))
    factors = sorted(queues)
    # Bursts at the same mean rate must queue at least as much as Poisson.
    assert queues[factors[-1]] >= queues[factors[0]]
