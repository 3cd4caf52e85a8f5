"""Chart 2 — cumulative matching steps per hop count vs subscriptions.

Regenerates the paper's Chart 2: the average cumulative link-matching steps
for deliveries 1-6 broker hops from the publisher, against the centralized
(non-trit) algorithm's steps at the publishing broker.  The asserted shapes:
1-hop link matching costs less than centralized matching, and cumulative
steps grow with distance.
"""

from __future__ import annotations

from conftest import archive_table, paper_scale

from repro.experiments import Chart2Config, run_chart2


def chart2_config() -> Chart2Config:
    if paper_scale():
        return Chart2Config(
            subscription_counts=(2000, 4000, 6000, 8000, 10000),
            num_events=1000,
            subscribers_per_broker=10,
        )
    return Chart2Config(
        subscription_counts=(500, 1000, 2000),
        num_events=120,
        subscribers_per_broker=3,
    )


def test_chart2_matching_steps(once):
    config = chart2_config()
    table = once(lambda: run_chart2(config))
    archive_table(
        "chart2_matching_steps",
        table,
        workload=config,
        wall_clock_s=once.last_wall_clock_s,
    )
    for row in table.rows:
        by_column = dict(zip(table.columns, row))
        lm_1 = by_column["lm_1_hop"]
        if lm_1 != "":
            assert lm_1 <= by_column["centralized"]
        series = [
            by_column[f"lm_{h}_hop" if h == 1 else f"lm_{h}_hops"]
            for h in range(1, config.max_hops + 1)
        ]
        series = [value for value in series if value != ""]
        assert series and series[-1] >= series[0]
