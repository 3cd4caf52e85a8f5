"""Chart 1 — saturation publish rate vs number of subscriptions.

Regenerates the paper's Chart 1 series: for each subscription count, the
aggregate event publish rate at which the Figure 6 network overloads, under
flooding and under link matching.  The paper's qualitative result — checked
by assertion here — is that flooding saturates at significantly lower rates
for every subscription count, with the gap largest for selective workloads.
"""

from __future__ import annotations

from conftest import archive_table, paper_scale

from repro.experiments import Chart1Config, run_chart1


def chart1_config() -> Chart1Config:
    if paper_scale():
        return Chart1Config(
            subscription_counts=(500, 1000, 2000, 4000),
            subscribers_per_broker=10,
            probe_duration_s=0.5,
        )
    return Chart1Config(
        subscription_counts=(100, 300, 900),
        subscribers_per_broker=3,
        probe_duration_s=0.4,
    )


def test_chart1_saturation_points(once):
    config = chart1_config()
    table = once(lambda: run_chart1(config))
    archive_table(
        "chart1_saturation",
        table,
        workload=config,
        wall_clock_s=once.last_wall_clock_s,
    )
    by_protocol = {}
    for count, protocol, rate, _probes in table.rows:
        by_protocol.setdefault(protocol, {})[count] = rate
    for count in config.subscription_counts:
        assert by_protocol["flooding"][count] < by_protocol["link-matching"][count], (
            f"flooding must saturate below link matching at {count} subscriptions"
        )
