"""Small-scale runs of every experiment harness, checking the paper's shapes.

These are the same harnesses the benchmarks drive at larger scale; here they
run just big enough to assert the qualitative claims:

* Chart 1: flooding saturates below link matching.
* Chart 2: cumulative steps grow with hop count; 1-hop link matching costs
  less than centralized matching.
* Chart 3: matching steps grow sublinearly with subscription count.
* Throughput: matching is a minority share of broker cost.
* Ablations: factoring reduces steps; the DAG beats the tree on steps but
  costs nodes; the ordering heuristic beats the reversed order.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    AblationConfig,
    Chart1Config,
    Chart2Config,
    Chart3Config,
    ThroughputConfig,
    run_chart1,
    run_chart2,
    run_chart3,
    run_delayed_branching_ablation,
    run_factoring_ablation,
    run_ordering_ablation,
    run_throughput,
    run_virtual_link_ablation,
)


@pytest.mark.slow
class TestChart1:
    def test_flooding_saturates_below_link_matching(self):
        table = run_chart1(
            Chart1Config(
                subscription_counts=(150,),
                subscribers_per_broker=2,
                probe_duration_s=0.3,
            )
        )
        rates = {
            protocol: rate
            for _count, protocol, rate, _probes in table.rows
        }
        assert rates["flooding"] < rates["link-matching"]


class TestChart2:
    def test_shape(self):
        table = run_chart2(
            Chart2Config(
                subscription_counts=(300,),
                num_events=40,
                subscribers_per_broker=2,
            )
        )
        (row,) = table.rows
        by_column = dict(zip(table.columns, row))
        centralized = by_column["centralized"]
        lm_1 = by_column["lm_1_hop"]
        assert lm_1 != "" and lm_1 <= centralized
        # Cumulative steps trend upward with distance.  Each hop count
        # averages over a different set of deliveries, so small local dips
        # are possible; the overall trend must still be a clear increase.
        values = []
        for hop in range(1, 7):
            key = f"lm_{hop}_hop" if hop == 1 else f"lm_{hop}_hops"
            value = by_column[key]
            if value != "":
                values.append(value)
        assert len(values) >= 3
        assert values[-1] > values[0]
        for previous, current in zip(values, values[1:]):
            assert current >= previous * 0.7


class TestChart3:
    def test_sublinear_steps(self):
        table = run_chart3(
            Chart3Config(subscription_counts=(500, 2000), num_events=60)
        )
        steps = table.column("avg_steps")
        subs = table.column("subscriptions")
        # 4x the subscriptions must cost far less than 4x the steps.
        growth = steps[1] / steps[0]
        assert growth < (subs[1] / subs[0]) * 0.9

    def test_times_are_positive(self):
        table = run_chart3(Chart3Config(subscription_counts=(200,), num_events=30))
        assert all(value > 0 for value in table.column("avg_match_ms"))


class TestThroughput:
    def test_transport_dominates_matching(self):
        table = run_throughput(
            ThroughputConfig(subscription_counts=(50,), num_events=300)
        )
        (row,) = table.rows
        by_column = dict(zip(table.columns, row))
        assert by_column["events_per_sec"] > 0
        # The paper: "transport system and network costs of a broker
        # outweigh the cost of matching".
        assert by_column["matching_cost_share"] < 0.5


class TestAblations:
    def test_factoring_reduces_steps(self):
        table = run_factoring_ablation(
            AblationConfig(num_subscriptions=600, num_events=100)
        )
        steps = dict(zip(table.column("factoring_levels"), table.column("mean_steps")))
        assert steps[2] < steps[0]

    def test_ordering_heuristic_beats_reverse(self):
        table = run_ordering_ablation(
            AblationConfig(num_subscriptions=600, num_events=100)
        )
        steps = dict(zip(table.column("ordering"), table.column("mean_steps")))
        assert steps["fewest-dont-cares"] <= steps["reverse"]

    def test_dag_trades_nodes_for_steps(self):
        table = run_delayed_branching_ablation(
            AblationConfig(num_subscriptions=300, num_events=100)
        )
        rows = {row[0]: row for row in table.rows}
        tree_steps = rows["parallel search tree"][1]
        dag_steps = rows["search DAG"][1]
        assert dag_steps < tree_steps

    def test_virtual_links_only_split_with_laterals(self):
        table = run_virtual_link_ablation(subscribers_per_broker=1)
        rows = {row[0]: row for row in table.rows}
        assert rows["default"][1] > 0  # lateral links force splits
        assert rows["none"][1] == 0
