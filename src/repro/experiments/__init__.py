"""Experiment harnesses that regenerate every table and figure of the
paper's evaluation (Charts 1-3, the throughput claim, the network-loading
baselines), plus ablations of the design choices."""

from repro.experiments.ablations import (
    AblationConfig,
    run_delayed_branching_ablation,
    run_factoring_ablation,
    run_ordering_ablation,
    run_range_workload_ablation,
    run_virtual_link_ablation,
)
from repro.experiments.baselines import BaselineConfig, run_baseline_comparison
from repro.experiments.chart1 import Chart1Config, run_chart1, saturation_for
from repro.experiments.chart2 import Chart2Config, measure_chart2_point, run_chart2
from repro.experiments.chart3 import Chart3Config, measure_matching_time, run_chart3
from repro.experiments.tables import ExperimentTable
from repro.experiments.throughput import ThroughputConfig, run_throughput

__all__ = [
    "AblationConfig",
    "BaselineConfig",
    "Chart1Config",
    "Chart2Config",
    "Chart3Config",
    "ExperimentTable",
    "ThroughputConfig",
    "measure_chart2_point",
    "measure_matching_time",
    "run_baseline_comparison",
    "run_chart1",
    "run_chart2",
    "run_chart3",
    "run_delayed_branching_ablation",
    "run_factoring_ablation",
    "run_ordering_ablation",
    "run_range_workload_ablation",
    "run_throughput",
    "run_virtual_link_ablation",
    "saturation_for",
]
