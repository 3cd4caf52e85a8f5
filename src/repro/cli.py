"""Command-line interface: regenerate any of the paper's experiments.

Usage (after ``pip install -e .``)::

    python -m repro chart1 --subscriptions 100 300 900
    python -m repro chart2 --events 200
    python -m repro chart3 --subscriptions 1000 5000 25000
    python -m repro throughput
    python -m repro bursty --mean-rate 3000
    python -m repro ablations
    python -m repro demo

Each experiment prints its table (and, where it makes sense, an ASCII
rendering of the chart).  ``--paper-scale`` switches any experiment to the
paper's full parameters.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.experiments import (
    AblationConfig,
    BurstyConfig,
    Chart1Config,
    Chart2Config,
    Chart3Config,
    ThroughputConfig,
    run_bursty,
    run_chart1,
    run_chart2,
    run_chart3,
    run_delayed_branching_ablation,
    run_factoring_ablation,
    run_ordering_ablation,
    run_throughput,
    run_virtual_link_ablation,
)
from repro.obs import metrics_output

from repro.experiments.ascii_chart import (
    chart1_series,
    chart2_series,
    chart3_series,
    render_chart,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the evaluation of the ICDCS'99 link-matching paper.",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="run at the paper's full parameters (slow)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="enable the observability registry and write its JSON snapshot "
        "to PATH when the command finishes",
    )
    parser.add_argument(
        "--engine",
        choices=("tree", "compiled"),
        default="compiled",
        help="matching engine: array kernels (compiled, default) or the "
        "object-graph PST (tree)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    chart1 = commands.add_parser("chart1", help="saturation points (flooding vs link matching)")
    chart1.add_argument("--subscriptions", type=int, nargs="+", default=None)
    chart1.add_argument("--probe-duration", type=float, default=None, metavar="SECONDS")
    chart1.add_argument(
        "--match-first", action="store_true", help="include the match-first baseline"
    )

    chart2 = commands.add_parser("chart2", help="cumulative matching steps per hop count")
    chart2.add_argument("--subscriptions", type=int, nargs="+", default=None)
    chart2.add_argument("--events", type=int, default=None)

    chart3 = commands.add_parser("chart3", help="prototype matching time")
    chart3.add_argument("--subscriptions", type=int, nargs="+", default=None)
    chart3.add_argument("--events", type=int, default=None)

    commands.add_parser("throughput", help="prototype broker events/sec")

    bursty = commands.add_parser("bursty", help="bursty-load study (paper future work)")
    bursty.add_argument("--mean-rate", type=float, default=None)
    bursty.add_argument("--burstiness", type=float, nargs="+", default=None)

    commands.add_parser("ablations", help="factoring / ordering / DAG / virtual links")

    model = commands.add_parser(
        "model", help="analytical expected-cost model vs the measured PST"
    )
    model.add_argument("--subscriptions", type=int, nargs="+", default=None)
    model.add_argument("--events", type=int, default=200)

    commands.add_parser("demo", help="run the quickstart scenario inline")
    return parser


def _run_chart1(args: argparse.Namespace) -> None:
    config = Chart1Config(
        subscription_counts=tuple(args.subscriptions)
        if args.subscriptions
        else ((500, 1000, 2000, 4000) if args.paper_scale else Chart1Config().subscription_counts),
        subscribers_per_broker=10 if args.paper_scale else 3,
        probe_duration_s=args.probe_duration or (0.5 if args.paper_scale else 0.4),
        include_match_first=args.match_first,
        engine=args.engine,
        metrics_out=args.metrics_out,
    )
    table = run_chart1(config)
    print(table.format())
    print()
    print(
        render_chart(
            "Chart 1: saturation publish rate (events/s, log) vs subscriptions",
            chart1_series(table),
            y_log=True,
            x_label="subscriptions",
        )
    )


def _run_chart2(args: argparse.Namespace) -> None:
    config = Chart2Config(
        subscription_counts=tuple(args.subscriptions)
        if args.subscriptions
        else (
            (2000, 4000, 6000, 8000, 10000)
            if args.paper_scale
            else Chart2Config().subscription_counts
        ),
        num_events=args.events or (1000 if args.paper_scale else 120),
        subscribers_per_broker=10 if args.paper_scale else 3,
        engine=args.engine,
        metrics_out=args.metrics_out,
    )
    table = run_chart2(config)
    print(table.format())
    print()
    print(
        render_chart(
            "Chart 2: cumulative matching steps vs subscriptions",
            chart2_series(table),
            x_label="subscriptions",
        )
    )


def _run_chart3(args: argparse.Namespace) -> None:
    config = Chart3Config(
        subscription_counts=tuple(args.subscriptions)
        if args.subscriptions
        else (
            (1000, 5000, 10000, 25000)
            if args.paper_scale
            else Chart3Config().subscription_counts
        ),
        num_events=args.events or (300 if args.paper_scale else 150),
        engine=args.engine,
        metrics_out=args.metrics_out,
    )
    table = run_chart3(config)
    print(table.format())
    print()
    print(
        render_chart(
            "Chart 3: average matching time (ms) vs subscriptions",
            chart3_series(table),
            x_label="subscriptions",
        )
    )


def _run_throughput(args: argparse.Namespace) -> None:
    config = ThroughputConfig(
        subscription_counts=(10, 100, 1000, 5000) if args.paper_scale else (10, 100, 1000),
        num_events=4000 if args.paper_scale else 1500,
        engine=args.engine,
        metrics_out=args.metrics_out,
    )
    print(run_throughput(config).format())


def _run_bursty(args: argparse.Namespace) -> None:
    config = BurstyConfig(
        num_subscriptions=1000 if args.paper_scale else 200,
        subscribers_per_broker=10 if args.paper_scale else 3,
        mean_rate=args.mean_rate or (5000.0 if args.paper_scale else 3000.0),
        burstiness_factors=tuple(args.burstiness)
        if args.burstiness
        else (1.0, 2.0, 5.0, 10.0),
        duration_s=2.0 if args.paper_scale else 0.8,
        engine=args.engine,
        metrics_out=args.metrics_out,
    )
    print(run_bursty(config).format())


def _run_ablations(args: argparse.Namespace) -> None:
    config = AblationConfig(
        num_subscriptions=5000 if args.paper_scale else 1500,
        num_events=500 if args.paper_scale else 200,
    )
    from repro.experiments import run_range_workload_ablation

    for table in (
        run_factoring_ablation(config),
        run_ordering_ablation(config),
        run_delayed_branching_ablation(),
        run_virtual_link_ablation(),
        run_range_workload_ablation(config),
    ):
        print(table.format())
        print()


def _run_model(args: argparse.Namespace) -> None:
    from repro.analysis import MatchingCostModel
    from repro.experiments import ExperimentTable
    from repro.matching import ParallelSearchTree
    from repro.workload import EventGenerator, SubscriptionGenerator, WorkloadSpec

    spec = WorkloadSpec(
        num_attributes=8,
        values_per_attribute=4,
        factoring_levels=0,
        zipf_exponent=0.0,  # uniform values: the model is exact here
        locality_regions=1,
    )
    counts = args.subscriptions or [500, 2000, 8000]
    table = ExperimentTable(
        "Analytical model vs measured PST (uniform values)",
        ["subscriptions", "model_steps", "measured_steps", "model_matches",
         "measured_matches", "sublinearity_ratio"],
    )
    for count in counts:
        model = MatchingCostModel(spec, count)
        generator = SubscriptionGenerator(spec, seed=count)
        tree = ParallelSearchTree(spec.schema())
        for subscription in generator.subscriptions_for(["c"], count):
            tree.insert(subscription)
        events = EventGenerator(spec, seed=count + 1)
        sample = [events.event_for() for _ in range(args.events)]
        measured_steps = sum(tree.match(e).steps for e in sample) / len(sample)
        measured_matches = sum(
            len(tree.match(e).subscriptions) for e in sample
        ) / len(sample)
        table.add_row(
            count,
            model.expected_steps(),
            measured_steps,
            model.expected_matches(),
            measured_matches,
            model.sublinearity_ratio(),
        )
    print(table.format())
    print()
    print("sublinearity_ratio = steps(2S) / (2 x steps(S)); < 1 certifies the")
    print("companion paper's claim that matching cost grows sublinearly in S.")


def _run_demo(args: argparse.Namespace) -> None:
    from repro import ContentRoutedNetwork, stock_trade_schema
    from repro.network import NodeKind, Topology

    topology = Topology()
    topology.add_broker("NY")
    topology.add_broker("TOKYO")
    topology.add_link("NY", "TOKYO", latency_ms=65.0)
    topology.add_client("alice", "NY")
    topology.add_client("bob", "TOKYO")
    topology.add_client("ticker", "NY", kind=NodeKind.PUBLISHER)
    network = ContentRoutedNetwork(topology, stock_trade_schema(), engine=args.engine)
    network.subscribe("alice", "issue='IBM' & price<120 & volume>1000")
    network.subscribe("bob", "volume>50000")
    for values in (
        {"issue": "IBM", "price": 119.5, "volume": 2500},
        {"issue": "IBM", "price": 99.0, "volume": 60000},
    ):
        trace = network.publish("ticker", values)
        print(f"{values} -> {sorted(trace.delivered_clients)} via {trace.links_used}")


_HANDLERS = {
    "chart1": _run_chart1,
    "chart2": _run_chart2,
    "chart3": _run_chart3,
    "throughput": _run_throughput,
    "bursty": _run_bursty,
    "ablations": _run_ablations,
    "model": _run_model,
    "demo": _run_demo,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    # The registry must be enabled before the handler builds its engines and
    # protocols (instruments fetched while disabled stay no-ops), so the
    # enable-write lifecycle wraps the whole handler.
    with metrics_output(args.metrics_out):
        _HANDLERS[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
