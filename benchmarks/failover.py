"""Failover benchmark: mid-stream broker failure + recovery under load.

Runs the same Chart-1-style workload twice over a five-broker chain with a
lateral bypass link — once healthy (an *armed* but empty fault plan, so the
invariant bookkeeping runs byte-for-byte identically) and once with a
mid-stream broker failure, a later link failure, and recoveries.  Both runs
feed :func:`repro.sim.check_invariants`, which enforces the two first-class
delivery properties:

* **no event lost** — every event a live subscriber's active subscription
  matched is delivered (offline-logged events replayed after recovery
  count);
* **at most one copy per link** — undisturbed events never cross a link
  twice (events in flight across a failure or repair are exempt, exactly
  like the paper's "disturbed" window).

The comparison rows report delivered throughput, latency, and link traffic
healthy-vs-faulted; ``speedup`` on the faulted row is the delivered-
throughput ratio (faulted / healthy), so a regression shows up as the cell
dropping further below 1.0 in the trend table.

Run from the repo root::

    PYTHONPATH=src python benchmarks/failover.py
    PYTHONPATH=src python benchmarks/failover.py --quick
    PYTHONPATH=src python benchmarks/failover.py --subscriptions 25000 --save

The invariant gate is unconditional: exit code 1 if either run loses an
event or double-sends an undisturbed one.  ``--save``/``--bench-out`` emit
the schema-versioned ``BENCH_failover.json`` artifact.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.network.figures import linear_chain
from repro.obs import bench as obs_bench
from repro.obs import get_registry
from repro.protocols import LinkMatchingProtocol, ProtocolContext
from repro.sim import FaultAction, FaultPlan, NetworkSimulation, check_invariants
from repro.workload import CHART1_SPEC, EventGenerator, SubscriptionGenerator

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RESULTS_PATH = RESULTS_DIR / "failover.txt"

#: The broker that fails mid-stream and the lateral link that keeps its
#: subtree reachable while it is down.
FAILED_BROKER = "B2"
LATERAL = ("B1", "B3")


def build_topology(subscribers_per_broker):
    topology = linear_chain(5, subscribers_per_broker=subscribers_per_broker)
    topology.add_link(*LATERAL, latency_ms=25.0)
    return topology


def fault_plan(total_events):
    """Fail a mid-chain broker at ~1/3 of the stream, recover at ~2/3, and
    squeeze a link flap in between — all by event index, so the plan scales
    with ``--events`` instead of assuming a rate."""
    third = max(1, total_events // 3)
    return FaultPlan(
        [
            FaultAction.fail_broker(FAILED_BROKER, after_events=third),
            FaultAction.fail_link("B3", "B4", after_events=third + third // 2),
            FaultAction.recover_link("B3", "B4", after_events=2 * third - third // 4),
            FaultAction.recover_broker(FAILED_BROKER, after_events=2 * third),
        ]
    )


def run_mode(mode, args):
    """One full simulation; returns (row, invariant_report, wall_s)."""
    topology = build_topology(args.subscribers_per_broker)
    subscribers = sorted(topology.subscribers())
    generator = SubscriptionGenerator(CHART1_SPEC, seed=args.seed)
    subscriptions = generator.subscriptions_for(subscribers, args.subscriptions)
    context = ProtocolContext(
        topology,
        CHART1_SPEC.schema(),
        subscriptions,
        domains=CHART1_SPEC.domains(),
    )
    plan = fault_plan(args.events) if mode == "faulted" else FaultPlan([])
    simulation = NetworkSimulation(
        topology,
        LinkMatchingProtocol(context),
        seed=args.seed,
        fault_plan=plan,
        repair_delay_ms=args.repair_delay_ms,
        annotation_lag_ms=args.annotation_lag_ms,
    )
    events = EventGenerator(CHART1_SPEC, seed=args.seed + 1)
    simulation.add_poisson_publisher(
        "P1", args.rate, events.factory_for("P1"), args.events
    )
    start = time.perf_counter()
    result = simulation.run()
    wall = time.perf_counter() - start
    report = check_invariants(result, simulation.faults)
    matched = result.matched_deliveries
    row = {
        "mode": mode,
        "events": result.published_events,
        "deliveries": len(result.deliveries),
        "matched": len(matched),
        "expected": report.expected_deliveries,
        "lost": len(report.lost),
        "duplicates": len(report.duplicates),
        "disturbed": report.disturbed_events,
        "mean_latency_ms": result.mean_latency_ms() or 0.0,
        "p99_latency_ms": result.latency_percentile_ms(99) or 0.0,
        "link_messages": result.total_link_messages,
        "elapsed_s": result.elapsed_seconds,
        "overloaded": result.is_overloaded,
        "speedup": 1.0,
    }
    return row, report, wall


def format_table(rows, args):
    header = (
        f"{'mode':>8} {'events':>6} {'matched':>8} {'expected':>8} "
        f"{'lost':>4} {'dup':>4} {'mean_ms':>8} {'p99_ms':>8} "
        f"{'link_msgs':>9} {'ratio':>6}"
    )
    lines = [
        f"subscriptions={args.subscriptions} events={args.events} "
        f"rate={args.rate}/s repair_delay={args.repair_delay_ms}ms "
        f"annotation_lag={args.annotation_lag_ms}ms seed={args.seed}",
        "",
        header,
        "-" * len(header),
    ]
    for row in sorted(rows, key=lambda r: r["mode"], reverse=True):  # healthy first
        lines.append(
            f"{row['mode']:>8} {row['events']:>6} {row['matched']:>8} "
            f"{row['expected']:>8} {row['lost']:>4} {row['duplicates']:>4} "
            f"{row['mean_latency_ms']:>8.2f} {row['p99_latency_ms']:>8.2f} "
            f"{row['link_messages']:>9} {row['speedup']:>5.2f}x"
        )
    return "\n".join(lines)


def emit_bench(rows, args, wall_s, directory):
    payload = obs_bench.bench_payload(
        "failover",
        workload={
            "protocol": "link-matching",
            "spec": "CHART1_SPEC",
            "subscriptions": args.subscriptions,
            "subscribers_per_broker": args.subscribers_per_broker,
            "events": args.events,
            "rate_per_s": args.rate,
            "repair_delay_ms": args.repair_delay_ms,
            "annotation_lag_ms": args.annotation_lag_ms,
            "failed_broker": FAILED_BROKER,
            "seed": args.seed,
        },
        wall_clock_s=wall_s,
        metrics=get_registry(),
        extra={"rows": rows},
    )
    directory.mkdir(parents=True, exist_ok=True)
    return obs_bench.write_bench(payload, directory)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--subscriptions", type=int, default=25000,
        help="subscription count (default: Chart 3's largest point)",
    )
    parser.add_argument(
        "--subscribers-per-broker", type=int, default=3,
        help="subscriber clients per broker on the chain",
    )
    parser.add_argument("--events", type=int, default=300, help="events to publish")
    parser.add_argument("--rate", type=float, default=60.0, help="events/s")
    parser.add_argument("--repair-delay-ms", type=float, default=5.0)
    parser.add_argument(
        "--annotation-lag-ms", type=float, default=0.0,
        help="stale window after each repair (>0 exercises flood fallback)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized run: 2000 subscriptions, 120 events",
    )
    parser.add_argument("--save", action="store_true", help=f"write table to {RESULTS_PATH}")
    parser.add_argument(
        "--bench-out", metavar="DIR", default=None,
        help="emit BENCH_failover.json into DIR (implied by --save)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.subscriptions = min(args.subscriptions, 2000)
        args.events = min(args.events, 120)

    get_registry().enable()
    rows = []
    reports = {}
    total_wall = 0.0
    for mode in ("faulted", "healthy"):  # faulted first: trend's headline row
        row, report, wall = run_mode(mode, args)
        rows.append(row)
        reports[mode] = report
        total_wall += wall
    healthy = next(row for row in rows if row["mode"] == "healthy")
    faulted = next(row for row in rows if row["mode"] == "faulted")
    if healthy["matched"]:
        faulted["speedup"] = faulted["matched"] / healthy["matched"] * (
            healthy["elapsed_s"] / faulted["elapsed_s"]
            if faulted["elapsed_s"]
            else 1.0
        )

    print(format_table(rows, args))
    for mode, report in reports.items():
        print(f"\n{mode}: {report.summary()}")
    if args.save:
        RESULTS_DIR.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(format_table(rows, args) + "\n")
        print(f"\nsaved to {RESULTS_PATH}")
    if args.save or args.bench_out:
        out_dir = pathlib.Path(args.bench_out) if args.bench_out else RESULTS_DIR
        path = emit_bench(rows, args, total_wall, out_dir)
        print(f"bench artifact: {path}")

    failed = [mode for mode, report in reports.items() if not report.ok]
    if failed:
        for mode in failed:
            report = reports[mode]
            print(
                f"INVARIANT GATE FAILED ({mode}): "
                f"{len(report.lost)} lost, {len(report.duplicates)} duplicated "
                f"(first lost: {report.lost[:3]!r}, "
                f"first duplicates: {report.duplicates[:3]!r})",
                file=sys.stderr,
            )
        return 1
    print("\ninvariant gate passed: no event lost, <=1 copy per link")
    return 0


if __name__ == "__main__":
    sys.exit(main())
