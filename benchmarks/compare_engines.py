"""Head-to-head: object-graph PST (tree) vs array-kernel (compiled) engine.

Builds identical Chart-1-spec subscription sets at several sizes and times
``match()`` over a fixed event sample with both engines.  Both engines take
exactly the same number of matching *steps* (the equivalence suite proves
it); this script measures how much wall-clock time the compiled arrays save
per step.

Run from the repo root::

    PYTHONPATH=src python benchmarks/compare_engines.py
    PYTHONPATH=src python benchmarks/compare_engines.py --counts 1000 25000 --save

``--save`` archives the table under ``benchmarks/results/compare_engines.txt``
and emits the machine-readable ``BENCH_compare_engines.json`` artifact next
to it.  ``--min-speedup X`` turns the script into the CI perf-regression
gate: exit code 1 if the compiled engine's speedup at the largest
subscription count falls below ``X``.

``--churn N`` interleaves subscription churn with the matching loop: every
``N`` events one registered subscription is removed and a fresh one inserted
(net size constant).  The tree engine patches annotations in place; the
compiled engine walks its records on insert and remove — which is exactly
the cost the steady-state table hides, so churn rows make it visible in the
trend tables.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import time

from repro.matching.engines import create_matcher, view_of
from repro.obs import bench as obs_bench
from repro.obs import get_registry
from repro.workload import CHART1_SPEC, EventGenerator, SubscriptionGenerator

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RESULTS_PATH = RESULTS_DIR / "compare_engines.txt"
ENGINES = ("tree", "compiled")


def build_engine(name, subscriptions):
    spec = CHART1_SPEC
    engine = view_of(create_matcher(spec.schema(), engine=name, domains=spec.domains()))
    for subscription in subscriptions:
        engine.insert(subscription)
    return engine


def time_matches(engine, events, repeats):
    """Average seconds per match (and avg steps, as a sanity column)."""
    total_steps = 0
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        total_steps = 0
        for event in events:
            total_steps += engine.match(event).steps
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best / len(events), total_steps / len(events)


def make_churn_plan(subscriptions, num_ops, generator, seed):
    """A deterministic op stream: each op removes a live subscription and
    inserts a fresh one (net size constant).  Built once per count so every
    engine (and every timing repeat) replays byte-identical churn."""
    rng = random.Random(seed)
    live = list(subscriptions)
    plan = []
    for _ in range(num_ops):
        index = rng.randrange(len(live))
        fresh = generator.subscription_for("churn")
        plan.append((live[index].subscription_id, fresh))
        live[index] = fresh
    return plan


def time_matches_churn(engine, events, churn, plan):
    """One timed pass interleaving matching with churn: every ``churn``
    events the next plan op runs (remove + insert).  The churn cost — the
    tree's path re-annotation vs the program's record walks — lands inside
    the timed region, which is the point."""
    ops = iter(plan)
    total_steps = 0
    start = time.perf_counter()
    for i, event in enumerate(events):
        if i and i % churn == 0:
            old_id, fresh = next(ops)
            engine.remove(old_id)
            engine.insert(fresh)
        total_steps += engine.match(event).steps
    elapsed = time.perf_counter() - start
    return elapsed / len(events), total_steps / len(events)


def run(counts, num_events, repeats, seed, *, churn=0):
    """Sweep the subscription counts; returns (rows, rendered table text).

    Each row is ``{subscriptions, avg_steps, tree_us, compiled_us, speedup}``.
    With ``churn=N`` every N events a subscription is replaced mid-stream
    (engines are rebuilt per repeat so every pass replays identical churn
    from the same starting state).
    """
    spec = CHART1_SPEC
    subscription_generator = SubscriptionGenerator(spec, seed=seed)
    event_generator = EventGenerator(spec, seed=seed + 1)
    events = [event_generator.event_for() for _ in range(num_events)]

    header = (
        f"{'subscriptions':>13} {'avg_steps':>9} {'tree_us':>9} {'compiled_us':>11} {'speedup':>8}"
    )
    lines = [header, "-" * len(header)]
    if churn:
        lines.insert(0, f"churn: 1 replacement per {churn} events (timed in-stream)")
    rows = []
    for count in counts:
        subscriptions = subscription_generator.subscriptions_for(["client"], count)
        plan = (
            make_churn_plan(
                subscriptions, num_events // churn, subscription_generator, seed + 2
            )
            if churn
            else None
        )
        per_match = {}
        steps = {}
        for name in ENGINES:
            if churn:
                best = float("inf")
                for _ in range(repeats):
                    engine = build_engine(name, subscriptions)
                    engine.match(events[0])  # warm up (compiled: force compilation)
                    per_event, avg_steps = time_matches_churn(
                        engine, events, churn, plan
                    )
                    best = min(best, per_event)
                per_match[name], steps[name] = best, avg_steps
            else:
                engine = build_engine(name, subscriptions)
                engine.match(events[0])  # warm up (compiled: force compilation)
                per_match[name], steps[name] = time_matches(engine, events, repeats)
        assert steps["tree"] == steps["compiled"], "engines disagree on steps"
        speedup = per_match["tree"] / per_match["compiled"]
        row = {
            "subscriptions": count,
            "avg_steps": steps["tree"],
            "tree_us": per_match["tree"] * 1e6,
            "compiled_us": per_match["compiled"] * 1e6,
            "speedup": speedup,
        }
        rows.append(row)
        lines.append(
            f"{count:>13} {steps['tree']:>9.1f} "
            f"{per_match['tree'] * 1e6:>9.1f} {per_match['compiled'] * 1e6:>11.1f} "
            f"{speedup:>7.2f}x"
        )
    return rows, "\n".join(lines)


def emit_bench(rows, args, directory):
    payload = obs_bench.bench_payload(
        "compare_engines",
        engine="tree-vs-compiled",
        workload={
            "spec": "CHART1_SPEC",
            "counts": list(args.counts),
            "events": args.events,
            "repeats": args.repeats,
            "seed": args.seed,
            "churn": args.churn,
        },
        wall_clock_s=None,
        metrics=get_registry(),
        extra={"rows": rows},
    )
    directory.mkdir(parents=True, exist_ok=True)
    return obs_bench.write_bench(payload, directory)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--counts", type=int, nargs="+", default=[1000, 5000, 10000, 25000],
        help="subscription counts to sweep (default: Chart 3's sweep)",
    )
    parser.add_argument("--events", type=int, default=200, help="events per timing run")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best kept)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--save", action="store_true", help=f"write table to {RESULTS_PATH}")
    parser.add_argument(
        "--bench-out", metavar="DIR", default=None,
        help="emit BENCH_compare_engines.json into DIR (implied by --save)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None, metavar="X",
        help="perf gate: exit 1 unless compiled is at least X times faster "
        "than tree at the largest subscription count",
    )
    parser.add_argument(
        "--churn", type=int, default=0, metavar="N",
        help="interleave subscription churn with matching: every N events "
        "replace one registered subscription with a fresh one (0 = off); "
        "insert/remove cost lands inside the timed region",
    )
    args = parser.parse_args(argv)

    get_registry().enable()  # before any engine exists, so instruments record
    rows, table = run(args.counts, args.events, args.repeats, args.seed, churn=args.churn)
    print(table)
    if args.save:
        RESULTS_DIR.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(table + "\n")
        print(f"\nsaved to {RESULTS_PATH}")
    if args.save or args.bench_out:
        out_dir = pathlib.Path(args.bench_out) if args.bench_out else RESULTS_DIR
        path = emit_bench(rows, args, out_dir)
        print(f"bench artifact: {path}")

    if args.min_speedup is not None:
        gate_row = max(rows, key=lambda row: row["subscriptions"])
        if gate_row["speedup"] < args.min_speedup:
            print(
                f"PERF GATE FAILED: compiled speedup {gate_row['speedup']:.2f}x "
                f"< {args.min_speedup:.2f}x at {gate_row['subscriptions']} subscriptions",
                file=sys.stderr,
            )
            return 1
        print(
            f"perf gate passed: {gate_row['speedup']:.2f}x >= {args.min_speedup:.2f}x "
            f"at {gate_row['subscriptions']} subscriptions"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
