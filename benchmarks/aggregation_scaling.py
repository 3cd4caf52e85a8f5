"""Aggregation sweep: covering-forest compression at growing subscription counts.

Sweeps Chart-1-spec subscription counts with a Zipf-duplicated predicate pool
(``SubscriptionGenerator(duplicate_rate=...)`` — many subscribers registering
the same popular bodies, the regime subscription aggregation compresses) and,
for each count, builds an aggregated compiled engine
(:class:`~repro.matching.aggregation.AggregatingEngine` around a
:class:`~repro.matching.engines.CompiledEngine`) next to an unaggregated
baseline:

``compression``
    Registered subscriptions per compiled leaf (``engine.compression_ratio``).

``program_cells`` / ``cells_per_sub`` (table: ``cells`` = ``inner`` +
``covered``)
    Compiled-program memory proxy: node slots + leaf entries +
    ``len(value_ids)`` + range pairs, read off the records and summed over
    the aggregated engine's two programs — the roots' (``inner_cells``) and
    the covered groups' (``covered_cells``).  Sub-linear growth —
    ``cells_per_sub`` falling as counts rise — is the whole point: the
    records track *distinct* predicates while the duplicated pool keeps
    handing out repeats.

``per_event_us`` / ``speedup`` (table: ``agg_us`` / ``base_us``)
    Per-event matching time against the unaggregated compiled baseline at
    the same count: ``--events`` events matched ``--repeats`` times, best
    kept.  Neither engine remembers an event, so every pass costs what a
    stream of fresh events costs.  The baseline is skipped above
    ``--baseline-limit`` (building a million-subscription unaggregated
    program exists to be avoided, not timed).

``ingest_subs_per_s`` / ``mean_cover_candidates``
    Ingest throughput of the insert loop and the mean number of
    ``predicate_subsumes`` verifications per cover search — the covering
    index's whole job is keeping the latter at the handful of real
    candidates instead of the bounded-scan's ``cover_scan_limit``.

Run from the repo root::

    PYTHONPATH=src python benchmarks/aggregation_scaling.py
    PYTHONPATH=src python benchmarks/aggregation_scaling.py \\
        --counts 1000000 --baseline-limit 0 --cover-scan-limit 16

``--save`` archives the table under ``benchmarks/results/`` and emits
``BENCH_aggregation_scaling.json`` next to it.  Four flags turn the script
into the CI gate: ``--min-compression X`` (exit 1 unless the largest sweep
point compresses by X), ``--check-sublinear`` (exit 1 unless
``cells_per_sub`` falls from the first sweep point to the last),
``--max-slowdown X`` (exit 1 unless, on a *dedup-free* workload where
aggregation can only add overhead, the aggregated engine stays within X of
the baseline per event), and ``--min-ingest-speedup X`` (exit 1 unless
the covering index beats the linear-scan attach by X at ``--ingest-count``
subscriptions with equal-or-better compression).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.matching.aggregation import AggregatingEngine
from repro.matching.engines import create_engine
from repro.obs import bench as obs_bench
from repro.obs import get_registry
from repro.workload import CHART1_SPEC, EventGenerator, SubscriptionGenerator

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RESULTS_PATH = RESULTS_DIR / "aggregation_scaling.txt"


def build_engine(subscriptions, *, aggregate, cover_scan_limit, use_index=True):
    spec = CHART1_SPEC
    inner = create_engine("compiled", spec.schema(), domains=spec.domains())
    engine = (
        AggregatingEngine(inner, cover_scan_limit=cover_scan_limit, use_index=use_index)
        if aggregate
        else inner
    )
    for subscription in subscriptions:
        engine.insert(subscription)
    return engine


def program_cells(engine):
    """Memory proxy: the entries of one engine's compiled program."""
    program = engine.program
    cells = program.node_count + len(program.value_ids)
    for _position, _table, ranges, _star, subs in program._records:
        cells += len(ranges or ()) + len(subs or ())
    return cells


def time_events(engine, events, repeats):
    """Best seconds/event over ``repeats`` passes of the ``match`` stream."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for event in events:
            engine.match(event)
        best = min(best, time.perf_counter() - start)
    return best / len(events)


def _baseline_cell(value, width, ratio=False):
    """A baseline-dependent table cell: ``-`` when the baseline was skipped."""
    if value is None:
        return f"{'-':>{width}}"
    return f"{value:>{width - 1}.2f}x" if ratio else f"{value:>{width}.1f}"


def run(counts, num_events, repeats, seed, dup_rate, cover_scan_limit,
        baseline_limit):
    """Sweep the subscription-count axis; returns (rows, rendered table).

    Each row:
    ``{subscriptions, compression, roots, forest_nodes, program_cells,
    inner_cells, covered_cells, cells_per_sub, ingest_subs_per_s,
    mean_cover_candidates, per_event_us, baseline_per_event_us, speedup}`` —
    the baseline ones ``None`` when the count exceeds ``baseline_limit``.
    """
    spec = CHART1_SPEC
    event_generator = EventGenerator(spec, seed=seed + 1)
    events = [event_generator.event_for() for _ in range(num_events)]

    header = (
        f"{'subscriptions':>13} {'compression':>11} {'roots':>8} "
        f"{'cells':>10} {'inner':>8} {'covered':>8} {'cells/sub':>9} "
        f"{'ingest/s':>9} {'cands':>6} "
        f"{'agg_us':>8} {'base_us':>8} {'speedup':>8}"
    )
    lines = [
        f"events={num_events} repeats={repeats} "
        f"dup_rate={dup_rate} cover_scan_limit={cover_scan_limit} "
        f"baseline_limit={baseline_limit}",
        "",
        header,
        "-" * len(header),
    ]
    rows = []
    for count in counts:
        # One generator per count: each sweep point sees the same duplicated
        # pool prefix it would see in a growing deployment.
        subscriptions = SubscriptionGenerator(
            spec, seed=seed, duplicate_rate=dup_rate
        ).subscriptions_for(["client"], count)

        ingest_start = time.perf_counter()
        engine = build_engine(
            subscriptions, aggregate=True, cover_scan_limit=cover_scan_limit
        )
        ingest_s = time.perf_counter() - ingest_start
        engine.match(events[0])  # first-use work outside the timed region
        per_event = time_events(engine, events, repeats)
        inner_cells = program_cells(engine.inner)
        covered_cells = program_cells(engine._covered)
        cells = inner_cells + covered_cells
        row = {
            "subscriptions": count,
            "compression": engine.compression_ratio,
            "roots": engine.root_count,
            "forest_nodes": engine.forest_nodes,
            "program_cells": cells,
            "inner_cells": inner_cells,
            "covered_cells": covered_cells,
            "cells_per_sub": cells / count,
            "ingest_subs_per_s": count / ingest_s,
            "mean_cover_candidates": engine.mean_cover_candidates,
            "per_event_us": per_event * 1e6,
            "baseline_per_event_us": None,
            "speedup": None,
        }

        if count <= baseline_limit:
            baseline = build_engine(
                subscriptions, aggregate=False, cover_scan_limit=cover_scan_limit
            )
            baseline.match(events[0])
            baseline_per_event = time_events(baseline, events, repeats)
            row["baseline_per_event_us"] = baseline_per_event * 1e6
            row["speedup"] = baseline_per_event / per_event

        rows.append(row)
        lines.append(
            f"{count:>13} {row['compression']:>10.2f}x {row['roots']:>8} "
            f"{cells:>10} {inner_cells:>8} {covered_cells:>8} "
            f"{row['cells_per_sub']:>9.3f} "
            f"{row['ingest_subs_per_s']:>9,.0f} "
            f"{row['mean_cover_candidates']:>6.1f} "
            f"{per_event * 1e6:>8.1f} "
            f"{_baseline_cell(row['baseline_per_event_us'], 8)} "
            f"{_baseline_cell(row['speedup'], 8, ratio=True)}"
        )
    return rows, "\n".join(lines)


def ingest_speedup(count, seed, dup_rate, cover_scan_limit):
    """Covering-index ingest gain: indexed vs linear-scan attach over the
    same duplicated pool.

    Builds the aggregated engine twice — ``use_index=True`` (the
    attribute-inverted :class:`~repro.matching.covering_index.CoveringIndex`
    candidate filter) and ``use_index=False`` (bounded linear sibling scans)
    — timing the insert loop of each.  Returns a dict with both throughputs,
    their ratio, and both compression ratios: the index must be faster
    *without* giving up compression at the same ``cover_scan_limit`` (in
    practice it compresses far better — the linear scan stops at the first
    ``cover_scan_limit`` siblings, the index verifies only real candidates).
    """
    spec = CHART1_SPEC
    subscriptions = SubscriptionGenerator(
        spec, seed=seed, duplicate_rate=dup_rate
    ).subscriptions_for(["client"], count)
    result = {"subscriptions": count}
    for label, use_index in (("indexed", True), ("linear", False)):
        start = time.perf_counter()
        engine = build_engine(
            subscriptions, aggregate=True,
            cover_scan_limit=cover_scan_limit, use_index=use_index,
        )
        elapsed = time.perf_counter() - start
        result[f"{label}_subs_per_s"] = count / elapsed
        result[f"{label}_compression"] = engine.compression_ratio
    result["speedup"] = result["indexed_subs_per_s"] / result["linear_subs_per_s"]
    return result


def dedup_free_slowdown(count, num_events, repeats, seed, cover_scan_limit):
    """Aggregated/baseline per-event ratio on a duplicate-free workload.

    With no duplicates to absorb, aggregation can only add overhead
    (canonicalization at insert, a second program walk per event for the
    covered groups).  The ``--max-slowdown`` gate bounds this ratio.
    """
    spec = CHART1_SPEC
    subscriptions = SubscriptionGenerator(spec, seed=seed).subscriptions_for(
        ["client"], count
    )
    event_generator = EventGenerator(spec, seed=seed + 1)
    events = [event_generator.event_for() for _ in range(num_events)]

    aggregated = build_engine(
        subscriptions, aggregate=True, cover_scan_limit=cover_scan_limit
    )
    baseline = build_engine(
        subscriptions, aggregate=False, cover_scan_limit=cover_scan_limit
    )
    aggregated.match(events[0])
    baseline.match(events[0])
    return time_events(aggregated, events, repeats) / time_events(
        baseline, events, repeats
    )


def emit_bench(rows, args, directory, extra):
    payload = obs_bench.bench_payload(
        "aggregation_scaling",
        engine="compiled+aggregation",
        workload={
            "spec": "CHART1_SPEC",
            "counts": args.counts,
            "events": args.events,
            "repeats": args.repeats,
            "seed": args.seed,
            "dup_rate": args.dup_rate,
            "cover_scan_limit": args.cover_scan_limit,
            "baseline_limit": args.baseline_limit,
        },
        wall_clock_s=None,
        metrics=get_registry(),
        extra=dict({"rows": rows}, **extra),
    )
    directory.mkdir(parents=True, exist_ok=True)
    return obs_bench.write_bench(payload, directory)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--counts", type=int, nargs="+", default=[2000, 10000, 50000],
        help="subscription counts to sweep",
    )
    parser.add_argument("--events", type=int, default=400, help="events per stream")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best kept)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--dup-rate", type=float, default=0.9, metavar="D",
        help="workload duplicate rate (Zipf-weighted re-registration of "
        "popular predicate bodies)",
    )
    parser.add_argument(
        "--cover-scan-limit", type=int, default=64, metavar="N",
        help="bounded cover search per forest level (small keeps million-"
        "subscription ingest fast; dedup compression is unaffected)",
    )
    parser.add_argument(
        "--baseline-limit", type=int, default=100000, metavar="N",
        help="skip the unaggregated baseline above this count",
    )
    parser.add_argument("--save", action="store_true", help=f"write table to {RESULTS_PATH}")
    parser.add_argument(
        "--bench-out", metavar="DIR", default=None,
        help="emit BENCH_aggregation_scaling.json into DIR (implied by --save)",
    )
    parser.add_argument(
        "--min-compression", type=float, default=None, metavar="X",
        help="gate: exit 1 unless the largest sweep point compresses by X",
    )
    parser.add_argument(
        "--check-sublinear", action="store_true",
        help="gate: exit 1 unless cells_per_sub falls across the sweep "
        "(compiled memory grows sub-linearly in subscriptions)",
    )
    parser.add_argument(
        "--max-slowdown", type=float, default=None, metavar="X",
        help="gate: exit 1 unless a dedup-free workload (duplicate_rate=0, "
        "smallest sweep count) keeps the aggregated engine within X of the "
        "unaggregated baseline per event",
    )
    parser.add_argument(
        "--min-ingest-speedup", type=float, default=None, metavar="X",
        help="gate: exit 1 unless covering-index ingest beats the linear-"
        "scan attach by X at --ingest-count subscriptions (with equal or "
        "better compression)",
    )
    parser.add_argument(
        "--ingest-count", type=int, default=250000, metavar="N",
        help="subscription count for the --min-ingest-speedup comparison",
    )
    args = parser.parse_args(argv)

    get_registry().enable()  # before any engine exists, so instruments record
    rows, table = run(
        args.counts, args.events, args.repeats, args.seed, args.dup_rate,
        args.cover_scan_limit, args.baseline_limit,
    )
    print(table)

    extra = {}
    slowdown = None
    if args.max_slowdown is not None:
        slowdown = dedup_free_slowdown(
            min(args.counts), args.events, args.repeats, args.seed,
            args.cover_scan_limit,
        )
        extra["dedup_free_slowdown"] = slowdown
        print(
            f"\ndedup-free overhead at {min(args.counts)} subscriptions: "
            f"aggregated/baseline = {slowdown:.2f}x"
        )

    ingest_gate = None
    if args.min_ingest_speedup is not None:
        ingest_gate = ingest_speedup(
            args.ingest_count, args.seed, args.dup_rate, args.cover_scan_limit
        )
        extra["ingest_gate"] = ingest_gate
        print(
            f"\ncovering-index ingest at {args.ingest_count} subscriptions: "
            f"{ingest_gate['indexed_subs_per_s']:,.0f} subs/s indexed vs "
            f"{ingest_gate['linear_subs_per_s']:,.0f} linear "
            f"({ingest_gate['speedup']:.2f}x), compression "
            f"{ingest_gate['indexed_compression']:.1f}x vs "
            f"{ingest_gate['linear_compression']:.1f}x"
        )

    if args.save:
        RESULTS_DIR.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(table + "\n")
        print(f"\nsaved to {RESULTS_PATH}")
    if args.save or args.bench_out:
        out_dir = pathlib.Path(args.bench_out) if args.bench_out else RESULTS_DIR
        path = emit_bench(rows, args, out_dir, extra)
        print(f"bench artifact: {path}")

    failed = False
    top = max(rows, key=lambda row: row["subscriptions"])
    if args.min_compression is not None:
        if top["compression"] < args.min_compression:
            print(
                f"PERF GATE FAILED: compression {top['compression']:.2f}x "
                f"< {args.min_compression:.2f}x at {top['subscriptions']} "
                f"subscriptions",
                file=sys.stderr,
            )
            failed = True
        else:
            print(
                f"perf gate passed: compression {top['compression']:.2f}x "
                f">= {args.min_compression:.2f}x"
            )
    if args.check_sublinear:
        first = min(rows, key=lambda row: row["subscriptions"])
        if len(rows) < 2 or top["cells_per_sub"] >= first["cells_per_sub"]:
            print(
                f"PERF GATE FAILED: cells_per_sub did not fall across the "
                f"sweep ({first['cells_per_sub']:.3f} -> "
                f"{top['cells_per_sub']:.3f}) — compiled memory is not "
                f"sub-linear",
                file=sys.stderr,
            )
            failed = True
        else:
            print(
                f"perf gate passed: cells_per_sub {first['cells_per_sub']:.3f} "
                f"-> {top['cells_per_sub']:.3f} (sub-linear)"
            )
    if args.max_slowdown is not None:
        if slowdown > args.max_slowdown:
            print(
                f"PERF GATE FAILED: dedup-free slowdown "
                f"{slowdown:.2f}x > {args.max_slowdown:.2f}x",
                file=sys.stderr,
            )
            failed = True
        else:
            print(
                f"perf gate passed: dedup-free slowdown "
                f"{slowdown:.2f}x <= {args.max_slowdown:.2f}x"
            )
    if args.min_ingest_speedup is not None:
        if ingest_gate["speedup"] < args.min_ingest_speedup:
            print(
                f"PERF GATE FAILED: covering-index ingest speedup "
                f"{ingest_gate['speedup']:.2f}x < "
                f"{args.min_ingest_speedup:.2f}x at "
                f"{args.ingest_count} subscriptions",
                file=sys.stderr,
            )
            failed = True
        elif ingest_gate["indexed_compression"] < ingest_gate["linear_compression"]:
            print(
                f"PERF GATE FAILED: covering-index compression "
                f"{ingest_gate['indexed_compression']:.2f}x fell below the "
                f"linear scan's {ingest_gate['linear_compression']:.2f}x",
                file=sys.stderr,
            )
            failed = True
        else:
            print(
                f"perf gate passed: covering-index ingest "
                f"{ingest_gate['speedup']:.2f}x >= "
                f"{args.min_ingest_speedup:.2f}x (compression "
                f"{ingest_gate['indexed_compression']:.1f}x vs "
                f"{ingest_gate['linear_compression']:.1f}x)"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
