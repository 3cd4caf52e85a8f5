"""Command lines: one workload in this process (``run.py``, what the
benchmark driver calls), and ``python -m benchmarks.e2e run|compare|manifest``."""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import Any, Dict, Optional, Sequence

from benchmarks.e2e import metrics as names
from benchmarks.e2e.harness import OUT_DIR, REPO_ROOT, SCHEMA, machine_stamp

#: ``run_seconds`` of BENCHMARK.json, and the default of ``--seconds``.
RUN_SECONDS = 8
RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


# ----------------------------------------------------------------------
# One workload, in this process


def run_workload(name: str, seed: int, seconds: float, traced: bool, quick: bool) -> Dict[str, Any]:
    """Set up, measure and check one workload; returns the detailed result."""
    from repro import obs

    from benchmarks.e2e.trace import Tracer
    from benchmarks.e2e.workloads import WORKLOADS

    tracer = None
    if traced:
        # The obs registry hands out no-op instruments unless it is enabled
        # before the instrumented objects are constructed.
        obs.configure(enabled=True, reset=True)
        tracer = Tracer()
        tracer.install()
    workload_class = WORKLOADS[name]
    # Extra set-ups run in child processes: repeating one in this process
    # would inflate its peak RSS (and under TCP a stopped broker's accept
    # thread keeps the whole broker alive).  Half run before and half after
    # the measurement, seconds apart, and the *mean* is reported: a set-up
    # under a second sees only one of the box's two speeds, and a median of
    # adjacent set-ups would too (see harness.Measurement).
    extra = 0 if traced or quick else workload_class.setup_repeats - 1
    setups = [_setup_in_child(name, seed, quick) for _ in range(extra - extra // 2)]
    workload = workload_class(seed, quick, tracer)
    try:
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
        workload.prepare()
        measured = workload.measure(seconds)
    finally:
        workload.teardown()
        if tracer is not None:
            tracer.uninstall()
            obs.configure(enabled=False)
    setups += [_setup_in_child(name, seed, quick) for _ in range(extra // 2)]

    measured.series["setup_s"] = setups
    measured.values["setup_s"] = statistics.fmean(setups)
    measured.values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measured.values["failed_ratio"] = measured.failures.failed_ratio
    failures = measured.failures
    reported: Dict[str, Dict[str, Any]] = {}
    for metric in names.END_TO_END:
        value = measured.value_of(metric.name)
        if value is not None and name in metric.reported_by:
            reported[metric.name] = _entry(value, metric.unit, measured.series.get(metric.name))
    if traced:
        for layer_metric in names.PER_LAYER:
            value = measured.value_of(layer_metric.name)
            reported[layer_metric.name] = _entry(
                value if value is not None else 0.0,
                layer_metric.unit,
                measured.series.get(layer_metric.name),
            )
    return {
        "schema": SCHEMA,
        "workload": name,
        "traced": traced,
        "quick": quick,
        "seconds": seconds,
        "stamp": machine_stamp(seed, sys.argv),
        "correct": failures.failed == 0 and not measured.problems,
        "attempted": max(1, failures.expected),
        "failed": failures.failed,
        "failures": {
            "missing": failures.missing,
            "spurious": failures.spurious,
            "duplicate": failures.duplicate,
            "out_of_order": failures.out_of_order,
            "examples": failures.examples,
        },
        "problems": measured.problems,
        "repetitions": len(measured.series.get("events_per_s", ())),
        "metrics": reported,
        "report": measured.report,
    }


def _setup_in_child(name: str, seed: int, quick: bool) -> float:
    command = [sys.executable, RUN_PY, "--workload", name, "--seed", str(seed), "--setup-only"]
    done = subprocess.run(
        command + (["--quick"] if quick else []),
        cwd=REPO_ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True,
        text=True,
        check=True,
    )
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def setup_only(name: str, seed: int, quick: bool) -> float:
    """Set one workload up and tear it down; returns the set-up seconds."""
    from benchmarks.e2e.workloads import WORKLOADS

    workload = WORKLOADS[name](seed, quick, None)
    start = perf_counter()
    try:
        workload.setup()
        return perf_counter() - start
    finally:
        workload.teardown()


def _entry(value: float, unit: str, reps: Optional[Sequence[float]]) -> Dict[str, Any]:
    entry: Dict[str, Any] = {"value": value, "unit": unit}
    if reps:
        entry["reps"] = list(reps)
    return entry


def driver_line(detail: Dict[str, Any]) -> str:
    """The last line of a run's standard output, as the driver reads it:
    with tracing off every gated end-to-end metric, with tracing on every
    per-layer metric (one a workload does not exercise reads 0)."""
    measured = detail["metrics"]
    if detail["traced"]:
        wanted = [(name, unit) for name, unit, _better in names.driver_per_layer()]
    else:
        wanted = [(metric.name, metric.unit) for metric in names.driver_end_to_end()]
    return json.dumps(
        {
            "correct": detail["correct"],
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": {
                name: {"value": measured[name]["value"] if name in measured else 0.0, "unit": unit}
                for name, unit in wanted
            },
        }
    )


def print_detail(detail: Dict[str, Any]) -> None:
    mode = "traced" if detail["traced"] else "untraced"
    print(f"== {detail['workload']} ({mode}, seed {detail['stamp']['seed']}) ==")
    for name, entry in detail["metrics"].items():
        reps = entry.get("reps")
        spread = f"  ({len(reps)} repetitions)" if reps and len(reps) > 1 else ""
        print(f"  {name:<34}{entry['value']:>16.4f} {entry['unit']}{spread}")
    for line in detail["report"]:
        print(line)
    for problem in detail["problems"]:
        print(f"PROBLEM: {problem}")
    if detail["failed"]:
        print(f"FAILED: {detail['failed']} of {detail['attempted']} deliveries")
        for kind, receiver, event in detail["failures"]["examples"]:
            print(f"  {kind}: client {receiver}, event {event}")


def single_main(argv: Optional[Sequence[str]] = None) -> int:
    """``run.py --workload W --seed N --seconds T --trace 0|1``."""
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py", description=single_main.__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(names.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="scaled-down sizes (smoke tests)")
    parser.add_argument("--detail", help="also write the detailed result to this JSON file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_only(args.workload, args.seed, args.quick)}))
        return 0
    detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump(detail, handle, indent=1)
    print_detail(detail)
    print(driver_line(detail))
    return 0 if detail["correct"] else 1


# ----------------------------------------------------------------------
# python -m benchmarks.e2e


def run_set(
    workloads: Sequence[str], seed: int, seconds: float, quick: bool, trace: bool
) -> Dict[str, Any]:
    """Each workload in its own interpreter (fresh caches, fresh allocator,
    ``PYTHONHASHSEED=0``): untraced for the end-to-end metrics, then — with
    ``trace`` — traced for the per-layer budget."""
    environment = dict(os.environ, PYTHONHASHSEED="0")
    results: Dict[str, Dict[str, Any]] = {}
    with tempfile.TemporaryDirectory(dir=_out_dir()) as scratch:
        for workload in workloads:
            results[workload] = {}
            for mode in ("untraced", "traced") if trace else ("untraced",):
                detail_path = os.path.join(scratch, f"{workload}_{mode}.json")
                command = [
                    sys.executable,
                    RUN_PY,
                    "--workload",
                    workload,
                    "--seed",
                    str(seed),
                    "--seconds",
                    str(seconds),
                    "--trace",
                    "1" if mode == "traced" else "0",
                    "--detail",
                    detail_path,
                ] + (["--quick"] if quick else [])
                done = subprocess.run(
                    command, cwd=REPO_ROOT, env=environment, capture_output=True, text=True
                )
                if not os.path.exists(detail_path):
                    sys.stderr.write(done.stdout + done.stderr)
                    raise SystemExit(f"{workload} ({mode}) produced no result")
                with open(detail_path) as handle:
                    detail = json.load(handle)
                print_detail(detail)
                results[workload][mode] = detail
    return {
        "schema": SCHEMA,
        "stamp": machine_stamp(seed, sys.argv),
        "seconds": seconds,
        "quick": quick,
        "claim": None,
        "results": results,
    }


def _out_dir() -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return OUT_DIR


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads, check them, print every metric")
    which = run.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true")
    which.add_argument("--workload", action="append", choices=sorted(names.WORKLOADS))
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=RUN_SECONDS)
    run.add_argument("--quick", action="store_true")
    run.add_argument("--trace", action="store_true", help="add the traced run of each workload")
    run.add_argument("--out", help="run-set JSON (default benchmarks/e2e/out/runset.json)")
    compare = commands.add_parser("compare", help="judge run-set B against run-set A")
    compare.add_argument("baseline")
    compare.add_argument("candidate")
    commands.add_parser("manifest", help="print the content of BENCHMARK.json")
    args = parser.parse_args(argv)

    if args.command == "manifest":
        print(json.dumps(names.manifest(RUN_SECONDS), indent=2))
        return 0
    if args.command == "compare":
        from benchmarks.e2e.compare import compare_files

        return compare_files(args.baseline, args.candidate)
    workloads = list(names.WORKLOADS) if args.all else args.workload
    result = run_set(workloads, args.seed, args.seconds, args.quick, args.trace)
    out = args.out or os.path.join(_out_dir(), "runset.json")
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1)
    print(f"run-set written to {out}")
    incorrect = [
        f"{workload} ({mode})"
        for workload, modes in result["results"].items()
        for mode, detail in modes.items()
        if not detail["correct"]
    ]
    if incorrect:
        print("INCORRECT: " + ", ".join(incorrect))
        return 1
    return 0
