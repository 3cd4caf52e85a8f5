"""Measure the wall-clock overhead of the observability layer on the hot path.

The acceptance bar for :mod:`repro.obs` is that metrics-enabled matching on
the Chart 3 hot path at 25,000 subscriptions costs < 5% extra wall-clock
over the disabled (no-op instruments) baseline.  Instruments bind at engine
construction time, so each arm builds its own engine under the registry
state it measures.

Run from the repo root::

    PYTHONPATH=src python benchmarks/obs_overhead.py
    PYTHONPATH=src python benchmarks/obs_overhead.py --subscriptions 25000 --save
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.matching.engines import create_matcher, view_of
from repro.obs import get_registry
from repro.workload import CHART1_SPEC, EventGenerator, SubscriptionGenerator

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "obs_overhead.txt"


def _one_pass(engine, events):
    start = time.perf_counter()
    for event in events:
        engine.match(event)
    return time.perf_counter() - start


def measure(engine_name, count, num_events, repeats, seed):
    spec = CHART1_SPEC
    subscriptions = SubscriptionGenerator(spec, seed=seed).subscriptions_for(
        ["client"], count
    )
    events = [EventGenerator(spec, seed=seed + 1).event_for() for _ in range(num_events)]
    registry = get_registry()

    # Build one engine per arm (instruments bind at construction; an engine
    # built while the registry is disabled keeps no-op instruments forever).
    engines = {}
    for arm in ("disabled", "enabled"):
        registry.disable() if arm == "disabled" else registry.enable()
        engine = view_of(
            create_matcher(spec.schema(), engine=engine_name, domains=spec.domains())
        )
        for subscription in subscriptions:
            engine.insert(subscription)
        engine.match(events[0])  # warm up (compiled: force compilation)
        engines[arm] = engine
    registry.disable()

    # Interleave the timing passes: the process slows gradually as engines
    # and their allocations accumulate, so back-to-back arms would charge
    # that drift entirely to whichever arm runs second.
    best = {"disabled": float("inf"), "enabled": float("inf")}
    for _ in range(repeats):
        for arm in ("disabled", "enabled"):
            best[arm] = min(best[arm], _one_pass(engines[arm], events))
    per_match = {arm: best[arm] / len(events) for arm in best}
    overhead = per_match["enabled"] / per_match["disabled"] - 1.0
    return per_match["disabled"], per_match["enabled"], overhead


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--subscriptions", type=int, default=25000)
    parser.add_argument("--events", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=5, help="best-of repeats")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--engines", nargs="+", default=["compiled", "tree"],
        choices=["compiled", "tree"],
    )
    parser.add_argument("--max-overhead", type=float, default=0.05, metavar="FRACTION",
                        help="exit 1 if any engine's overhead exceeds this")
    parser.add_argument("--save", action="store_true", help=f"write {RESULTS_PATH}")
    args = parser.parse_args(argv)

    header = (
        f"obs overhead @ {args.subscriptions} subscriptions, "
        f"{args.events} events, best of {args.repeats}"
    )
    lines = [header, "-" * len(header)]
    worst = float("-inf")
    for engine_name in args.engines:
        disabled, enabled, overhead = measure(
            engine_name, args.subscriptions, args.events, args.repeats, args.seed
        )
        worst = max(worst, overhead)
        lines.append(
            f"{engine_name:>9}: disabled {disabled * 1e6:8.2f} us/match, "
            f"enabled {enabled * 1e6:8.2f} us/match, overhead {overhead * 100:+6.2f}%"
        )
    lines.append(
        f"acceptance: worst overhead {worst * 100:+.2f}% "
        f"(bar: < {args.max_overhead * 100:.0f}%)"
    )
    text = "\n".join(lines)
    print(text)
    if args.save:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(text + "\n")
        print(f"saved to {RESULTS_PATH}")
    return 1 if worst > args.max_overhead else 0


if __name__ == "__main__":
    sys.exit(main())
