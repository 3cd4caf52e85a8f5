"""Where a workload's set-up time goes: parse, annotate, PST insert, compile.

Runs one ``setup()`` of a ``benchmarks/e2e`` workload with wall-clock
wrappers (no profiler, so the shares are unprofiled ones) around
``parse_predicate``, ``CompiledProgram.annotate`` (which ``annotated_view``
calls), ``ParallelSearchTree.insert`` and ``CompiledProgram.__init__`` (what
``compile_tree`` runs), records the garbage collector's pauses, and prints
one JSON line.  A layer's seconds include the collections that land inside
it (``gc_in``); the four layers never nest.  After set-up it takes a heap
census: ``tracked_objects`` (what the collector walks on every full
collection), the five most numerous tracked types, and the number and
seconds of generation-2 pauses during set-up.  Run from the repository
root (``--quick`` uses the workload's smoke size)::

    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/setup_split.py chain_mem_25k --seed 1

The box's speed drifts: compare two commits by alternating runs, and read
the shares before the seconds.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402
from repro.matching import parser  # noqa: E402
from repro.matching.compile import CompiledProgram  # noqa: E402
from repro.matching.pst import ParallelSearchTree  # noqa: E402

LAYERS = ("parse", "annotate", "insert", "compile")


def main() -> None:
    arguments = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    arguments.add_argument("workload", choices=sorted(WORKLOADS))
    arguments.add_argument("--seed", type=int, default=1)
    arguments.add_argument("--quick", action="store_true", help="the workload's smoke size")
    args = arguments.parse_args()

    seconds = dict.fromkeys(LAYERS + ("gc",), 0.0)
    gc_in = dict.fromkeys(LAYERS, 0.0)
    full_collections = {"count": 0, "seconds": 0.0}
    inside = [None]
    gc_began = [0.0]

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            gc_began[0] = time.perf_counter()
            return
        pause = time.perf_counter() - gc_began[0]
        seconds["gc"] += pause
        if inside[0] is not None:
            gc_in[inside[0]] += pause
        if info["generation"] == 2:
            full_collections["count"] += 1
            full_collections["seconds"] += pause

    def timed(layer, function):
        def wrapper(*args, **kwargs):
            inside[0] = layer
            began = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                seconds[layer] += time.perf_counter() - began
                inside[0] = None

        return wrapper

    # parse_predicate is bound by name wherever it was imported.
    original = parser.parse_predicate
    parse = timed("parse", original)
    for module in list(sys.modules.values()):
        if getattr(module, "parse_predicate", None) is original:
            module.parse_predicate = parse
    CompiledProgram.annotate = timed("annotate", CompiledProgram.annotate)
    CompiledProgram.__init__ = timed("compile", CompiledProgram.__init__)
    ParallelSearchTree.insert = timed("insert", ParallelSearchTree.insert)

    workload = WORKLOADS[args.workload](args.seed, args.quick, None)
    gc.callbacks.append(on_gc)
    began = time.perf_counter()
    try:
        try:
            workload.setup()
            total = time.perf_counter() - began
        finally:
            gc.callbacks.remove(on_gc)
        gc.collect()  # count what set-up keeps, not its garbage
        census = collections.Counter(type(item).__name__ for item in gc.get_objects())
    finally:
        workload.teardown()
    report = {"workload": args.workload, "seed": args.seed, "setup_s": round(total, 3)}
    for name, value in seconds.items():
        report[f"{name}_s"] = round(value, 3)
        report[f"{name}_share"] = round(value / total, 3)
    report.update({f"gc_in_{name}_s": round(value, 3) for name, value in gc_in.items()})
    report["gen2_pauses"] = full_collections["count"]
    report["gen2_pause_s"] = round(full_collections["seconds"], 3)
    report["tracked_objects"] = sum(census.values())
    report["top_tracked_types"] = dict(census.most_common(5))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
