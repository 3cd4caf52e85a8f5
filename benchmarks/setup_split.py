"""Where a workload's set-up time goes: parse, annotate, insert.

Runs one ``setup()`` of a ``benchmarks/e2e`` workload with wall-clock
wrappers (no profiler, so the shares are unprofiled ones) around
``parse_predicate``, ``CompiledProgram.annotate`` (a view's full annotation,
at its first route) and ``CompiledProgram.insert`` (Section 2's insertion
walk on the records, path re-annotation included), records the garbage collector's
pauses, and prints one JSON line.  A layer's seconds include the
collections that land inside it (``gc_in``); the three layers never nest.
``parse_calls`` counts the ``parse_predicate`` calls and ``parse_us`` is
their mean microseconds with the collector's pauses inside them taken out:
a per-expression parse cost that compares across commits and machines.
After set-up it takes a heap census: ``tracked_objects`` (what the
collector walks on every full collection), the five most numerous tracked
types, and the number and seconds of generation-2 pauses during set-up.  It also sizes the
compiled programs: ``program_mib`` is what every live ``CompiledProgram``
and the annotation columns of its views own, and ``program_field_mib`` each
field's *exclusive* share — the bytes only that field reaches, i.e. what
deleting it would free (``ann_yes`` / ``ann_maybe``: the views' columns).  The walk stops at
subscriptions, predicates and tests (what leaves name) and counts small ints
as free.  Per broker it counts the live slots of the programs the broker's
router's replica holds (``live_slots``; all sub-trees of a factored one) and
those among them holding a node left with only a ``*``-child
(``star_only_slots``, which trivial-test elimination keeps at 0).  Summed
over the programs, ``value_table_dicts`` and ``value_table_pairs`` count
the value tables held as a dict (two or more value branches) and as a
``(value_id, child)`` pair (one).  Run from the repository root
(``--quick`` uses the workload's smoke size)::

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
from repro.core.router import ContentRouter  # noqa: E402
from repro.matching import parser  # noqa: E402
from repro.matching.compile import CompiledProgram  # noqa: E402
from repro.matching.optimizations import FactoredMatcher  # noqa: E402
from repro.matching.predicates import AttributeTest, Predicate, Subscription  # noqa: E402

LAYERS = ("parse", "annotate", "insert")

#: What a program points at but does not own.
_BORROWED = (Subscription, Predicate, AttributeTest, CompiledProgram)
#: Program slots that wire it to its surroundings rather than hold structure.
_WIRING = frozenset(("schema", "attribute_order", "_schema_ok", "views"))
#: The per-view annotation columns, counted as fields of the program viewed.
_COLUMNS = ("ann_yes", "ann_maybe")
#: Owner of what no field owns alone: what two fields reach.
_SHARED = -1


def _referents(item):
    if isinstance(item, dict):
        return [*item.keys(), *item.values()]
    if isinstance(item, (list, tuple, set, frozenset)):
        return item
    slots = getattr(type(item), "__slots__", ())
    return [getattr(item, slot, None) for slot in slots] + list(
        getattr(item, "__dict__", {}).values()
    )


def program_census(programs):
    """``(total bytes, {field: exclusive bytes})`` over ``programs``: one
    ``sys.getsizeof`` walk per field, each object owned by the first field
    that reaches it until a second one does."""
    fields = [field for field in CompiledProgram.__slots__ if field not in _WIRING]
    fields += _COLUMNS
    owner = {}
    exclusive = [0] * len(fields)
    total = 0
    for program in programs:
        for field_index, field in enumerate(fields):
            if field in _COLUMNS:
                stack = [getattr(view, field) for view in program.views]
            else:
                stack = [getattr(program, field)]
            while stack:
                item = stack.pop()
                kind = type(item)
                if item is None or kind is bool or isinstance(item, _BORROWED):
                    continue
                if kind is int and -5 <= item <= 256:
                    continue  # CPython's cached small ints
                seen = owner.get(id(item))
                if seen is None:
                    owner[id(item)] = field_index
                    size = sys.getsizeof(item)
                    exclusive[field_index] += size
                    total += size
                elif seen in (field_index, _SHARED):
                    continue
                else:
                    exclusive[seen] -= sys.getsizeof(item)
                    owner[id(item)] = _SHARED
                stack.extend(_referents(item))
    return total, dict(zip(fields, exclusive))


def router_programs(router):
    """The compiled programs of the replica a router views."""
    replica = router.replica
    if isinstance(replica, FactoredMatcher):  # one sub-tree per index key
        return [program for _key, program in replica.subtrees()]
    return [replica]


def slot_census(routers):
    """``({broker: live slots}, {broker: star-only slots})`` over
    ``routers``: the slots reachable from each program's root, and those
    holding a node with a ``*``-child and no other branch."""
    live, star_only = {}, {}
    for router in sorted(routers, key=lambda router: router.broker):
        records = [
            program._records[slot]
            for program in router_programs(router)
            for slot in program.reachable_slots()
        ]
        live[router.broker] = len(records)
        star_only[router.broker] = sum(
            1 for _position, table, ranges, star, _subs in records
            if star >= 0 and table is None and ranges is None
        )
    return live, star_only


def main() -> None:
    arguments = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    arguments.add_argument("workload", choices=sorted(WORKLOADS))
    arguments.add_argument("--seed", type=int, default=1)
    arguments.add_argument("--quick", action="store_true", help="the workload's smoke size")
    args = arguments.parse_args()

    seconds = dict.fromkeys(LAYERS + ("gc",), 0.0)
    gc_in = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
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
            calls[layer] += 1
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
    CompiledProgram.insert = timed("insert", CompiledProgram.insert)

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
        objects = gc.get_objects()
        census = collections.Counter(type(item).__name__ for item in objects)
        programs = [item for item in objects if type(item) is CompiledProgram]
        live_slots, star_only_slots = slot_census(
            [item for item in objects if type(item) is ContentRouter]
        )
        del objects
        program_bytes, field_bytes = program_census(programs)
    finally:
        workload.teardown()
    report = {"workload": args.workload, "seed": args.seed, "setup_s": round(total, 3)}
    for name, value in seconds.items():
        report[f"{name}_s"] = round(value, 3)
        report[f"{name}_share"] = round(value / total, 3)
    report.update({f"gc_in_{name}_s": round(value, 3) for name, value in gc_in.items()})
    report["parse_calls"] = calls["parse"]
    report["parse_us"] = round(
        (seconds["parse"] - gc_in["parse"]) / max(calls["parse"], 1) * 1e6, 2
    )
    report["gen2_pauses"] = full_collections["count"]
    report["gen2_pause_s"] = round(full_collections["seconds"], 3)
    report["tracked_objects"] = sum(census.values())
    report["top_tracked_types"] = dict(census.most_common(5))
    mib = 1 << 20
    report["programs"] = len(programs)
    report["program_slots"] = sum(len(program._records) for program in programs)
    report["program_mib"] = round(program_bytes / mib, 2)
    report["program_field_mib"] = {
        field: round(size / mib, 2) for field, size in field_bytes.items()
    }
    report["live_slots"] = live_slots
    report["star_only_slots"] = star_only_slots
    shapes = collections.Counter(
        type(record[1]).__name__ for program in programs for record in program._records
    )
    report["value_table_dicts"] = shapes["dict"]
    report["value_table_pairs"] = shapes["tuple"]
    print(json.dumps(report))


if __name__ == "__main__":
    main()
