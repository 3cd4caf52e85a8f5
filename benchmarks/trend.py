"""ASCII trend tables over a directory of ``BENCH_*.json`` artifacts.

Every benchmark entry point emits a schema-versioned artifact (see
:mod:`repro.obs.bench`); point this script at a directory of them —
``benchmarks/results/`` by default, or a directory of CI artifact
downloads — and it renders one trend table per benchmark name, ordered by
creation time, so perf drift across commits is visible without any plotting
dependency.

Run from the repo root::

    PYTHONPATH=src python benchmarks/trend.py
    PYTHONPATH=src python benchmarks/trend.py path/to/artifacts --metric engine.matches
    PYTHONPATH=src python benchmarks/trend.py --name compare_engines

``--metric`` adds a column with one counter (flat instrument key, exact or
prefix) from each artifact's embedded registry snapshot.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import Any, Dict, List, Optional

from repro.experiments.tables import ExperimentTable
from repro.obs.bench import load_bench_dir

DEFAULT_DIR = pathlib.Path(__file__).parent / "results"


def _metric_value(payload: Dict[str, Any], key: Optional[str]) -> Any:
    """One value from the embedded snapshot: exact flat key, else the sum of
    every instrument whose key starts with it (labeled families)."""
    if key is None:
        return ""
    metrics = payload.get("metrics", {})
    entry = metrics.get(key)
    if entry is not None:
        return entry.get("value", entry.get("count", ""))
    total = 0.0
    hit = False
    for flat_key, candidate in metrics.items():
        if flat_key.startswith(key):
            value = candidate.get("value", candidate.get("count"))
            if isinstance(value, (int, float)):
                total += value
                hit = True
    return total if hit else ""


def _speedup_cell(payload: Dict[str, Any]) -> Any:
    """compare_engines artifacts carry sweep rows in ``extra``; the cell
    shows the largest subscription count's speedup."""
    rows = payload.get("extra", {}).get("rows")
    if not rows:
        return ""
    gate_row = max(rows, key=lambda row: row.get("subscriptions", 0))
    speedup = gate_row.get("speedup")
    return f"{speedup:.2f}x" if isinstance(speedup, (int, float)) else ""


def _hop_cost_cell(payload: Dict[str, Any]) -> Any:
    """Match-once step reduction at the deepest/largest sweep point
    (hop_cost artifacts only; empty for every other benchmark)."""
    rows = payload.get("extra", {}).get("rows") or []
    if not any("step_reduction" in row for row in rows):
        return ""
    gate_row = max(
        rows, key=lambda row: (row.get("depth", 0), row.get("subscriptions", 0))
    )
    reduction = gate_row.get("step_reduction")
    return f"{reduction:.2f}x" if isinstance(reduction, (int, float)) else ""


def trend_tables(
    payloads: List[Dict[str, Any]],
    *,
    metric: Optional[str] = None,
    only_name: Optional[str] = None,
) -> List[ExperimentTable]:
    """One table per benchmark name, rows ordered by ``created_unix``."""
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for payload in payloads:
        if only_name is not None and payload["name"] != only_name:
            continue
        by_name.setdefault(payload["name"], []).append(payload)

    tables = []
    for name in sorted(by_name):
        columns = [
            "created", "git_sha", "wall_clock_s", "speedup", "hop_cost",
        ]
        if metric:
            columns.append(metric)
        table = ExperimentTable(f"Trend: {name}", columns)
        for payload in by_name[name]:  # load_bench_dir sorts by created_unix
            created = time.strftime(
                "%Y-%m-%d %H:%M", time.localtime(payload["created_unix"])
            )
            wall = payload.get("wall_clock_s")
            row = [
                created,
                str(payload.get("git_sha", ""))[:10],
                f"{wall:.2f}" if isinstance(wall, (int, float)) else "",
                _speedup_cell(payload),
                _hop_cost_cell(payload),
            ]
            if metric:
                row.append(_metric_value(payload, metric))
            table.add_row(*row)
        tables.append(table)
    return tables


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "directory", nargs="?", default=str(DEFAULT_DIR),
        help=f"directory of BENCH_*.json files (default: {DEFAULT_DIR})",
    )
    parser.add_argument(
        "--metric", default=None, metavar="KEY",
        help="add a column with this instrument (flat key, exact or prefix)",
    )
    parser.add_argument(
        "--name", default=None, help="show only this benchmark name"
    )
    args = parser.parse_args(argv)

    payloads = load_bench_dir(args.directory)
    if not payloads:
        print(f"no BENCH_*.json artifacts under {args.directory}", file=sys.stderr)
        return 1
    tables = trend_tables(payloads, metric=args.metric, only_name=args.name)
    if not tables:
        print(f"no artifacts named {args.name!r} under {args.directory}", file=sys.stderr)
        return 1
    for table in tables:
        print(table.format())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
