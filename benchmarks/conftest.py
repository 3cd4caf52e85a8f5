"""Shared helpers for the benchmark suite.

Every chart benchmark runs its experiment harness exactly once under
pytest-benchmark (rounds=1 — these are minutes-long simulations, not
microbenchmarks), prints the regenerated table, archives it under
``benchmarks/results/`` and emits a schema-versioned machine-readable
``BENCH_<name>.json`` artifact next to it (see :mod:`repro.obs.bench`) —
the file the CI perf gate and ``benchmarks/trend.py`` consume.

The global :mod:`repro.obs` registry is enabled for the whole benchmark
session (instruments fetched while it is disabled stay no-ops, so this must
happen before any engine or protocol is constructed), and each artifact
embeds its snapshot.  Wall-clock timing goes through the registry's
:class:`~repro.obs.registry.Timer` — ``time.perf_counter`` underneath.

Set ``REPRO_PAPER_SCALE=1`` to run the charts at the paper's full parameters
(thousands of subscriptions, 500-1000 events); the default is a scaled-down
sweep that preserves every qualitative shape and finishes in minutes.
"""

from __future__ import annotations

import os
import pathlib
from typing import Any, Dict, Optional

import pytest

from repro.obs import bench as obs_bench
from repro.obs import get_registry

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def paper_scale() -> bool:
    """Whether to run at the paper's full parameters."""
    return os.environ.get("REPRO_PAPER_SCALE", "") not in ("", "0")


@pytest.fixture(scope="session", autouse=True)
def _obs_registry_enabled():
    """Enable the global observability registry for the whole session."""
    registry = get_registry()
    was_enabled = registry.enabled
    registry.enable()
    yield registry
    if not was_enabled:
        registry.disable()


def emit_bench(
    name: str,
    *,
    table: Any = None,
    workload: Any = None,
    wall_clock_s: Optional[float] = None,
    extra: Optional[Dict[str, Any]] = None,
    directory: Optional[pathlib.Path] = None,
) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` (global-registry snapshot embedded)."""
    payload = obs_bench.bench_payload(
        name,
        workload=workload,
        wall_clock_s=wall_clock_s,
        metrics=get_registry(),
        table=table,
        extra=extra,
    )
    target = directory if directory is not None else RESULTS_DIR
    target.mkdir(parents=True, exist_ok=True)
    path = obs_bench.write_bench(payload, target)
    print(f"bench artifact: {path}")
    return path


def archive_table(
    name: str,
    table,
    *,
    workload: Any = None,
    wall_clock_s: Optional[float] = None,
) -> None:
    """Print a regenerated table, save it under ``benchmarks/results/`` and
    emit the matching ``BENCH_<name>.json`` artifact."""
    text = table.format()
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    emit_bench(
        name,
        table=table,
        workload=workload,
        wall_clock_s=wall_clock_s,
    )


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under pytest-benchmark.

    The wall-clock duration of the last run (obs Timer, perf_counter-based)
    is exposed as ``once.last_wall_clock_s`` for BENCH artifacts.
    """

    def run(fn):
        timer = get_registry().timer("bench.wall_clock_s")
        result, elapsed = timer.timeit(lambda: benchmark.pedantic(fn, rounds=1, iterations=1))
        run.last_wall_clock_s = elapsed
        return result

    run.last_wall_clock_s = None
    return run
