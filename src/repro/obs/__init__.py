"""``repro.obs`` — the unified observability layer.

One metrics registry (:mod:`repro.obs.registry`) feeds every measurement
surface of the reproduction: the simulator's per-link and per-broker
counters, the protocols' per-hop refinement counts, the matcher engines'
match and annotation accounting, the CLI's ``--metrics-out`` flag, and the
schema-versioned ``BENCH_*.json`` benchmark artifacts
(:mod:`repro.obs.bench`) that the CI perf-regression gate consumes.

Quick tour::

    from repro import obs

    obs.configure(enabled=True)           # the global registry is off by default
    registry = obs.get_registry()
    hits = registry.counter("cache.hits")
    hits.inc()

    with registry.timer("load.wall_clock"):
        expensive()

    print(obs.export.to_json(registry))
    print(obs.export.to_prometheus(registry))

Component-owned registries (the simulator creates one per run) follow the
same API; see :mod:`repro.sim.runner`.
"""

from repro.obs import bench, export
from repro.obs.export import metrics_output
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Scope,
    Timer,
    configure,
    diff_snapshots,
    get_registry,
    set_registry,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "Scope",
    "MetricsRegistry",
    "configure",
    "diff_snapshots",
    "get_registry",
    "set_registry",
    "metrics_output",
    "bench",
    "export",
]
