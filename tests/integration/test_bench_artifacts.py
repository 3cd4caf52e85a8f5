"""End-to-end: experiment runs emit valid, machine-readable BENCH artifacts.

This is the contract the CI ``bench-smoke`` job and ``benchmarks/trend.py``
rely on: run a (scaled-down) chart harness with the observability registry
enabled, assemble the schema-versioned ``BENCH_<name>.json`` payload, and
check it validates and round-trips.
"""

import json

import pytest

from repro.experiments import Chart1Config, run_chart1
from repro.obs import MetricsRegistry, bench, get_registry, set_registry


@pytest.fixture
def fresh_registry():
    """An enabled, empty global registry for the duration of one test."""
    previous = set_registry(MetricsRegistry(enabled=True))
    yield get_registry()
    set_registry(previous)


@pytest.mark.slow
def test_chart1_run_emits_valid_bench_artifact(tmp_path, fresh_registry):
    config = Chart1Config(
        subscription_counts=(60,),
        subscribers_per_broker=2,
        probe_duration_s=0.2,
    )
    timer = fresh_registry.timer("bench.wall_clock_s")
    table, wall_clock_s = timer.timeit(lambda: run_chart1(config))

    payload = bench.bench_payload(
        "chart1",
        workload=config,
        wall_clock_s=wall_clock_s,
        metrics=fresh_registry,
        table=table,
    )
    path = bench.write_bench(payload, tmp_path)

    assert path.name == "BENCH_chart1.json"
    loaded = bench.load_bench(path)  # validates against the v1 schema
    assert loaded["schema"] == bench.BENCH_SCHEMA
    assert loaded["workload"]["subscription_counts"] == [60]
    assert loaded["wall_clock_s"] == pytest.approx(wall_clock_s)
    assert loaded["table"]["rows"], "the Chart 1 table must ride along"
    # The run itself must have recorded into the embedded snapshot: the
    # protocols count handled events, the engines count matches.
    assert any(key.startswith("protocol.") for key in loaded["metrics"])
    assert any(key.startswith("engine.") for key in loaded["metrics"])


def test_cli_metrics_out_writes_snapshot(tmp_path, fresh_registry, capsys):
    from repro.cli import main

    target = tmp_path / "metrics.json"
    assert main(["--metrics-out", str(target), "demo"]) == 0
    capsys.readouterr()
    data = json.loads(target.read_text())
    assert any(key.startswith("router.") for key in data)
