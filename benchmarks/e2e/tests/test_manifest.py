"""BENCHMARK.json says what metrics.py says, within the driver's limits."""

import json
import os
import re

from benchmarks.e2e import metrics as names
from benchmarks.e2e.cli import RUN_SECONDS
from benchmarks.e2e.harness import REPO_ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_the_names_of_the_issue():
    assert list(names.WORKLOADS) == [
        "fanout_mem", "chain_mem_25k", "chain_tcp", "churn_mem", "sim_fig6",
    ]
    assert [metric.name for metric in names.END_TO_END] == [
        "events_per_s", "latency_p50_ms", "latency_p90_ms", "subscribe_p50_ms", "setup_s",
        "peak_rss_mb", "failed_ratio", "sim_saturation_eps", "sim_wall_msgs_per_s",
    ]
    assert len(names.PER_LAYER) == 43
    assert len({metric.name for metric in names.PER_LAYER}) == 43


def test_benchmark_json_is_the_manifest():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        written = json.load(handle)
    assert written == names.manifest(RUN_SECONDS)


def test_manifest_is_within_the_drivers_limits():
    manifest = names.manifest(RUN_SECONDS)
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 1 <= manifest["run_seconds"] <= 60
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in manifest[section]:
            assert NAME.match(entry["name"]), entry
            assert entry["name"] not in seen
            seen.add(entry["name"])
            if "unit" in entry:
                assert UNIT.match(entry["unit"]), entry
                assert entry["better"] in ("higher", "lower")
            if "why" in entry:
                assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    bounds = {entry["name"]: entry["bound"] for entry in manifest["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # Every gated metric is reported by every workload.
    for metric in names.driver_end_to_end():
        assert set(metric.reported_by) == set(names.WORKLOADS)
