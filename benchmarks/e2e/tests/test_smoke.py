"""A ``--quick`` smoke of all five workloads, untraced and traced."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e import metrics as names
from benchmarks.e2e.cli import driver_line
from benchmarks.e2e.harness import REPO_ROOT, SCHEMA


@pytest.fixture(scope="module")
def run_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "runset.json"
    command = [sys.executable, "-m", "benchmarks.e2e", "run", "--all", "--quick", "--trace"]
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), environment.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        command + ["--seconds", "0.3", "--seed", "3", "--out", str(out)],
        cwd=REPO_ROOT,
        env=environment,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    with open(out) as handle:
        return json.load(handle)


def test_schema_and_stamp(run_set):
    assert run_set["schema"] == SCHEMA and run_set["claim"] is None
    stamp = run_set["stamp"]
    for key in ("git_sha", "git_dirty", "cpu_count", "python", "numpy", "seed", "command"):
        assert key in stamp
    assert stamp["seed"] == 3
    assert list(run_set["results"]) == list(names.WORKLOADS)


def test_every_workload_reports_exactly_its_metrics(run_set):
    for workload, modes in run_set["results"].items():
        expected = {m.name for m in names.END_TO_END if workload in m.reported_by}
        assert set(modes["untraced"]["metrics"]) == expected, workload
        layer_names = {metric.name for metric in names.PER_LAYER}
        assert set(modes["traced"]["metrics"]) == expected | layer_names, workload
        for detail in modes.values():
            assert detail["stamp"]["hash_seed"] == "0"
            for entry in detail["metrics"].values():
                assert isinstance(entry["value"], (int, float)) and entry["unit"]


def test_nothing_failed(run_set):
    for workload, modes in run_set["results"].items():
        for mode, detail in modes.items():
            assert detail["correct"], (workload, mode, detail["problems"], detail["failures"])
            assert detail["metrics"]["failed_ratio"]["value"] == 0
            assert detail["attempted"] > 1 and detail["failed"] == 0


def test_the_traced_run_covers_the_wall_clock(run_set):
    for workload in names.DETERMINISTIC:
        metrics = run_set["results"][workload]["traced"]["metrics"]
        assert metrics["trace.coverage_ratio"]["value"] >= 0.9, workload
    sim = run_set["results"]["sim_fig6"]
    assert (
        sim["traced"]["metrics"]["sim_saturation_eps"]["value"]
        == sim["untraced"]["metrics"]["sim_saturation_eps"]["value"]
    )


def test_the_drivers_last_line(run_set):
    gated = {metric.name for metric in names.driver_end_to_end()}
    layered = {name for name, _unit, _better in names.driver_per_layer()}
    for modes in run_set["results"].values():
        line = json.loads(driver_line(modes["untraced"]))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == gated
        assert all(entry["value"] != 0 for entry in line["metrics"].values())
        assert set(json.loads(driver_line(modes["traced"]))["metrics"]) == layered


def test_without_the_repository_the_benchmark_fails_cleanly(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and the
    benchmark's own directory exist: no result, non-zero exit."""
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(REPO_ROOT, "benchmarks", "e2e"),
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fanout_mem", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
