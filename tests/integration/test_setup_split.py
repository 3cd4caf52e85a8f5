"""Smoke test of ``benchmarks/setup_split.py``: one JSON line with the set-up
split (with the parse count and mean cost), the heap census after set-up,
the compiled programs' bytes and the per-broker slot census (no slot left
holding a node with only a ``*``-child)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def setup_split(workload):
    environment = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    script = os.path.join(ROOT, "benchmarks", "setup_split.py")
    completed = subprocess.run(
        [sys.executable, script, workload, "--quick"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        env=environment,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_setup_split_reports_the_heap():
    report = setup_split("fanout_mem")
    assert report["workload"] == "fanout_mem"
    for layer in ("parse", "annotate", "insert", "gc"):
        assert report[f"{layer}_s"] >= 0 and 0 <= report[f"{layer}_share"] <= 1
    assert report["gen2_pauses"] >= 0 and report["gen2_pause_s"] >= 0
    # --quick: 200 subscriptions, each parsed once at the one broker.
    assert report["parse_calls"] == 200
    # The mean leaves out GC pauses, so it is at most parse_s (to 3 decimals).
    assert 0 < report["parse_us"] * report["parse_calls"] <= (report["parse_s"] + 5e-4) * 1e6
    top = report["top_tracked_types"]
    assert len(top) == 5 and all(count > 0 for count in top.values())
    assert report["tracked_objects"] >= sum(top.values())
    assert report["programs"] > 0 and report["program_slots"] > 0
    fields = report["program_field_mib"]
    assert "_records" in fields and "index_of_node" not in fields
    assert "_slot_node_id" not in fields and "compile_s" not in report
    assert all(size >= 0 for size in fields.values())
    assert 0 < fields["_records"] <= report["program_mib"]
    assert report["live_slots"] and all(count > 0 for count in report["live_slots"].values())
    assert report["star_only_slots"] == dict.fromkeys(report["live_slots"], 0)


def test_an_engine_backed_replica_has_no_star_only_node():
    """``churn_mem`` routes on a private compiled engine per broker (not a
    factored matcher), the path trivial-test elimination once skipped; its
    program is the whole replica."""
    report = setup_split("churn_mem")
    assert sorted(report["live_slots"]) == ["B0", "B1"]
    # Both brokers parse every subscription: 500 standing ones and more.
    assert report["parse_calls"] % 2 == 0 and report["parse_calls"] >= 2 * 500
    assert report["star_only_slots"] == {"B0": 0, "B1": 0}
