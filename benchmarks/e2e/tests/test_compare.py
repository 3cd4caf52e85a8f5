"""``compare``: bounds, directions, unresolved pairs, exact metrics."""

import copy
import json

from benchmarks.e2e.compare import compare, compare_files, judge

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]


def scaled(values, factor):
    return [value * factor for value in values]


def test_within_bound_is_ok_in_both_directions():
    assert judge(100.0, 95.0, STEADY, scaled(STEADY, 0.95), 0.10, "higher") == "ok"
    assert judge(100.0, 105.0, STEADY, scaled(STEADY, 1.05), 0.10, "lower") == "ok"
    assert judge(100.0, 150.0, STEADY, scaled(STEADY, 1.5), 0.10, "higher") == "ok"  # a gain


def test_worse_than_the_bound_is_a_regression():
    assert judge(100.0, 85.0, STEADY, scaled(STEADY, 0.85), 0.10, "higher") == "REGRESSED"
    assert judge(100.0, 115.0, STEADY, scaled(STEADY, 1.15), 0.10, "lower") == "REGRESSED"


def test_wide_spread_is_unresolved_not_unchanged():
    noisy = [70.0, 100.0, 130.0, 90.0, 115.0]
    assert judge(100.0, 100.0, noisy, STEADY, 0.10, "higher") == "unresolved"
    assert judge(100.0, 80.0, STEADY, scaled(noisy, 0.8), 0.10, "higher") == "unresolved"
    # ...unless every candidate repetition beats every baseline repetition.
    assert judge(100.0, 300.0, noisy, scaled(noisy, 3.0), 0.10, "higher") == "ok"


def run_set(seed=1):
    def entry(value, reps=None):
        return {"value": value, "unit": "x", **({"reps": reps} if reps else {})}

    untraced = {
        "events_per_s": entry(100.0, STEADY),
        "latency_p50_ms": entry(1.0, [1.0, 1.01, 0.99]),
        "latency_p90_ms": entry(2.0, [2.0, 2.02, 1.98]),
        "setup_s": entry(3.0),
        "peak_rss_mb": entry(50.0),
        "failed_ratio": entry(0.0),
        "sim_saturation_eps": entry(8915.09),
        "sim_wall_msgs_per_s": entry(18000.0, scaled(STEADY, 180)),
    }
    from benchmarks.e2e import metrics as names

    traced = {metric.name: entry(1.0) for metric in names.PER_LAYER}
    return {
        "stamp": {"seed": seed},
        "results": {"sim_fig6": {"untraced": {"metrics": untraced}, "traced": {"metrics": traced}}},
    }


def verdicts(rows):
    return {metric: verdict for _workload, metric, _a, _b, _note, verdict in rows}


def test_two_equal_run_sets_agree():
    rows = compare(run_set(), run_set())
    assert set(verdicts(rows).values()) <= {"ok", "info"}
    assert verdicts(rows)["sim_saturation_eps"] == "ok"
    assert verdicts(rows)["sim.steps_per_msg"] == "ok"
    assert verdicts(rows)["protocol.handle_us_per_msg"] == "info"


def test_exact_metrics_must_match_only_on_the_same_seed():
    changed = run_set()
    changed["results"]["sim_fig6"]["untraced"]["metrics"]["sim_saturation_eps"]["value"] = 8915.1
    changed["results"]["sim_fig6"]["traced"]["metrics"]["sim.steps_per_msg"]["value"] = 1.01
    found = verdicts(compare(run_set(), changed))
    assert found["sim_saturation_eps"] == "MISMATCH"
    assert found["sim.steps_per_msg"] == "MISMATCH"
    assert found["protocol.handle_us_per_msg"] == "info"  # a time never gates
    other_seed = copy.deepcopy(changed)
    other_seed["stamp"]["seed"] = 2
    found = verdicts(compare(run_set(), other_seed))
    assert found["sim_saturation_eps"] == "info" and found["sim.steps_per_msg"] == "info"


def test_exit_code_follows_violations(tmp_path, capsys):
    slower = run_set()
    metrics = slower["results"]["sim_fig6"]["untraced"]["metrics"]
    metrics["events_per_s"] = {"value": 60.0, "unit": "x", "reps": scaled(STEADY, 0.6)}
    paths = []
    for name, content in (("a", run_set()), ("b", slower)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(content))
    assert compare_files(str(paths[0]), str(paths[0])) == 0
    assert compare_files(str(paths[0]), str(paths[1])) == 1
    assert "REGRESSED" in capsys.readouterr().out
