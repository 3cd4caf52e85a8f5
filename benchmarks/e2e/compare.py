"""``compare A.json B.json``: judge run-set B (candidate) against A (baseline).

One row per (workload, metric).  End-to-end metrics come from the untraced
runs and are held to their bound, in their direction:

* ``ok`` — the candidate's median is no worse than the baseline's by more
  than the bound;
* ``REGRESSED`` — it is worse by more than the bound;
* ``unresolved`` — the repetitions of either side spread (interquartile
  range over median) wider than the bound, so the pair resolves nothing —
  unless every candidate repetition reads better than every baseline one;
* ``MISMATCH`` — a metric that must repeat exactly (``failed_ratio``, the
  virtual-clock ``sim_saturation_eps``, and every count-type per-layer
  metric of a single-threaded workload) differs between two run-sets of
  the same seed.

Time-type per-layer metrics are shown for orientation and never gate.
The exit code is non-zero on any ``REGRESSED`` or ``MISMATCH``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e import metrics as names
from benchmarks.e2e.harness import spread

VIOLATIONS = ("REGRESSED", "MISMATCH")
Row = Tuple[str, str, float, float, str, str]


def judge(
    base: float,
    candidate: float,
    base_reps: Sequence[float],
    candidate_reps: Sequence[float],
    bound: float,
    better: str,
) -> str:
    """The verdict for one bounded metric (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(base_reps), spread(candidate_reps)) > bound:
        if base_reps and candidate_reps:
            if max(sign * value for value in candidate_reps) < min(
                sign * value for value in base_reps
            ):
                return "ok"
        return "unresolved"
    worse_by = sign * (candidate - base) / abs(base) if base else 0.0
    return "REGRESSED" if worse_by > bound else "ok"


def compare(baseline: Dict[str, Any], candidate: Dict[str, Any]) -> List[Row]:
    """Rows ``(workload, metric, baseline, candidate, note, verdict)``."""
    rows: List[Row] = []
    same_seed = baseline["stamp"]["seed"] == candidate["stamp"]["seed"]
    for workload in names.WORKLOADS:
        ours = baseline["results"].get(workload, {})
        theirs = candidate["results"].get(workload, {})
        rows += _end_to_end(workload, ours.get("untraced"), theirs.get("untraced"), same_seed)
        rows += _per_layer(workload, ours.get("traced"), theirs.get("traced"), same_seed)
    return rows


def _end_to_end(
    workload: str,
    base: Optional[Dict[str, Any]],
    candidate: Optional[Dict[str, Any]],
    same_seed: bool,
) -> List[Row]:
    if base is None or candidate is None:
        return []
    rows: List[Row] = []
    for metric in names.END_TO_END:
        if workload not in metric.reported_by:
            continue
        ours, theirs = base["metrics"].get(metric.name), candidate["metrics"].get(metric.name)
        if ours is None or theirs is None:
            rows.append((workload, metric.name, 0.0, 0.0, "not reported", "MISMATCH"))
            continue
        if metric.exact:
            verdict = _exact(ours["value"], theirs["value"], same_seed)
            note = "must repeat exactly"
        else:
            ours_reps, theirs_reps = ours.get("reps", ()), theirs.get("reps", ())
            verdict = judge(
                ours["value"], theirs["value"], ours_reps, theirs_reps, metric.bound, metric.better
            )
            note = (
                f"bound {metric.bound:.0%}, spread {spread(ours_reps):.1%} / "
                f"{spread(theirs_reps):.1%}"
            )
        rows.append((workload, metric.name, ours["value"], theirs["value"], note, verdict))
    return rows


def _per_layer(
    workload: str,
    base: Optional[Dict[str, Any]],
    candidate: Optional[Dict[str, Any]],
    same_seed: bool,
) -> List[Row]:
    if base is None or candidate is None:
        return []
    rows: List[Row] = []
    for metric in names.PER_LAYER:
        ours = base["metrics"][metric.name]["value"]
        theirs = candidate["metrics"][metric.name]["value"]
        if metric.kind == "count" and workload in names.DETERMINISTIC:
            rows.append(
                (workload, metric.name, ours, theirs, "count", _exact(ours, theirs, same_seed))
            )
        elif ours or theirs:
            rows.append((workload, metric.name, ours, theirs, metric.kind, "info"))
    return rows


def _exact(ours: float, theirs: float, same_seed: bool) -> str:
    if not same_seed:
        return "info"  # different inputs: nothing has to repeat
    return "ok" if ours == theirs else "MISMATCH"


def format_rows(rows: Sequence[Row]) -> str:
    lines = [
        f"{'workload':<15}{'metric':<34}{'baseline':>14}{'candidate':>14}{'change':>9}  "
        f"{'verdict':<11}note"
    ]
    for workload, metric, ours, theirs, note, verdict in rows:
        change = f"{(theirs - ours) / abs(ours):+.1%}" if ours else "-"
        lines.append(
            f"{workload:<15}{metric:<34}{ours:>14.4f}{theirs:>14.4f}{change:>9}  "
            f"{verdict:<11}{note}"
        )
    return "\n".join(lines)


def compare_files(baseline_path: str, candidate_path: str) -> int:
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    with open(candidate_path) as handle:
        candidate = json.load(handle)
    rows = compare(baseline, candidate)
    print(format_rows(rows))
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row[5]] = counts.get(row[5], 0) + 1
    print(", ".join(f"{count} {verdict}" for verdict, count in sorted(counts.items())))
    return 1 if any(row[5] in VIOLATIONS for row in rows) else 0
