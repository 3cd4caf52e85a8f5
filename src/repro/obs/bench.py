"""Schema-versioned, machine-readable benchmark artifacts (``BENCH_*.json``).

Every benchmark entry point — the chart harnesses under ``benchmarks/``,
``benchmarks/compare_engines.py``, the throughput study — emits one JSON
artifact next to its plain-text table.  The artifact is what the CI
``bench-smoke`` job uploads and what ``benchmarks/trend.py`` ingests to show
the cross-PR perf trajectory, so its shape is versioned and validated:

.. code-block:: json

    {
      "schema": "repro.bench/v1",
      "schema_version": 1,
      "name": "chart3_matching_time",
      "created_unix": 1754500000.0,
      "machine": {"host": "...", "platform": "...", "python": "3.11.7"},
      "git_sha": "91ce3a2...",
      "workload": {"subscription_counts": [1000, 5000], "num_events": 120},
      "wall_clock_s": 12.34,
      "metrics": { "...counter snapshot..." },
      "table": {"title": "...", "columns": [...], "rows": [[...], ...]}
    }

``created_unix`` is the one place wall-clock *time-of-day* is recorded (it
identifies the artifact, it is not a duration); every duration in the
payload comes from ``time.perf_counter`` via :class:`repro.obs.registry.Timer`.
"""

from __future__ import annotations

import json
import pathlib
import platform
import socket
import subprocess
import time
from dataclasses import asdict, is_dataclass
from typing import Any, Dict, List, Optional, Union

from repro.obs.registry import MetricsRegistry

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_VERSION",
    "bench_payload",
    "write_bench",
    "validate_bench",
    "load_bench",
    "load_bench_dir",
    "git_sha",
    "machine_fingerprint",
]

BENCH_SCHEMA = "repro.bench/v1"
BENCH_SCHEMA_VERSION = 1

#: Required top-level fields and the types :func:`validate_bench` enforces.
_REQUIRED_FIELDS: Dict[str, tuple] = {
    "schema": (str,),
    "schema_version": (int,),
    "name": (str,),
    "created_unix": (int, float),
    "machine": (dict,),
    "git_sha": (str,),
    "workload": (dict,),
    "wall_clock_s": (int, float, type(None)),
    "metrics": (dict,),
}


def git_sha(repo_root: Optional[Union[str, pathlib.Path]] = None) -> str:
    """The current commit sha, or ``"unknown"`` outside a git checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(repo_root) if repo_root is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else "unknown"


def machine_fingerprint() -> Dict[str, str]:
    """Enough machine identity to compare artifacts apples-to-apples."""
    return {
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def _workload_dict(workload: Any) -> Dict[str, Any]:
    """Normalize a workload/config description into a JSON-safe dict."""
    if workload is None:
        return {}
    if is_dataclass(workload) and not isinstance(workload, type):
        raw = asdict(workload)
    elif isinstance(workload, dict):
        raw = dict(workload)
    else:
        raw = {"description": repr(workload)}
    return json.loads(json.dumps(raw, default=repr))


def bench_payload(
    name: str,
    *,
    workload: Any = None,
    wall_clock_s: Optional[float] = None,
    metrics: Optional[Union[MetricsRegistry, Dict[str, Any]]] = None,
    table: Any = None,
    extra: Optional[Dict[str, Any]] = None,
    repo_root: Optional[Union[str, pathlib.Path]] = None,
) -> Dict[str, Any]:
    """Assemble a valid v1 artifact payload.

    ``workload`` may be a config dataclass (e.g. ``Chart3Config``), a plain
    dict, or anything ``repr``-able; ``metrics`` a registry or an existing
    snapshot/diff; ``table`` an :class:`~repro.experiments.tables.ExperimentTable`
    (anything with ``title``/``columns``/``rows``).
    """
    payload: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": name,
        "created_unix": time.time(),
        "machine": machine_fingerprint(),
        "git_sha": git_sha(repo_root),
        "workload": _workload_dict(workload),
        "wall_clock_s": wall_clock_s,
        "metrics": (
            metrics.snapshot() if isinstance(metrics, MetricsRegistry) else dict(metrics or {})
        ),
    }
    if table is not None:
        payload["table"] = {
            "title": table.title,
            "columns": list(table.columns),
            "rows": json.loads(json.dumps([list(row) for row in table.rows], default=repr)),
        }
    if extra:
        payload["extra"] = json.loads(json.dumps(extra, default=repr))
    validate_bench(payload)
    return payload


def validate_bench(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Check a payload against the v1 schema; raises ``ValueError`` with
    every problem found (not just the first).  Returns the payload."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        raise ValueError(f"bench artifact must be a JSON object, got {type(payload).__name__}")
    for field, types in _REQUIRED_FIELDS.items():
        if field not in payload:
            problems.append(f"missing required field {field!r}")
        elif not isinstance(payload[field], types):
            expected = "/".join(t.__name__ for t in types)
            problems.append(
                f"field {field!r} must be {expected}, got {type(payload[field]).__name__}"
            )
    if payload.get("schema") not in (None, BENCH_SCHEMA):
        problems.append(f"unknown schema {payload.get('schema')!r} (expected {BENCH_SCHEMA!r})")
    if payload.get("schema_version") not in (None, BENCH_SCHEMA_VERSION):
        problems.append(
            f"unknown schema_version {payload.get('schema_version')!r} "
            f"(expected {BENCH_SCHEMA_VERSION})"
        )
    table = payload.get("table")
    if table is not None:
        if not isinstance(table, dict):
            problems.append("field 'table' must be an object")
        else:
            for table_field, table_type in (("title", str), ("columns", list), ("rows", list)):
                if not isinstance(table.get(table_field), table_type):
                    problems.append(f"table.{table_field} must be {table_type.__name__}")
    for key, entry in (payload.get("metrics") or {}).items():
        if not isinstance(entry, dict) or "type" not in entry:
            problems.append(f"metrics[{key!r}] must be an object with a 'type' field")
    if problems:
        raise ValueError(
            "invalid bench artifact: " + "; ".join(problems)
        )
    return payload


def bench_filename(name: str) -> str:
    return f"BENCH_{name}.json"


def write_bench(
    payload: Dict[str, Any], directory: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Validate and write ``BENCH_<name>.json`` under ``directory``."""
    validate_bench(payload)
    target_dir = pathlib.Path(directory)
    target_dir.mkdir(parents=True, exist_ok=True)
    target = target_dir / bench_filename(payload["name"])
    target.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
    return target


def load_bench(path: Union[str, pathlib.Path]) -> Dict[str, Any]:
    """Read and validate one artifact."""
    payload = json.loads(pathlib.Path(path).read_text())
    return validate_bench(payload)


def load_bench_dir(
    directory: Union[str, pathlib.Path], *, recursive: bool = True
) -> List[Dict[str, Any]]:
    """All valid ``BENCH_*.json`` artifacts under ``directory``, oldest
    first (by ``created_unix``); invalid files are skipped, not fatal —
    a trend report over many PRs should survive one bad artifact."""
    root = pathlib.Path(directory)
    pattern = "**/BENCH_*.json" if recursive else "BENCH_*.json"
    artifacts: List[Dict[str, Any]] = []
    for path in sorted(root.glob(pattern)):
        try:
            payload = load_bench(path)
        except (ValueError, OSError, json.JSONDecodeError):
            continue
        payload["_path"] = str(path)
        artifacts.append(payload)
    artifacts.sort(key=lambda p: p.get("created_unix", 0))
    return artifacts
