"""Shared pieces of a workload run: statistics, the measurement record and
the machine stamp."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
from typing import Dict, List, Optional, Sequence

from benchmarks.e2e.oracle import Failures

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
SCHEMA = "benchmarks.e2e/v1"


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil
    return ordered[int(rank) - 1]


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 below two values)."""
    if len(values) < 2:
        return 0.0
    first, _second, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0


class Measurement:
    """What one workload process measured.

    ``series`` holds one value per repetition; ``values`` holds metrics that
    are a single number by nature.  A latency percentile is reported as the
    median of its repetitions.  A *rate* is reported pooled — everything
    counted over all repetitions ÷ all their timed seconds — because this
    box alternates, seconds at a time, between two speeds about 25 % apart:
    the median of a handful of repetitions snaps to whichever speed held the
    majority (ten runs then split into two camps a quarter apart), the
    pooled rate moves smoothly with the share of time spent in each."""

    def __init__(self) -> None:
        self.series: Dict[str, List[float]] = {}
        self.values: Dict[str, float] = {}
        self._pooled: Dict[str, List[float]] = {}
        self.failures = Failures()
        #: Harness-level faults: oracle disagreements, call-count mismatches.
        self.problems: List[str] = []
        #: Free-form lines for the human-readable report (budget table...).
        self.report: List[str] = []

    def add(self, name: str, value: float) -> None:
        self.series.setdefault(name, []).append(value)

    def add_rate(self, name: str, amount: float, seconds: float) -> None:
        self.add(name, amount / seconds)
        pooled = self._pooled.setdefault(name, [0.0, 0.0])
        pooled[0] += amount
        pooled[1] += seconds

    def value_of(self, name: str) -> Optional[float]:
        if name in self.values:
            return self.values[name]
        if name in self._pooled:
            amount, seconds = self._pooled[name]
            return amount / seconds
        if name in self.series:
            return statistics.median(self.series[name])
        return None


def machine_stamp(seed: int, argv: Sequence[str]) -> Dict[str, object]:
    """Where and what a result was measured on."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        **_git_state(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "seed": seed,
        "command": " ".join(argv),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def _git_state() -> Dict[str, object]:
    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ("git", "-C", REPO_ROOT) + args,
                capture_output=True,
                text=True,
                timeout=10,
                check=False,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    # A checkout exported without its history has neither.
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return {"git_sha": sha, "git_dirty": bool(status) if status is not None else None}
