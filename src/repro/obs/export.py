"""JSON export for :mod:`repro.obs` registries.

:func:`to_json` / :func:`write_json` give the machine-readable form consumed
by ``BENCH_*.json`` artifacts, ``benchmarks/trend.py`` and the
``--metrics-out`` CLI flag (:func:`metrics_output`).

Snapshots are plain dicts (see :meth:`MetricsRegistry.snapshot`), so the
snapshot/diff API composes: export a snapshot taken before a run, one taken
after, or their :func:`~repro.obs.registry.diff_snapshots` delta, all
through the same functions.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
from typing import Any, Dict, Iterator, Optional, Union

from repro.obs.registry import MetricsRegistry, diff_snapshots, get_registry

__all__ = ["to_json", "write_json", "metrics_output", "diff_snapshots"]

Snapshot = Dict[str, Dict[str, Any]]


def _as_snapshot(source: Union[MetricsRegistry, Snapshot]) -> Snapshot:
    if isinstance(source, MetricsRegistry):
        return source.snapshot()
    return source


def to_json(source: Union[MetricsRegistry, Snapshot], *, indent: int = 2) -> str:
    """Serialize a registry (or a snapshot/diff) as a JSON object."""
    return json.dumps(_as_snapshot(source), indent=indent, sort_keys=True, default=str)


def write_json(
    source: Union[MetricsRegistry, Snapshot], path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write :func:`to_json` output to ``path`` (parents created)."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(to_json(source) + "\n")
    return target


@contextlib.contextmanager
def metrics_output(
    path: Optional[Union[str, pathlib.Path]],
    *,
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Enable the (global) registry for the duration of a block and write its
    JSON snapshot to ``path`` on exit.

    This is how the CLI's ``--metrics-out`` works: instruments only record if
    the registry was enabled when they were fetched, so the enable MUST
    happen before the command constructs its engines and protocols —
    wrapping the whole command guarantees that ordering.  With ``path=None`` the block is a no-op
    passthrough (the registry's enabled state is untouched), so callers can
    wrap unconditionally.
    """
    target = get_registry() if registry is None else registry
    if path is None:
        yield target
        return
    was_enabled = target.enabled
    target.enable()
    try:
        yield target
    finally:
        write_json(target, path)
        if not was_enabled:
            target.disable()
