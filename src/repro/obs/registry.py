"""A zero-dependency metrics registry for the hot match path.

The paper's evaluation is entirely quantitative — saturation rates per link,
matching steps per hop, matching time per subscription count — so every
component of the reproduction needs a uniform way to count things without
paying for it on the hot path.  This module provides the four instrument
kinds the charts consume:

* :class:`Counter` — a monotonically increasing integer (events published,
  matching steps, annotation rebuilds);
* :class:`Gauge` — a point-in-time value (compression ratio, queue depth);
* :class:`Histogram` — fixed bucket boundaries chosen at creation time
  (delivery latency, queue-depth samples);
* :class:`Timer` — monotonic-clock (``time.perf_counter``) duration
  accumulation, so wall-clock can never be conflated with the simulator's
  virtual ticks.

Cost model, by design:

* **disabled registry** — instrument constructors hand back shared no-op
  singletons whose methods are empty; the hot path pays one no-op method
  call and allocates nothing;
* **enabled registry** — fetching an instrument is a single dict lookup
  (callers fetch once, at setup time), and ``Counter.inc`` is one integer
  add.

Instruments are identified by a dotted name plus optional labels
(``registry.counter("sim.link.messages", src="B0", dst="B1")``); a
:class:`Scope` prefixes names so subsystems can namespace themselves
without string concatenation at every call site.  :meth:`MetricsRegistry.snapshot`
flattens everything into a plain dict (JSON-ready), and
:func:`diff_snapshots` subtracts two snapshots so a benchmark can report
exactly what one run added.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "Scope",
    "MetricsRegistry",
    "diff_snapshots",
    "get_registry",
    "set_registry",
    "configure",
]

#: Labels as stored on instruments: a sorted tuple of (key, value) pairs.
LabelItems = Tuple[Tuple[str, str], ...]

#: Default bucket boundaries for timers, in seconds (1 us .. ~8 min).
DEFAULT_TIME_BUCKETS_S = tuple(
    round(base * scale, 9)
    for scale in (1e-6, 1e-3, 1.0)
    for base in (1, 2, 5, 10, 20, 50, 100, 200, 500)
)


def instrument_key(name: str, labels: LabelItems) -> str:
    """The canonical flat key for one instrument: ``name{k=v,...}``."""
    if not labels:
        return name
    rendered = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{rendered}}}"


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot_value(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:
        return f"Counter({instrument_key(self.name, self.labels)!r}, value={self.value})"


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot_value(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}

    def __repr__(self) -> str:
        return f"Gauge({instrument_key(self.name, self.labels)!r}, value={self.value})"


class Histogram:
    """Counts of observations in fixed, creation-time bucket boundaries.

    ``boundaries`` are upper bounds (inclusive, ascending); one implicit
    overflow bucket catches everything above the last boundary.  ``observe``
    is a ``bisect`` plus an integer add — cheap enough for per-event use.
    """

    __slots__ = ("name", "labels", "boundaries", "bucket_counts", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, boundaries: Sequence[float], labels: LabelItems = ()) -> None:
        ordered = tuple(float(b) for b in boundaries)
        if not ordered:
            raise ValueError("a histogram needs at least one bucket boundary")
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"bucket boundaries must be strictly ascending: {ordered}")
        self.name = name
        self.labels = labels
        self.boundaries = ordered
        self.bucket_counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        # bisect_left keeps boundary-equal values in their own bucket, so
        # boundaries are inclusive upper bounds (Prometheus `le` semantics).
        self.bucket_counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return (self.total / self.count) if self.count else None

    def snapshot_value(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": [
                [boundary, count]
                for boundary, count in zip(self.boundaries, self.bucket_counts)
            ]
            + [["+Inf", self.bucket_counts[-1]]],
        }

    def __repr__(self) -> str:
        return (
            f"Histogram({instrument_key(self.name, self.labels)!r}, "
            f"count={self.count}, sum={self.total})"
        )


class Timer:
    """Accumulated wall-clock durations, measured on the monotonic clock.

    Always ``time.perf_counter`` — never ``time.time`` — so durations are
    immune to wall-clock adjustments and cannot be confused with the
    simulator's virtual tick clock.  Use as a context manager::

        with registry.timer("bench.chart3.wall_clock"):
            run_chart3(config)

    or measure a callable with :meth:`timeit`, or feed an externally
    measured duration with :meth:`observe_s`.
    """

    # _start exists only between __enter__ and __exit__.
    __slots__ = ("name", "labels", "histogram", "_start")

    kind = "timer"

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        boundaries: Sequence[float] = DEFAULT_TIME_BUCKETS_S,
    ) -> None:
        self.name = name
        self.labels = labels
        self.histogram = Histogram(name, boundaries, labels)

    def observe_s(self, seconds: float) -> None:
        self.histogram.observe(seconds)

    def timeit(self, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """Run ``fn``, record its duration, return ``(result, seconds)``."""
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        self.observe_s(elapsed)
        return result, elapsed

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.observe_s(time.perf_counter() - self._start)

    @property
    def count(self) -> int:
        return self.histogram.count

    @property
    def total_s(self) -> float:
        return self.histogram.total

    def snapshot_value(self) -> Dict[str, Any]:
        value = self.histogram.snapshot_value()
        value["type"] = "timer"
        return value

    def __repr__(self) -> str:
        return (
            f"Timer({instrument_key(self.name, self.labels)!r}, "
            f"count={self.count}, total_s={self.total_s})"
        )


class _NoopInstrument:
    """Shared do-nothing stand-in handed out by a disabled registry."""

    __slots__ = ()

    name = "noop"
    labels: LabelItems = ()
    value = 0
    count = 0
    total = 0.0
    total_s = 0.0
    mean = None

    def inc(self, amount: int = 1) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_s(self, seconds: float) -> None:
        pass

    def timeit(self, fn: Callable[[], Any]) -> Tuple[Any, float]:
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start

    def __enter__(self) -> "_NoopInstrument":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def __repr__(self) -> str:
        return "<noop instrument>"


NOOP_INSTRUMENT = _NoopInstrument()


class Scope:
    """A name prefix over a registry (``scope("sim").counter("x")`` →
    ``sim.x``); scopes nest."""

    __slots__ = ("registry", "prefix")

    def __init__(self, registry: "MetricsRegistry", prefix: str) -> None:
        self.registry = registry
        self.prefix = prefix

    def _qualify(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def counter(self, name: str, **labels: str) -> Counter:
        return self.registry.counter(self._qualify(name), **labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self.registry.gauge(self._qualify(name), **labels)

    def histogram(self, name: str, boundaries: Sequence[float], **labels: str) -> Histogram:
        return self.registry.histogram(self._qualify(name), boundaries, **labels)

    def timer(self, name: str, **labels: str) -> Timer:
        return self.registry.timer(self._qualify(name), **labels)

    def scope(self, name: str) -> "Scope":
        return Scope(self.registry, self._qualify(name))

    def __repr__(self) -> str:
        return f"Scope({self.prefix!r})"


class MetricsRegistry:
    """All instruments of one measurement domain (see module docstring).

    A *disabled* registry hands out :data:`NOOP_INSTRUMENT` and records
    nothing; enable/disable is decided at instrument-fetch time, so callers
    that cache instruments (the supported hot-path pattern) must fetch them
    after :meth:`enable`.  Creation is thread-safe; the increment path is a
    plain int add (atomic enough under the GIL for counters, and the
    simulator is single-threaded by construction).
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self._enabled = enabled
        self._instruments: Dict[str, object] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Mode

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        """Drop every instrument (used between benchmark runs)."""
        with self._lock:
            self._instruments.clear()

    # ------------------------------------------------------------------
    # Instrument creation / lookup

    def _get_or_create(self, key: str, factory: Callable[[], Any]) -> Any:
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = factory()
                    self._instruments[key] = instrument
        return instrument

    @staticmethod
    def _label_items(labels: Dict[str, str]) -> LabelItems:
        return tuple(sorted((str(k), str(v)) for k, v in labels.items()))

    def counter(self, name: str, **labels: str) -> Counter:
        if not self._enabled:
            return NOOP_INSTRUMENT  # type: ignore[return-value]
        items = self._label_items(labels)
        return self._get_or_create(instrument_key(name, items), lambda: Counter(name, items))

    def gauge(self, name: str, **labels: str) -> Gauge:
        if not self._enabled:
            return NOOP_INSTRUMENT  # type: ignore[return-value]
        items = self._label_items(labels)
        return self._get_or_create(instrument_key(name, items), lambda: Gauge(name, items))

    def histogram(self, name: str, boundaries: Sequence[float], **labels: str) -> Histogram:
        if not self._enabled:
            return NOOP_INSTRUMENT  # type: ignore[return-value]
        items = self._label_items(labels)
        return self._get_or_create(
            instrument_key(name, items), lambda: Histogram(name, boundaries, items)
        )

    def timer(self, name: str, **labels: str) -> Timer:
        if not self._enabled:
            return NOOP_INSTRUMENT  # type: ignore[return-value]
        items = self._label_items(labels)
        return self._get_or_create(instrument_key(name, items), lambda: Timer(name, items))

    def scope(self, prefix: str) -> Scope:
        return Scope(self, prefix)

    # ------------------------------------------------------------------
    # Introspection

    def instruments(self, prefix: str = "") -> Iterator[Tuple[str, object]]:
        """All ``(flat key, instrument)`` pairs, sorted, optionally filtered
        by dotted-name prefix."""
        for key in sorted(self._instruments):
            if prefix and not key.startswith(prefix):
                continue
            yield key, self._instruments[key]

    def value_of(self, name: str, **labels: str) -> Optional[float]:
        """The current value of a counter/gauge by name+labels (``None`` if
        the instrument does not exist)."""
        key = instrument_key(name, self._label_items(labels))
        instrument = self._instruments.get(key)
        return getattr(instrument, "value", None) if instrument is not None else None

    def snapshot(self, prefix: str = "") -> Dict[str, Dict[str, Any]]:
        """A JSON-ready flat dict: ``{flat key: {type, value/...}}``."""
        return {
            key: instrument.snapshot_value()  # type: ignore[attr-defined]
            for key, instrument in self.instruments(prefix)
        }

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:
        state = "enabled" if self._enabled else "disabled"
        return f"MetricsRegistry({state}, {len(self._instruments)} instruments)"


def diff_snapshots(
    before: Dict[str, Dict[str, Any]], after: Dict[str, Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """What ``after`` added relative to ``before``.

    Counters, histogram/timer counts and sums subtract; gauges keep the
    ``after`` value (a gauge is a level, not a flow); instruments absent
    from ``before`` pass through unchanged.  Bucket lists subtract
    per-bucket (boundaries are fixed at creation, so they always align).
    """
    result: Dict[str, Dict[str, Any]] = {}
    for key, entry in after.items():
        previous = before.get(key)
        if previous is None or previous.get("type") != entry.get("type"):
            result[key] = dict(entry)
            continue
        kind = entry.get("type")
        if kind in ("counter",):
            delta = entry["value"] - previous["value"]
            if delta:
                result[key] = {"type": kind, "value": delta}
        elif kind == "gauge":
            result[key] = dict(entry)
        elif kind in ("histogram", "timer"):
            count_delta = entry["count"] - previous["count"]
            if not count_delta:
                continue
            previous_buckets = {str(b): c for b, c in previous["buckets"]}
            result[key] = {
                "type": kind,
                "count": count_delta,
                "sum": entry["sum"] - previous["sum"],
                "min": entry["min"],
                "max": entry["max"],
                "buckets": [
                    [boundary, count - previous_buckets.get(str(boundary), 0)]
                    for boundary, count in entry["buckets"]
                ],
            }
        else:  # unknown types pass through verbatim
            result[key] = dict(entry)
    return result


# ----------------------------------------------------------------------
# The process-global default registry.
#
# Disabled by default: library code instruments itself unconditionally, and
# only pays when an entry point (``--metrics-out``, the benchmark suite)
# turns the registry on *before* the instrumented objects are constructed.

_default_registry = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-global default registry (disabled until configured)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global default (tests use this for isolation); returns the
    previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def configure(*, enabled: bool, reset: bool = False) -> MetricsRegistry:
    """Enable or disable the global registry (optionally clearing it)."""
    registry = get_registry()
    if reset:
        registry.reset()
    if enabled:
        registry.enable()
    else:
        registry.disable()
    return registry
