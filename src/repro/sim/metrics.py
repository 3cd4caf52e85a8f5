"""Per-broker, per-link and per-delivery statistics for simulation runs.

The quantity Chart 1 turns on is *overload*: "a broker is overloaded when
its input message queue is growing at a rate higher than the broker
processor can handle."  :class:`BrokerStats` keeps periodic queue-length
samples plus utilization, and :meth:`BrokerStats.is_overloaded` implements
the paper's criterion: sustained queue growth over the second half of the
run combined with a saturated processor.

Counting itself lives in the run's :mod:`repro.obs` registry (see
:mod:`repro.sim.runner`); :class:`BrokerStats` remains the overload-criterion
state — plain assignable integers, exported into the registry by
:meth:`~repro.sim.brokers.SimBroker.sync_counters` when a run takes its
snapshot — and :class:`SimulationResult` carries the registry snapshot
(:meth:`SimulationResult.counter_snapshot`) for export.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.sim.engine import TICK_US, ticks_to_seconds


class BrokerStats:
    """Counters for one simulated broker."""

    __slots__ = (
        "name",
        "arrivals",
        "processed",
        "busy_ticks",
        "matching_steps",
        "messages_sent",
        "queue_samples",
        "max_queue",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.arrivals = 0
        self.processed = 0
        self.busy_ticks = 0
        self.matching_steps = 0
        self.messages_sent = 0
        self.queue_samples: List[Tuple[int, int]] = []
        self.max_queue = 0

    def record_queue(self, now_ticks: int, length: int) -> None:
        self.queue_samples.append((now_ticks, length))
        if length > self.max_queue:
            self.max_queue = length

    def utilization(self, elapsed_ticks: int) -> float:
        """Fraction of the run the broker's processor was busy."""
        if elapsed_ticks <= 0:
            return 0.0
        return self.busy_ticks / elapsed_ticks

    def is_overloaded(
        self,
        elapsed_ticks: int,
        *,
        queue_threshold: int = 20,
        utilization_threshold: float = 0.95,
    ) -> bool:
        """The paper's overload criterion, made operational.

        Overloaded means the processor is effectively saturated *and* the
        input queue kept growing: the mean queue length over the last third
        of the run exceeds both ``queue_threshold`` and 1.5x the mean over
        the middle third (a queue growing linearly from empty shows a
        tail-to-middle ratio of ~1.67; a stable queue shows ~1.0).
        """
        if self.utilization(elapsed_ticks) < utilization_threshold:
            return False
        if not self.queue_samples:
            return self.max_queue > queue_threshold
        third = max(1, len(self.queue_samples) // 3)
        middle = self.queue_samples[third : 2 * third] or self.queue_samples[:third]
        tail = self.queue_samples[2 * third :] or self.queue_samples[-1:]
        mean_middle = sum(length for _t, length in middle) / len(middle)
        mean_tail = sum(length for _t, length in tail) / len(tail)
        return mean_tail > queue_threshold and mean_tail > 1.5 * max(mean_middle, 1.0)

    def __repr__(self) -> str:
        return (
            f"BrokerStats({self.name!r}, arrivals={self.arrivals}, "
            f"processed={self.processed}, max_queue={self.max_queue})"
        )


class DeliveryRecord:
    """One event handed to one client."""

    __slots__ = (
        "client",
        "event_id",
        "publish_time_ticks",
        "delivery_time_ticks",
        "matched",
        "hop",
    )

    def __init__(
        self,
        client: str,
        event_id: int,
        publish_time_ticks: int,
        delivery_time_ticks: int,
        matched: bool,
        hop: int,
    ) -> None:
        self.client = client
        self.event_id = event_id
        self.publish_time_ticks = publish_time_ticks
        self.delivery_time_ticks = delivery_time_ticks
        self.matched = matched
        self.hop = hop

    @property
    def latency_ticks(self) -> int:
        return self.delivery_time_ticks - self.publish_time_ticks

    @property
    def latency_ms(self) -> float:
        return self.latency_ticks * TICK_US / 1000.0

    def __repr__(self) -> str:
        return (
            f"DeliveryRecord({self.client!r}, event #{self.event_id}, "
            f"{self.latency_ms:.2f} ms, matched={self.matched})"
        )


class SimulationResult:
    """Everything a run produced, with the roll-ups experiments need."""

    def __init__(
        self,
        *,
        elapsed_ticks: int,
        broker_stats: Dict[str, BrokerStats],
        link_messages: Dict[Tuple[str, str], int],
        deliveries: List[DeliveryRecord],
        published_events: int,
        aborted_overloaded: bool = False,
        link_bytes: Optional[Dict[Tuple[str, str], int]] = None,
        metrics: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> None:
        self.elapsed_ticks = elapsed_ticks
        self.broker_stats = broker_stats
        self.link_messages = link_messages
        self.link_bytes = link_bytes if link_bytes is not None else {}
        self.deliveries = deliveries
        self.published_events = published_events
        self.aborted_overloaded = aborted_overloaded
        self._metrics = metrics if metrics is not None else {}

    def counter_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """The run's :mod:`repro.obs` registry snapshot — per-link message
        and byte counters, per-broker arrival/processing counters, the
        delivery-latency and queue-depth histograms.  This is the
        machine-readable block ``BENCH_*.json`` artifacts embed; empty when
        the result was built by hand (unit tests)."""
        return dict(self._metrics)

    @property
    def elapsed_seconds(self) -> float:
        return ticks_to_seconds(self.elapsed_ticks)

    def overloaded_brokers(
        self, *, queue_threshold: int = 20, utilization_threshold: float = 0.95
    ) -> List[str]:
        return sorted(
            name
            for name, stats in self.broker_stats.items()
            if stats.is_overloaded(
                self.elapsed_ticks,
                queue_threshold=queue_threshold,
                utilization_threshold=utilization_threshold,
            )
        )

    @property
    def is_overloaded(self) -> bool:
        """Whether the run aborted on runaway queues or any broker met the
        overload criterion."""
        return self.aborted_overloaded or bool(self.overloaded_brokers())

    @property
    def total_broker_messages(self) -> int:
        """Messages processed across all brokers (network load proxy)."""
        return sum(stats.processed for stats in self.broker_stats.values())

    @property
    def total_link_messages(self) -> int:
        return sum(self.link_messages.values())

    @property
    def total_link_bytes(self) -> int:
        """Bytes carried over broker-broker links (header growth included —
        this is where match-first's destination lists cost shows)."""
        return sum(self.link_bytes.values())

    @property
    def matched_deliveries(self) -> List[DeliveryRecord]:
        return [d for d in self.deliveries if d.matched]

    @property
    def wasted_deliveries(self) -> int:
        """Deliveries the client filtered out (pure flooding's waste)."""
        return sum(1 for d in self.deliveries if not d.matched)

    def mean_latency_ms(self, *, matched_only: bool = True) -> Optional[float]:
        records = self.matched_deliveries if matched_only else self.deliveries
        if not records:
            return None
        return sum(r.latency_ms for r in records) / len(records)

    def latency_percentile_ms(
        self, percentile: float, *, matched_only: bool = True
    ) -> Optional[float]:
        """Delivery-latency percentile (nearest-rank), e.g. ``99`` for p99."""
        if not 0 < percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        records = self.matched_deliveries if matched_only else self.deliveries
        if not records:
            return None
        ordered = sorted(r.latency_ms for r in records)
        rank = max(0, -(-len(ordered) * percentile // 100) - 1)  # ceil - 1
        return ordered[int(rank)]

    def latency_summary_ms(self) -> Dict[str, float]:
        """p50/p95/p99/max of matched-delivery latency (empty dict if none)."""
        if not self.matched_deliveries:
            return {}
        return {
            "p50": self.latency_percentile_ms(50),
            "p95": self.latency_percentile_ms(95),
            "p99": self.latency_percentile_ms(99),
            "max": max(r.latency_ms for r in self.matched_deliveries),
        }

    def __repr__(self) -> str:
        return (
            f"SimulationResult({self.published_events} events, "
            f"{len(self.deliveries)} deliveries, "
            f"{self.elapsed_seconds:.3f}s simulated, "
            f"overloaded={self.overloaded_brokers()!r})"
        )
