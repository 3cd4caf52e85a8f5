"""Wiring brokers, links, clients and a protocol into one simulation.

:class:`NetworkSimulation` owns the event engine, one :class:`SimBroker` per
topology broker, the link model (each transmit schedules an arrival after the
link's hop delay), delivery recording, and a periodic queue-length sampler
(for overload detection).  Publishers are attached with
:meth:`add_poisson_publisher` / :meth:`add_bursty_publisher`; then
:meth:`run` drives the clock and returns a
:class:`~repro.sim.metrics.SimulationResult`.

Counting goes through a per-run :class:`~repro.obs.MetricsRegistry` (always
enabled — these counters *are* the experiment's data, unlike the optional
global registry): events published, messages and bytes per link, deliveries
and their latency histogram, queue-depth samples.  The registry snapshot
rides on the returned result (:meth:`SimulationResult.counter_snapshot`),
which is what ``BENCH_*.json`` artifacts embed.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.matching.events import Event
from repro.obs import Counter, MetricsRegistry
from repro.protocols.base import RoutingProtocol, SimMessage
from repro.sim.brokers import SimBroker
from repro.sim.clients import BurstyPublisher, EventFactory, PoissonPublisher
from repro.sim.cost import DEFAULT_COST_MODEL, CostModel
from repro.sim.engine import Simulator, ms_to_ticks, seconds_to_ticks
from repro.sim.faults import FaultCoordinator, FaultPlan
from repro.sim.metrics import DeliveryRecord, SimulationResult
from repro.matching.predicates import Subscription
from repro.network.topology import NodeKind, Topology

#: Delivery-latency histogram boundaries (milliseconds).
LATENCY_BUCKETS_MS = (0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000)

#: Queue-depth histogram boundaries (messages waiting at sample time).
QUEUE_DEPTH_BUCKETS = (0, 1, 2, 5, 10, 20, 50, 100, 200, 500)


class NetworkSimulation:
    """A timed run of one protocol over one topology (see module docstring)."""

    def __init__(
        self,
        topology: Topology,
        protocol: RoutingProtocol,
        *,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        seed: int = 0,
        queue_sample_interval_ms: float = 50.0,
        registry: Optional[MetricsRegistry] = None,
        fault_plan: Optional[FaultPlan] = None,
        repair_delay_ms: float = 5.0,
        annotation_lag_ms: float = 0.0,
    ) -> None:
        topology.validate()
        self.topology = topology
        self.protocol = protocol
        self.cost_model = cost_model
        self.simulator = Simulator()
        self.rng = random.Random(seed)
        #: The run's own always-enabled registry (pass one in to share).
        self.registry = registry if registry is not None else MetricsRegistry(enabled=True)
        self._obs = self.registry.scope("sim")
        self._obs_published = self._obs.counter("events.published")
        self._obs_deliveries = self._obs.counter("deliveries.total")
        self._obs_matched = self._obs.counter("deliveries.matched")
        self._obs_latency = self._obs.histogram("delivery.latency_ms", LATENCY_BUCKETS_MS)
        self._obs_queue_depth = self._obs.histogram("broker.queue_depth", QUEUE_DEPTH_BUCKETS)
        # Per-link counters by (src, dst), fetched once per link.
        self._link_counters: Dict[Tuple[str, str], Tuple[Counter, Counter]] = {}
        # Without a fault plan the topology cannot change during the run, so
        # each link's delay in ticks is resolved once, and a broker-broker
        # link's with its counters and the target's receive.  A faulted run
        # caches neither: every hop reads the link it crosses.
        self._delays: Dict[Tuple[str, str], int] = {}
        self._hops: Dict[Tuple[str, str], Tuple[int, Counter, Counter, Callable]] = {}
        self.brokers: Dict[str, SimBroker] = {
            name: SimBroker(self.simulator, name, protocol, cost_model, self)
            for name in topology.brokers()
        }
        self.deliveries: List[DeliveryRecord] = []
        self._publishers: List[object] = []
        self._sample_interval_ticks = max(1, ms_to_ticks(queue_sample_interval_ms))
        self._sampling = False
        self._abort_queue_threshold: Optional[int] = None
        self._aborted_overloaded = False
        #: Fault injection (failures, repairs, replay).  ``None`` keeps the
        #: healthy fast path byte-for-byte; pass an empty FaultPlan to arm
        #: the invariant bookkeeping without injecting anything.
        self.faults: Optional[FaultCoordinator] = None
        if fault_plan is not None:
            self.faults = FaultCoordinator(
                self,
                fault_plan,
                repair_delay_ms=repair_delay_ms,
                annotation_lag_ms=annotation_lag_ms,
            )

    # ------------------------------------------------------------------
    # Wiring used by brokers and clients

    def publish(self, publisher: str, event: Event) -> None:
        """Inject an event from a publisher client (crosses its client link,
        then joins the broker's input queue)."""
        node = self.topology.node(publisher)
        if node.kind is not NodeKind.PUBLISHER:
            raise SimulationError(f"{publisher!r} is not a publisher client")
        broker = self.topology.broker_of(publisher)
        message = self.protocol.make_message(
            event, broker, publish_time_ticks=self.simulator.now
        )
        self._obs_published.inc()
        if self.faults is not None:
            if not self.faults.on_publish(publisher, broker, message):
                return  # parked until the broker recovers
            arrival = partial(self._guarded_arrival, broker, message)
        else:
            arrival = partial(self.brokers[broker].receive, message)
        self.simulator.schedule(self._delay_ticks(publisher, broker), arrival)

    def _delay_ticks(self, a: str, b: str) -> int:
        """The hop delay of the ``a``-``b`` link in ticks (memoised while no
        fault plan can change it)."""
        if self.faults is not None:
            return ms_to_ticks(self.topology.link_between(a, b).latency_ms)
        delay = self._delays.get((a, b))
        if delay is None:
            delay = self._delays[(a, b)] = ms_to_ticks(self.topology.link_between(a, b).latency_ms)
        return delay

    @property
    def published_events(self) -> int:
        return self._obs_published.value

    @property
    def link_messages(self) -> Dict[Tuple[str, str], int]:
        """Messages carried per broker-broker link (counter-backed view)."""
        return {key: pair[0].value for key, pair in self._link_counters.items()}

    @property
    def link_bytes(self) -> Dict[Tuple[str, str], int]:
        """Bytes carried per broker-broker link (counter-backed view)."""
        return {key: pair[1].value for key, pair in self._link_counters.items()}

    def transmit(self, source: str, target: str, message: SimMessage) -> None:
        """Send a message over the broker-broker link (adds hop delay)."""
        hop = self._hops.get((source, target))
        if hop is None:
            if self.faults is not None and not self.faults.on_transmit(source, target, message):
                return  # parked at the failure boundary, replayed after repair
            hop = self._resolve_hop(source, target)
        delay, messages, size, arrive = hop
        messages.inc()
        size.inc(message.wire_size_bytes)
        self.simulator.schedule(delay, partial(arrive, message))

    def _resolve_hop(self, source: str, target: str) -> Tuple[int, Counter, Counter, Callable]:
        """The link's delay, its two counters and what a copy's arrival
        calls; kept in ``_hops`` only while no fault plan can change them."""
        delay = self._delay_ticks(source, target)
        counters = self._link_counters.get((source, target))
        if counters is None:
            counters = self._link_counters[(source, target)] = (
                self._obs.counter("link.messages", src=source, dst=target),
                self._obs.counter("link.bytes", src=source, dst=target),
            )
        if self.faults is not None:
            return (delay, *counters, partial(self._guarded_link_arrival, source, target))
        hop = self._hops[(source, target)] = (delay, *counters, self.brokers[target].receive)
        return hop

    def _guarded_arrival(self, broker: str, message: SimMessage) -> None:
        """Arrival of a publisher injection under fault injection."""
        assert self.faults is not None
        if self.faults.is_broker_down(broker):
            self.faults.on_arrival_lost(message)
            return
        self.brokers[broker].receive(message)

    def _guarded_link_arrival(self, source: str, target: str, message: SimMessage) -> None:
        """Arrival over a broker-broker link under fault injection: a copy
        in flight when the link or target died is lost (and replayed from
        the sender's log after repair)."""
        assert self.faults is not None
        if self.faults.is_broker_down(target) or not self.topology.has_link(source, target):
            self.faults.on_arrival_lost(message)
            return
        self.brokers[target].receive(message)

    def deliver(self, broker: str, client: str, message: SimMessage, *, matched: bool) -> None:
        """Send the event over the client link and record its arrival."""
        delay = self._delay_ticks(broker, client)
        delivery = DeliveryRecord(
            client,
            message.event.event_id,
            message.publish_time_ticks,
            self.simulator.now + delay,
            matched,
            message.hop,
        )
        self.simulator.schedule(delay, partial(self._record, delivery))

    def _record(self, delivery: DeliveryRecord) -> None:
        self.deliveries.append(delivery)
        self._obs_deliveries.inc()
        if delivery.matched:
            self._obs_matched.inc()
        self._obs_latency.observe(delivery.latency_ms)

    # ------------------------------------------------------------------
    # Publisher attachment

    def add_poisson_publisher(
        self,
        publisher: str,
        rate_per_second: float,
        event_factory: EventFactory,
        num_events: int,
        *,
        start_after_s: float = 0.0,
    ) -> PoissonPublisher:
        process = PoissonPublisher(
            self.simulator,
            self,
            publisher,
            rate_per_second,
            event_factory,
            num_events,
            random.Random(self.rng.randrange(2**63)),
            start_after_s=start_after_s,
        )
        self._publishers.append(process)
        return process

    def add_bursty_publisher(
        self,
        publisher: str,
        rate_per_second: float,
        event_factory: EventFactory,
        num_events: int,
        *,
        burstiness: float = 5.0,
        on_mean_s: float = 0.2,
    ) -> BurstyPublisher:
        process = BurstyPublisher(
            self.simulator,
            self,
            publisher,
            rate_per_second,
            event_factory,
            num_events,
            random.Random(self.rng.randrange(2**63)),
            burstiness=burstiness,
            on_mean_s=on_mean_s,
        )
        self._publishers.append(process)
        return process

    def add_subscription_at(self, at_s: float, subscription: Subscription) -> None:
        """Register a subscription mid-run (thundering herds, late joiners).

        Under fault injection the coordinator defers the insert while a
        repair is pending, so the subscription indexes against settled
        routing state; the invariant checker only expects it for events
        published after it was actually indexed."""

        def apply() -> None:
            if self.faults is not None:
                self.faults.add_subscription(subscription)
            else:
                self.protocol.add_subscription(subscription)

        self.simulator.schedule_at(seconds_to_ticks(at_s), apply)

    # ------------------------------------------------------------------
    # Running

    def _sample_queues(self) -> None:
        for broker in self.brokers.values():
            broker.stats.record_queue(self.simulator.now, broker.queue_length)
            self._obs_queue_depth.observe(broker.queue_length)
            if (
                self._abort_queue_threshold is not None
                and broker.queue_length > self._abort_queue_threshold
            ):
                # The queue is far beyond anything a stable network shows:
                # declare overload and stop burning CPU on a doomed run.
                self._aborted_overloaded = True
                self.simulator.request_stop()
        if self._sampling:
            self.simulator.schedule(self._sample_interval_ticks, self._sample_queues)

    def run(
        self,
        *,
        max_seconds: Optional[float] = None,
        drain: bool = True,
        abort_on_queue: Optional[int] = None,
    ) -> SimulationResult:
        """Run the simulation.

        With ``max_seconds`` the clock is capped (an overloaded network never
        drains, so saturation probes must cap); ``drain=False`` stops exactly
        at the cap even if messages remain queued.  Without a cap the run
        ends when all traffic has drained.  ``abort_on_queue`` ends the run
        (marking the result overloaded) as soon as any broker's input queue
        exceeds the given length — the fast path for saturation probes.
        """
        self._abort_queue_threshold = abort_on_queue
        self._sampling = True
        self._sample_queues()
        if max_seconds is not None:
            horizon = seconds_to_ticks(max_seconds)
            self.simulator.run(until_ticks=horizon)
            self._sampling = False
            if drain and not any(b.queue for b in self.brokers.values()):
                # Let in-flight messages finish when nothing is backlogged.
                self.simulator.run()
        else:
            self._sampling = False
            self.simulator.run()
            # One final sample so overload detection sees the drained state.
            for broker in self.brokers.values():
                broker.stats.record_queue(self.simulator.now, broker.queue_length)
        for broker in self.brokers.values():
            broker.sync_counters()
        return SimulationResult(
            elapsed_ticks=self.simulator.now,
            broker_stats={name: b.stats for name, b in self.brokers.items()},
            link_messages=dict(self.link_messages),
            link_bytes=dict(self.link_bytes),
            deliveries=list(self.deliveries),
            published_events=self.published_events,
            aborted_overloaded=self._aborted_overloaded,
            metrics=self.registry.snapshot(),
        )

    def __repr__(self) -> str:
        return (
            f"NetworkSimulation({self.protocol.name}, {len(self.brokers)} brokers, "
            f"now={self.simulator.now})"
        )
