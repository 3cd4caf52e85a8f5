"""The five workloads (README.md says why each exists and what it cannot show).

Every workload has the same life: ``setup()`` (timed by the caller —
``setup_s``), ``prepare()`` (untimed: the oracle's table), ``measure()``
(repetitions against the clock; each draws a fresh slice of the seeded event
stream, because replaying a sample would let the result caches serve the run
from memory) and ``teardown()``.  With a tracer, part of the time budget runs
traced — the first traced repetition right after warm-up, so its counts are
a pure function of the seed — then the wrappers are removed and the rest
runs untraced, which gives the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import statistics
from collections import deque
from time import perf_counter
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.matching.events import Event
from repro.matching.predicates import Predicate
from repro.network.figures import figure6_topology
from repro.obs import diff_snapshots, get_registry
from repro.protocols.base import ProtocolContext
from repro.protocols.link_matching import LinkMatchingProtocol
from repro.sim.metrics import SimulationResult
from repro.sim.runner import NetworkSimulation
from repro.sim.saturation import find_saturation_rate
from repro.workload.generators import (
    EventGenerator,
    SubscriptionGenerator,
    figure6_region_of,
)
from repro.workload.spec import CHART1_SPEC, WorkloadSpec

from benchmarks.e2e import metrics as names
from benchmarks.e2e.harness import OUT_DIR, Measurement, percentile
from benchmarks.e2e.oracle import OracleError, SubscriptionTable, check_sequences
from benchmarks.e2e.prototype import PUBLISHER, BrokerNet, Inbox, chain_topology
from benchmarks.e2e.trace import (
    Row,
    Span,
    Tracer,
    budget,
    check_call_counts,
    first_route_after_churn,
    format_budget,
)

Rows = Dict[str, Row]
#: The standing subscription set is part of a workload's definition, like its
#: topology: drawn from this fixed seed, not from ``--seed`` (which draws the
#: events, the churn subscriptions and the simulator's publisher processes).
#: Re-drawing 1 000 Zipf subscriptions per seed moved deliveries per event —
#: and with it every rate — by several percent between seeds: a property of
#: the input, not of the program.
POPULATION_SEED = 1999
#: ``phase(traced, record) -> seconds of the timed region``.
Phase = Callable[[bool, bool], float]
#: Spans of the first traced repetition kept in ``out/trace_<workload>.json``.
MAX_DUMPED_SPANS = 50_000
_ZERO = Row(0, 0.0, 0.0)


def _merge_rows(into: Rows, rows: Rows) -> None:
    for name, row in rows.items():
        old = into.get(name, _ZERO)
        into[name] = Row(
            old.calls + row.calls, old.total_s + row.total_s, old.self_s + row.self_s
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Workload:
    """Common state and the traced/untraced split of the time budget."""

    name = ""
    #: Set-ups per run (their mean is reported): the run's own plus this many
    #: minus one in child processes; 1 where a set-up takes seconds, which
    #: is long enough to average over the box's changes of speed by itself.
    setup_repeats = 1
    #: Run one unrecorded repetition before each phase.
    discard_first = False

    def __init__(self, seed: int, quick: bool, tracer: Optional[Tracer]) -> None:
        self.seed = seed
        self.tracer = tracer
        self.result = Measurement()
        # Budget rows of: set-up and traced repetitions / traced repetitions
        # only / the first traced repetition.
        self.rows_all: Rows = {}
        self.rows_reps: Rows = {}
        self.rows_first: Optional[Rows] = None
        self.obs_first: Dict[str, Dict[str, Any]] = {}
        self.counters_first: Dict[str, float] = {}
        self.traced_wall_s = 0.0
        self.traced_events = 0
        self.traced_messages = 0
        self.churn_routes: List[float] = []

    def derived_seed(self, stream: int) -> int:
        return self.seed * 7919 + stream

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work between set-up and measurement."""

    def teardown(self) -> None:
        raise NotImplementedError

    def phases(self) -> List[Phase]:
        """The measured phases; the time budget is split evenly, and only the
        first is also run traced."""
        raise NotImplementedError

    def measure(self, seconds: float) -> Measurement:
        phases = self.phases()
        if self.tracer is None:
            share = seconds / len(phases)
        else:
            share = seconds / (len(phases) + 1)
            self._repeat(phases[0], share, traced=True)
            self.tracer.uninstall()
        for phase in phases:
            self._repeat(phase, share, traced=False)
        if self.tracer is not None:
            self._layer_metrics()
        return self.result

    def _repeat(self, phase: Phase, seconds: float, traced: bool) -> None:
        if self.discard_first:
            phase(False, False)
        # At least three repetitions, so a slow box still gets a median.
        spent, repetitions = 0.0, 0
        while repetitions < 3 or spent < seconds:
            spent += phase(traced, True)
            repetitions += 1

    # ------------------------------------------------------------------
    # Tracing support

    def fold_setup_spans(self) -> None:
        """Fold set-up spans into the totals (called at quiescent points so
        the span lists never hold more than a slice of set-up)."""
        if self.tracer is not None:
            _merge_rows(self.rows_all, budget(self.tracer.drain()))

    def start_tracing(self) -> Dict[str, Dict[str, Any]]:
        assert self.tracer is not None
        self.tracer.reset_counters()
        snapshot = get_registry().snapshot() if self.rows_first is None else {}
        self.tracer.active = True
        return snapshot

    def stop_tracing(
        self,
        before: Dict[str, Dict[str, Any]],
        wall_s: float,
        events: int,
        expected_calls: Dict[str, int],
        messages: int = 0,
    ) -> None:
        tracer = self.tracer
        assert tracer is not None
        tracer.quiesce()
        spans = tracer.drain()
        rows = budget(spans)
        self.result.problems += check_call_counts(rows, expected_calls)
        _merge_rows(self.rows_all, rows)
        _merge_rows(self.rows_reps, rows)
        self.traced_wall_s += wall_s
        self.traced_events += events
        self.traced_messages += messages
        self.churn_routes += first_route_after_churn(spans)
        self.result.add_rate("traced_events_per_s", events, wall_s)
        if self.rows_first is not None:
            return
        self.rows_first = rows
        self.obs_first = diff_snapshots(before, get_registry().snapshot())
        self.counters_first = {
            "events": events,
            "messages": tracer.messages_sent,
            "bytes": tracer.bytes_sent,
            "queue_depth_max": tracer.queue_depth_max,
            "forwarded_events": tracer.forwarded_events,
            "digest_bytes": tracer.digest_bytes,
            "transit_us": _ratio(tracer.transit_total_s * 1e6, tracer.transit_count),
        }
        self._dump_spans(spans)

    def _dump_spans(self, spans: Sequence[Span]) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        kept = spans[:MAX_DUMPED_SPANS]
        with open(os.path.join(OUT_DIR, f"trace_{self.name}.json"), "w") as handle:
            json.dump(
                {
                    "workload": self.name,
                    "seed": self.seed,
                    "repetition": "first traced",
                    "spans_recorded": len(spans),
                    "fields": list(Span._fields),
                    "spans": [list(span) for span in kept],
                },
                handle,
            )

    def _obs_sum(self, prefix: str) -> float:
        """Sum of the first traced repetition's counter deltas whose flat
        key starts with ``prefix`` (all label combinations)."""
        return sum(
            entry["value"]
            for key, entry in self.obs_first.items()
            if key.startswith(prefix) and entry.get("type") == "counter"
        )

    def _layer_metrics(self) -> None:
        """The per-layer metrics: times from spans pooled over the traced
        process (``*_us``: mean self time per call, set-up included;
        ``*_per_event`` / ``*_per_msg``: self time of the traced repetitions
        over their events / broker messages), counts and ratios from the
        first traced repetition."""
        out = self.result.values
        everything, reps, first = self.rows_all, self.rows_reps, self.rows_first or {}
        counters = self.counters_first
        events = counters.get("events", 0)

        def mean_self_us(name: str) -> float:
            row = everything.get(name, _ZERO)
            return _ratio(row.self_s * 1e6, row.calls)

        def self_us_per_event(name: str) -> float:
            return _ratio(reps.get(name, _ZERO).self_s * 1e6, self.traced_events)

        def calls_per_event(name: str) -> float:
            return _ratio(first.get(name, _ZERO).calls, events)

        delivery = everything.get("client.on_message", _ZERO)
        out["client.publish_us"] = mean_self_us("client.publish")
        out["client.deliver_us"] = _ratio(delivery.total_s * 1e6, delivery.calls)
        out["codec.encode_event_us"] = mean_self_us("codec.encode_event")
        out["codec.decode_event_us"] = mean_self_us("codec.decode_event")
        out["codec.decodes_per_event"] = calls_per_event("codec.decode_event")
        out["messages.encode_us"] = mean_self_us("messages.encode")
        out["messages.decode_us"] = mean_self_us("messages.decode")
        out["messages.encodes_per_event"] = calls_per_event("messages.encode")
        out["transport.send_us"] = mean_self_us("transport.send")
        out["transport.transit_us"] = counters.get("transit_us", 0.0)
        out["transport.msgs_per_event"] = _ratio(counters.get("messages", 0), events)
        out["transport.bytes_per_event"] = _ratio(counters.get("bytes", 0), events)
        out["transport.queue_depth_max"] = counters.get("queue_depth_max", 0)
        out["node.self_us_per_event"] = self_us_per_event("node.on_message")
        out["node.ingest_batch_mean"] = _ratio(
            self._obs_sum("broker.events_routed"), self._obs_sum("broker.ingest_batches")
        )
        out["node.coalesced_sends_per_event"] = _ratio(
            self._obs_sum("broker.coalesced_sends"), events
        )
        out["node.forwards_per_event"] = _ratio(self._obs_sum("router.forwards"), events)
        out["node.deliveries_per_event"] = _ratio(
            self._obs_sum("broker.events_delivered"), events
        )
        out["event_log.append_us"] = mean_self_us("event_log.append")
        out["event_log.ack_us"] = mean_self_us("event_log.ack")
        out["event_log.collect_us_per_event"] = self_us_per_event("event_log.collect")
        out["router.route_us_per_event"] = self_us_per_event("router.route")
        out["router.digest_consume_us"] = mean_self_us("router.route_with_digest")
        out["router.steps_per_event"] = _ratio(self._obs_sum("router.pst_node_visits"), events)
        out["router.add_subscription_us"] = mean_self_us("router.add_subscription")
        out["router.remove_subscription_us"] = mean_self_us("router.remove_subscription")
        out["router.route_after_churn_us"] = (
            statistics.fmean(self.churn_routes) * 1e6 if self.churn_routes else 0.0
        )
        out["engine.match_links_us_per_event"] = self_us_per_event("engine.match")
        out["engine.project_links_us"] = mean_self_us("engine.project_links")
        out["engine.recompiles"] = self._obs_sum("engine.compiled.recompiles")
        hits, misses = self._obs_sum("match.cache.hit"), self._obs_sum("match.cache.miss")
        out["engine.cache_hit_ratio"] = _ratio(hits, hits + misses)
        digest_hits = self._obs_sum("broker.digest_hits")
        digest_fallbacks = self._obs_sum("broker.digest_fallbacks")
        out["digest.hit_ratio"] = _ratio(digest_hits, digest_hits + digest_fallbacks)
        out["digest.bytes_per_forward"] = _ratio(
            counters.get("digest_bytes", 0), counters.get("forwarded_events", 0)
        )
        out["parser.parse_us"] = mean_self_us("parser.parse")
        out["protocol.handle_us_per_msg"] = _ratio(
            reps.get("protocol.handle", _ZERO).self_s * 1e6, self.traced_messages
        )
        out["sim.overhead_us_per_msg"] = _ratio(
            reps.get("sim.run", _ZERO).self_s * 1e6, self.traced_messages
        )
        for name in ("sim.steps_per_msg", "sim.msgs_per_event"):
            out.setdefault(name, 0.0)
        traced_rate = self.result.value_of("traced_events_per_s")
        untraced_rate = self.result.value_of("events_per_s")
        out["trace.overhead_ratio"] = (
            untraced_rate / traced_rate - 1 if traced_rate and untraced_rate else 0.0
        )
        covered = sum(row.self_s for row in reps.values())
        out["trace.coverage_ratio"] = _ratio(covered, self.traced_wall_s)
        self.result.report.append(
            f"time budget over the traced repetitions ({self.traced_events} events, "
            f"{self.traced_wall_s:.2f} s wall); spans are indented under their layer"
        )
        self.result.report.append(format_budget(reps, self.traced_wall_s, self.traced_events))


# ----------------------------------------------------------------------
# Prototype broker workloads

Expectation = Tuple[Dict[str, List[int]], int]


class PrototypeWorkload(Workload):
    """A broker chain, a standing subscription set, and a closed loop."""

    values = 5
    factoring = False
    subscribers_per_broker: Tuple[int, ...] = (10,)
    subscriptions = 1000
    quick_subscriptions = 100
    batch = 1
    rep_events = 1000
    quick_rep_events = 100
    warmup_events = 512
    tcp = False

    def __init__(self, seed: int, quick: bool, tracer: Optional[Tracer]) -> None:
        super().__init__(seed, quick, tracer)
        self.spec = WorkloadSpec(
            num_attributes=10,
            values_per_attribute=self.values,
            factoring_levels=2 if self.factoring else 0,
            locality_regions=1,
        )
        if quick:
            self.subscriptions = self.quick_subscriptions
            self.rep_events = self.quick_rep_events
            self.warmup_events = 64
        self.topology = chain_topology(self.subscribers_per_broker)
        self.net: Optional[BrokerNet] = None
        self.table: Optional[SubscriptionTable] = None
        self.registered: List[Tuple[int, str, Predicate]] = []
        self.events = EventGenerator(self.spec, seed=self.derived_seed(2))
        brokers = self.topology.brokers()
        self.broker_index = {
            client: brokers.index(self.topology.broker_of(client))
            for client in self.topology.subscribers()
        }

    # -- life cycle ------------------------------------------------------

    def setup(self) -> None:
        tracer = self.tracer
        wrap = None
        if tracer is not None:
            tracer.active = True

            def wrap(inbox: Inbox) -> Callable[[Event, int], None]:
                return tracer.wrap(inbox, "harness.on_event")

        net = self.net = BrokerNet(
            self.spec, self.topology, tcp=self.tcp, factoring=self.factoring, wrap_callback=wrap
        )
        generator = SubscriptionGenerator(self.spec, seed=POPULATION_SEED)
        clients = self.topology.subscribers()
        self.registered = []
        for index in range(self.subscriptions):
            client = clients[index % len(clients)]
            predicate = generator.predicate_for(client)
            self.registered.append((net.subscribe(client, predicate), client, predicate))
            if index % 512 == 511:
                self.fold_setup_spans()
        net.await_flood()
        # Warm-up: the first events pay lazy compilation and annotation.
        warmup = EventGenerator(self.spec, seed=self.derived_seed(3))
        events = [warmup.event_for(PUBLISHER) for _ in range(self.warmup_events)]
        if self.tcp:
            net.open_loop(events, 1000.0, clients[0], 0)
            net.await_quiescence()
        else:
            net.closed_loop(events, self.batch)
        if tracer is not None:
            tracer.active = False
            self.fold_setup_spans()

    def prepare(self) -> None:
        table = self.table = SubscriptionTable(
            self.spec.schema(), self.spec.domains(), self.topology.subscribers()
        )
        for subscription_id, client, predicate in self.registered:
            table.add(subscription_id, client, predicate)

    def teardown(self) -> None:
        if self.net is not None:
            self.net.stop()
            self.net = None
        self.table = None
        gc.collect()

    def phases(self) -> List[Phase]:
        return [self.closed_loop_repetition]

    # -- one repetition ----------------------------------------------------

    def fresh_events(self, count: int) -> List[Event]:
        return [self.events.event_for(PUBLISHER) for _ in range(count)]

    def expect(self, events: Sequence[Event]) -> Expectation:
        """Per client, the indices of the events it must receive, in order;
        and how many (broker, event) routings the chain performs: the
        publisher's broker routes every event, broker ``i`` routes those
        with a matching subscriber at or beyond it."""
        expected: Dict[str, List[int]] = {client: [] for client in self.broker_index}
        routings = sum(
            self.expect_one(index, event, expected) for index, event in enumerate(events)
        )
        return expected, routings

    def expect_one(self, index: int, event: Event, expected: Dict[str, List[int]]) -> int:
        """Note event ``index`` under every client it must reach (against
        the table as it stands); returns how many brokers route it."""
        assert self.table is not None
        clients = self.table.matching_clients(event)
        for client in clients:
            expected[client].append(index)
        return 1 + max((self.broker_index[client] for client in clients), default=0)

    def expected_calls(self, events: int, deliveries: int, routings: int) -> Dict[str, int]:
        calls = {
            "client.publish": math.ceil(events / self.batch),
            "codec.encode_event": events,
            "codec.decode_event": routings + deliveries,
            "event_log.append": deliveries,
            "event_log.ack": deliveries,
            "client.ack": deliveries,
            "client.on_message": deliveries,
            "harness.on_event": deliveries,
        }
        if not self.factoring:  # digests are on, and verify at every later hop
            calls["router.route_with_digest"] = routings - events
        return calls

    def closed_loop_repetition(self, traced: bool, record: bool) -> float:
        net = self.net
        assert net is not None
        events = self.fresh_events(self.rep_events)
        expectation = self.expect(events)
        return self.timed_repetition(
            events,
            lambda: net.closed_loop(events, self.batch),
            lambda: expectation,
            traced,
            record,
        )

    def timed_repetition(
        self,
        events: Sequence[Event],
        drive: Callable[[], List[float]],
        expectation: Callable[[], Expectation],
        traced: bool,
        record: bool,
        *,
        latency: bool = False,
        extra_calls: Optional[Dict[str, int]] = None,
    ) -> float:
        """Run ``drive`` (which publishes ``events`` and returns when each
        was due) between hygiene and the oracle's check.  A recorded
        repetition yields a rate, or — an open loop, ``latency`` — delivery
        latency percentiles."""
        net, result = self.net, self.result
        assert net is not None
        net.reset_between_repetitions()
        before = self.start_tracing() if traced else {}
        start = perf_counter()
        due = drive()
        # The repetition ends with the last subscriber callback.
        end = max(
            (inbox.stamps[-1] for inbox in net.inboxes.values() if inbox.stamps),
            default=perf_counter(),
        )
        wall = end - start
        expected, routings = expectation()
        # Nothing of this repetition may leak into the next one's spans.
        net.await_acks()
        if traced:
            deliveries = sum(len(indices) for indices in expected.values())
            calls = self.expected_calls(len(events), deliveries, routings)
            for name, extra in (extra_calls or {}).items():
                calls[name] = calls.get(name, 0) + extra
            self.stop_tracing(before, wall, len(events), calls)
        elif record and not latency:
            result.add_rate("events_per_s", len(events), wall)
        latencies = self.check(events, expected, due)
        if record and latency and not traced and latencies:
            result.add("latency_p50_ms", percentile(latencies, 50) * 1e3)
            result.add("latency_p90_ms", percentile(latencies, 90) * 1e3)
            result.add("e2e.latency_p99_ms", percentile(latencies, 99) * 1e3)
        return wall

    def check(
        self, events: Sequence[Event], expected: Dict[str, List[int]], due: Sequence[float]
    ) -> List[float]:
        """Every delivery against the oracle; returns the delivery latencies
        (from when each event was due), which only exist when each client
        received exactly what it had to."""
        net, table, result = self.net, self.table, self.result
        assert net is not None and table is not None
        tuples = [event.as_tuple() for event in events]
        failures = check_sequences(
            {client: [tuples[i] for i in indices] for client, indices in expected.items()},
            {
                client: [event.as_tuple() for _seq, event in subscriber.deliveries]
                for client, subscriber in net.subscribers.items()
            },
        )
        result.failures.merge(failures)
        try:
            table.cross_check(events)
        except OracleError as error:
            result.problems.append(str(error))
        if failures.failed:
            return []
        return [
            stamp - due[index]
            for client, indices in expected.items()
            for index, stamp in zip(indices, net.inboxes[client].stamps)
        ]


class FanoutMem(PrototypeWorkload):
    name = names.FANOUT
    setup_repeats = 3
    values = 5
    factoring = True  # the E4 configuration: FactoredMatcher, no digests
    subscribers_per_broker = (10,)
    subscriptions = 1000
    quick_subscriptions = 200
    rep_events = 4000
    quick_rep_events = 300


class ChainMem25k(PrototypeWorkload):
    name = names.CHAIN_25K
    values = 20
    subscribers_per_broker = (10, 10, 10, 10)
    subscriptions = 25000
    quick_subscriptions = 1000
    batch = 64
    rep_events = 1920
    quick_rep_events = 256


class ChurnMem(PrototypeWorkload):
    """Each cycle: one subscribe, one unsubscribe (the oldest of a FIFO of
    churn subscriptions), ten single publishes."""

    name = names.CHURN
    values = 5
    subscribers_per_broker = (10, 10)
    subscriptions = 5000
    quick_subscriptions = 500
    cycles = 40
    quick_cycles = 8
    publishes_per_cycle = 10
    fifo_depth = 50

    def __init__(self, seed: int, quick: bool, tracer: Optional[Tracer]) -> None:
        super().__init__(seed, quick, tracer)
        if quick:
            self.cycles = self.quick_cycles
        self.rep_events = self.cycles * self.publishes_per_cycle
        self.churn = SubscriptionGenerator(self.spec, seed=self.derived_seed(4))
        self.fifo: Deque[Tuple[int, str]] = deque()
        self.cycle = 0

    def next_churn(self) -> Tuple[str, Predicate]:
        clients = self.topology.subscribers()
        client = clients[self.cycle % len(clients)]
        self.cycle += 1
        return client, self.churn.predicate_for(client)

    def setup(self) -> None:
        super().setup()
        net = self.net
        assert net is not None
        self.fifo.clear()
        for _ in range(self.fifo_depth):
            client, predicate = self.next_churn()
            subscription_id = net.subscribe(client, predicate)
            self.fifo.append((subscription_id, client))
            self.registered.append((subscription_id, client, predicate))
        net.await_flood()

    def phases(self) -> List[Phase]:
        return [self.churn_repetition]

    def expected_calls(self, events: int, deliveries: int, routings: int) -> Dict[str, int]:
        calls = super().expected_calls(events, deliveries, routings)
        # Whether a digest still verifies downstream after a churn op is
        # what digest.hit_ratio measures, not something to predict.
        del calls["router.route_with_digest"]
        return calls

    def churn_repetition(self, traced: bool, record: bool) -> float:
        net, table = self.net, self.table
        assert net is not None and table is not None
        events = self.fresh_events(self.rep_events)
        schedule = [self.next_churn() for _ in range(self.cycles)]
        per_cycle = self.publishes_per_cycle
        subscribe_s: List[float] = []
        # (added id, removed id) per cycle, for the oracle's replay.
        churned: List[Tuple[int, int]] = []

        def drive() -> List[float]:
            publish, pump = net.publisher.publish, net.transport.pump
            due: List[float] = []
            for cycle, (client, predicate) in enumerate(schedule):
                began = perf_counter()
                added = net.subscribe(client, predicate)
                subscribe_s.append(perf_counter() - began)
                self.fifo.append((added, client))
                removed, owner = self.fifo.popleft()
                net.unsubscribe(owner, removed)
                churned.append((added, removed))
                for event in events[cycle * per_cycle : (cycle + 1) * per_cycle]:
                    due.append(perf_counter())
                    publish(event)
                    pump()
            return due

        def replay() -> Expectation:
            # Subscription ids are assigned by the broker, so the oracle
            # follows the schedule after the fact — exact, because the
            # in-memory hub is synchronous: every publish sees all earlier
            # churn and none of the later.
            expected: Dict[str, List[int]] = {client: [] for client in self.broker_index}
            routings = 0
            for cycle, (client, predicate) in enumerate(schedule):
                added, removed = churned[cycle]
                table.add(added, client, predicate)
                table.remove(removed)
                for index in range(cycle * per_cycle, (cycle + 1) * per_cycle):
                    routings += self.expect_one(index, events[index], expected)
            return expected, routings

        brokers = len(self.topology.brokers())
        wall = self.timed_repetition(
            events,
            drive,
            replay,
            traced,
            record,
            extra_calls={
                "client.request": 2 * self.cycles,
                "client.on_message": 2 * self.cycles,  # SUBACK + UNSUBACK
                "parser.parse": self.cycles * brokers,
                "router.add_subscription": self.cycles * brokers,
                "router.remove_subscription": self.cycles * brokers,
            },
        )
        if record and not traced:
            self.result.add("subscribe_p50_ms", percentile(subscribe_s, 50) * 1e3)
        return wall


class ChainTcp(PrototypeWorkload):
    """Phase A: closed loop with a window of expected deliveries (rate).
    Phase B: open loop at a fixed rate well under that capacity (latency)."""

    name = names.CHAIN_TCP
    discard_first = True
    tcp = True
    values = 20
    subscribers_per_broker = (0, 0, 1)
    subscriptions = 3000
    quick_subscriptions = 300
    rep_events = 2000
    quick_rep_events = 400
    window = 32
    open_rate = 600.0
    open_seconds = 1.5
    quick_open_seconds = 0.2

    def __init__(self, seed: int, quick: bool, tracer: Optional[Tracer]) -> None:
        super().__init__(seed, quick, tracer)
        if quick:
            self.open_seconds = self.quick_open_seconds
        (self.subscriber,) = self.topology.subscribers()

    def phases(self) -> List[Phase]:
        return [self.windowed_repetition, self.open_loop_repetition]

    def windowed_repetition(self, traced: bool, record: bool) -> float:
        net = self.net
        assert net is not None
        events = self.fresh_events(self.rep_events)
        expected, routings = self.expect(events)
        reaches = set(expected[self.subscriber])
        delivered = [index in reaches for index in range(len(events))]
        return self.timed_repetition(
            events,
            lambda: net.windowed_loop(events, delivered, self.subscriber, self.window),
            lambda: (expected, routings),
            traced,
            record,
        )

    def open_loop_repetition(self, traced: bool, record: bool) -> float:
        net, result = self.net, self.result
        assert net is not None
        events = self.fresh_events(int(self.open_rate * self.open_seconds))
        expected, routings = self.expect(events)
        late: List[float] = []
        last_sent: List[float] = []

        def drive() -> List[float]:
            due, sent = net.open_loop(
                events, self.open_rate, self.subscriber, len(expected[self.subscriber])
            )
            late.extend(actual - when for when, actual in zip(due, sent))
            last_sent.append(sent[-1])
            return due

        wall = self.timed_repetition(
            events,
            drive,
            lambda: (expected, routings),
            traced,
            record,
            latency=True,
        )
        if record and not traced:
            stamps = net.inboxes[self.subscriber].stamps
            result.add("gen.late_p99_ms", percentile(late, 99) * 1e3)
            drained = stamps[-1] - last_sent[0] if stamps else 0.0
            result.add("gen.backlog_drain_s", max(0.0, drained))
        return wall


# ----------------------------------------------------------------------
# The Figure 6 simulator


class SimFig6(Workload):
    """Phase A (once): saturation search on the virtual clock.  Phase B
    (repeated): drained runs at half that rate, timed on the wall clock."""

    name = names.SIM
    subscriptions = 2000
    quick_subscriptions = 150
    subscribers_per_broker = 5
    events_per_publisher = 1000
    quick_events_per_publisher = 100
    probe_seconds = 0.5
    quick_probe_seconds = 0.1

    def __init__(self, seed: int, quick: bool, tracer: Optional[Tracer]) -> None:
        super().__init__(seed, quick, tracer)
        if quick:
            self.subscriptions = self.quick_subscriptions
            self.events_per_publisher = self.quick_events_per_publisher
            self.probe_seconds = self.quick_probe_seconds
        self.spec = CHART1_SPEC
        self.topology = figure6_topology(subscribers_per_broker=self.subscribers_per_broker)
        self.events = EventGenerator(
            self.spec, seed=self.derived_seed(2), region_of=figure6_region_of
        )
        self.protocol: Optional[LinkMatchingProtocol] = None
        self.table: Optional[SubscriptionTable] = None
        self.rate = 0.0
        self.runs = 0

    def setup(self) -> None:
        if self.tracer is not None:
            self.tracer.active = True
        generator = SubscriptionGenerator(
            self.spec, seed=POPULATION_SEED, region_of=figure6_region_of
        )
        self.registered = generator.subscriptions_for(
            self.topology.subscribers(), self.subscriptions
        )
        context = ProtocolContext(
            self.topology,
            self.spec.schema(),
            self.registered,
            domains=self.spec.domains(),
            factoring_attributes=self.spec.factoring_attributes,
        )
        self.protocol = LinkMatchingProtocol(context)
        # Warm-up: the first events through each broker pay lazy compilation.
        self.simulate(500.0, 100, seed=self.derived_seed(3)).run()
        if self.tracer is not None:
            self.tracer.active = False
            self.fold_setup_spans()

    def prepare(self) -> None:
        table = self.table = SubscriptionTable(
            self.spec.schema(), self.spec.domains(), self.topology.subscribers()
        )
        for subscription in self.registered:
            table.add(subscription.subscription_id, subscription.subscriber, subscription.predicate)

    def teardown(self) -> None:
        self.protocol = None
        self.table = None

    def simulate(
        self,
        rate: float,
        events_per_publisher: int,
        *,
        seed: int,
        published: Optional[List[Tuple[str, Event]]] = None,
        **options: Any,
    ) -> NetworkSimulation:
        """A simulation with one Poisson publisher per declared publisher,
        sharing ``rate``; ``published`` captures what they publish."""
        assert self.protocol is not None
        simulation = NetworkSimulation(self.topology, self.protocol, seed=seed, **options)
        publishers = self.topology.publishers()
        for publisher in publishers:
            factory = self.events.factory_for(publisher)
            if published is not None:
                factory = _capturing(factory, publisher, published)
            simulation.add_poisson_publisher(
                publisher, rate / len(publishers), factory, events_per_publisher
            )
        return simulation

    def measure(self, seconds: float) -> Measurement:
        self.find_saturation()
        return super().measure(seconds)

    def find_saturation(self) -> None:
        def probe(rate: float) -> SimulationResult:
            per_publisher = rate / len(self.topology.publishers())
            return self.simulate(
                rate,
                int(per_publisher * self.probe_seconds) + 1,
                seed=self.derived_seed(5),
                queue_sample_interval_ms=self.probe_seconds * 1000.0 / 50.0,
            ).run(max_seconds=self.probe_seconds, drain=False, abort_on_queue=100)

        search = find_saturation_rate(
            probe, initial_rate=500.0, max_rate=5e5, relative_resolution=0.05
        )
        self.result.values["sim_saturation_eps"] = search.saturation_rate
        self.result.report.append(
            f"saturation search: {len(search.probes)} probes, bracket "
            f"({search.highest_ok_rate:.1f}, {search.lowest_overloaded_rate:.1f}) events/s"
        )
        self.rate = search.saturation_rate / 2

    def phases(self) -> List[Phase]:
        return [self.drained_repetition]

    def drained_repetition(self, traced: bool, record: bool) -> float:
        table, result = self.table, self.result
        assert table is not None
        published: List[Tuple[str, Event]] = []
        self.runs += 1
        # The collector stays on, but the previous run's cyclic garbage is
        # not this run's cost: left alone, a full collection of the 600 MiB
        # heap (1.2 s) lands inside every fourth run or so.
        gc.collect()
        before = self.start_tracing() if traced else {}
        start = perf_counter()
        outcome = self.simulate(
            self.rate,
            self.events_per_publisher,
            seed=self.derived_seed(100 + self.runs),
            published=published,
        ).run()
        wall = perf_counter() - start
        messages = outcome.total_broker_messages
        if traced:
            self.stop_tracing(
                before,
                wall,
                outcome.published_events,
                {"sim.run": 1, "protocol.handle": messages},
                messages=messages,
            )
            if "sim.msgs_per_event" not in result.values:
                steps = sum(stats.matching_steps for stats in outcome.broker_stats.values())
                result.values["sim.steps_per_msg"] = _ratio(steps, messages)
                result.values["sim.msgs_per_event"] = _ratio(messages, outcome.published_events)
                self.counters_first["events"] = outcome.published_events
        elif record:
            result.add_rate("events_per_s", outcome.published_events, wall)
            result.add_rate("sim_wall_msgs_per_s", messages, wall)
        self.check(published, outcome)
        return wall

    def check(self, published: Sequence[Tuple[str, Event]], outcome: SimulationResult) -> None:
        """Per (client, publisher): the events due, in publish order (paths
        and queues are FIFO), against ``SimulationResult.deliveries``."""
        table = self.table
        assert table is not None
        publisher_of = {event.event_id: publisher for publisher, event in published}
        expected: Dict[Tuple[str, str], List[int]] = {}
        for publisher, event in published:
            for client in table.matching_clients(event):
                expected.setdefault((client, publisher), []).append(event.event_id)
        received: Dict[Tuple[str, str], List[int]] = {}
        for delivery in outcome.deliveries:
            publisher = publisher_of.get(delivery.event_id, "?")
            received.setdefault((delivery.client, publisher), []).append(delivery.event_id)
        if outcome.published_events != len(published):
            self.result.problems.append(
                f"simulator published {outcome.published_events} events, "
                f"the harness captured {len(published)}"
            )
        self.result.failures.merge(check_sequences(expected, received))
        try:
            table.cross_check([event for _publisher, event in published])
        except OracleError as error:
            self.result.problems.append(str(error))


def _capturing(
    factory: Callable[[random.Random], Event],
    publisher: str,
    published: List[Tuple[str, Event]],
) -> Callable[[random.Random], Event]:
    def capture(rng: random.Random) -> Event:
        event = factory(rng)
        published.append((publisher, event))
        return event

    return capture


WORKLOADS = {
    workload.name: workload for workload in (FanoutMem, ChainMem25k, ChainTcp, ChurnMem, SimFig6)
}
