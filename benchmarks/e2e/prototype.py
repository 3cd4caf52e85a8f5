"""Driving the prototype broker from outside: networks, clients, load loops.

:class:`BrokerNet` builds a chain of :class:`~repro.broker.node.BrokerNode`
over the in-memory hub or over TCP loopback, attaches one publisher and the
subscriber clients, and registers subscriptions through the client protocol.
The three load loops publish one repetition's events and return when each
was due or sent; subscriber callbacks stamp every delivery with the clock.

In-memory runs are single-threaded closed loops (publish, then pump the hub
to quiescence).  TCP runs use exactly two client connections — the
publisher on the caller's thread and one subscriber fed by its receiver
thread — so the load generator never needs more cores than the box has.
"""

from __future__ import annotations

import threading
import time
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.broker.client import BrokerClient
from repro.broker.node import BrokerNetworkConfig, BrokerNode
from repro.broker.tcp import TcpTransport
from repro.broker.transport import InMemoryTransport
from repro.matching.events import Event
from repro.matching.predicates import Predicate
from repro.network.topology import NodeKind, Topology
from repro.workload.spec import WorkloadSpec

PUBLISHER = "pub"
#: An event not delivered this long after the last publish counts as failed.
DELIVERY_TIMEOUT_S = 5.0


def chain_topology(subscribers_per_broker: Sequence[int]) -> Topology:
    """``B0 - B1 - ...`` with the publisher on ``B0`` and, on broker ``i``,
    ``subscribers_per_broker[i]`` subscriber clients."""
    topology = Topology()
    for index, count in enumerate(subscribers_per_broker):
        topology.add_broker(f"B{index}")
        if index:
            topology.add_link(f"B{index - 1}", f"B{index}", latency_ms=1.0)
        for client in range(count):
            topology.add_client(f"s{index}.{client:02d}", f"B{index}")
    topology.add_client(PUBLISHER, "B0", kind=NodeKind.PUBLISHER)
    topology.validate()
    return topology


class Inbox:
    """A subscriber's ``on_event`` callback: stamps each delivery with the
    clock and, in a windowed closed loop, returns one credit."""

    __slots__ = ("stamps", "credits")

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self.credits: Optional[threading.Semaphore] = None

    def __call__(self, _event: Event, _seq: int) -> None:
        self.stamps.append(perf_counter())
        credits = self.credits
        if credits is not None:
            credits.release()


def _wait_until(condition: Callable[[], bool], what: str, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not condition():
        if time.monotonic() > deadline:
            raise TimeoutError(f"timed out waiting for {what}")
        time.sleep(0.002)


class BrokerNet:
    """A running prototype broker chain with its clients attached."""

    def __init__(
        self,
        spec: WorkloadSpec,
        topology: Topology,
        *,
        tcp: bool,
        factoring: bool,
        wrap_callback: Optional[Callable[[Inbox], Callable[[Event, int], None]]] = None,
    ) -> None:
        self.spec = spec
        self.topology = topology
        self.tcp = tcp
        schema = spec.schema()
        config = BrokerNetworkConfig(
            topology,
            schema,
            domains=spec.domains(),
            factoring_attributes=spec.factoring_attributes if factoring else None,
        )
        brokers = topology.brokers()
        if tcp:
            self.transport = TcpTransport(sender_threads=2)
            endpoints = {broker: "127.0.0.1:0" for broker in brokers}
            pump = None
        else:
            self.transport = InMemoryTransport()
            endpoints = {broker: f"mem://{broker}" for broker in brokers}
            pump = self.transport.pump
        self.nodes: Dict[str, BrokerNode] = {
            broker: BrokerNode(config, broker, self.transport, endpoints) for broker in brokers
        }
        for node in self.nodes.values():
            node.start()
        for node in self.nodes.values():
            node.connect_neighbors()
        self.inboxes: Dict[str, Inbox] = {}
        self.subscribers: Dict[str, BrokerClient] = {}
        for name in topology.subscribers():
            inbox = self.inboxes[name] = Inbox()
            self.subscribers[name] = BrokerClient(
                name,
                schema,
                self.transport,
                endpoints[topology.broker_of(name)],
                on_event=wrap_callback(inbox) if wrap_callback is not None else inbox,
                pump=pump,
            )
        self.publisher = BrokerClient(
            PUBLISHER, schema, self.transport, endpoints["B0"], pump=pump
        )
        clients = list(self.subscribers.values()) + [self.publisher]
        for client in clients:
            client.connect()
        self.settle()
        _wait_until(
            lambda: all(client.connected_broker is not None for client in clients),
            "client sessions",
        )
        self._subscriptions = 0
        self._published = 0

    # ------------------------------------------------------------------

    def settle(self) -> None:
        """Let in-flight control traffic finish (pump the hub; under TCP the
        callers below poll for the state they need)."""
        if not self.tcp:
            self.transport.pump()

    def subscribe(self, client: str, predicate: Predicate) -> int:
        """One SUBSCRIBE round trip through the client protocol."""
        self._subscriptions += 1
        return self.subscribers[client].subscribe_and_wait(predicate.describe())

    def unsubscribe(self, client: str, subscription_id: int) -> None:
        self._subscriptions -= 1
        self.subscribers[client].unsubscribe_and_wait(subscription_id)

    def await_flood(self) -> None:
        """Block until every broker holds every subscription (the SUBACK
        only covers the subscriber's own broker; the flood is asynchronous
        under TCP)."""
        self.settle()
        _wait_until(
            lambda: all(
                node.subscription_count == self._subscriptions for node in self.nodes.values()
            ),
            "subscription flood",
        )

    def await_acks(self) -> None:
        """Block until every published event has been routed at the first
        broker and every delivery has been acknowledged.  Call it once the
        expected deliveries are in: what can still be in flight then are
        events the first broker filters and the acks themselves."""
        self.settle()
        first = self.nodes["B0"]

        def all_acked() -> bool:
            if first.events_routed < self._published:
                return False
            for name in self.subscribers:
                log = self.nodes[self.topology.broker_of(name)].session(name).log
                if log.acked != log.last_seq:
                    return False
            return True

        _wait_until(all_acked, "delivery acks")

    def await_quiescence(self) -> None:
        """For traffic no oracle predicted (warm-up): wait until the first
        broker has routed everything published and the brokers' counters
        have stopped moving."""
        self.settle()
        _wait_until(
            lambda: self.nodes["B0"].events_routed >= self._published, "warm-up routing"
        )
        previous: List[Tuple[int, int]] = []

        def still() -> bool:
            nonlocal previous
            state = [(node.events_routed, node.events_delivered) for node in self.nodes.values()]
            unchanged, previous = state == previous, state
            if not unchanged:
                time.sleep(0.05)
            return unchanged

        _wait_until(still, "warm-up traffic to drain")
        self.await_acks()

    def reset_between_repetitions(self) -> None:
        """Drop what a repetition left behind: the client keeps every
        delivered event forever and the logs keep acked entries until the
        next collection — both would make later repetitions slower."""
        for name, client in self.subscribers.items():
            client.deliveries.clear()
            self.inboxes[name].stamps.clear()
        for node in self.nodes.values():
            node.collect_garbage()

    def stop(self) -> None:
        for client in list(self.subscribers.values()) + [self.publisher]:
            if client.is_connected:
                client.disconnect()
        self.settle()
        for node in self.nodes.values():
            node.stop()
        self.settle()
        if self.tcp:
            self.transport.close()

    # ------------------------------------------------------------------
    # Load loops.  Each returns when every event was due (closed loops: when
    # it was sent); delivery times are in the inboxes.

    def closed_loop(self, events: Sequence[Event], batch: int) -> List[float]:
        """In-memory closed loop: publish (singly or in ``publish_many``
        batches), pump to quiescence, repeat."""
        pump = self.transport.pump
        self._published += len(events)
        sent: List[float] = []
        if batch == 1:
            publish = self.publisher.publish
            for event in events:
                sent.append(perf_counter())
                publish(event)
                pump()
        else:
            publish_many = self.publisher.publish_many
            for offset in range(0, len(events), batch):
                chunk = list(events[offset : offset + batch])
                sent.extend([perf_counter()] * len(chunk))
                publish_many(chunk)
                pump()
        return sent

    def windowed_loop(
        self, events: Sequence[Event], delivered: Sequence[bool], subscriber: str, window: int
    ) -> List[float]:
        """TCP closed loop: at most ``window`` expected deliveries in flight
        (``delivered[i]`` says whether event ``i`` reaches the subscriber;
        events filtered at the first broker cost no credit)."""
        inbox = self.inboxes[subscriber]
        credits = inbox.credits = threading.Semaphore(window)
        publish = self.publisher.publish
        sent: List[float] = []
        try:
            for event, due in zip(events, delivered):
                if due and not credits.acquire(timeout=DELIVERY_TIMEOUT_S):
                    break  # the deliveries stopped coming: report, don't hang
                sent.append(perf_counter())
                publish(event)
            self._published += len(sent)
            self._await_deliveries(inbox, sum(delivered[: len(sent)]))
        finally:
            inbox.credits = None
        return sent

    def open_loop(
        self, events: Sequence[Event], rate: float, subscriber: str, expected: int
    ) -> Tuple[List[float], List[float]]:
        """TCP open loop at a fixed ``rate``: event ``i`` is due at
        ``start + i / rate`` whether or not earlier ones were delivered.
        Returns (due times, actual send times)."""
        publish = self.publisher.publish
        self._published += len(events)
        interval = 1.0 / rate
        due: List[float] = []
        sent: List[float] = []
        start = perf_counter()
        for index, event in enumerate(events):
            when = start + index * interval
            delay = when - perf_counter()
            if delay > 0:
                time.sleep(delay)
            due.append(when)
            sent.append(perf_counter())
            publish(event)
        self._await_deliveries(self.inboxes[subscriber], expected)
        return due, sent

    @staticmethod
    def _await_deliveries(inbox: Inbox, expected: int) -> None:
        deadline = time.monotonic() + DELIVERY_TIMEOUT_S
        while len(inbox.stamps) < expected and time.monotonic() < deadline:
            time.sleep(0.0005)
