"""The simulated broker: a single-server FIFO queue over the event engine.

Each broker models the paper's processing pipeline: a message "spends time
traversing a link (hop delay), waiting at an incoming broker queue, getting
matched, and being sent (software latency of the communication stack)".

Arriving messages join the input queue; the (single) processor serves them
FIFO, one at a time.  Service time comes from the
:class:`~repro.sim.cost.CostModel` applied to the protocol's
:class:`~repro.protocols.base.Decision` for the message.  When service
completes, forwards and deliveries are handed back to the network (which
adds hop delays) and the next queued message starts.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Deque

from repro.protocols.base import Decision, RoutingProtocol, SimMessage
from repro.sim.cost import CostModel
from repro.sim.engine import Simulator
from repro.sim.metrics import BrokerStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.runner import NetworkSimulation

#: The :class:`BrokerStats` fields the run's registry exports per broker
#: (``sim.broker.<field>{broker=...}``).
EXPORTED_STATS = ("arrivals", "processed", "matching_steps", "messages_sent", "busy_ticks")


class SimBroker:
    """One broker's queue + processor (see module docstring)."""

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        protocol: RoutingProtocol,
        cost_model: CostModel,
        network: "NetworkSimulation",
    ) -> None:
        self.simulator = simulator
        self.name = name
        self.protocol = protocol
        self.cost_model = cost_model
        self.network = network
        self.queue: Deque[SimMessage] = deque()
        self.busy = False
        self.stats = BrokerStats(name)
        # The registry's per-broker counters export the stats above; they
        # are brought up to date by sync_counters, not on every message.
        obs = network.registry.scope("sim.broker")
        self._counters = {field: obs.counter(field, broker=name) for field in EXPORTED_STATS}
        self._synced = dict.fromkeys(EXPORTED_STATS, 0)

    @property
    def queue_length(self) -> int:
        return len(self.queue)

    def sync_counters(self) -> None:
        """Add to each exported counter what its stat gained since the last
        sync (a registry shared by several runs accumulates all of them)."""
        stats, synced = self.stats, self._synced
        for field, counter in self._counters.items():
            value = getattr(stats, field)
            counter.inc(value - synced[field])
            synced[field] = value

    def receive(self, message: SimMessage) -> None:
        """A message arrives on some incoming link (called by the network at
        the arrival instant)."""
        stats, queue = self.stats, self.queue
        stats.arrivals += 1
        queue.append(message)
        if len(queue) > stats.max_queue:
            stats.max_queue = len(queue)
        if not self.busy:
            self._start_next()

    def _start_next(self) -> None:
        self.busy = True
        message = self.queue.popleft()
        decision = self.protocol.handle(self.name, message)
        steps = decision.matching_steps
        service_ticks = self.cost_model.service_ticks(
            steps, len(decision.sends) + len(decision.deliveries), decision.destination_entries
        )
        stats = self.stats
        stats.matching_steps += steps
        stats.busy_ticks += service_ticks
        self.simulator.schedule(service_ticks, partial(self._finish, message, decision))

    def _finish(self, message: SimMessage, decision: Decision) -> None:
        network, name = self.network, self.name
        faults = network.faults
        if faults is not None and faults.is_broker_down(name):
            # The broker died mid-service: the message is annihilated, its
            # sends never happen (the fault layer replays from its logs).
            faults.on_service_annihilated((message,))
            self.busy = False
            return
        sends, deliveries = decision.sends, decision.deliveries
        stats = self.stats
        stats.processed += 1
        stats.messages_sent += len(sends) + len(deliveries)
        for neighbor, outgoing in sends:
            network.transmit(name, neighbor, outgoing)
        if deliveries:
            matched = decision.matched_deliveries
            if matched is not deliveries:
                matched = set(matched)
            for client in deliveries:
                network.deliver(name, client, message, matched=client in matched)
        if faults is not None:
            faults.on_processed(name, message)
        self.busy = False
        if self.queue:
            self._start_next()

    def __repr__(self) -> str:
        return f"SimBroker({self.name!r}, queue={len(self.queue)}, busy={self.busy})"
