"""Simulated clients: Poisson publishers.

"Events arrive at the publishing brokers according to a Poisson
distribution.  The mean arrival rate of published events, which is a key
parameter, is controlled by a user specified parameter."

:class:`PoissonPublisher` draws exponential inter-arrival times.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable

from repro.errors import SimulationError
from repro.matching.events import Event
from repro.sim.engine import Simulator, seconds_to_ticks

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.runner import NetworkSimulation

#: Produces the next event a publisher publishes.
EventFactory = Callable[[random.Random], Event]


class PoissonPublisher:
    """Publishes ``num_events`` events at exponential inter-arrival times."""

    def __init__(
        self,
        simulator: Simulator,
        network: "NetworkSimulation",
        name: str,
        rate_per_second: float,
        event_factory: EventFactory,
        num_events: int,
        rng: random.Random,
        *,
        start_after_s: float = 0.0,
    ) -> None:
        if rate_per_second <= 0:
            raise SimulationError("publish rate must be positive")
        if num_events < 0:
            raise SimulationError("num_events must be >= 0")
        if start_after_s < 0:
            raise SimulationError("start_after_s must be >= 0")
        self.simulator = simulator
        self.network = network
        self.name = name
        self.rate = rate_per_second
        self.event_factory = event_factory
        self.remaining = num_events
        self.rng = rng
        self.published = 0
        # A delayed start turns the publisher into a flash-crowd source: it
        # stays silent, then fires at full rate from ``start_after_s`` on.
        if self.remaining:
            if start_after_s > 0:
                self.simulator.schedule(
                    seconds_to_ticks(start_after_s), self._schedule_next
                )
            else:
                self._schedule_next()

    def _schedule_next(self) -> None:
        delay_s = self.rng.expovariate(self.rate)
        self.simulator.schedule(max(1, seconds_to_ticks(delay_s)), self._publish_one)

    def _publish_one(self) -> None:
        if self.remaining <= 0:
            return
        event = self.event_factory(self.rng)
        self.network.publish(self.name, event)
        self.published += 1
        self.remaining -= 1
        if self.remaining:
            self._schedule_next()

    def __repr__(self) -> str:
        return f"PoissonPublisher({self.name!r}, rate={self.rate}/s, left={self.remaining})"
