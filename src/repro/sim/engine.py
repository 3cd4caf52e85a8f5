"""Discrete-event simulation core.

The paper measures time in "ticks" of a virtual clock, each tick about 12
microseconds.  The engine keeps the same convention: simulation time is an
integer number of ticks, with helpers to convert from the milliseconds used
in topology hop delays and the microseconds used in broker cost models.

:class:`Simulator` is a minimal but complete event-driven engine: a priority
queue of ``(time, sequence, callback)`` entries, `schedule`/`schedule_at`,
and a `run` loop with an optional horizon.  Everything in :mod:`repro.sim`
(brokers, links, clients) is plain callbacks over this engine — no threads,
fully deterministic given a seed.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError

#: Microseconds per virtual-clock tick (from the paper: "each tick
#: corresponding to about 12 microseconds").
TICK_US = 12.0


def us_to_ticks(us: float) -> int:
    """Convert microseconds to whole ticks (rounded, at least 0)."""
    if us < 0:
        raise SimulationError(f"negative duration: {us} us")
    return max(0, round(us / TICK_US))


def ms_to_ticks(ms: float) -> int:
    """Convert milliseconds to whole ticks."""
    return us_to_ticks(ms * 1000.0)


def ticks_to_ms(ticks: int) -> float:
    """Convert ticks back to milliseconds (for reporting)."""
    return ticks * TICK_US / 1000.0


def ticks_to_seconds(ticks: int) -> float:
    return ticks * TICK_US / 1e6


def seconds_to_ticks(seconds: float) -> int:
    return us_to_ticks(seconds * 1e6)


class Simulator:
    """A deterministic event-driven simulator over integer ticks."""

    def __init__(self) -> None:
        self.now: int = 0
        self._next_sequence = itertools.count().__next__
        self._queue: List[Tuple[int, int, Callable[[], None]]] = []
        self._processed_events = 0
        self._stop_requested = False

    def schedule(self, delay_ticks: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay_ticks`` from now."""
        if delay_ticks < 0:
            raise SimulationError(f"cannot schedule in the past (delay {delay_ticks})")
        heappush(self._queue, (self.now + delay_ticks, self._next_sequence(), callback))

    def schedule_at(self, time_ticks: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute time ``time_ticks``."""
        if time_ticks < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ticks}, now is {self.now}"
            )
        heappush(self._queue, (time_ticks, self._next_sequence(), callback))

    @property
    def pending(self) -> int:
        """Number of scheduled-but-unprocessed callbacks."""
        return len(self._queue)

    @property
    def processed_events(self) -> int:
        """Total callbacks executed so far."""
        return self._processed_events

    def request_stop(self) -> None:
        """Make :meth:`run` return after the current callback (used by probes
        that detect overload early and have no reason to keep simulating)."""
        self._stop_requested = True

    def run(self, until_ticks: Optional[int] = None) -> int:
        """Process events in time order.

        With ``until_ticks`` the clock stops there (events scheduled later
        stay queued); without it the simulation drains completely.  Returns
        the final clock value.  A :meth:`request_stop` from inside a callback
        ends the run immediately.
        """
        self._stop_requested = False
        queue = self._queue
        horizon = math.inf if until_ticks is None else until_ticks
        while queue:
            if self._stop_requested:
                return self.now
            if queue[0][0] > horizon:
                self.now = until_ticks
                return self.now
            self.now, _seq, callback = heappop(queue)
            self._processed_events += 1
            callback()
        if until_ticks is not None:
            self.now = max(self.now, until_ticks)
        return self.now

    def __repr__(self) -> str:
        return f"Simulator(now={self.now}, pending={self.pending})"
