"""Broker processing-cost model.

The simulator charges each broker CPU time for every message it handles:

* a fixed per-message overhead (parsing / unmarshalling / dispatch),
* a per-matching-step cost — the paper estimates "a time efficient
  implementation can execute a matching step in the order of a few
  microseconds",
* a per-send cost (the "software latency of the communication stack" the
  paper lists as a component of event time), and
* for the match-first baseline, a per-destination-entry cost modelling the
  larger headers it must build, carry and split.

These knobs define *relative* protocol costs; absolute values only shift
every curve.  Defaults are chosen to be consistent with the paper's
narrative (matching cheap, transport comparatively expensive — Section 4.2
observes that transport costs outweigh matching costs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import SimulationError
from repro.sim.engine import us_to_ticks


@dataclass(frozen=True)
class CostModel:
    """Per-broker CPU costs, in microseconds."""

    per_message_overhead_us: float = 30.0
    per_matching_step_us: float = 3.0
    per_send_us: float = 25.0
    per_destination_entry_us: float = 1.0
    #: :meth:`service_ticks` by work profile; not part of the model's value.
    _ticks: Dict[Tuple[int, int, int], int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for field_name in (
            "per_message_overhead_us",
            "per_matching_step_us",
            "per_send_us",
            "per_destination_entry_us",
        ):
            if getattr(self, field_name) < 0:
                raise SimulationError(f"{field_name} must be >= 0")

    def service_time_us(
        self,
        *,
        matching_steps: int = 0,
        sends: int = 0,
        destination_entries: int = 0,
    ) -> float:
        """CPU time to process one message with the given work profile."""
        return (
            self.per_message_overhead_us
            + matching_steps * self.per_matching_step_us
            + sends * self.per_send_us
            + destination_entries * self.per_destination_entry_us
        )

    def service_ticks(self, matching_steps: int, sends: int, destination_entries: int) -> int:
        """Whole ticks the processor is busy for one message with this work
        profile: ``max(1, us_to_ticks(service_time_us(...)))``, rounded from
        the summed microseconds (not per unit) and computed once per profile."""
        key = (matching_steps, sends, destination_entries)
        ticks = self._ticks.get(key)
        if ticks is None:
            service_us = self.service_time_us(
                matching_steps=matching_steps,
                sends=sends,
                destination_entries=destination_entries,
            )
            ticks = self._ticks[key] = max(1, us_to_ticks(service_us))
        return ticks


#: The defaults used by the chart harnesses.
DEFAULT_COST_MODEL = CostModel()
