"""Discrete-event network simulator (Section 4.1): virtual clock in 12 µs
ticks, single-server broker queues, hop-delay links, Poisson publishers,
overload detection and saturation search."""

from repro.sim.brokers import SimBroker
from repro.sim.clients import EventFactory, PoissonPublisher
from repro.sim.cost import DEFAULT_COST_MODEL, CostModel
from repro.sim.engine import (
    TICK_US,
    Simulator,
    ms_to_ticks,
    seconds_to_ticks,
    ticks_to_ms,
    ticks_to_seconds,
    us_to_ticks,
)
from repro.sim.faults import (
    FaultAction,
    FaultCoordinator,
    FaultPlan,
    InvariantReport,
    check_invariants,
)
from repro.sim.metrics import BrokerStats, DeliveryRecord, SimulationResult
from repro.sim.runner import NetworkSimulation
from repro.sim.saturation import (
    RateProbe,
    SaturationSearchResult,
    find_saturation_rate,
)

__all__ = [
    "BrokerStats",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "DeliveryRecord",
    "EventFactory",
    "FaultAction",
    "FaultCoordinator",
    "FaultPlan",
    "InvariantReport",
    "NetworkSimulation",
    "check_invariants",
    "PoissonPublisher",
    "RateProbe",
    "SaturationSearchResult",
    "SimBroker",
    "SimulationResult",
    "Simulator",
    "TICK_US",
    "find_saturation_rate",
    "ms_to_ticks",
    "seconds_to_ticks",
    "ticks_to_ms",
    "ticks_to_seconds",
    "us_to_ticks",
]
