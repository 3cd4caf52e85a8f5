"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.matching import (
    CompiledProgram,
    Event,
    EventSchema,
    Subscription,
    parse_predicate,
    stock_trade_schema,
    uniform_schema,
)
from repro.network import NodeKind, Topology
from repro.obs import MetricsRegistry, get_registry, set_registry


@pytest.fixture
def live_registry():
    """An enabled metrics registry installed as the global one for the test
    (instruments are no-ops unless it is enabled *before* construction)."""
    previous = set_registry(MetricsRegistry(enabled=True))
    try:
        yield get_registry()
    finally:
        set_registry(previous)


@pytest.fixture
def stock_schema() -> EventSchema:
    """The paper's running example: [issue, price, volume]."""
    return stock_trade_schema()


@pytest.fixture
def schema5() -> EventSchema:
    """The five-attribute schema of Figure 2 (a1..a5, integers)."""
    return uniform_schema(5)


@pytest.fixture
def ibm_event(stock_schema) -> Event:
    return Event(stock_schema, {"issue": "IBM", "price": 119.0, "volume": 2000})


def make_subscription(schema: EventSchema, expression: str, subscriber: str) -> Subscription:
    """Helper: parse an expression into a subscription."""
    return Subscription(parse_predicate(schema, expression), subscriber)


def build_program(schema: EventSchema, subscriptions, **options) -> CompiledProgram:
    """Helper: a compiled program holding ``subscriptions`` (``options`` as
    :class:`CompiledProgram` takes them)."""
    program = CompiledProgram(schema, **options)
    for subscription in subscriptions:
        program.insert(subscription)
    return program


@pytest.fixture
def two_broker_topology() -> Topology:
    """B0 -- B1, one subscriber on each broker, publisher on B0."""
    topology = Topology()
    topology.add_broker("B0")
    topology.add_broker("B1")
    topology.add_link("B0", "B1", latency_ms=10.0)
    topology.add_client("c0", "B0")
    topology.add_client("c1", "B1")
    topology.add_client("P1", "B0", kind=NodeKind.PUBLISHER)
    return topology


@pytest.fixture
def diamond_topology() -> Topology:
    """A cycle: B0-B1, B0-B2, B1-B3, B2-B3 (tests non-tree networks)."""
    topology = Topology()
    for name in ("B0", "B1", "B2", "B3"):
        topology.add_broker(name)
    topology.add_link("B0", "B1", latency_ms=10.0)
    topology.add_link("B0", "B2", latency_ms=10.0)
    topology.add_link("B1", "B3", latency_ms=10.0)
    topology.add_link("B2", "B3", latency_ms=15.0)
    for broker in ("B0", "B1", "B2", "B3"):
        topology.add_client(f"c.{broker}", broker)
    topology.add_client("P1", "B0", kind=NodeKind.PUBLISHER)
    topology.add_client("P2", "B3", kind=NodeKind.PUBLISHER)
    return topology
