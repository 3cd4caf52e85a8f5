"""``docs/observability.md`` is checked against the code, not maintained by hand.

Two directions.  Forwards: run a short simulator scenario (link matching
with digests and a fault plan, then flooding) and an in-memory prototype
broker chain with the registry enabled, and
require every instrument they create to have a catalogue row.  Backwards:
every catalogue row must name an instrument the source can still create — a
row that outlives its subject (a deleted engine's gauges, say) fails here.
"""

from __future__ import annotations

import pathlib
import random
import re

from repro.broker import BrokerClient, BrokerNetworkConfig, BrokerNode, InMemoryTransport
from repro.core import ContentRoutedNetwork
from repro.matching import Event, Subscription, parse_predicate, uniform_schema
from repro.network.figures import linear_chain
from repro.protocols import FloodingProtocol, LinkMatchingProtocol, ProtocolContext
from repro.sim import FaultAction, FaultPlan, NetworkSimulation

REPO = pathlib.Path(__file__).resolve().parents[2]
CATALOGUE = REPO / "docs" / "observability.md"
#: Where instruments are created: the package, plus the benchmark harness
#: fixture that owns ``bench.wall_clock_s``.
SOURCES = sorted((REPO / "src").rglob("*.py")) + [REPO / "benchmarks" / "conftest.py"]

SCHEMA = uniform_schema(3)
DOMAINS = {f"a{i}": [0, 1, 2] for i in range(1, 4)}


def catalogued_names():
    text = CATALOGUE.read_text()
    section = text[text.index("## Metric catalogue") : text.index("## BENCH artifacts")]
    names = re.findall(r"^\| `([a-z0-9_.]+)` \|", section, flags=re.M)
    assert len(names) > 60, "the catalogue tables moved or changed shape"
    return names


def chain_with_interests():
    """A 4-broker chain and one ``(client, expression)`` per subscriber."""
    topology = linear_chain(4, subscribers_per_broker=2)
    rng = random.Random(3)
    interests = []
    for client in sorted(topology.subscribers()):
        tests = [f"a{j}={rng.randrange(3)}" for j in range(1, 4) if rng.random() < 0.5]
        interests.append((client, " & ".join(tests) if tests else "*"))
    return topology, interests


def random_event(rng):
    return Event.from_tuple(SCHEMA, tuple(rng.randrange(3) for _ in range(3)))


def run_simulator():
    """Instrument names of one faulted link-matching run and one flooding
    run (per-run registries); the global registry fills on the side."""
    names = set()
    plan = FaultPlan(
        [
            FaultAction.fail_broker("B2", at_s=0.3),
            FaultAction.recover_broker("B2", at_s=0.8),
        ]
    )
    for protocol_cls, kwargs, fault_plan in (
        (LinkMatchingProtocol, {"use_digests": True}, plan),
        (FloodingProtocol, {}, None),
    ):
        topology, interests = chain_with_interests()
        subscriptions = [
            Subscription(parse_predicate(SCHEMA, expression), client)
            for client, expression in interests
        ]
        context = ProtocolContext(topology, SCHEMA, subscriptions, domains=DOMAINS)
        simulation = NetworkSimulation(
            topology,
            protocol_cls(context, **kwargs),
            seed=5,
            fault_plan=fault_plan,
            repair_delay_ms=5.0,
        )
        simulation.add_poisson_publisher("P1", 60.0, random_event, 60)
        simulation.run()
        names.update(instrument.name for _key, instrument in simulation.registry.instruments())
    return names


def run_fabric():
    topology, interests = chain_with_interests()
    network = ContentRoutedNetwork(topology, SCHEMA, domains=DOMAINS)
    for client, expression in interests:
        network.subscribe(client, expression)
    rng = random.Random(4)
    for _ in range(10):
        network.publish("P1", random_event(rng))


def run_broker_chain():
    topology, interests = chain_with_interests()
    config = BrokerNetworkConfig(topology, SCHEMA, domains=DOMAINS)
    transport = InMemoryTransport()
    endpoints = {broker: f"mem://{broker}" for broker in topology.brokers()}
    nodes = [BrokerNode(config, broker, transport, endpoints) for broker in topology.brokers()]
    for node in nodes:
        node.start()
    for node in nodes:
        node.connect_neighbors()
    transport.pump()

    def attach(name):
        client = BrokerClient(
            name,
            SCHEMA,
            transport,
            f"mem://{topology.broker_of(name)}",
            pump=transport.pump,
        )
        client.connect()
        transport.pump()
        return client

    handles = []
    for name, expression in interests:
        client = attach(name)
        handles.append((client, client.subscribe_and_wait(expression)))
    publisher = attach("P1")
    rng = random.Random(6)
    for _ in range(20):
        publisher.publish(dict(zip(SCHEMA.names, random_event(rng).as_tuple())))
    transport.pump()
    client, subscription_id = handles[0]
    client.unsubscribe(subscription_id)
    transport.pump()
    for node in nodes:
        node.stop()


def test_every_instrument_created_has_a_catalogue_row(live_registry):
    created = run_simulator()
    run_fabric()
    run_broker_chain()
    created.update(instrument.name for _key, instrument in live_registry.instruments())
    # The scenarios must actually reach every instrumented layer.
    for scope in ("engine.", "router.", "fabric.",
                  "protocol.link_matching.", "protocol.flooding.", "sim.fault.",
                  "sim.broker.", "broker."):
        assert any(name.startswith(scope) for name in created), scope
    assert sorted(created - set(catalogued_names())) == []


def test_every_catalogue_row_names_an_instrument_the_source_creates():
    """A name counts as creatable when it is a string literal in the source,
    or splits into a ``scope("…")`` prefix and an instrument-name suffix that
    both are."""
    literals = set()
    for path in SOURCES:
        literals.update(re.findall(r'"([a-z0-9_.]+)"', path.read_text()))

    def creatable(name):
        parts = name.split(".")
        return name in literals or any(
            ".".join(parts[:cut]) in literals and ".".join(parts[cut:]) in literals
            for cut in range(1, len(parts))
        )

    names = catalogued_names()
    assert len(set(names)) == len(names), "duplicate catalogue rows"
    assert [name for name in names if not creatable(name)] == []
