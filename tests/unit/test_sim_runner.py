"""Unit tests for the simulation runner, brokers and publisher processes."""

from __future__ import annotations


import pytest

from repro.errors import SimulationError
from repro.matching import Event, uniform_schema
from repro.protocols import LinkMatchingProtocol, ProtocolContext
from repro.sim import NetworkSimulation, ms_to_ticks
from tests.conftest import make_subscription

SCHEMA2 = uniform_schema(2)


def make_network(topology, subscriber_expressions):
    """Build a link-matching simulation over ``topology`` with the given
    {subscriber: expression} subscriptions."""
    subscriptions = [
        make_subscription(SCHEMA2, expression, subscriber)
        for subscriber, expression in subscriber_expressions.items()
    ]
    context = ProtocolContext(topology, SCHEMA2, subscriptions)
    return NetworkSimulation(topology, LinkMatchingProtocol(context), seed=1)


class TestPublishing:
    def test_publish_delivers_to_matching_subscriber(self, two_broker_topology):
        simulation = make_network(two_broker_topology, {"c1": "a1=1"})
        simulation.publish("P1", Event.from_tuple(SCHEMA2, (1, 0)))
        result = simulation.run()
        assert len(result.deliveries) == 1
        assert result.deliveries[0].client == "c1"
        assert result.deliveries[0].matched

    def test_non_matching_event_not_delivered(self, two_broker_topology):
        simulation = make_network(two_broker_topology, {"c1": "a1=1"})
        simulation.publish("P1", Event.from_tuple(SCHEMA2, (2, 0)))
        result = simulation.run()
        assert result.deliveries == []

    def test_only_publishers_may_publish(self, two_broker_topology):
        simulation = make_network(two_broker_topology, {})
        with pytest.raises(SimulationError):
            simulation.publish("c0", Event.from_tuple(SCHEMA2, (1, 0)))

    def test_latency_includes_all_hops(self, two_broker_topology):
        # Client link 1 ms up, broker link 10 ms, client link 1 ms down,
        # plus broker service times.
        simulation = make_network(two_broker_topology, {"c1": "a1=1"})
        simulation.publish("P1", Event.from_tuple(SCHEMA2, (1, 0)))
        result = simulation.run()
        record = result.deliveries[0]
        assert record.latency_ticks >= ms_to_ticks(12.0)

    def test_link_counters(self, two_broker_topology):
        simulation = make_network(two_broker_topology, {"c1": "a1=1"})
        for _ in range(3):
            simulation.publish("P1", Event.from_tuple(SCHEMA2, (1, 0)))
        result = simulation.run()
        assert result.link_messages == {("B0", "B1"): 3}

    def test_at_most_one_copy_per_link(self, diamond_topology):
        expressions = {f"c.{broker}": "*" for broker in diamond_topology.brokers()}
        simulation = make_network(diamond_topology, expressions)
        simulation.publish("P1", Event.from_tuple(SCHEMA2, (0, 0)))
        result = simulation.run()
        assert all(count == 1 for count in result.link_messages.values())
        assert len(result.deliveries) == 4

    def test_broker_stats_accumulate(self, two_broker_topology):
        simulation = make_network(two_broker_topology, {"c1": "a1=1"})
        for _ in range(5):
            simulation.publish("P1", Event.from_tuple(SCHEMA2, (1, 0)))
        result = simulation.run()
        assert result.broker_stats["B0"].processed == 5
        assert result.broker_stats["B1"].processed == 5
        assert result.broker_stats["B0"].busy_ticks > 0


class TestPublisherProcesses:
    def test_poisson_publishes_exact_count(self, two_broker_topology):
        simulation = make_network(two_broker_topology, {"c1": "*"})
        factory = lambda rng: Event.from_tuple(SCHEMA2, (rng.randrange(2), 0))
        simulation.add_poisson_publisher("P1", 1000.0, factory, 20)
        result = simulation.run()
        assert result.published_events == 20
        assert len(result.deliveries) == 20

    def test_poisson_rate_roughly_respected(self, two_broker_topology):
        simulation = make_network(two_broker_topology, {})
        factory = lambda rng: Event.from_tuple(SCHEMA2, (0, 0))
        simulation.add_poisson_publisher("P1", 1000.0, factory, 200)
        result = simulation.run()
        # 200 events at 1000/s should take roughly 0.2 simulated seconds.
        assert 0.05 < result.elapsed_seconds < 1.0

    def test_invalid_rates_rejected(self, two_broker_topology):
        simulation = make_network(two_broker_topology, {})
        factory = lambda rng: Event.from_tuple(SCHEMA2, (0, 0))
        with pytest.raises(SimulationError):
            simulation.add_poisson_publisher("P1", 0.0, factory, 5)


class TestRunControls:
    def test_abort_on_queue(self, two_broker_topology):
        simulation = make_network(two_broker_topology, {"c1": "*"})
        factory = lambda rng: Event.from_tuple(SCHEMA2, (0, 0))
        # Way beyond capacity: overhead ~30us/message means ~30k/s tops.
        simulation.add_poisson_publisher("P1", 1_000_000.0, factory, 5000)
        result = simulation.run(max_seconds=1.0, drain=False, abort_on_queue=50)
        assert result.aborted_overloaded
        assert result.is_overloaded

    def test_capped_run_does_not_drain_backlog(self, two_broker_topology):
        simulation = make_network(two_broker_topology, {"c1": "*"})
        factory = lambda rng: Event.from_tuple(SCHEMA2, (0, 0))
        simulation.add_poisson_publisher("P1", 1_000_000.0, factory, 5000)
        result = simulation.run(max_seconds=0.01, drain=False)
        assert result.published_events < 5000 or result.deliveries == []
