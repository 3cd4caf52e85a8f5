"""What the simulator's per-message fast path must keep exact.

The per-broker registry counters are filled from :class:`BrokerStats` when a
run takes its snapshot, hop delays are resolved once per link on the
fault-free path, and service ticks once per work profile.  None of that may
show: counters accumulate across runs sharing a registry as they did when
they were bumped per message, a broker killed mid-service reports what it
did, every hop takes the delay of the link it crosses when it is sent, and
service ticks equal the cost model's rounding of the summed microseconds.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.matching import Event, Subscription, parse_predicate, uniform_schema
from repro.network.figures import linear_chain
from repro.obs import MetricsRegistry
from repro.protocols import LinkMatchingProtocol, ProtocolContext
from repro.sim import FaultAction, FaultPlan, NetworkSimulation, ms_to_ticks, us_to_ticks
from repro.sim.brokers import EXPORTED_STATS, SimBroker
from repro.sim.cost import DEFAULT_COST_MODEL, CostModel
from repro.sim.faults import FaultCoordinator

SCHEMA = uniform_schema(3)
DOMAINS = {f"a{i}": [0, 1, 2] for i in range(1, 4)}


def build():
    topology = linear_chain(5, subscribers_per_broker=2)
    topology.add_link("B1", "B3", latency_ms=25.0)
    rng = random.Random(1)
    subscriptions = []
    for client in sorted(topology.subscribers()):
        tests = [f"a{j}={rng.randrange(3)}" for j in range(1, 4) if rng.random() < 0.5]
        expression = " & ".join(tests) if tests else "*"
        subscriptions.append(Subscription(parse_predicate(SCHEMA, expression), client))
    return topology, ProtocolContext(topology, SCHEMA, subscriptions, domains=DOMAINS)


def factory(rng):
    return Event.from_tuple(SCHEMA, tuple(rng.randrange(3) for _ in range(3)))


def simulate(*, seed=7, events=120, **options):
    topology, context = build()
    simulation = NetworkSimulation(topology, LinkMatchingProtocol(context), seed=seed, **options)
    simulation.add_poisson_publisher("P1", 60.0, factory, events)
    return simulation


def counters(snapshot, prefix):
    return {
        key: entry["value"]
        for key, entry in snapshot.items()
        if key.startswith(prefix) and entry["type"] == "counter"
    }


def stats_as_counters(result):
    return {
        f"sim.broker.{field}{{broker={name}}}": getattr(stats, field)
        for name, stats in result.broker_stats.items()
        for field in EXPORTED_STATS
    }


def exported_stats(result):
    exported = counters(result.counter_snapshot(), "sim.broker.")
    return {key: exported[key] for key in stats_as_counters(result)}


class TestCountersStayExact:
    def test_a_snapshot_exports_the_broker_stats(self):
        result = simulate().run()
        assert exported_stats(result) == stats_as_counters(result)

    def test_runs_sharing_a_registry_accumulate(self):
        alone = [simulate(seed=seed).run().counter_snapshot() for seed in (7, 8)]
        registry = MetricsRegistry(enabled=True)
        simulate(seed=7, registry=registry).run()
        shared = simulate(seed=8, registry=registry).run().counter_snapshot()
        for prefix in ("sim.broker.", "sim.link."):
            first, second = counters(alone[0], prefix), counters(alone[1], prefix)
            assert first and second
            summed = {key: first.get(key, 0) + second.get(key, 0) for key in first | second}
            assert counters(shared, prefix) == summed, prefix
        # The totals the counters reached while they were bumped per message.
        totals = sorted((counters(shared, "sim.broker.") | counters(shared, "sim.link.")).items())
        digest = hashlib.sha256(json.dumps(totals).encode()).hexdigest()
        assert digest == SHARED_TOTALS

    def test_a_continued_run_adds_only_what_it_did(self):
        simulation = simulate()
        capped = simulation.run(max_seconds=0.8, drain=False)
        assert exported_stats(capped) == stats_as_counters(capped)
        drained = simulation.run()
        assert drained.published_events > capped.published_events
        assert exported_stats(drained) == stats_as_counters(drained)

    def test_a_broker_killed_mid_service_reports_what_it_did(self, monkeypatch):
        annihilated = []
        original = FaultCoordinator.on_service_annihilated

        def spy(self, messages):
            annihilated.extend(messages)
            return original(self, messages)

        monkeypatch.setattr(FaultCoordinator, "on_service_annihilated", spy)
        plan = FaultPlan(
            [
                FaultAction.fail_broker("B2", at_s=0.621),
                FaultAction.recover_broker("B2", at_s=1.121),
            ]
        )
        result = simulate(seed=3, fault_plan=plan).run()
        assert annihilated, "the failure must land while B2 is serving"
        exported = exported_stats(result)
        assert exported == stats_as_counters(result)
        # The numbers the counters reported while they were bumped per message.
        assert exported["sim.broker.processed{broker=B2}"] == KILLED_B2_PROCESSED
        assert exported["sim.broker.busy_ticks{broker=B2}"] == KILLED_B2_BUSY_TICKS


#: ``sim.broker.processed`` / ``busy_ticks`` of B2 in the mid-service kill
#: above, as the simulator reported them when it bumped its registry
#: counters on every message.
KILLED_B2_PROCESSED = 170
KILLED_B2_BUSY_TICKS = 849
#: SHA-256 of the sorted ``sim.broker.*`` and ``sim.link.*`` counters after
#: the two runs sharing one registry, recorded the same way.
SHARED_TOTALS = "5594945eb2fba8088d2738e0f9d9e2f54d66b4b5eef4f74c40accfce50866a36"


class TestHopDelaysFollowTheTopology:
    """Every copy arrives exactly its link's delay after it was sent, with
    the latency the link has at the moment of sending."""

    @staticmethod
    def run_observed(monkeypatch, simulation, **run):
        """Run, checking every broker-broker hop against the latency its
        link had when the copy was sent, and every delivery's tick against
        its client link; returns the delays the hops were due."""
        sent, due = {}, []
        transmit, deliver = NetworkSimulation.transmit, NetworkSimulation.deliver
        receive = SimBroker.receive
        topology = simulation.topology

        def on_transmit(self, source, target, message):
            if topology.has_link(source, target):
                delay = ms_to_ticks(topology.link_between(source, target).latency_ms)
                sent[message.message_id] = (self.simulator.now, delay)
            return transmit(self, source, target, message)

        def on_receive(self, message):
            if message.message_id in sent:
                at, delay = sent.pop(message.message_id)
                assert self.simulator.now - at == delay, (message, at, delay)
                due.append(delay)
            return receive(self, message)

        expected_deliveries = []

        def on_deliver(self, broker, client, message, *, matched):
            delay = ms_to_ticks(topology.link_between(broker, client).latency_ms)
            expected_deliveries.append(self.simulator.now + delay)
            return deliver(self, broker, client, message, matched=matched)

        monkeypatch.setattr(NetworkSimulation, "transmit", on_transmit)
        monkeypatch.setattr(NetworkSimulation, "deliver", on_deliver)
        monkeypatch.setattr(SimBroker, "receive", on_receive)
        result = simulation.run(**run)
        assert result.deliveries
        assert sorted(record.delivery_time_ticks for record in result.deliveries) == sorted(
            expected_deliveries
        )
        assert due
        return set(due)

    def test_fault_free(self, monkeypatch):
        assert self.run_observed(monkeypatch, simulate()) == {ms_to_ticks(10.0)}

    def test_a_joined_broker_and_a_repaired_link(self, monkeypatch):
        plan = FaultPlan(
            [
                FaultAction.fail_link("B1", "B2", at_s=0.4),
                FaultAction.recover_link("B1", "B2", at_s=0.9),
                FaultAction.join_broker(
                    "B9", attach_to="B4", at_s=0.5, latency_ms=40.0, clients=("S.B9.00",)
                ),
            ]
        )
        simulation = simulate(events=200, fault_plan=plan)
        simulation.add_subscription_at(0.6, Subscription(parse_predicate(SCHEMA, "*"), "S.B9.00"))
        due = self.run_observed(monkeypatch, simulation)
        assert ms_to_ticks(40.0) in due, "nothing crossed the joined link"

    def test_a_link_whose_latency_changes_mid_run(self, monkeypatch):
        simulation = simulate(events=200, fault_plan=FaultPlan())
        topology = simulation.topology

        def slow_down():
            topology.remove_link("B2", "B3")
            topology.add_link("B2", "B3", latency_ms=45.0)

        simulation.simulator.schedule(ms_to_ticks(1000.0), slow_down)
        due = self.run_observed(monkeypatch, simulation)
        assert {ms_to_ticks(10.0), ms_to_ticks(45.0)} <= due


class TestServiceTicks:
    @pytest.mark.parametrize(
        "model", [DEFAULT_COST_MODEL, CostModel(per_matching_step_us=2.9, per_send_us=7.3)]
    )
    def test_equal_the_rounded_service_time(self, model):
        for steps in range(0, 60, 7):
            for sends in range(4):
                for entries in (0, 3):
                    service_us = model.service_time_us(
                        matching_steps=steps, sends=sends, destination_entries=entries
                    )
                    expected = max(1, us_to_ticks(service_us))
                    assert model.service_ticks(steps, sends, entries) == expected
                    assert model.service_ticks(steps, sends, entries) == expected

    def test_the_memo_is_not_part_of_the_model(self):
        assert CostModel() == DEFAULT_COST_MODEL
        assert hash(CostModel()) == hash(DEFAULT_COST_MODEL)
        assert "_ticks" not in repr(DEFAULT_COST_MODEL)
