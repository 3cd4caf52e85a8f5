"""Integration tests of the timed simulator across all three protocols."""

from __future__ import annotations

import random


from repro.matching import Event, uniform_schema
from repro.protocols import (
    FloodingProtocol,
    LinkMatchingProtocol,
    MatchFirstProtocol,
    ProtocolContext,
)
from repro.sim import CostModel, NetworkSimulation
from repro.network import figure6_topology, linear_chain
from tests.conftest import make_subscription

SCHEMA = uniform_schema(3)
DOMAINS = {f"a{i}": [0, 1, 2] for i in range(1, 4)}


def build_context(topology, seed=1, constrain=0.6):
    rng = random.Random(seed)
    subscriptions = []
    for client in topology.subscribers():
        tests = [f"a{j}={rng.randrange(3)}" for j in range(1, 4) if rng.random() < constrain]
        subscriptions.append(
            make_subscription(SCHEMA, " & ".join(tests) if tests else "*", client)
        )
    return ProtocolContext(topology, SCHEMA, subscriptions, domains=DOMAINS)


def run_events(topology, protocol, events, seed=3):
    simulation = NetworkSimulation(topology, protocol, seed=seed)
    for event in events:
        simulation.publish("P1", event)
    return simulation.run()


class TestCrossProtocolAgreement:
    def test_matched_deliveries_agree_on_figure6(self):
        topology = figure6_topology(subscribers_per_broker=2)
        context = build_context(topology)
        rng = random.Random(4)
        events = [
            Event.from_tuple(SCHEMA, tuple(rng.randrange(3) for _ in range(3)))
            for _ in range(10)
        ]
        outcomes = []
        for protocol in (
            LinkMatchingProtocol(context),
            FloodingProtocol(context),
            MatchFirstProtocol(context),
        ):
            result = run_events(topology, protocol, events)
            delivered = sorted(
                (record.client, record.event_id)
                for record in result.matched_deliveries
            )
            outcomes.append(delivered)
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_link_matching_forwards_nothing_unneeded_on_figure6(self, live_registry):
        topology = figure6_topology(subscribers_per_broker=2)
        rng = random.Random(5)
        events = [
            Event.from_tuple(SCHEMA, tuple(rng.randrange(3) for _ in range(3)))
            for _ in range(30)
        ]
        result = run_events(topology, LinkMatchingProtocol(build_context(topology)), events)
        assert result.matched_deliveries  # events did travel
        assert live_registry.counter("link.unneeded_forwards").value == 0

    def test_flooding_processes_most_messages(self):
        topology = figure6_topology(subscribers_per_broker=2)
        context = build_context(topology)
        rng = random.Random(5)
        events = [
            Event.from_tuple(SCHEMA, tuple(rng.randrange(3) for _ in range(3)))
            for _ in range(10)
        ]
        loads = {}
        for protocol in (
            LinkMatchingProtocol(context),
            FloodingProtocol(context),
            MatchFirstProtocol(context),
        ):
            result = run_events(topology, protocol, events)
            loads[protocol.name] = result.total_broker_messages
        assert loads["flooding"] > loads["link-matching"]
        assert loads["flooding"] > loads["match-first"]

    def test_flooding_visits_every_broker_every_event(self):
        topology = figure6_topology(subscribers_per_broker=1)
        context = build_context(topology)
        result = run_events(
            topology,
            FloodingProtocol(context),
            [Event.from_tuple(SCHEMA, (0, 0, 0))],
        )
        assert all(stats.processed == 1 for stats in result.broker_stats.values())

    def test_link_matching_skips_uninterested_brokers(self):
        topology = figure6_topology(subscribers_per_broker=1)
        # Only one subscriber, close to P1.
        subscriptions = [make_subscription(SCHEMA, "a1=0", "S.T0.L00.00")]
        context = ProtocolContext(topology, SCHEMA, subscriptions, domains=DOMAINS)
        result = run_events(
            topology,
            LinkMatchingProtocol(context),
            [Event.from_tuple(SCHEMA, (0, 0, 0))],
        )
        touched = [name for name, s in result.broker_stats.items() if s.processed]
        assert touched == ["T0.L00"]  # the publishing broker only


class TestLatencyModel:
    def test_wan_latency_dominates_processing(self):
        """The paper's argument for link matching despite extra steps: hop
        delays (tens of ms) dwarf matching time (sub-ms)."""
        topology = figure6_topology(subscribers_per_broker=1)
        subscriptions = [make_subscription(SCHEMA, "*", "S.T2.L22.00")]
        context = ProtocolContext(topology, SCHEMA, subscriptions, domains=DOMAINS)
        result = run_events(
            topology,
            LinkMatchingProtocol(context),
            [Event.from_tuple(SCHEMA, (0, 0, 0))],
        )
        (record,) = result.deliveries
        # P1 (T0 leaf) to a T2 leaf: 1 + 10 + 25 + 65 + 25 + 10 + 1 = 137 ms
        # of hop delay, plus queueing/service.
        assert record.latency_ms >= 137.0
        assert record.latency_ms <= 160.0

    def test_cost_model_shifts_capacity(self):
        topology = linear_chain(2, subscribers_per_broker=1)
        subscriptions = [make_subscription(SCHEMA, "*", "S.B1.00")]
        context = ProtocolContext(topology, SCHEMA, subscriptions, domains=DOMAINS)
        protocol = LinkMatchingProtocol(context)

        def busy_ticks(cost_model):
            simulation = NetworkSimulation(
                topology, protocol, cost_model=cost_model, seed=0
            )
            simulation.publish("P1", Event.from_tuple(SCHEMA, (0, 0, 0)))
            result = simulation.run()
            return result.broker_stats["B0"].busy_ticks

        cheap = busy_ticks(CostModel(per_message_overhead_us=10.0))
        expensive = busy_ticks(CostModel(per_message_overhead_us=1000.0))
        assert expensive > cheap


class TestOneReplicaPerProcess:
    """The structural guard behind ``sim_fig6``'s set-up cost, on counts
    rather than a clock: the Chart 1 configuration (Figure 6, factored) holds
    one subscription replica, one program per sub-tree, however many brokers
    route."""

    def test_figure6_brokers_share_one_factored_replica(self, live_registry):
        import gc

        from repro.matching.compile import CompiledProgram
        from repro.workload.generators import SubscriptionGenerator, figure6_region_of
        from repro.workload.spec import CHART1_SPEC

        def live(kind):
            gc.collect()
            return [candidate for candidate in gc.get_objects() if type(candidate) is kind]

        topology = figure6_topology(subscribers_per_broker=1)
        subscriptions = SubscriptionGenerator(
            CHART1_SPEC, seed=1, region_of=figure6_region_of
        ).subscriptions_for(topology.subscribers(), 300)
        context = ProtocolContext(
            topology,
            CHART1_SPEC.schema(),
            subscriptions,
            domains=CHART1_SPEC.domains(),
            factoring_attributes=CHART1_SPEC.factoring_attributes,
        )
        programs_before = live(CompiledProgram)
        protocol = LinkMatchingProtocol(context)
        assert len(protocol.routers) == 39
        assert len({id(router.replica) for router in protocol.routers.values()}) == 1
        matcher = protocol.routers["T0.R"].replica
        populated = dict(matcher.subtrees())
        schema = CHART1_SPEC.schema()
        root = sorted(context.spanning_trees)[0]
        in_domain = [key for key in populated if all(isinstance(p, int) for p in key)]
        assert len(in_domain) == 25 < len(populated)  # + out-of-domain buckets
        for router in protocol.routers.values():
            for key in in_domain:  # one event per reachable sub-tree, at every broker
                router.route(Event.from_tuple(schema, key + (0,) * 8), root)
        programs = [
            program
            for program in live(CompiledProgram)
            if all(program is not p for p in programs_before)
        ]
        assert {id(program) for program in programs} == {
            id(program) for program in populated.values()
        }, "one program per sub-tree, not one per broker"
        # Every broker routed into every in-domain key: one view of each of
        # those programs per broker, and one view of the replica per broker.
        assert len(matcher.views) == len(protocol.routers)
        for key in in_domain:
            assert len(populated[key].views) == len(protocol.routers)

    def test_figure6_brokers_share_one_whole_replica(self):
        """Without factoring too: one program for every broker, each router
        a view of it that has annotated nothing before its first route."""
        import gc

        from repro.matching.compile import CompiledProgram
        from repro.workload.generators import SubscriptionGenerator, figure6_region_of
        from repro.workload.spec import CHART1_SPEC

        def live_programs():
            gc.collect()
            return [candidate for candidate in gc.get_objects() if type(candidate) is CompiledProgram]

        topology = figure6_topology(subscribers_per_broker=1)
        subscriptions = SubscriptionGenerator(
            CHART1_SPEC, seed=1, region_of=figure6_region_of
        ).subscriptions_for(topology.subscribers(), 300)
        context = ProtocolContext(
            topology, CHART1_SPEC.schema(), subscriptions, domains=CHART1_SPEC.domains()
        )
        before = live_programs()
        protocol = LinkMatchingProtocol(context)
        built = [p for p in live_programs() if all(p is not q for q in before)]
        assert built == [protocol.replica], "one program, not one per broker"
        assert {id(router.replica) for router in protocol.routers.values()} == {
            id(protocol.replica)
        }
        assert len(protocol.replica) == len(subscriptions)
        views = protocol.replica.views
        assert len(views) == len(protocol.routers) == 39
        assert all(view.ann_yes is None for view in views)
