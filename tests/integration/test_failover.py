"""End-to-end failure & churn scenarios with the two delivery invariants
checked as first-class properties:

* no event lost to a live subscriber (offline replay counts);
* at most one copy per link for undisturbed events.

Every scenario runs the full pipeline — publishers, broker queues, fault
coordinator, incremental repair, replay — and feeds the finished run to
:func:`repro.sim.check_invariants`.
"""

from __future__ import annotations

import random

import pytest

from repro.matching import Event, Subscription, parse_predicate, uniform_schema
from repro.matching.compile import CompiledProgram
from repro.network.figures import (
    figure6_topology,
    leaf_name,
    linear_chain,
    mid_name,
    subscriber_name,
)
from repro.obs import get_registry
from repro.protocols import FloodingProtocol, LinkMatchingProtocol, ProtocolContext
from repro.sim import (
    FaultAction,
    FaultPlan,
    NetworkSimulation,
    check_invariants,
    seconds_to_ticks,
)
from repro.workload import FlashCrowd, ThunderingHerd, WorkloadSpec
from repro.workload.generators import EventGenerator, SubscriptionGenerator, figure6_region_of

SCHEMA = uniform_schema(3)
DOMAINS = {f"a{i}": [0, 1, 2] for i in range(1, 4)}


def build(subscribers_per_broker=2):
    topology = linear_chain(5, subscribers_per_broker=subscribers_per_broker)
    topology.add_link("B1", "B3", latency_ms=25.0)
    rng = random.Random(1)
    subscriptions = []
    for client in sorted(topology.subscribers()):
        tests = [f"a{j}={rng.randrange(3)}" for j in range(1, 4) if rng.random() < 0.5]
        expression = " & ".join(tests) if tests else "*"
        subscriptions.append(Subscription(parse_predicate(SCHEMA, expression), client))
    context = ProtocolContext(topology, SCHEMA, subscriptions, domains=DOMAINS)
    return topology, context


def factory(rng):
    return Event.from_tuple(SCHEMA, tuple(rng.randrange(3) for _ in range(3)))


def run_plan(plan, *, protocol_cls=LinkMatchingProtocol, events=120, seed=7, **kwargs):
    topology, context = build()
    simulation = NetworkSimulation(
        topology,
        protocol_cls(context),
        seed=seed,
        fault_plan=plan,
        repair_delay_ms=kwargs.pop("repair_delay_ms", 5.0),
        **kwargs,
    )
    simulation.add_poisson_publisher("P1", 60.0, factory, events)
    result = simulation.run()
    return simulation, result, check_invariants(result, simulation.faults)


def scripted_plan():
    return FaultPlan(
        [
            FaultAction.fail_broker("B2", at_s=0.5),
            FaultAction.recover_broker("B2", at_s=1.2),
            FaultAction.fail_link("B3", "B4", at_s=1.6),
            FaultAction.recover_link("B3", "B4", at_s=1.9),
        ]
    )


def test_broker_and_link_failures_with_recovery():
    simulation, result, report = run_plan(scripted_plan())
    assert report.ok, (report.lost[:5], report.duplicates[:5])
    assert report.disturbed_events > 0  # faults actually hit traffic
    metrics = result.counter_snapshot()
    assert metrics["sim.fault.actions_applied"]["value"] == 4
    assert metrics["sim.fault.repairs"]["value"] >= 4


def test_offline_log_replays_to_recovered_subscribers():
    """Events published while a leaf broker is down reach its subscribers
    after recovery via the offline-log drain."""
    plan = FaultPlan(
        [
            FaultAction.fail_broker("B4", at_s=0.4),
            FaultAction.recover_broker("B4", at_s=1.4),
        ]
    )
    simulation, result, report = run_plan(plan, events=120)
    assert report.ok, (report.lost[:5], report.duplicates[:5])
    metrics = result.counter_snapshot()
    replays = metrics.get("sim.fault.offline_replayed", {}).get("value", 0) + metrics.get(
        "sim.fault.messages_replayed", {}
    ).get("value", 0)
    assert replays > 0


def test_fail_without_recovery_excludes_dead_subscribers():
    plan = FaultPlan([FaultAction.fail_broker("B4", at_s=0.7)])
    simulation, result, report = run_plan(plan)
    assert report.ok, (report.lost[:5], report.duplicates[:5])
    dead_clients = set(simulation.topology.clients_of("B4"))
    assert dead_clients  # clients stay attached to the down broker
    fail_tick = seconds_to_ticks(0.7)
    late = [
        record
        for record in result.deliveries
        if record.client in dead_clients and record.delivery_time_ticks > fail_tick
    ]
    assert late == []


def test_flood_fallback_window_preserves_invariants():
    # Protocol-level counters live in the global registry; the simulation's
    # own registry only carries sim.* scopes.
    registry = get_registry()
    registry.enable()
    try:
        simulation, result, report = run_plan(scripted_plan(), annotation_lag_ms=50.0)
        assert report.ok, (report.lost[:5], report.duplicates[:5])
        metrics = result.counter_snapshot()
        assert metrics["sim.fault.stale_windows"]["value"] > 0
        snapshot = registry.snapshot()
        assert snapshot["protocol.link_matching.flood_fallbacks"]["value"] > 0
    finally:
        registry.disable()
        registry.reset()


def test_event_index_trigger_fires():
    plan = FaultPlan(
        [
            FaultAction.fail_link("B1", "B2", after_events=30),
            FaultAction.recover_link("B1", "B2", after_events=60),
        ]
    )
    simulation, result, report = run_plan(plan)
    assert report.ok, (report.lost[:5], report.duplicates[:5])
    metrics = result.counter_snapshot()
    assert metrics["sim.fault.actions_applied"]["value"] == 2


def test_flooding_protocol_under_faults():
    simulation, result, report = run_plan(scripted_plan(), protocol_cls=FloodingProtocol)
    assert report.ok, (report.lost[:5], report.duplicates[:5])


def test_join_leave_and_late_subscription():
    topology, context = build()
    plan = FaultPlan(
        [
            FaultAction.join_broker("B9", attach_to="B1", clients=("S.B9.00",), at_s=0.8),
            FaultAction.leave_broker("B4", after_events=80),
        ]
    )
    simulation = NetworkSimulation(
        topology,
        LinkMatchingProtocol(context),
        seed=11,
        fault_plan=plan,
        repair_delay_ms=5.0,
    )
    simulation.add_poisson_publisher("P1", 60.0, factory, 140)
    simulation.add_subscription_at(1.0, Subscription(parse_predicate(SCHEMA, "a1=0"), "S.B9.00"))
    result = simulation.run()
    report = check_invariants(result, simulation.faults)
    assert report.ok, (report.lost[:5], report.duplicates[:5])
    assert "B9" in simulation.topology.brokers()
    assert "B4" in simulation.faults.left_brokers
    joined = {r.client for r in result.deliveries if r.matched}
    assert "S.B9.00" in joined


def test_flash_crowd_and_thundering_herd_under_failover():
    spec = WorkloadSpec(num_attributes=3, values_per_attribute=3, factoring_levels=1)
    topology, context = build()
    plan = FaultPlan(
        [
            FaultAction.fail_broker("B3", at_s=1.2),
            FaultAction.recover_broker("B3", at_s=1.8),
        ]
    )
    simulation = NetworkSimulation(
        topology,
        LinkMatchingProtocol(context),
        seed=5,
        fault_plan=plan,
        repair_delay_ms=5.0,
    )
    simulation.add_poisson_publisher("P1", 40.0, factory, 60)
    crowd = FlashCrowd(spec, start_after_s=1.0, rate_multiplier=3.0, num_events=60)
    simulation.add_poisson_publisher(
        "P1",
        crowd.crowd_rate(40.0),
        crowd.event_factory("P1", seed=9),
        crowd.num_events,
        start_after_s=crowd.start_after_s,
    )
    herd = ThunderingHerd(spec, arrive_at_s=1.1, size=12, hot_exponent=3.0)
    subscribers = sorted(topology.subscribers())[:4]
    for at_s, subscription in herd.arrivals(subscribers, seed=13):
        simulation.add_subscription_at(at_s, subscription)
    result = simulation.run()
    report = check_invariants(result, simulation.faults)
    assert report.ok, (report.lost[:5], report.duplicates[:5])
    assert result.published_events == 120
    # Herd subscriptions were actually indexed and matched hot traffic.
    herd_hits = [
        record
        for record in result.deliveries
        if record.matched and record.client in set(subscribers)
    ]
    assert herd_hits


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_chaos_plans(seed):
    topology, _ = build()
    plan = FaultPlan.random(topology, seed=seed, failures=2)
    simulation, result, report = run_plan(plan, seed=100 + seed)
    assert report.ok, (seed, report.lost[:5], report.duplicates[:5])


def test_factored_figure6_shares_one_replica_through_faults(monkeypatch):
    """The chaos tier on the configuration the paper's charts (and
    ``sim_fig6``) run: Figure 6, factored — every router annotates one
    shared FactoredMatcher.  A broker crashes and recovers, a subscription
    arrives for a subscriber that is cut off at that moment (indexed
    everywhere with no link to light, deferred until the repair), a broker
    joins: nothing lost, at most one copy per link, and building the joined
    broker's router inserts into no program."""
    spec = WorkloadSpec(num_attributes=4, values_per_attribute=3, factoring_levels=2)
    topology = figure6_topology(subscribers_per_broker=1)
    subscriptions = SubscriptionGenerator(
        spec, seed=3, region_of=figure6_region_of
    ).subscriptions_for(topology.subscribers(), 120)
    context = ProtocolContext(
        topology,
        spec.schema(),
        subscriptions,
        domains=spec.domains(),
        factoring_attributes=spec.factoring_attributes,
    )
    protocol = LinkMatchingProtocol(context)
    shared = protocol.routers[mid_name(0, 0)].replica
    assert all(router.replica is shared for router in protocol.routers.values())

    inserts = [0]
    program_insert = CompiledProgram.insert

    def counting_insert(program, subscription):
        inserts[0] += 1
        program_insert(program, subscription)

    monkeypatch.setattr(CompiledProgram, "insert", counting_insert)
    built = {}
    build_router = protocol._build_router

    def counting_build(broker):
        before = inserts[0]
        router = build_router(broker)
        built[broker] = inserts[0] - before
        return router

    monkeypatch.setattr(protocol, "_build_router", counting_build)
    deferred_at_add = []
    add_subscription = protocol.add_subscription

    def recording_add(subscription):
        add_subscription(subscription)
        deferred_at_add.append(len(protocol._deferred))

    monkeypatch.setattr(protocol, "add_subscription", recording_add)

    crashed, cut_off = mid_name(1, 0), subscriber_name(leaf_name(1, 0, 1), 0)
    plan = FaultPlan(
        [
            FaultAction.fail_broker(crashed, at_s=0.5),
            FaultAction.join_broker(
                "T0.J", attach_to=leaf_name(0, 2, 2), clients=("S.T0.J.00",), at_s=0.9
            ),
            FaultAction.recover_broker(crashed, at_s=1.3),
        ]
    )
    simulation = NetworkSimulation(
        topology, protocol, seed=17, fault_plan=plan, repair_delay_ms=5.0
    )
    events = EventGenerator(spec, seed=5, region_of=figure6_region_of)
    for publisher in topology.publishers():
        simulation.add_poisson_publisher(
            publisher, 40.0, events.factory_for(publisher), 80
        )
    # Added while its subscriber sits behind the crashed broker.
    simulation.add_subscription_at(
        0.8, Subscription(parse_predicate(spec.schema(), "*"), cut_off)
    )
    simulation.add_subscription_at(
        1.0, Subscription(parse_predicate(spec.schema(), "a1=0"), "S.T0.J.00")
    )
    result = simulation.run()
    report = check_invariants(result, simulation.faults)
    assert report.ok, (report.lost[:5], report.duplicates[:5])
    # Every broker but the cut-off subscriber's own deferred the first
    # runtime subscription; the repair after the recovery re-validated all.
    assert deferred_at_add[0] == len(protocol.routers) - 2  # T0.J not joined yet
    assert not protocol._deferred
    assert built == {"T0.J": 0}, "a joined broker annotates the shared replica"
    assert protocol.routers["T0.J"].replica is shared
    assert len(shared.views) == len(protocol.routers), "one view per live router"
    assert inserts[0] > 0, "the runtime subscriptions were inserted — once, by the owner"
    assert len(shared) == len(subscriptions) + 2
    matched = {record.client for record in result.deliveries if record.matched}
    assert {cut_off, "S.T0.J.00"} <= matched
