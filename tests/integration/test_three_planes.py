"""Three planes, one scenario: the fabric, the simulator and the prototype
agree event by event.

The paper's protocol is one per-broker step (Section 3.3), and the repo
carries it on three planes: :class:`~repro.core.fabric.ContentRoutedNetwork`
walks it synchronously, :class:`~repro.protocols.LinkMatchingProtocol`
schedules it on the simulator's virtual clock (match-once digests on), and
:class:`~repro.broker.BrokerNode`\\ s encode it over the in-memory transport.
All three call :meth:`~repro.core.router.ContentRouter.route_hop`.

One seeded scenario (subscriptions, churn between publishes, events from
every publisher) runs through each plane on a chain, a diamond and a small
Figure 6, with the replica whole and factored.  Per event the planes must
deliver to the same clients (and to the brute-force recipients), and the
same brokers must route it the same number of times: on a spanning tree
that multiset is the link-crossing multiset, so a second copy on a link
shows up as a count of 2.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core import ContentRoutedNetwork
from repro.core.router import ContentRouter
from repro.matching import Event, Subscription, parse_predicate, uniform_schema
from repro.network import NodeKind, Topology, figure6_topology, linear_chain
from repro.protocols import LinkMatchingProtocol, ProtocolContext
from repro.sim import (
    FaultAction,
    FaultPlan,
    NetworkSimulation,
    check_invariants,
    seconds_to_ticks,
)
from repro.testkit import InMemoryBrokerHarness

SCHEMA = uniform_schema(3)
DOMAINS = {name: [0, 1, 2] for name in SCHEMA.names}
CONFIGS = {"whole": None, "factored": ["a1"]}


def diamond() -> Topology:
    """A cycle B0-B1-B3-B2-B0 with a publisher at each end of it."""
    topology = Topology()
    for name in ("B0", "B1", "B2", "B3"):
        topology.add_broker(name)
    for a, b in (("B0", "B1"), ("B0", "B2"), ("B1", "B3"), ("B2", "B3")):
        topology.add_link(a, b, latency_ms=10.0)
    for broker in ("B0", "B1", "B2", "B3"):
        topology.add_client(f"c.{broker}", broker)
    topology.add_client("P1", "B0", kind=NodeKind.PUBLISHER)
    topology.add_client("P2", "B3", kind=NodeKind.PUBLISHER)
    return topology


TOPOLOGIES = {
    "chain": lambda: linear_chain(4, subscribers_per_broker=2),
    "diamond": diamond,
    "figure6": lambda: figure6_topology(subscribers_per_broker=1),
}


def expression(rng: random.Random) -> str:
    tests = []
    for name in SCHEMA.names:
        roll = rng.random()
        if roll < 0.45:
            tests.append(f"{name}={rng.randrange(3)}")
        elif roll < 0.6:
            tests.append(f"{name}<{rng.randrange(1, 3)}")
    return " & ".join(tests) if tests else "*"


def scenario(topology: Topology, seed: int):
    """Steps ``("sub", key, client, expression)``, ``("unsub", key)`` and
    ``("pub", publisher, values)``: a population, publishes, then churn
    between publishes (so annotated views see inserts and removes)."""
    rng = random.Random(seed)
    subscribers = sorted(topology.subscribers())
    publishers = sorted(topology.publishers())
    steps = []
    live = []
    for key in range(min(10, len(subscribers))):
        steps.append(("sub", key, rng.choice(subscribers), expression(rng)))
        live.append(key)
    key = len(live)
    for round_ in range(12):
        steps.append(
            ("pub", publishers[round_ % len(publishers)],
             tuple(rng.randrange(3) for _ in SCHEMA.names))
        )
        if round_ >= 3 and round_ % 2:
            steps.append(("sub", key, rng.choice(subscribers), expression(rng)))
            live.append(key)
            key += 1
            steps.append(("unsub", live.pop(rng.randrange(len(live)))))
    return steps


def run_fabric(topology, factoring, steps, routed):
    network = ContentRoutedNetwork(
        topology, SCHEMA, domains=DOMAINS, factoring_attributes=factoring
    )
    ids = {}
    outcomes = []
    for step in steps:
        if step[0] == "sub":
            ids[step[1]] = network.subscribe(step[2], step[3]).subscription_id
        elif step[0] == "unsub":
            network.unsubscribe(ids.pop(step[1]))
        else:
            event = Event.from_tuple(SCHEMA, step[2])
            routed.clear()
            trace = network.publish(step[1], event)
            outcomes.append(
                (sorted(trace.deliveries), Counter(routed), network.expected_recipients(event))
            )
    return outcomes


def run_simulator(topology, factoring, steps, routed):
    context = ProtocolContext(
        topology, SCHEMA, [], domains=DOMAINS, factoring_attributes=factoring
    )
    protocol = LinkMatchingProtocol(context, use_digests=True)
    ids = {}
    outcomes = []
    for step in steps:
        if step[0] == "sub":
            subscription = Subscription(parse_predicate(SCHEMA, step[3]), step[2])
            protocol.add_subscription(subscription)
            ids[step[1]] = subscription.subscription_id
        elif step[0] == "unsub":
            subscription_id = ids.pop(step[1])
            protocol.replica.remove(subscription_id)
            for router in protocol.routers.values():
                router.remove_subscription(subscription_id)
        else:
            routed.clear()
            simulation = NetworkSimulation(topology, protocol, seed=1)
            simulation.publish(step[1], Event.from_tuple(SCHEMA, step[2]))
            result = simulation.run()
            outcomes.append(
                (sorted(record.client for record in result.deliveries), Counter(routed))
            )
    return outcomes


def run_prototype(topology, factoring, steps, routed):
    harness = InMemoryBrokerHarness(
        topology, SCHEMA, domains=DOMAINS, factoring_attributes=factoring
    )
    try:
        subscribers = sorted(topology.subscribers())
        clients = {
            name: harness.attach(name)
            for name in subscribers + sorted(topology.publishers())
        }
        ids = {}
        outcomes = []
        for step in steps:
            if step[0] == "sub":
                ids[step[1]] = (step[2], clients[step[2]].subscribe_and_wait(step[3]))
            elif step[0] == "unsub":
                client, subscription_id = ids.pop(step[1])
                clients[client].unsubscribe_and_wait(subscription_id)
            else:
                harness.settle()
                before = {name: len(clients[name].received_events) for name in subscribers}
                routed.clear()
                clients[step[1]].publish(dict(zip(SCHEMA.names, step[2])))
                harness.settle()
                delivered = []
                for name in subscribers:
                    delivered += [name] * (len(clients[name].received_events) - before[name])
                outcomes.append((delivered, Counter(routed)))
            harness.settle()
        return outcomes
    finally:
        harness.shutdown()


@pytest.fixture
def routed(monkeypatch):
    """The brokers each ``route_hop`` call routes for, one entry per event."""
    seen = []
    route_hop = ContentRouter.route_hop

    def recording(self, events, *args, **kwargs):
        seen.extend([self.broker] * len(events))
        return route_hop(self, events, *args, **kwargs)

    monkeypatch.setattr(ContentRouter, "route_hop", recording)
    return seen


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("shape", sorted(TOPOLOGIES))
def test_three_planes_agree_event_by_event(shape, config, routed, live_registry):
    topology = TOPOLOGIES[shape]()
    factoring = CONFIGS[config]
    steps = scenario(topology, seed=sum(map(ord, shape)))
    fabric = run_fabric(topology, factoring, steps, routed)
    simulator = run_simulator(topology, factoring, steps, routed)
    prototype = run_prototype(topology, factoring, steps, routed)
    assert len(fabric) == len(simulator) == len(prototype) == 12
    delivering = 0
    for index, ((f_clients, f_routed, expected), s, p) in enumerate(
        zip(fabric, simulator, prototype)
    ):
        assert f_routed and (f_clients, f_routed) == s == p, index
        assert f_clients == sorted(expected), index
        delivering += bool(expected)
    assert delivering >= 3  # the scenario does reach subscribers
    hits = sum(
        instrument.value
        for _key, instrument in live_registry.instruments("broker.digest_hits")
    )
    # Match-once digests are on wherever the replica is whole: the
    # simulator and the prototype both consumed some downstream.
    assert (hits > 0) == (factoring is None)


# ----------------------------------------------------------------------
# One link outage, two planes

FAULT_SCHEMA = uniform_schema(4)  # a4 numbers the events; no subscription tests it
FAULT_LINKS = {"chain": ("B1", "B2"), "diamond": ("B1", "B3")}


def fault_scenario(topology: Topology, link, seed: int):
    """Subscriptions, publishes ``(at_s, publisher, values)`` 100 ms apart,
    and a :class:`FaultPlan` that fails ``link`` after the fourth publish
    and recovers it after the eighth.  Nobody unsubscribes during the
    outage (an unsubscribe made then is F9)."""
    rng = random.Random(seed)
    subscriptions = [
        (client, expression(rng)) for client in sorted(topology.subscribers())
    ]
    publishers = sorted(topology.publishers())
    publishes = [
        (
            0.1 * (index + 1),
            publishers[index % len(publishers)],
            tuple(rng.randrange(3) for _ in SCHEMA.names) + (index,),
        )
        for index in range(12)
    ]
    plan = FaultPlan(
        [FaultAction.fail_link(*link, at_s=0.45), FaultAction.recover_link(*link, at_s=0.85)]
    )
    return subscriptions, publishes, plan


def simulate_outage(topology, subscriptions, publishes, plan):
    """The simulator runs the plan natively: the link fails and is
    repaired, parked copies and offline backlogs replay on recovery."""
    parsed = [
        Subscription(parse_predicate(FAULT_SCHEMA, text), client)
        for client, text in subscriptions
    ]
    context = ProtocolContext(topology, FAULT_SCHEMA, parsed)
    simulation = NetworkSimulation(
        topology, LinkMatchingProtocol(context), seed=1, fault_plan=plan
    )
    index_of = {}
    for at_s, publisher, values in publishes:
        event = Event.from_tuple(FAULT_SCHEMA, values)
        index_of[event.event_id] = values[-1]
        simulation.simulator.schedule_at(
            seconds_to_ticks(at_s),
            lambda p=publisher, e=event: simulation.publish(p, e),
        )
    result = simulation.run()
    report = check_invariants(result, simulation.faults)
    assert report.ok, (report.lost[:5], report.duplicates[:5])
    return {
        (record.client, index_of[record.event_id])
        for record in result.deliveries
        if record.matched
    }


def prototype_outage(topology, subscriptions, publishes, plan, monkeypatch):
    """The prototype translates the plan in time order: the link's dialer
    closes its connection, and later re-dials it; forwards park and replay.
    The hub settles after every step."""
    routed = Counter()
    route_hop = ContentRouter.route_hop

    def recording(self, events, *args, **kwargs):
        routed.update((self.broker, event.value("a4")) for event in events)
        return route_hop(self, events, *args, **kwargs)

    monkeypatch.setattr(ContentRouter, "route_hop", recording)
    timeline = sorted(
        [(at_s, "publish", (publisher, values)) for at_s, publisher, values in publishes]
        + [(action.at_s, action.kind, sorted(action.target)) for action in plan],
        key=lambda step: step[0],
    )
    harness = InMemoryBrokerHarness(topology, FAULT_SCHEMA)
    try:
        clients = {
            name: harness.attach(name)
            for name in sorted(topology.subscribers()) + sorted(topology.publishers())
        }
        for client, text in subscriptions:
            clients[client].subscribe_and_wait(text)
        harness.settle()
        for _at_s, kind, target in timeline:
            if kind == "fail_link":
                dialer, acceptor = target
                harness.node(dialer)._broker_connections[acceptor].close()
            elif kind == "recover_link":
                harness.node(target[0]).dial_broker(target[1])
            else:
                publisher, values = target
                clients[publisher].publish(dict(zip(FAULT_SCHEMA.names, values)))
            harness.settle()
        delivered = Counter(
            (name, event.value("a4"))
            for name in topology.subscribers()
            for event in clients[name].received_events
        )
    finally:
        harness.shutdown()
    assert max(delivered.values()) == 1, "an event reached a client twice"
    assert max(routed.values()) == 1, "an event was routed twice at one broker"
    return set(delivered)


@pytest.mark.parametrize("shape", sorted(FAULT_LINKS))
def test_one_outage_on_two_planes(shape, monkeypatch, live_registry):
    topology = TOPOLOGIES[shape]()
    subscriptions, publishes, plan = fault_scenario(
        topology, FAULT_LINKS[shape], seed=sum(map(ord, shape))
    )
    expected = set()
    for _at_s, _publisher, values in publishes:
        event = Event.from_tuple(FAULT_SCHEMA, values)
        expected.update(
            (client, values[-1])
            for client, text in subscriptions
            if parse_predicate(FAULT_SCHEMA, text).matches(event)
        )
    simulator = simulate_outage(TOPOLOGIES[shape](), subscriptions, publishes, plan)
    prototype = prototype_outage(topology, subscriptions, publishes, plan, monkeypatch)
    assert simulator == prototype == expected
    # The outage hit traffic: the prototype parked forwards across the
    # failed link, and replayed every one of them.
    parked, replayed = (
        sum(instrument.value for _key, instrument in live_registry.instruments(name))
        for name in ("broker.forwards_parked", "broker.forwards_replayed")
    )
    assert parked > 0 and replayed == parked
