"""The whole matcher configuration lattice, in one place.

Every configuration a caller can ask
:func:`~repro.matching.engines.create_matcher` for (the replica a
:class:`~repro.core.ContentRouter` views) is enumerated here: one compiled
program, whole or factored.  Each row in :data:`CONSTRUCTIBLE` must route
exactly like the paper-faithful object-graph router of ``tests/oracle`` and
match exactly like brute-force predicate evaluation, before and after
subscription churn, and must refuse a subscription or an event on another
schema.  A new option therefore cannot land without a row here.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core import ContentRouter
from repro.errors import RoutingError, SubscriptionError
from repro.matching import Event, create_matcher, parse_predicate, uniform_schema, view_of
from repro.matching.predicates import Subscription
from repro.network import RoutingTable, spanning_trees_for_publishers
from repro.workload.generators import EventGenerator, SubscriptionGenerator
from repro.workload.spec import WorkloadSpec
from tests.oracle import OracleRouter, ParallelSearchTree

#: ``(engine, factored)``, written out by hand.
CONSTRUCTIBLE = [
    ("compiled", False),
    ("compiled", True),
]
LATTICE = list(itertools.product(("compiled",), (False, True)))

#: Selective enough that every forward/deliver combination of a vantage
#: occurs among the events, duplicated enough that leaves are shared.
SPEC = WorkloadSpec(
    num_attributes=5,
    values_per_attribute=4,
    factoring_levels=1,
    non_star_decay=0.9,
    zipf_exponent=0.5,
    locality_regions=1,
    range_probability=0.2,
)
NUM_SUBSCRIPTIONS = 120
NUM_EVENTS = 200
#: ``(broker, tree root)`` pairs of the diamond: the publishing broker of
#: each tree and a broker downstream of it.
VANTAGES = [("B0", "B0"), ("B1", "B0"), ("B3", "B3"), ("B1", "B3")]


def build_router(topology, broker, engine, factored):
    """A router on a private replica of the given configuration."""
    replica = create_matcher(
        SPEC.schema(),
        domains=SPEC.domains(),
        factoring_attributes=SPEC.factoring_attributes if factored else None,
    )
    return ContentRouter(
        topology,
        broker,
        RoutingTable(topology, broker),
        spanning_trees_for_publishers(topology),
        replica,
    )


def subscribe(router, subscription):
    router.replica.insert(subscription)
    router.add_subscription(subscription)


def unsubscribe(router, subscription_id):
    router.replica.remove(subscription_id)
    router.remove_subscription(subscription_id)


def clone(subscription):
    return Subscription(
        subscription.predicate,
        subscription.subscriber,
        subscription_id=subscription.subscription_id,
    )


def assert_equivalent(router, oracle, root, live, events):
    assert router.subscription_count == len(live)
    decisions = [router.route(event, root) for event in events]
    for event, decision, batched in zip(
        events, decisions, router.route_batch(events, root)
    ):
        expected = oracle.route(event, root)
        assert (decision.forward_to, decision.deliver_to) == (
            expected.forward_to,
            expected.deliver_to,
        )
        assert str(decision.mask) == str(expected.mask)
        assert (batched.forward_to, batched.deliver_to, str(batched.mask)) == (
            decision.forward_to,
            decision.deliver_to,
            str(decision.mask),
        )
        brute_force = sorted(
            s.subscription_id for s in live.values() if s.predicate.matches(event)
        )
        matched = router.match_locally(event).subscriptions
        assert sorted(s.subscription_id for s in matched) == brute_force


@pytest.mark.parametrize(
    "engine, factored",
    LATTICE,
    ids=[f"{engine}-{'factored' if factored else 'whole'}" for engine, factored in LATTICE],
)
def test_lattice_point(diamond_topology, engine, factored):
    config = (engine, factored)
    if config not in CONSTRUCTIBLE:
        with pytest.raises(SubscriptionError):
            build_router(diamond_topology, "B0", *config)
        return

    subscribers = diamond_topology.subscribers()
    subscriptions = SubscriptionGenerator(
        SPEC, seed=15, duplicate_rate=0.3
    ).subscriptions_for(subscribers, NUM_SUBSCRIPTIONS)
    late, standing = subscriptions[:20], subscriptions[20:]
    event_generator = EventGenerator(SPEC, seed=16)
    events = [event_generator.event_for() for _ in range(NUM_EVENTS)]

    for broker, root in VANTAGES:
        router = build_router(diamond_topology, broker, *config)
        oracle = OracleRouter(
            diamond_topology,
            broker,
            RoutingTable(diamond_topology, broker),
            spanning_trees_for_publishers(diamond_topology),
            ParallelSearchTree(SPEC.schema(), domains=SPEC.domains()),
        )
        live = {}
        for subscription in standing:
            live[subscription.subscription_id] = subscription
            subscribe(router, clone(subscription))
            subscribe(oracle, clone(subscription))
        assert_equivalent(router, oracle, root, live, events)
        # Churn after matching: subscribe the late ones, drop every
        # third standing one (duplicates included, so shared leaves lose
        # members).
        for subscription in late:
            live[subscription.subscription_id] = subscription
            subscribe(router, clone(subscription))
            subscribe(oracle, clone(subscription))
        for subscription in standing[::3]:
            del live[subscription.subscription_id]
            unsubscribe(router, subscription.subscription_id)
            unsubscribe(oracle, subscription.subscription_id)
        assert_equivalent(router, oracle, root, live, events)


@pytest.mark.parametrize(
    "engine, factored",
    CONSTRUCTIBLE,
    ids=[f"{engine}-{'factored' if factored else 'whole'}" for engine, factored in CONSTRUCTIBLE],
)
def test_a_foreign_schema_is_refused(engine, factored):
    """A subscription or an event on another schema fails closed, whether or
    not a factored replica's index key selects a populated sub-tree."""
    ours, longer, shorter = uniform_schema(3), uniform_schema(4), uniform_schema(2)
    replica = create_matcher(
        ours,
        domains={name: [0, 1, 2] for name in ours.names},
        factoring_attributes=["a3"] if factored else None,
    )
    with pytest.raises(SubscriptionError):
        replica.insert(Subscription(parse_predicate(longer, "a3=1 & a4=2"), "x"))
    assert len(replica) == 0
    replica.insert(Subscription(parse_predicate(ours, "a3=1"), "y"))
    view = view_of(replica)
    view.bind_links(1, lambda subscription: 0)
    # Key a3=1 is populated, a3=2 is not, and the shorter schema has no a3.
    for event in (
        Event.from_tuple(longer, (0, 0, 1, 0)),
        Event.from_tuple(longer, (0, 0, 2, 0)),
        Event.from_tuple(shorter, (0, 0)),
    ):
        with pytest.raises(SubscriptionError):
            replica.match(event)
        with pytest.raises(RoutingError):
            view.match_links(event, 0, 1)
        with pytest.raises(RoutingError):
            view.match_links_batch([event], 0, 1)


def test_literal_list_is_inside_the_lattice():
    """A row naming a removed engine or option must not linger."""
    assert set(CONSTRUCTIBLE) <= set(LATTICE)
    assert len(set(CONSTRUCTIBLE)) == len(CONSTRUCTIBLE)
