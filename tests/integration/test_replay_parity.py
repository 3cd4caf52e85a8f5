"""The replay path, on every constructible configuration, against the oracle.

A replayed message (``route(event, root, restrict_to=S)``) routes on the
initialization mask with every position that carries none of the
destinations ``S`` forced to No.  The router does that restriction as one
AND on packed bits; here it is redone the paper's way — a
:class:`~repro.core.trits.TritVector` built position by position from the
virtual links' destination lists — and refined by
:class:`~repro.core.link_matcher.LinkMatcher` over the very trees the
configuration refines (the factored sub-tree the event selects).  The
decision must agree on neighbors, steps and mask, for random destination
subsets, the empty one included.
"""

from __future__ import annotations

import random

import pytest

from repro.core import LinkMatcher, N, TreeAnnotation, TritVector
from repro.matching.optimizations import FactoredMatcher
from repro.matching.pst import ParallelSearchTree
from repro.workload.generators import EventGenerator, SubscriptionGenerator
from tests.integration.test_config_matrix import (
    CONSTRUCTIBLE,
    SPEC,
    VANTAGES,
    build_router,
    clone,
    subscribe,
)

NUM_EVENTS = 40
SUBSETS_PER_EVENT = 3


def restricted_mask(router, root, destinations):
    """The replay mask as a trit vector: the tree's initialization mask, No
    wherever a virtual link carries none of ``destinations``."""
    return TritVector(
        trit if destinations.intersection(virtual.destinations) else N
        for trit, virtual in zip(
            router.links.initialization_mask(root), router.links.virtual_links
        )
    )


def oracle_tree(replica):
    """The PST a replica's live subscriptions build — ``replica`` itself
    when it is one, else a tree fed the program's subscriptions in insertion
    order."""
    if isinstance(replica, ParallelSearchTree):
        return replica
    tree = ParallelSearchTree(
        replica.schema, attribute_order=replica.attribute_order, domains=replica.domains
    )
    for subscription in replica.subscriptions:
        tree.insert(subscription)
    return tree


def refined_tree(router, event):
    """The PST the router refines ``event`` over (``None``: no sub-tree can
    match, which costs one step and sends nowhere)."""
    replica = router.replica
    if isinstance(replica, FactoredMatcher):
        subtree = replica.subtree(replica.key_for_event(event))
        return None if subtree is None else oracle_tree(subtree)
    return oracle_tree(replica)


def oracle(router, event, root, destinations):
    mask = restricted_mask(router, root, destinations)
    tree = refined_tree(router, event)
    if tree is None:
        return mask.close_maybes(), 1
    annotation = TreeAnnotation(router.links.num_links, router._link_of_subscriber)
    annotation.annotate(tree)
    result = LinkMatcher(tree, annotation).match_links(event, mask)
    return result.mask, result.steps


@pytest.mark.parametrize(
    "engine, factored",
    CONSTRUCTIBLE,
    ids=[
        f"{engine}-{'factored' if factored else 'whole'}"
        for engine, factored in CONSTRUCTIBLE
    ],
)
def test_restricted_route_equals_link_matcher(diamond_topology, engine, factored):
    subscriptions = SubscriptionGenerator(
        SPEC, seed=25, duplicate_rate=0.3
    ).subscriptions_for(diamond_topology.subscribers(), 100)
    event_generator = EventGenerator(SPEC, seed=26)
    events = [event_generator.event_for() for _ in range(NUM_EVENTS)]
    clients = diamond_topology.clients()
    rng = random.Random(27)
    for broker, root in VANTAGES:
        router = build_router(diamond_topology, broker, engine, factored)
        for subscription in subscriptions:
            subscribe(router, clone(subscription))
        for event in events:
            subsets = [frozenset(), frozenset(clients)] + [
                frozenset(rng.sample(clients, rng.randint(1, len(clients))))
                for _ in range(SUBSETS_PER_EVENT)
            ]
            for destinations in subsets:
                decision = router.route(event, root, restrict_to=destinations)
                mask, steps = oracle(router, event, root, destinations)
                neighbors = sorted(
                    {router.links.neighbor_of_position(p) for p in mask.yes_positions()}
                )
                assert decision.mask == mask
                assert decision.steps == steps
                assert sorted(decision.forward_to + decision.deliver_to) == neighbors
                assert all(
                    diamond_topology.node(client).kind.is_client
                    for client in decision.deliver_to
                )
