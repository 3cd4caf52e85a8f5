"""Program ≡ oracle: a CompiledEngine and the object-graph oracle's view
are indistinguishable.

The compiled matcher is only allowed to be *faster*: for every subscription
set, every event, and every initialization mask, both must produce

* the same match set (order is unspecified — the tree searches depth-first,
  the compiled kernel breadth-first, so sets are compared),
* the same step count (the paper's Chart 2/3 metric), and
* the same refined link mask with the same step count from link matching.

A churn test drives inserts and removes through both to exercise the
compiled program's incremental patching.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core import M, N, Y
from repro.matching import Event, Predicate, RangeOp, Subscription, uniform_schema
from repro.matching.compile import CompiledProgram
from repro.matching.engines import CompiledEngine
from repro.matching.predicates import EqualityTest, RangeTest
from tests.oracle import OracleView, ParallelSearchTree
from tests.oracle.trits import pack_tritvector

SCHEMA = uniform_schema(4)
DOMAIN = [0, 1, 2]
DOMAINS = {name: DOMAIN for name in SCHEMA.names}
NUM_LINKS = 5

#: Per attribute: None = don't care, int = equality, (op, bound) = range.
test_specs = st.one_of(
    st.none(),
    st.sampled_from(DOMAIN),
    st.tuples(
        st.sampled_from([RangeOp.LT, RangeOp.LE, RangeOp.GT, RangeOp.GE]),
        st.sampled_from(DOMAIN),
    ),
)
predicate_specs = st.tuples(*(test_specs for _ in range(4)))
subscription_lists = st.lists(predicate_specs, min_size=0, max_size=20)
events = st.tuples(*(st.sampled_from(DOMAIN + [9]) for _ in range(4)))  # 9 = out of domain
masks = st.lists(st.sampled_from([Y, M, N]), min_size=NUM_LINKS, max_size=NUM_LINKS).map(
    pack_tritvector
)


def make_subscriptions(specs):
    subscriptions = []
    for index, spec in enumerate(specs):
        tests = {}
        for name, part in zip(SCHEMA.names, spec):
            if part is None:
                continue
            if isinstance(part, tuple):
                tests[name] = RangeTest(part[0], part[1])
            else:
                tests[name] = EqualityTest(part)
        subscriptions.append(Subscription(Predicate(SCHEMA, tests), f"s{index % NUM_LINKS}"))
    return subscriptions


def link_of(subscription):
    return int(subscription.subscriber[1:])


def build_engines(subscriptions, *, domains=None):
    tree = OracleView(ParallelSearchTree(SCHEMA, domains=domains))
    compiled = CompiledEngine(CompiledProgram(SCHEMA, domains=domains))
    for subscription in subscriptions:
        tree.insert(subscription)
        compiled.insert(
            Subscription(
                subscription.predicate,
                subscription.subscriber,
                subscription_id=subscription.subscription_id,
            )
        )
    return tree, compiled


def assert_match_equivalent(tree, compiled, event):
    tree_result = tree.match(event)
    compiled_result = compiled.match(event)
    assert sorted(s.subscription_id for s in tree_result.subscriptions) == sorted(
        s.subscription_id for s in compiled_result.subscriptions
    )
    assert tree_result.steps == compiled_result.steps


class TestMatchEquivalence:
    @given(specs=subscription_lists, event_values=events)
    @settings(max_examples=200)
    def test_same_matches_and_steps(self, specs, event_values):
        tree, compiled = build_engines(make_subscriptions(specs))
        assert_match_equivalent(tree, compiled, Event.from_tuple(SCHEMA, event_values))

    @given(specs=subscription_lists, event_values=events)
    @settings(max_examples=100)
    def test_same_matches_and_steps_with_domains(self, specs, event_values):
        tree, compiled = build_engines(make_subscriptions(specs), domains=DOMAINS)
        assert_match_equivalent(tree, compiled, Event.from_tuple(SCHEMA, event_values))


class TestLinkMatchEquivalence:
    @given(specs=subscription_lists, event_values=events, mask=masks)
    @settings(max_examples=200)
    def test_same_refined_mask_and_steps(self, specs, event_values, mask):
        # Link matching needs declared domains (annotation treats them as the
        # exhaustive value universe), so events stay in-domain here.
        event_values = tuple(v if v in DOMAIN else DOMAIN[0] for v in event_values)
        tree, compiled = build_engines(make_subscriptions(specs), domains=DOMAINS)
        tree.bind_links(NUM_LINKS, link_of)
        compiled.bind_links(NUM_LINKS, link_of)
        event = Event.from_tuple(SCHEMA, event_values)
        assert compiled.match_links(event, *mask) == tree.match_links(event, *mask)


class TestChurnEquivalence:
    def test_incremental_patching_stays_equivalent(self):
        """Seeded insert/remove churn: the compiled program is patched in
        place (recompiling only when patching bails out) and must stay
        equivalent to the tree after every mutation."""
        rng = random.Random(20260806)
        tree, compiled = build_engines([], domains=DOMAINS)
        tree.bind_links(NUM_LINKS, link_of)
        compiled.bind_links(NUM_LINKS, link_of)
        live = {}

        def random_subscription():
            tests = {}
            for name in SCHEMA.names:
                roll = rng.random()
                if roll < 0.4:
                    continue
                if roll < 0.8:
                    tests[name] = EqualityTest(rng.choice(DOMAIN))
                else:
                    tests[name] = RangeTest(
                        rng.choice([RangeOp.LT, RangeOp.LE, RangeOp.GT, RangeOp.GE]),
                        rng.choice(DOMAIN),
                    )
            return Subscription(Predicate(SCHEMA, tests), f"s{rng.randrange(NUM_LINKS)}")

        for round_index in range(200):
            if live and rng.random() < 0.4:
                subscription_id = rng.choice(sorted(live))
                del live[subscription_id]
                tree.remove(subscription_id)
                compiled.remove(subscription_id)
            else:
                subscription = random_subscription()
                live[subscription.subscription_id] = subscription
                tree.insert(subscription)
                compiled.insert(
                    Subscription(
                        subscription.predicate,
                        subscription.subscriber,
                        subscription_id=subscription.subscription_id,
                    )
                )
            event = Event.from_tuple(
                SCHEMA, tuple(rng.choice(DOMAIN) for _ in SCHEMA.names)
            )
            assert_match_equivalent(tree, compiled, event)
            mask = pack_tritvector(rng.choice([Y, M, N]) for _ in range(NUM_LINKS))
            assert compiled.match_links(event, *mask) == tree.match_links(event, *mask)
        assert len(tree.subscriptions) == len(live)
        assert len(compiled.subscriptions) == len(live)
