"""Batched matching is indistinguishable from per-event matching.

For every engine (object-graph tree, compiled arrays, factored matcher) and
every batch of events, ``match_batch(events)[i]`` must equal
``match(events[i])`` — same match set, same step count.  Likewise
``match_links_batch`` against per-event ``match_links``.  Half the batches
are drawn from a pool of at most four events, so in-batch duplicates reach
the compiled batch path (nothing folds them first) with their step counts
compared too.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import M, N, Y
from repro.core.trits import pack_tritvector
from repro.matching import Event, ParallelSearchTree, Predicate, RangeOp, Subscription, uniform_schema
from repro.matching.compile import CompiledProgram
from repro.matching.engines import CompiledEngine, TreeEngine
from repro.matching.optimizations import FactoredMatcher
from repro.matching.predicates import EqualityTest, RangeTest

SCHEMA = uniform_schema(4)
DOMAIN = [0, 1, 2]
DOMAINS = {name: DOMAIN for name in SCHEMA.names}
NUM_LINKS = 5

test_specs = st.one_of(
    st.none(),
    st.sampled_from(DOMAIN),
    st.tuples(
        st.sampled_from([RangeOp.LT, RangeOp.LE, RangeOp.GT, RangeOp.GE]),
        st.sampled_from(DOMAIN),
    ),
)
predicate_specs = st.tuples(*(test_specs for _ in range(4)))
subscription_lists = st.lists(predicate_specs, min_size=0, max_size=15)
event_tuples = st.tuples(*(st.sampled_from(DOMAIN) for _ in range(4)))
#: Free batches, or batches drawn from a pool of at most four events so
#: repeats are the rule, including batches with every event identical.
event_batches = st.one_of(
    st.lists(event_tuples, min_size=0, max_size=12),
    st.lists(event_tuples, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=0, max_size=12)
    ),
)
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


def assert_batch_equivalent(matcher, events):
    batch = matcher.match_batch(events)
    assert len(batch) == len(events)
    for event, batched in zip(events, batch):
        single = matcher.match(event)
        assert sorted(s.subscription_id for s in batched.subscriptions) == sorted(
            s.subscription_id for s in single.subscriptions
        )
        assert batched.steps == single.steps


class TestMatchBatchEquivalence:
    @given(specs=subscription_lists, batch=event_batches)
    @settings(max_examples=150)
    def test_compiled(self, specs, batch):
        engine = CompiledEngine(CompiledProgram(SCHEMA, domains=DOMAINS))
        for subscription in make_subscriptions(specs):
            engine.insert(subscription)
        events = [Event.from_tuple(SCHEMA, values) for values in batch]
        assert_batch_equivalent(engine, events)

    @given(specs=subscription_lists, batch=event_batches)
    @settings(max_examples=75)
    def test_tree_fallback(self, specs, batch):
        engine = TreeEngine(ParallelSearchTree(SCHEMA, domains=DOMAINS))
        for subscription in make_subscriptions(specs):
            engine.insert(subscription)
        events = [Event.from_tuple(SCHEMA, values) for values in batch]
        assert_batch_equivalent(engine, events)

    @given(specs=subscription_lists, batch=event_batches)
    @settings(max_examples=50)
    def test_factored_fallback(self, specs, batch):
        matcher = FactoredMatcher(SCHEMA, [SCHEMA.names[0]], DOMAINS)
        for subscription in make_subscriptions(specs):
            matcher.insert(subscription)
        events = [Event.from_tuple(SCHEMA, values) for values in batch]
        assert_batch_equivalent(matcher, events)

    @given(specs=subscription_lists, event_values=event_tuples)
    @settings(max_examples=50)
    def test_identical_events_share_one_result(self, specs, event_values):
        """A batch of copies of one event: every slot gets the same answer."""
        engine = CompiledEngine(CompiledProgram(SCHEMA, domains=DOMAINS))
        for subscription in make_subscriptions(specs):
            engine.insert(subscription)
        events = [Event.from_tuple(SCHEMA, event_values) for _ in range(6)]
        results = engine.match_batch(events)
        single = engine.match(events[0])
        for result in results:
            assert sorted(s.subscription_id for s in result.subscriptions) == sorted(
                s.subscription_id for s in single.subscriptions
            )
            assert result.steps == single.steps


class TestMatchLinksBatchEquivalence:
    @given(specs=subscription_lists, batch=event_batches, mask=masks)
    @settings(max_examples=100)
    def test_compiled(self, specs, batch, mask):
        engine = CompiledEngine(CompiledProgram(SCHEMA, domains=DOMAINS))
        for subscription in make_subscriptions(specs):
            engine.insert(subscription)
        engine.bind_links(NUM_LINKS, link_of)
        events = [Event.from_tuple(SCHEMA, values) for values in batch]
        batched = engine.match_links_batch(events, *mask)
        assert batched == [engine.match_links(event, *mask) for event in events]

    @given(specs=subscription_lists, batch=event_batches, mask=masks)
    @settings(max_examples=50)
    def test_tree_fallback(self, specs, batch, mask):
        engine = TreeEngine(ParallelSearchTree(SCHEMA, domains=DOMAINS))
        for subscription in make_subscriptions(specs):
            engine.insert(subscription)
        engine.bind_links(NUM_LINKS, link_of)
        events = [Event.from_tuple(SCHEMA, values) for values in batch]
        batched = engine.match_links_batch(events, *mask)
        assert batched == [engine.match_links(event, *mask) for event in events]
