"""Backend equivalence: every execution backend answers like ``interp``.

The :class:`~repro.matching.backends.KernelBackend` contract is that a
backend is *observationally identical* to the reference interpreter:

* the same match **set** per event (compared as sorted subscription ids —
  match-list order is unspecified, exactly as it already is between the
  engines' batch and single paths),
* the same per-event **step counts**, and
* the same refined **link masks** bit for bit.

Pinned here for the ``vector`` backend against ``interp``, across fresh
programs, churn and re-annotation mid-stream, empty batches, duplicate-heavy
batches, and batches larger than the vector chunk width.  The vector
backend requires numpy, so the module skips without it.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import M, N, Y
from repro.core.trits import pack_tritvector
from repro.matching import Event, Predicate, RangeOp, Subscription, uniform_schema
from repro.matching.engines import CompiledEngine
from repro.matching.predicates import EqualityTest, RangeTest

pytest.importorskip("numpy")

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
subscription_lists = st.lists(predicate_specs, min_size=0, max_size=20)
event_values = st.tuples(*(st.sampled_from(DOMAIN) for _ in range(4)))
event_batches = st.lists(event_values, min_size=0, max_size=12)
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
        subscriptions.append(
            Subscription(Predicate(SCHEMA, tests), f"s{index % NUM_LINKS}")
        )
    return subscriptions


def link_of(subscription):
    return int(subscription.subscriber[1:])


def clone(subscription):
    return Subscription(
        subscription.predicate,
        subscription.subscriber,
        subscription_id=subscription.subscription_id,
    )


def build_engines(subscriptions):
    """(interp, vector) engines over the same subscriptions."""
    engines = [
        CompiledEngine(SCHEMA, domains=DOMAINS, backend="interp"),
        CompiledEngine(SCHEMA, domains=DOMAINS, backend="vector"),
    ]
    for subscription in subscriptions:
        for engine in engines:
            engine.insert(clone(subscription))
    return engines


def id_set(result):
    return sorted(s.subscription_id for s in result.subscriptions)


class TestVectorEquivalence:
    @given(specs=subscription_lists, batch=event_batches)
    @settings(max_examples=120)
    def test_batch_sets_and_steps(self, specs, batch):
        interp, vector = build_engines(make_subscriptions(specs))
        events = [Event.from_tuple(SCHEMA, values) for values in batch]
        reference = interp.match_batch(events)
        results = vector.match_batch(events)
        assert len(results) == len(reference)
        for got, want in zip(results, reference):
            assert id_set(got) == id_set(want)
            assert got.steps == want.steps

    @given(specs=subscription_lists, values=event_values)
    @settings(max_examples=80)
    def test_single_matches_batch(self, specs, values):
        """A backend's single-event answer equals its own batch answer."""
        _, vector = build_engines(make_subscriptions(specs))
        event = Event.from_tuple(SCHEMA, values)
        single = vector.match(event)
        [batched] = vector.match_batch([event])
        assert id_set(single) == id_set(batched)
        assert single.steps == batched.steps

    @given(specs=subscription_lists, batch=event_batches, mask=masks)
    @settings(max_examples=80)
    def test_links_batch_masks_and_steps(self, specs, batch, mask):
        interp, vector = build_engines(make_subscriptions(specs))
        events = [Event.from_tuple(SCHEMA, values) for values in batch]
        for engine in (interp, vector):
            engine.bind_links(NUM_LINKS, link_of)
        assert vector.match_links_batch(events, *mask) == interp.match_links_batch(
            events, *mask
        )

    def test_duplicate_heavy_batch(self):
        """Duplicates collapse identically (same shared entry per repeat)."""
        interp, vector = build_engines(
            make_subscriptions([(0, None, 1, None), (None, 2, None, None)])
        )
        event = Event.from_tuple(SCHEMA, (0, 2, 1, 0))
        other = Event.from_tuple(SCHEMA, (1, 1, 1, 1))
        batch = [event, other, event, event, other]
        reference = interp.match_batch(batch)
        results = vector.match_batch(batch)
        for got, want in zip(results, reference):
            assert id_set(got) == id_set(want)
            assert got.steps == want.steps

    def test_empty_batch(self):
        for engine in build_engines(make_subscriptions([(0, None, None, None)])):
            assert engine.match_batch([]) == []

    def test_batch_wider_than_chunk(self):
        """Batches beyond the 64-event mask width go through the chunk loop."""
        rng = random.Random(7)
        specs = [
            tuple(rng.choice([None, 0, 1, 2]) for _ in range(4)) for _ in range(30)
        ]
        interp, vector = build_engines(make_subscriptions(specs))
        events = [
            Event.from_tuple(SCHEMA, tuple(rng.choice(DOMAIN) for _ in range(4)))
            for _ in range(150)
        ]
        reference = interp.match_batch(events)
        results = vector.match_batch(events)
        for got, want in zip(results, reference):
            assert id_set(got) == id_set(want)
            assert got.steps == want.steps

    def test_churn_and_recompile_mid_stream(self):
        """Inserts, removes and full re-annotations bump the generation; the
        vector backend must rebuild its columnar index rather than answer
        from a stale one."""
        rng = random.Random(20260807)
        interp, vector = build_engines([])
        engines = (interp, vector)
        for engine in engines:
            engine.bind_links(NUM_LINKS, link_of)
        live = {}
        for round_index in range(120):
            if live and rng.random() < 0.45:
                subscription_id = rng.choice(sorted(live))
                del live[subscription_id]
                for engine in engines:
                    engine.remove(subscription_id)
            else:
                tests = {
                    name: EqualityTest(rng.choice(DOMAIN))
                    for name in SCHEMA.names
                    if rng.random() < 0.6
                }
                subscription = Subscription(
                    Predicate(SCHEMA, tests), f"s{rng.randrange(NUM_LINKS)}"
                )
                live[subscription.subscription_id] = subscription
                for engine in engines:
                    engine.insert(clone(subscription))
            if round_index % 29 == 28:
                for engine in engines:
                    engine.bind_links(NUM_LINKS, link_of)  # a full re-annotation
            events = [
                Event.from_tuple(
                    SCHEMA, tuple(rng.choice(DOMAIN) for _ in SCHEMA.names)
                )
                for _ in range(rng.randrange(1, 5))
            ]
            reference = interp.match_batch(events)
            mask = pack_tritvector(rng.choice([Y, M, N]) for _ in range(NUM_LINKS))
            reference_links = interp.match_links_batch(events, *mask)
            for got, want in zip(vector.match_batch(events), reference):
                assert id_set(got) == id_set(want)
                assert got.steps == want.steps
            assert vector.match_links_batch(events, *mask) == reference_links
