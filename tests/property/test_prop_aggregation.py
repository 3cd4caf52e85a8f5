"""Aggregation equivalence: compression must never change an answer.

:class:`~repro.matching.aggregation.AggregatingEngine` must be
indistinguishable from the engine it wraps running *without* aggregation,
for every subscription set, kernel backend, event, and initialization
mask:

* the same match set (compared as sorted subscription ids),
* the same refined link mask, bit for bit, and
* identical answers from the single and batched entry points.

Step counts are deliberately **not** compared across aggregation on/off:
the aggregated engine attributes steps to its two programs over
deduplicated leaves (roots and covered groups), which differs from the
per-subscriber walk by design (the whole point is to do less work).

The small schema/domain makes duplicate predicate bodies and covering
relations (a looser predicate subsuming a stricter one) arise constantly,
so the generated sets exercise dedup groups, multi-level forests, and
demotion at insert.  A seeded churn test drives inserts and removes —
including removing the last member of covering parents, which must promote
covered children from the covered program into the inner one — so the
partition of groups between the two programs and the ``refresh_links``
repair are under test the whole time, and a twin engine that replays the
same history without matching pins that answers (steps included) never
depend on match history.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import M, N, Y
from repro.core.trits import pack_tritvector
from repro.matching import Event, Predicate, RangeOp, Subscription, uniform_schema
from repro.matching.aggregation import AggregatingEngine
from repro.matching.engines import create_engine
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
subscription_lists = st.lists(predicate_specs, min_size=0, max_size=20)
events = st.tuples(*(st.sampled_from(DOMAIN) for _ in range(4)))
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
        predicate = Predicate(SCHEMA, tests)
        if not predicate.is_satisfiable:
            continue  # both engines refuse these identically; nothing to compare
        subscriptions.append(Subscription(predicate, f"s{index % NUM_LINKS}"))
    return subscriptions


def link_of(subscription):
    return int(subscription.subscriber[1:])


def clone(subscription):
    return Subscription(
        subscription.predicate,
        subscription.subscriber,
        subscription_id=subscription.subscription_id,
    )


def build_pair(subscriptions, *, backend=None):
    """(unaggregated reference, aggregated) over the same subscription set."""
    kwargs = dict(domains=DOMAINS, backend=backend)
    plain = create_engine("compiled", SCHEMA, **kwargs)
    aggregated = create_engine("compiled", SCHEMA, aggregate=True, **kwargs)
    for subscription in subscriptions:
        plain.insert(subscription)
        aggregated.insert(clone(subscription))
    return plain, aggregated


def assert_same_matches(plain, aggregated, event):
    plain_ids = sorted(s.subscription_id for s in plain.match(event).subscriptions)
    aggregated_ids = sorted(
        s.subscription_id for s in aggregated.match(event).subscriptions
    )
    assert plain_ids == aggregated_ids


class TestAggregationEquivalence:
    @given(specs=subscription_lists, event_values=events)
    @settings(max_examples=150)
    def test_match_sets_equal(self, specs, event_values):
        plain, aggregated = build_pair(make_subscriptions(specs))
        event = Event.from_tuple(SCHEMA, event_values)
        for _ in range(2):  # matching leaves no state behind
            assert_same_matches(plain, aggregated, event)
        # The forest never *loses* anyone: members partition over groups.
        assert aggregated.subscription_count == plain.subscription_count
        assert aggregated.root_count <= max(1, aggregated.forest_nodes)

    @given(specs=subscription_lists, event_values=events, mask=masks)
    @settings(max_examples=150)
    def test_link_masks_exact(self, specs, event_values, mask):
        plain, aggregated = build_pair(make_subscriptions(specs))
        plain.bind_links(NUM_LINKS, link_of)
        aggregated.bind_links(NUM_LINKS, link_of)
        event = Event.from_tuple(SCHEMA, event_values)
        for _ in range(2):  # matching leaves no state behind
            assert (
                aggregated.match_links(event, *mask)[0]
                == plain.match_links(event, *mask)[0]
            )

    @given(specs=subscription_lists, event_values=events, mask=masks)
    @settings(max_examples=60)
    def test_vector_backend_masks_exact(self, specs, event_values, mask):
        """The inner refinement runs over deduplicated leaves on every
        kernel backend; the vector kernels must agree with the reference."""
        pytest.importorskip("numpy")
        plain, aggregated = build_pair(make_subscriptions(specs), backend="vector")
        plain.bind_links(NUM_LINKS, link_of)
        aggregated.bind_links(NUM_LINKS, link_of)
        event = Event.from_tuple(SCHEMA, event_values)
        assert_same_matches(plain, aggregated, event)
        assert (
            aggregated.match_links(event, *mask)[0]
            == plain.match_links(event, *mask)[0]
        )

    @given(specs=subscription_lists, event_values=events, mask=masks)
    @settings(max_examples=60)
    def test_batch_matches_single(self, specs, event_values, mask):
        plain, aggregated = build_pair(make_subscriptions(specs))
        plain.bind_links(NUM_LINKS, link_of)
        aggregated.bind_links(NUM_LINKS, link_of)
        event = Event.from_tuple(SCHEMA, event_values)
        batch = aggregated.match_batch([event, event])
        single = aggregated.match(event)
        for result in batch:
            assert sorted(s.subscription_id for s in result.subscriptions) == sorted(
                s.subscription_id for s in single.subscriptions
            )
        link_batch = aggregated.match_links_batch([event, event], *mask)
        assert link_batch == [aggregated.match_links(event, *mask)] * 2
        plain_batch = plain.match_links_batch([event, event], *mask)
        for ours, theirs in zip(link_batch, plain_batch):
            assert ours[0] == theirs[0]

    @given(specs=subscription_lists, event_values=events)
    @settings(max_examples=60)
    def test_brute_force_agrees(self, specs, event_values):
        _, aggregated = build_pair(make_subscriptions(specs))
        event = Event.from_tuple(SCHEMA, event_values)
        assert sorted(
            s.subscription_id for s in aggregated.match(event).subscriptions
        ) == sorted(
            s.subscription_id for s in aggregated.match_brute_force(event)
        )


class TestIngestOrderInvariance:
    @given(
        specs=subscription_lists,
        event_values=events,
        mask=masks,
        order_seed=st.integers(0, 2**16),
        use_index=st.booleans(),
    )
    @settings(max_examples=100)
    def test_any_ingest_order_gives_identical_answers(
        self, specs, event_values, mask, order_seed, use_index
    ):
        """Forest state is ingest-order invariant: whatever order the same
        subscription set arrives in — and whether the covering search runs
        through the attribute index or the linear sibling scans — the match
        sets and refined link masks are identical to the unaggregated
        reference over the original order."""
        subscriptions = make_subscriptions(specs)
        permuted = list(subscriptions)
        random.Random(order_seed).shuffle(permuted)
        plain = create_engine("compiled", SCHEMA, domains=DOMAINS)
        aggregated = AggregatingEngine(
            create_engine("compiled", SCHEMA, domains=DOMAINS),
            use_index=use_index,
        )
        for subscription in subscriptions:
            plain.insert(subscription)
        for subscription in permuted:
            aggregated.insert(clone(subscription))
        plain.bind_links(NUM_LINKS, link_of)
        aggregated.bind_links(NUM_LINKS, link_of)
        event = Event.from_tuple(SCHEMA, event_values)
        assert_same_matches(plain, aggregated, event)
        assert (
            aggregated.match_links(event, *mask)[0]
            == plain.match_links(event, *mask)[0]
        )
        assert aggregated.subscription_count == plain.subscription_count


def assert_partition(aggregated):
    """The inner program holds exactly the roots' representatives, the
    covered program exactly the other groups', and every representative
    maps back to its group."""
    groups = aggregated._groups.values()
    roots = {g.representative.subscription_id for g in groups if g.parent is None}
    covered = {g.representative.subscription_id for g in groups if g.parent is not None}
    assert {s.subscription_id for s in aggregated.inner.subscriptions} == roots
    assert {s.subscription_id for s in aggregated._covered.subscriptions} == covered
    assert not roots & covered
    assert set(aggregated._rep_group) == roots | covered


def replay(history, *, backend):
    """A fresh aggregated engine that saw ``history`` (inserts and removes)
    and never matched anything."""
    twin = create_engine(
        "compiled", SCHEMA, domains=DOMAINS, backend=backend, aggregate=True
    )
    twin.bind_links(NUM_LINKS, link_of)
    for operation, payload in history:
        if operation == "insert":
            twin.insert(clone(payload))
        else:
            twin.remove(payload)
    return twin


class TestChurnEquivalence:
    @pytest.mark.parametrize("backend", ["interp", "vector"])
    def test_churn_compiled_inner(self, backend):
        """Seeded insert/remove churn.  Removals target
        *all* live ids uniformly, so covering parents regularly lose their
        last member and must promote covered children back to compiled
        roots mid-stream; every answer is checked immediately after, against
        the unaggregated engine (match sets, masks) and against a twin that
        replayed the same history without matching in between (match sets,
        masks *and* steps: answers must not depend on match history)."""
        if backend == "vector":
            pytest.importorskip("numpy")
        rng = random.Random(20260807)
        plain = create_engine("compiled", SCHEMA, domains=DOMAINS, backend=backend)
        aggregated = create_engine(
            "compiled", SCHEMA, domains=DOMAINS, backend=backend, aggregate=True
        )
        plain.bind_links(NUM_LINKS, link_of)
        aggregated.bind_links(NUM_LINKS, link_of)
        live = {}
        history = []

        def random_subscription():
            tests = {}
            for name in SCHEMA.names:
                roll = rng.random()
                if roll < 0.5:
                    continue  # frequent don't-cares breed covering parents
                if roll < 0.85:
                    tests[name] = EqualityTest(rng.choice(DOMAIN))
                else:
                    tests[name] = RangeTest(
                        rng.choice([RangeOp.LT, RangeOp.LE, RangeOp.GT, RangeOp.GE]),
                        rng.choice(DOMAIN),
                    )
            predicate = Predicate(SCHEMA, tests)
            if not predicate.is_satisfiable:
                return random_subscription()
            return Subscription(predicate, f"s{rng.randrange(NUM_LINKS)}")

        promotions_seen = 0
        for _ in range(150):
            if live and rng.random() < 0.45:
                subscription_id = rng.choice(sorted(live))
                del live[subscription_id]
                roots_before = aggregated.root_count
                plain.remove(subscription_id)
                aggregated.remove(subscription_id)
                history.append(("remove", subscription_id))
                if aggregated.root_count > roots_before:
                    promotions_seen += 1  # a covering parent dissolved
            else:
                subscription = random_subscription()
                live[subscription.subscription_id] = subscription
                plain.insert(subscription)
                aggregated.insert(clone(subscription))
                history.append(("insert", subscription))
            assert_partition(aggregated)
            event = Event.from_tuple(
                SCHEMA, tuple(rng.choice(DOMAIN) for _ in SCHEMA.names)
            )
            assert_same_matches(plain, aggregated, event)
            mask = pack_tritvector(rng.choice([Y, M, N]) for _ in range(NUM_LINKS))
            links = aggregated.match_links(event, *mask)
            assert links[0] == plain.match_links(event, *mask)[0]
            twin = replay(history, backend=backend)
            ours, theirs = aggregated.match(event), twin.match(event)
            assert sorted(s.subscription_id for s in ours.subscriptions) == sorted(
                s.subscription_id for s in theirs.subscriptions
            )
            assert ours.steps == theirs.steps
            assert links == twin.match_links(event, *mask)
        assert aggregated.subscription_count == len(live)
        assert len(aggregated.subscriptions) == len(live)
        # The workload is built to dissolve covering parents; if this ever
        # stops happening the test has quietly lost its promotion coverage.
        assert promotions_seen > 0

    def test_direct_wrapper_matches_create_engine(self):
        """Constructing the wrapper directly is the same engine the factory
        builds (the benchmark does this to reach ``cover_scan_limit``)."""
        subscriptions = make_subscriptions([(0, None, None, None), (0, 1, None, None)])
        via_factory = create_engine(
            "compiled", SCHEMA, domains=DOMAINS, aggregate=True
        )
        direct = AggregatingEngine(
            create_engine("compiled", SCHEMA, domains=DOMAINS)
        )
        for subscription in subscriptions:
            via_factory.insert(subscription)
            direct.insert(clone(subscription))
        event = Event.from_tuple(SCHEMA, (0, 1, 0, 0))
        assert_same_matches(via_factory, direct, event)
        assert via_factory.root_count == direct.root_count
