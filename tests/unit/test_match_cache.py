"""The projection-keyed match cache: hits, invalidation, residency waste.

The cache may never change an answer — its contract is that equal
projections provably share results, and that any subscription churn or
annotation change flushes whatever the mutation could have staled.  The
stale-hit regressions here pin the bug class where a cached result survives
``insert``/``remove``/recompile and keeps answering with the old match set.
"""

from __future__ import annotations

import pytest

from repro.core import M, TritVector, Y
from repro.matching import Event, Predicate, Subscription, uniform_schema
from repro.matching.compile import (
    _CACHE_RESIDENCY_WASTE_SHIFT,
    DEFAULT_MATCH_CACHE_CAPACITY,
    ProjectionCache,
    compile_tree,
)
from repro.matching.engines import CompiledEngine
from repro.matching.predicates import EqualityTest

SCHEMA = uniform_schema(3)
DOMAIN = [0, 1, 2]
DOMAINS = {name: DOMAIN for name in SCHEMA.names}


def subscription(subscriber, **tests):
    predicate = Predicate(
        SCHEMA, {name: EqualityTest(value) for name, value in tests.items()}
    )
    return Subscription(predicate, subscriber)


def event(*values):
    return Event.from_tuple(SCHEMA, values)


def build_engine(*subscriptions, capacity=DEFAULT_MATCH_CACHE_CAPACITY):
    engine = CompiledEngine(SCHEMA, domains=DOMAINS, match_cache_capacity=capacity)
    for entry in subscriptions:
        engine.insert(entry)
    return engine


class TestProjectionCache:
    def test_lru_eviction_at_capacity(self):
        cache = ProjectionCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a" so "b" is the LRU entry
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_hit_and_miss_counters(self, live_registry):
        cache = ProjectionCache(4)
        assert cache.get("missing") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5
        assert live_registry.counter("match.cache.hit", cache="match").value == 1
        assert live_registry.counter("match.cache.miss", cache="match").value == 1

    def test_flush_counts_only_when_resident(self, live_registry):
        cache = ProjectionCache(4)
        assert cache.flush() == 0
        assert cache.flushes == 0
        cache.put("k", "v")
        assert cache.flush() == 1
        assert cache.flushes == 1
        assert live_registry.counter("match.cache.flush", cache="match").value == 1

    def test_residency_gauge_tracks_fill(self, live_registry):
        cache = ProjectionCache(4)
        gauge = live_registry.gauge("match.cache.residency", cache="match")
        cache.put("a", 1)
        assert gauge.value == 0.25
        cache.put("b", 2)
        assert gauge.value == 0.5
        cache.flush()
        assert gauge.value == 0.0

    def test_evict_if_drops_only_flagged_entries(self, live_registry):
        cache = ProjectionCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.evict_if(lambda key, value: value % 2 == 1) == 2
        assert cache.get("b") == 2
        assert cache.get("a") is None
        assert live_registry.gauge("match.cache.residency", cache="match").value == 0.25
        # Nothing flagged: a no-op that reports zero.
        assert cache.evict_if(lambda key, value: False) == 0


class TestCachedMatching:
    def test_repeat_match_is_a_cache_hit(self):
        engine = build_engine(subscription("alice", a1=1))
        first = engine.match(event(1, 0, 0))
        again = engine.match(event(1, 0, 0))
        cache = engine.program.match_cache
        assert cache.hits == 1
        assert [s.subscriber for s in again.subscriptions] == ["alice"]
        assert again.steps == first.steps

    def test_equal_projection_shares_result_across_event_objects(self):
        engine = build_engine(subscription("alice", a1=1))
        engine.match(event(1, 2, 2))
        assert engine.program.match_cache.hits == 0
        engine.match(event(1, 2, 2))  # distinct Event object, same values
        assert engine.program.match_cache.hits == 1

    def test_capacity_zero_disables_caching(self):
        engine = build_engine(subscription("alice", a1=1), capacity=0)
        program = engine.program
        assert program.match_cache is None
        assert program.link_cache is None
        engine.match(event(1, 0, 0))
        engine.match(event(1, 0, 0))  # would be a hit if a cache existed


class TestInvalidation:
    def test_insert_invalidates_stale_hit(self):
        """Regression: a cached result must not hide a new subscription."""
        engine = build_engine(subscription("alice", a1=1))
        target = event(1, 1, 1)
        assert {s.subscriber for s in engine.match(target).subscriptions} == {"alice"}
        engine.insert(subscription("bob", a2=1))
        assert {s.subscriber for s in engine.match(target).subscriptions} == {
            "alice",
            "bob",
        }

    def test_remove_invalidates_stale_hit(self):
        """Regression: a cached result must not resurrect a removed one."""
        bob = subscription("bob", a2=1)
        engine = build_engine(subscription("alice", a1=1), bob)
        target = event(1, 1, 1)
        assert {s.subscriber for s in engine.match(target).subscriptions} == {
            "alice",
            "bob",
        }
        engine.remove(bob.subscription_id)
        assert {s.subscriber for s in engine.match(target).subscriptions} == {"alice"}

    def test_recompile_starts_with_empty_caches(self):
        engine = build_engine(subscription("alice", a1=1))
        engine.match(event(1, 0, 0))
        assert len(engine.program.match_cache) == 1
        engine.invalidate()
        assert len(engine.program.match_cache) == 0
        # Still correct, now recomputed against the fresh program.
        assert {
            s.subscriber for s in engine.match(event(1, 0, 0)).subscriptions
        } == {"alice"}

    def test_patch_charges_cache_residency_to_waste(self):
        """An incremental patch flushes resident entries and charges a share
        of them to the program's waste, so heavy churn against a hot cache
        eventually triggers the recompile heuristic."""
        engine = build_engine(subscription("alice", a1=1))
        program = engine.program
        for a in DOMAIN:
            for b in DOMAIN:
                engine.match(event(a, b, 0))
        resident = len(program.match_cache)
        assert resident == len(DOMAIN) ** 2
        waste_before = program.waste
        engine.insert(subscription("bob", a3=2))
        assert engine.program is program  # patched in place, not recompiled
        assert len(program.match_cache) == 0
        expected_charge = resident >> _CACHE_RESIDENCY_WASTE_SHIFT
        assert program.waste == waste_before + expected_charge

    def test_invalidate_flushes_caches_and_resets_waste_gauge(self, live_registry):
        """Regression: ``invalidate()`` discards the program, so the caches
        living on it must flush (their counters are program-independent
        aggregates) and the waste gauge must return to zero — a fresh
        compile starts waste-free."""
        engine = build_engine(subscription("alice", a1=1))
        engine.bind_links(1, lambda s: 0)
        program = engine.program
        for a in DOMAIN:
            engine.match(event(a, 0, 0))
        engine.match_links(event(1, 0, 0), TritVector([M]))
        assert len(program.match_cache) == len(DOMAIN)
        assert len(program.link_cache) == 1
        engine.insert(subscription("bob", a2=1))  # patch: charges cache waste
        gauge = live_registry.gauge("engine.compiled.waste_ratio")
        assert gauge.value > 0.0
        flushes = live_registry.counter("match.cache.flush", cache="match").value
        engine.match(event(1, 0, 0))  # re-warm so invalidate has entries to drop
        engine.invalidate()
        assert gauge.value == 0.0
        assert len(program.match_cache) == 0
        assert len(program.link_cache) == 0
        assert (
            live_registry.counter("match.cache.flush", cache="match").value
            == flushes + 1
        )
        assert {
            s.subscriber for s in engine.match(event(1, 1, 0)).subscriptions
        } == {"alice", "bob"}

    def test_annotate_flushes_link_cache_but_not_match_cache(self):
        engine = build_engine(subscription("s0", a1=1), subscription("s1", a2=2))
        engine.bind_links(2, lambda s: int(s.subscriber[1:]))
        mask = TritVector([M, M])
        engine.match(event(1, 2, 0))
        engine.match_links(event(1, 2, 0), mask)
        program = engine.program
        assert len(program.match_cache) == 1
        assert len(program.link_cache) == 1
        program.annotate(2, lambda s: int(s.subscriber[1:]))
        assert len(program.link_cache) == 0  # refinements depend on annotations
        assert len(program.match_cache) == 1  # match results do not

    def test_link_cache_keyed_by_mask_too(self):
        engine = build_engine(subscription("s0", a1=1), subscription("s1", a2=2))
        engine.bind_links(2, lambda s: int(s.subscriber[1:]))
        target = event(1, 2, 0)
        refined_mm = engine.match_links(target, TritVector([M, M]))
        refined_ym = engine.match_links(target, TritVector([Y, M]))
        assert len(engine.program.link_cache) == 2
        cached_mm = engine.match_links(target, TritVector([M, M]))
        assert cached_mm.mask == refined_mm.mask
        assert cached_mm.steps == refined_mm.steps
        assert refined_ym.mask[0] == Y

    def test_churn_never_serves_stale_results(self):
        """Alternating hot-key matches with churn on the same projection."""
        engine = build_engine()
        target = event(2, 2, 2)
        live = []
        for index in range(6):
            entry = subscription(f"n{index}", a1=2)
            live.append(entry)
            engine.insert(entry)
            assert {s.subscriber for s in engine.match(target).subscriptions} == {
                s.subscriber for s in live
            }
        while live:
            gone = live.pop()
            engine.remove(gone.subscription_id)
            assert {s.subscriber for s in engine.match(target).subscriptions} == {
                s.subscriber for s in live
            }


class TestCompileTreeCapacity:
    def test_compile_tree_default_has_caches(self):
        from repro.matching.pst import ParallelSearchTree

        tree = ParallelSearchTree(SCHEMA)
        tree.insert(subscription("alice", a1=1))
        program = compile_tree(tree)
        assert program.match_cache is not None
        assert program.match_cache.capacity == DEFAULT_MATCH_CACHE_CAPACITY

    def test_compile_tree_capacity_zero_disables(self):
        from repro.matching.pst import ParallelSearchTree

        tree = ParallelSearchTree(SCHEMA)
        tree.insert(subscription("alice", a1=1))
        program = compile_tree(tree, cache_capacity=0)
        assert program.match_cache is None
