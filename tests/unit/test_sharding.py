"""Unit tests for the sharded matching engine.

The equivalence contract (sharded ≡ monolithic for any partition) lives in
``tests/property/test_prop_sharding.py``; this file pins the mechanics —
registration, partition policies, ownership bookkeeping, rebalancing,
worker-pool lifecycle, early exit, and the surgical churn repair of the
shard-local event caches.
"""

from __future__ import annotations

import pytest

from repro.core import M, TritVector, Y
from repro.errors import SubscriptionError
from repro.matching import Event, Predicate, Subscription, uniform_schema
from repro.matching.engines import ENGINE_NAMES, create_engine
from repro.matching.predicates import EqualityTest
from repro.matching.sharding import SHARD_POLICIES, ShardedEngine

SCHEMA = uniform_schema(3)
DOMAIN = [0, 1, 2]
DOMAINS = {name: DOMAIN for name in SCHEMA.names}
NUM_LINKS = 3


def subscription(subscriber, **tests):
    predicate = Predicate(
        SCHEMA, {name: EqualityTest(value) for name, value in tests.items()}
    )
    return Subscription(predicate, subscriber)


def event(*values):
    return Event.from_tuple(SCHEMA, values)


def link_of(entry):
    return int(entry.subscriber[1:]) % NUM_LINKS


def build_engine(*subscriptions, **kwargs):
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("policy", "round-robin")
    engine = ShardedEngine(SCHEMA, domains=DOMAINS, **kwargs)
    for entry in subscriptions:
        engine.insert(entry)
    return engine


def subscribers_of(result):
    return {s.subscriber for s in result.subscriptions}


class TestRegistration:
    def test_listed_and_creatable_by_name(self):
        assert "sharded" in ENGINE_NAMES
        engine = create_engine(
            "sharded", SCHEMA, domains=DOMAINS, shards=2, shard_policy="round-robin"
        )
        assert isinstance(engine, ShardedEngine)
        assert engine.num_shards == 2
        assert engine.policy == "round-robin"

    def test_create_engine_defaults(self):
        from repro.matching.sharding import DEFAULT_SHARD_POLICY, DEFAULT_SHARDS

        engine = create_engine("sharded", SCHEMA, domains=DOMAINS)
        assert engine.num_shards == DEFAULT_SHARDS
        assert engine.policy == DEFAULT_SHARD_POLICY
        assert engine.workers == 0

    def test_constructor_validation(self):
        with pytest.raises(SubscriptionError):
            ShardedEngine(SCHEMA, num_shards=0)
        with pytest.raises(SubscriptionError):
            ShardedEngine(SCHEMA, policy="alphabetical")
        with pytest.raises(SubscriptionError):
            ShardedEngine(SCHEMA, workers=-1)


class TestOwnership:
    def test_duplicate_insert_rejected(self):
        alice = subscription("s0", a1=1)
        engine = build_engine(alice)
        with pytest.raises(SubscriptionError):
            engine.insert(alice)

    def test_unknown_remove_rejected(self):
        engine = build_engine()
        with pytest.raises(SubscriptionError):
            engine.remove(12345)
        with pytest.raises(SubscriptionError):
            engine.shard_of(12345)

    def test_counts_and_shard_of_track_churn(self):
        alice = subscription("s0", a1=1)
        bob = subscription("s1", a2=2)
        engine = build_engine(alice, bob)
        assert engine.subscription_count == 2
        assert len(engine.subscriptions) == 2
        assert engine.shard_of(alice.subscription_id) in range(engine.num_shards)
        removed = engine.remove(bob.subscription_id)
        assert removed is bob
        assert engine.subscription_count == 1
        with pytest.raises(SubscriptionError):
            engine.shard_of(bob.subscription_id)

    def test_match_brute_force_agrees_with_match(self):
        engine = build_engine(
            subscription("s0", a1=1), subscription("s1", a2=0), subscription("s2", a1=2)
        )
        target = event(1, 0, 0)
        brute = {s.subscriber for s in engine.match_brute_force(target)}
        assert brute == subscribers_of(engine.match(target)) == {"s0", "s1"}


class TestPolicies:
    def test_policy_names_are_exactly_the_documented_ones(self):
        assert SHARD_POLICIES == ("round-robin", "hash", "balanced")

    def test_round_robin_cycles(self):
        entries = [subscription(f"s{i}", a1=1) for i in range(4)]
        engine = build_engine(*entries, num_shards=2, policy="round-robin")
        owners = [engine.shard_of(entry.subscription_id) for entry in entries]
        assert owners == [0, 1, 0, 1]

    def test_hash_colocates_equal_first_tests_deterministically(self):
        first = build_engine(num_shards=3, policy="hash")
        second = build_engine(num_shards=3, policy="hash")
        same_branch = [subscription(f"s{i}", a1=1) for i in range(3)]
        other_branch = subscription("s9", a1=2)
        for engine in (first, second):
            for entry in [*same_branch, other_branch]:
                engine.insert(entry)
        owners = {
            engine.shard_of(entry.subscription_id)
            for engine in (first, second)
            for entry in same_branch
        }
        assert len(owners) == 1  # co-located, and identically in both engines

    def test_hash_all_dont_care_goes_to_shard_zero(self):
        engine = build_engine(num_shards=3, policy="hash")
        star = subscription("s0")
        engine.insert(star)
        assert engine.shard_of(star.subscription_id) == 0

    def test_balanced_spreads_identical_subscriptions(self):
        entries = [subscription(f"s{i}", a1=1, a2=2) for i in range(4)]
        engine = build_engine(*entries, num_shards=2, policy="balanced")
        owners = [engine.shard_of(entry.subscription_id) for entry in entries]
        assert sorted(owners) == [0, 0, 1, 1]


class TestRebalance:
    def make_skewed(self):
        # Hash policy piles equal first tests onto one shard by design.
        entries = [subscription(f"s{i}", a1=1) for i in range(6)]
        return build_engine(*entries, num_shards=3, policy="hash"), entries

    def test_forced_rebalance_levels_counts_and_updates_owners(self, live_registry):
        engine, entries = self.make_skewed()
        moved = engine.rebalance(force=True)
        assert moved == 4
        assert sorted(len(shard.tree) for shard in engine.shards) == [2, 2, 2]
        assert live_registry.counter("engine.shard.rebalances").value == 1
        assert live_registry.counter("engine.shard.migrations").value == 4
        # The owner map followed the migrations: every entry removable and
        # every answer still exact.
        assert subscribers_of(engine.match(event(1, 0, 0))) == {
            entry.subscriber for entry in entries
        }
        for entry in entries:
            engine.remove(entry.subscription_id)
        assert engine.subscription_count == 0

    def test_rebalance_is_a_noop_below_threshold(self):
        entries = [subscription(f"s{i}", a1=i % 3) for i in range(6)]
        engine = build_engine(*entries, num_shards=3, policy="hash")
        if engine.skew() <= engine.rebalance_threshold:
            assert engine.rebalance() == 0

    def test_rebalance_interval_triggers_automatically(self):
        engine = build_engine(num_shards=3, policy="hash", rebalance_interval=6)
        for i in range(6):
            engine.insert(subscription(f"s{i}", a1=1))
        # The sixth mutation ran a pass; the skewed pile was spread out.
        assert sorted(len(shard.tree) for shard in engine.shards) == [2, 2, 2]


class TestWorkersAndLifecycle:
    def test_threaded_results_equal_serial(self):
        entries = [
            subscription(f"s{i}", a1=i % 3, a2=(i + 1) % 3) for i in range(9)
        ]
        serial = build_engine(*entries, num_shards=3, workers=0)
        serial.bind_links(NUM_LINKS, link_of)
        events = [event(a, b, 0) for a in DOMAIN for b in DOMAIN]
        mask = TritVector([M] * NUM_LINKS)
        with build_engine(*(entries), num_shards=3, workers=2) as threaded:
            threaded.bind_links(NUM_LINKS, link_of)
            for target in events:
                assert subscribers_of(threaded.match(target)) == subscribers_of(
                    serial.match(target)
                )
                assert (
                    threaded.match_links(target, mask).mask
                    == serial.match_links(target, mask).mask
                )
            batched = threaded.match_batch(events)
            for target, result in zip(events, batched):
                assert subscribers_of(result) == subscribers_of(serial.match(target))
        assert threaded._executor is None  # context exit shut the pool down

    def test_close_is_idempotent_and_serial_noop(self):
        engine = build_engine()
        engine.close()
        engine.close()

    def test_repr_names_shards_and_policy(self):
        engine = build_engine(subscription("s0", a1=1))
        assert "policy='round-robin'" in repr(engine)


class TestEarlyExit:
    def test_all_yes_mask_skips_every_shard(self):
        engine = build_engine(
            subscription("s0", a1=1), subscription("s1", a2=2), early_exit=True
        )
        engine.bind_links(NUM_LINKS, link_of)
        result = engine.match_links(event(1, 2, 0), TritVector([Y] * NUM_LINKS))
        assert all(trit == Y for trit in result.mask)
        assert result.steps == 0  # no Maybe to resolve — no shard was visited


class TestSurgicalRepair:
    def warm_engine(self):
        engine = build_engine(subscription("s0", a1=1), num_shards=1)
        hot = event(1, 0, 0)  # matched by s0
        cold = event(2, 0, 0)  # matched by nobody yet
        engine.match(hot)
        engine.match(cold)
        return engine, hot, cold

    def test_insert_evicts_only_matching_entries(self):
        engine, hot, cold = self.warm_engine()
        cache = engine._event_caches[0]
        assert len(cache) == 2
        engine.insert(subscription("s1", a1=2))  # matches only the cold event
        assert len(cache) == 1
        hits_before = cache.hits
        assert subscribers_of(engine.match(hot)) == {"s0"}
        assert cache.hits == hits_before + 1  # untouched entry kept serving
        assert subscribers_of(engine.match(cold)) == {"s1"}  # re-walked, exact

    def test_remove_evicts_only_entries_that_contained_it(self):
        engine, hot, cold = self.warm_engine()
        doomed = subscription("s1", a1=2)
        engine.insert(doomed)
        engine.match(cold)  # re-warm the entry the insert evicted
        cache = engine._event_caches[0]
        assert len(cache) == 2
        engine.remove(doomed.subscription_id)
        assert len(cache) == 1
        hits_before = cache.hits
        assert subscribers_of(engine.match(hot)) == {"s0"}
        assert cache.hits == hits_before + 1
        assert subscribers_of(engine.match(cold)) == set()

    def test_link_cache_repaired_too(self):
        engine = build_engine(subscription("s0", a1=1), num_shards=1)
        engine.bind_links(NUM_LINKS, link_of)
        mask = TritVector([M] * NUM_LINKS)
        hot, cold = event(1, 0, 0), event(2, 0, 0)
        engine.match_links(hot, mask)
        engine.match_links(cold, mask)
        cache = engine._link_caches[0]
        assert len(cache) == 2
        engine.insert(subscription("s1", a1=2))
        assert len(cache) == 1
        refined = engine.match_links(cold, mask)
        assert refined.mask[link_of(subscription("s1"))] == Y

    def test_oversized_caches_flush_instead_of_repairing(self, monkeypatch):
        import repro.matching.sharding as sharding

        engine, hot, cold = self.warm_engine()
        monkeypatch.setattr(sharding, "REPAIR_SCAN_LIMIT", 1)
        engine.insert(subscription("s9", a3=2))  # matches neither warm event
        assert len(engine._event_caches[0]) == 0  # wholesale flush path

    def test_capacity_zero_disables_shard_caches(self):
        engine = build_engine(
            subscription("s0", a1=1), num_shards=2, match_cache_capacity=0
        )
        assert engine._event_caches is None and engine._link_caches is None
        engine.bind_links(NUM_LINKS, link_of)
        target = event(1, 0, 0)
        for _ in range(2):  # every path must work cache-free
            assert subscribers_of(engine.match(target)) == {"s0"}
            engine.match_batch([target, target])
            engine.match_links(target, TritVector([M] * NUM_LINKS))
            engine.match_links_batch([target], TritVector([M] * NUM_LINKS))
        engine.insert(subscription("s1", a1=1))  # repair path no-ops
        engine.invalidate()

    def test_invalidate_flushes_shard_caches(self):
        engine, hot, cold = self.warm_engine()
        assert len(engine._event_caches[0]) == 2
        engine.invalidate()
        assert len(engine._event_caches[0]) == 0
        assert subscribers_of(engine.match(hot)) == {"s0"}


class TestConfigThreading:
    def test_router_accepts_shard_configuration(self, two_broker_topology, schema5):
        from repro.core import ContentRouter
        from repro.network import RoutingTable, spanning_trees_for_publishers
        from tests.conftest import make_subscription

        router = ContentRouter(
            two_broker_topology,
            "B0",
            RoutingTable(two_broker_topology, "B0"),
            spanning_trees_for_publishers(two_broker_topology),
            schema5,
            engine="sharded",
            shards=2,
            shard_policy="balanced",
        )
        router.add_subscription(make_subscription(schema5, "a1=1", "c0"))
        decision = router.route(Event.from_tuple(schema5, (1, 0, 0, 0, 0)), "B0")
        assert decision.deliver_to == ["c0"]

    def test_cli_parses_shard_flags(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            [
                "--engine", "sharded",
                "--shards", "2",
                "--shard-policy", "balanced",
                "--shard-workers", "1",
                "chart1",
            ]
        )
        assert (args.engine, args.shards) == ("sharded", 2)
        assert (args.shard_policy, args.shard_workers) == ("balanced", 1)
