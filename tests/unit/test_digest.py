"""Unit tests for match-once forwarding: digests, projection, epochs."""

from __future__ import annotations

import pytest

from repro.core.router import RouteDecision
from repro.core.trits import TritVector
from repro.errors import CodecError, RoutingError
from repro.matching import Event, uniform_schema
from repro.matching.digest import (
    DENSE_HEADER_BYTES,
    ID_BYTES,
    MatchDigest,
    mix_subscription_id,
)
from repro.matching.engines import create_matcher, view_of
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.protocols import LinkMatchingProtocol, ProtocolContext, SimMessage
from tests.conftest import make_subscription

SCHEMA2 = uniform_schema(2)


class TestMatchDigestEncoding:
    def test_sparse_roundtrip(self):
        digest = MatchDigest(7, 0xDEADBEEF, (3, 90, 4096))
        assert not digest.dense
        assert MatchDigest.from_bytes(digest.to_bytes()) == digest

    def test_empty_and_singleton_are_sparse(self):
        assert not MatchDigest(1, 2, ()).dense
        assert not MatchDigest(1, 2, (12345,)).dense

    def test_dense_crossover_is_exact(self):
        # span such that bitmap beats the id list by exactly one byte.
        ids = tuple(range(100, 100 + 3))
        span = ids[-1] - ids[0] + 1
        assert DENSE_HEADER_BYTES + (span + 7) // 8 < ID_BYTES * len(ids)
        digest = MatchDigest(1, 2, ids)
        assert digest.dense
        assert MatchDigest.from_bytes(digest.to_bytes()) == digest

    def test_wide_span_stays_sparse(self):
        digest = MatchDigest(1, 2, (0, 10**6))
        assert not digest.dense
        assert MatchDigest.from_bytes(digest.to_bytes()) == digest

    def test_encoded_size_matches_wire_bytes(self):
        for ids in [(), (5,), tuple(range(50)), (1, 2**40)]:
            digest = MatchDigest(3, 4, ids)
            assert digest.encoded_size_bytes == len(digest.to_bytes())

    def test_unknown_kind_byte_rejected(self):
        payload = bytes((99,)) + bytes(16)
        with pytest.raises(CodecError):
            MatchDigest.from_bytes(payload)

    def test_truncation_rejected(self):
        data = MatchDigest(1, 2, (3, 4)).to_bytes()
        with pytest.raises(CodecError):
            MatchDigest.from_bytes(data[:-1])

    def test_mixed_ids_do_not_collide_like_raw_xor(self):
        # Raw XOR of consecutive ids collides (1 ^ 2 ^ 3 == 0); the mixed
        # form must not.
        assert 1 ^ 2 ^ 3 == 0
        assert (
            mix_subscription_id(1) ^ mix_subscription_id(2) ^ mix_subscription_id(3)
        ) != 0


class TestProjectLinks:
    def _engine(self):
        engine = view_of(create_matcher(SCHEMA2))
        subs = [
            make_subscription(SCHEMA2, "a1=1", "alice"),
            make_subscription(SCHEMA2, "a1=2", "bob"),
            make_subscription(SCHEMA2, "a2=5", "alice"),
        ]
        for sub in subs:
            engine.insert(sub)
        links = {"alice": 0, "bob": 1}
        engine.bind_links(2, lambda s: links[s.subscriber])
        return engine, subs

    @pytest.mark.parametrize("name", ["compiled"])
    def test_projection_matches_refinement(self, name):
        engine, subs = self._engine()
        event = Event.from_tuple(SCHEMA2, (1, 5))
        matched = [s for s in engine.match(event).subscriptions]
        ids = sorted(s.subscription_id for s in matched)
        # All links start Maybe: refined Yes = links of matched subs.
        maybe = (1 << 2) - 1
        final_yes, steps = engine.project_links(ids, 0, maybe)
        expected_bits = 0
        links = {"alice": 0, "bob": 1}
        for s in matched:
            expected_bits |= 1 << links[s.subscriber]
        assert final_yes == expected_bits
        assert steps >= 1

    @pytest.mark.parametrize("name", ["compiled"])
    def test_yes_bits_pass_through(self, name):
        engine, _subs = self._engine()
        final_yes, _steps = engine.project_links([], 0b10, 0b01)
        assert final_yes == 0b10  # already-Yes links survive an empty match

    @pytest.mark.parametrize("name", ["compiled"])
    def test_unknown_id_raises(self, name):
        engine, _subs = self._engine()
        with pytest.raises(RoutingError):
            engine.project_links([999_999_999], 0, 0b11)

    def test_unbound_engine_raises(self):
        engine = view_of(create_matcher(SCHEMA2))
        engine.insert(make_subscription(SCHEMA2, "a1=1", "alice"))
        with pytest.raises(RoutingError):
            engine.project_links([1], 0, 1)

    def test_insert_invalidates_projection(self):
        engine, _subs = self._engine()
        engine.project_links([], 0, 0)  # annotates
        new = make_subscription(SCHEMA2, "a2=7", "bob")
        engine.insert(new)
        final_yes, _steps = engine.project_links([new.subscription_id], 0, 0b11)
        assert final_yes == 0b10  # bob's link — the table follows churn


def _context(topology):
    subs = [
        make_subscription(SCHEMA2, "a1=1", "c.B0"),
        make_subscription(SCHEMA2, "a1=1", "c.B3"),
    ]
    return ProtocolContext(topology, SCHEMA2, subs)


class TestEpochs:
    def test_add_and_remove_bump_epoch_and_restore_checksum(self, diamond_topology):
        protocol = LinkMatchingProtocol(_context(diamond_topology))
        router = protocol.routers["B0"]
        epoch = router.subscription_epoch
        checksum = router._subscription_checksum
        extra = make_subscription(SCHEMA2, "a2=3", "c.B0")
        protocol.replica.insert(extra)
        router.add_subscription(extra)
        assert router.subscription_epoch == epoch + 1
        assert router._subscription_checksum != checksum
        protocol.replica.remove(extra.subscription_id)
        router.remove_subscription(extra.subscription_id)
        assert router.subscription_epoch == epoch + 2
        assert router._subscription_checksum == checksum  # XOR round trip

    def test_sync_epoch_is_monotonic(self, diamond_topology):
        protocol = LinkMatchingProtocol(_context(diamond_topology))
        router = protocol.routers["B0"]
        epoch = router.subscription_epoch
        router.sync_epoch(epoch - 1)  # never rolls back
        assert router.subscription_epoch == epoch
        router.sync_epoch(epoch + 5)
        assert router.subscription_epoch == epoch + 5

    def test_protocol_keeps_routers_in_lockstep(self, diamond_topology):
        protocol = LinkMatchingProtocol(_context(diamond_topology))
        epochs = {r.subscription_epoch for r in protocol.routers.values()}
        assert len(epochs) == 1
        protocol.add_subscription(make_subscription(SCHEMA2, "a2=3", "c.B1"))
        epochs = {r.subscription_epoch for r in protocol.routers.values()}
        assert len(epochs) == 1
        checksums = {r._subscription_checksum for r in protocol.routers.values()}
        assert len(checksums) == 1

    def test_route_decision_stamped_and_guarded(self, diamond_topology):
        protocol = LinkMatchingProtocol(_context(diamond_topology))
        router = protocol.routers["B0"]
        event = Event.from_tuple(SCHEMA2, (1, 0))
        decision = router.route(event, "B0")
        assert decision.epoch == router.subscription_epoch
        decision.assert_current(router.subscription_epoch)  # no raise
        late = make_subscription(SCHEMA2, "a2=9", "c.B0")
        protocol.replica.insert(late)
        router.add_subscription(late)
        with pytest.raises(RoutingError):
            decision.assert_current(router.subscription_epoch)

    def test_assert_current_message(self):
        decision = RouteDecision("B0", [], [], 0, 0b1, 1, epoch=3)
        assert decision.mask == TritVector("Y")
        with pytest.raises(RoutingError, match="epoch 3"):
            decision.assert_current(7)


class TestProtocolDigestPath:
    def _with_registry(self):
        return set_registry(MetricsRegistry(enabled=True))

    def test_counters_mint_consume_fallback(self, diamond_topology):
        previous = self._with_registry()
        try:
            registry = get_registry()
            protocol = LinkMatchingProtocol(_context(diamond_topology))
            event = Event.from_tuple(SCHEMA2, (1, 0))
            message = protocol.make_message(event, "B0")
            decision = protocol.handle("B0", message)
            assert registry.value_of("broker.digests_minted", broker="B0") == 1
            forwards = [m for _n, m in decision.sends]
            assert forwards and all(m.digest is not None for m in forwards)
            next_broker, next_message = decision.sends[0]
            hits = registry.counter("broker.digest_hits", broker=next_broker)
            fallbacks = registry.counter("broker.digest_fallbacks", broker=next_broker)
            protocol.handle(next_broker, next_message)
            assert hits.value == 1
            assert fallbacks.value == 0
            # Invalidate and replay the same digest: fallback.
            protocol.add_subscription(make_subscription(SCHEMA2, "a2=3", "c.B1"))
            fallback = protocol.handle(next_broker, next_message.forwarded())
            assert fallbacks.value == 1
            for _n, m in fallback.sends:
                assert m.digest is None
        finally:
            set_registry(previous)

    def test_use_digests_off_never_mints(self, diamond_topology):
        protocol = LinkMatchingProtocol(_context(diamond_topology), use_digests=False)
        event = Event.from_tuple(SCHEMA2, (1, 0))
        decision = protocol.handle("B0", protocol.make_message(event, "B0"))
        for _n, message in decision.sends:
            assert message.digest is None

    def test_batched_stale_flood_counts_per_message(self, diamond_topology):
        previous = self._with_registry()
        try:
            protocol = LinkMatchingProtocol(_context(diamond_topology))
            protocol.set_stale("B1", True)
            event = Event.from_tuple(SCHEMA2, (1, 0))
            messages = [SimMessage(event, "B0") for _ in range(3)]
            decisions = protocol.handle_batch("B1", messages)
            assert len(decisions) == 3
            assert protocol._obs_flood_fallbacks.value == 3
            assert protocol._obs_handled.value == 3
        finally:
            set_registry(previous)

    def test_wire_size_charges_digest(self, diamond_topology):
        protocol = LinkMatchingProtocol(_context(diamond_topology))
        event = Event.from_tuple(SCHEMA2, (1, 0))
        decision = protocol.handle("B0", protocol.make_message(event, "B0"))
        _neighbor, forwarded = decision.sends[0]
        bare = SimMessage(event, "B0")
        assert forwarded.digest is not None
        assert (
            forwarded.wire_size_bytes
            == bare.wire_size_bytes + forwarded.digest.encoded_size_bytes
        )
