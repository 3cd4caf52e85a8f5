"""Property-based tests of match-once forwarding (match digests).

The invariant under test is *bit-identity*: routing a random event through
random topologies with digests enabled produces exactly the same forward
edges, delivery sets and link masks as per-hop rematching — across matching
engines, and through every fallback of the digest matrix (epoch-mismatch
churn, diverged subscription sets, stale flood windows, fault replays).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ContentRouter
from repro.errors import RoutingError
from repro.matching import (
    EqualityTest,
    Event,
    Predicate,
    Subscription,
    create_matcher,
    uniform_schema,
)
from repro.network import NodeKind, Topology
from repro.protocols import LinkMatchingProtocol, ProtocolContext, SimMessage

SCHEMA = uniform_schema(3)
DOMAIN = [0, 1]
DOMAINS = {name: DOMAIN for name in SCHEMA.names}

#: The engine matrix the bit-identity property runs over: both engines.
CONFIGS = [
    {"engine": "tree"},
    {"engine": "compiled"},
]

CONFIG_IDS = [
    "-".join(f"{k}={v}" for k, v in config.items()) for config in CONFIGS
]


@st.composite
def topologies(draw):
    """A connected broker graph: random tree + up to 2 extra chord links."""
    num_brokers = draw(st.integers(min_value=1, max_value=5))
    topology = Topology()
    names = [f"B{i}" for i in range(num_brokers)]
    for i, name in enumerate(names):
        topology.add_broker(name)
        if i > 0:
            parent = names[draw(st.integers(min_value=0, max_value=i - 1))]
            topology.add_link(parent, name, latency_ms=10.0)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        a = draw(st.sampled_from(names))
        b = draw(st.sampled_from(names))
        if a != b:
            try:
                topology.add_link(a, b, latency_ms=5.0)
            except Exception:
                pass  # duplicate link; skip
    num_subscribers = draw(st.integers(min_value=1, max_value=4))
    for i in range(num_subscribers):
        topology.add_client(f"c{i}", draw(st.sampled_from(names)))
    topology.add_client("P0", draw(st.sampled_from(names)), kind=NodeKind.PUBLISHER)
    return topology


predicate_specs = st.tuples(
    *(st.one_of(st.none(), st.sampled_from(DOMAIN)) for _ in range(3))
)
events = st.tuples(*(st.sampled_from(DOMAIN) for _ in range(3))).map(
    lambda values: Event.from_tuple(SCHEMA, values)
)


def make_subscriptions(specs_by_client):
    subscriptions = []
    for client, specs in specs_by_client:
        tests = {
            name: EqualityTest(value)
            for name, value in zip(SCHEMA.names, specs)
            if value is not None
        }
        subscriptions.append(Subscription(Predicate(SCHEMA, tests), client))
    return subscriptions


def build_protocol(topology, subscriptions, config, *, use_digests):
    context = ProtocolContext(
        topology, SCHEMA, subscriptions, domains=DOMAINS, **config
    )
    return LinkMatchingProtocol(context, use_digests=use_digests)


def drive(protocol, root, event, *, mutate_after_first=None):
    """Run an event hop by hop; returns ``broker -> Decision``.

    ``mutate_after_first`` is called once, right after the publishing
    broker's decision — the churn injection point for the epoch-mismatch
    properties (the minted digest is already in flight on the forwards).
    """
    decisions = {}
    frontier = [(root, protocol.make_message(event, root))]
    while frontier:
        broker, incoming = frontier.pop()
        assert broker not in decisions, "a broker saw the event twice"
        decision = protocol.handle(broker, incoming)
        decisions[broker] = decision
        frontier.extend(decision.sends)
        if mutate_after_first is not None:
            mutate_after_first()
            mutate_after_first = None
    return decisions


def summarize(decisions):
    """The observable routing outcome: forward edges + per-broker deliveries."""
    forwards = {
        (broker, neighbor)
        for broker, decision in decisions.items()
        for neighbor, _message in decision.sends
    }
    deliveries = {
        broker: sorted(decision.deliveries)
        for broker, decision in decisions.items()
        if decision.deliveries
    }
    return forwards, deliveries


def draw_placements(data, topology, subscription_data):
    subscribers = topology.subscribers()
    return [
        (data.draw(st.sampled_from(subscribers)), specs)
        for specs in subscription_data
    ]


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
class TestDigestBitIdentity:
    @given(
        topology=topologies(),
        subscription_data=st.lists(predicate_specs, min_size=0, max_size=8),
        event=events,
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_digest_routing_equals_rematching(
        self, config, topology, subscription_data, event, data
    ):
        subscriptions = make_subscriptions(
            draw_placements(data, topology, subscription_data)
        )
        digest_on = build_protocol(topology, subscriptions, config, use_digests=True)
        digest_off = build_protocol(topology, subscriptions, config, use_digests=False)
        root = topology.broker_of(topology.publishers()[0])
        on = drive(digest_on, root, event)
        off = drive(digest_off, root, event)
        assert summarize(on) == summarize(off)
        # Every forward leaving the origin carries the minted digest, and it
        # survives to every downstream hop (no silent fallbacks here).
        for decision in on.values():
            for _neighbor, message in decision.sends:
                assert message.digest is not None

    @given(
        topology=topologies(),
        subscription_data=st.lists(predicate_specs, min_size=0, max_size=6),
        event=events,
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_router_masks_bit_identical(
        self, config, topology, subscription_data, event, data
    ):
        """route_with_digest's mask equals route's, bit for bit, at every
        broker — and consumes zero matching steps beyond the projection ORs
        (strictly no more than a full rematch)."""
        subscriptions = make_subscriptions(
            draw_placements(data, topology, subscription_data)
        )
        protocol = build_protocol(topology, subscriptions, config, use_digests=True)
        root = topology.broker_of(topology.publishers()[0])
        _decision, digest = protocol.routers[root].route_digest(event, root)
        assert digest is not None
        for broker, router in protocol.routers.items():
            rematch = router.route(event, root)
            converted = router.route_with_digest(event, root, digest)
            assert converted.mask == rematch.mask
            assert converted.forward_to == rematch.forward_to
            assert converted.deliver_to == rematch.deliver_to
            assert converted.steps <= max(rematch.steps, len(digest.ids))

    @given(
        topology=topologies(),
        subscription_data=st.lists(predicate_specs, min_size=0, max_size=6),
        churn_spec=predicate_specs,
        event=events,
        data=st.data(),
    )
    @settings(max_examples=20, deadline=None)
    def test_churn_forces_epoch_fallback_without_changing_deliveries(
        self, config, topology, subscription_data, churn_spec, event, data
    ):
        """A subscription added while the event is in flight invalidates the
        minted digest (epoch moved on) — downstream brokers fall back to a
        full rematch against the *new* set, exactly like digest-off routing
        after the same churn."""
        subscribers = topology.subscribers()
        placements = draw_placements(data, topology, subscription_data)
        churn_client = data.draw(st.sampled_from(subscribers))
        subscriptions = make_subscriptions(placements)
        digest_on = build_protocol(topology, subscriptions, config, use_digests=True)
        digest_off = build_protocol(
            topology, make_subscriptions(placements), config, use_digests=False
        )
        root = topology.broker_of(topology.publishers()[0])

        def churn(protocol):
            def apply():
                [subscription] = make_subscriptions([(churn_client, churn_spec)])
                protocol.add_subscription(subscription)

            return apply

        on = drive(digest_on, root, event, mutate_after_first=churn(digest_on))
        off = drive(digest_off, root, event, mutate_after_first=churn(digest_off))
        assert summarize(on) == summarize(off)
        # The churn happened after the origin decided, so any forward it
        # emitted carries a digest stamped with the pre-churn epoch.  Every
        # downstream consumer must have rejected that stale digest — its own
        # forwards either carry none (the fallback strips it) or carry a
        # *fresh* re-minted one stamped with the post-churn epoch.
        stale_epochs = {
            message.digest.epoch
            for _neighbor, message in on[root].sends
            if message.digest is not None
        }
        for broker, decision in on.items():
            if broker == root:
                continue
            for _neighbor, message in decision.sends:
                if message.digest is not None:
                    assert message.digest.epoch not in stale_epochs

    @given(
        topology=topologies(),
        subscription_data=st.lists(predicate_specs, min_size=1, max_size=6),
        event=events,
        data=st.data(),
    )
    @settings(max_examples=20, deadline=None)
    def test_diverged_broker_falls_back_to_its_own_set(
        self, config, topology, subscription_data, event, data
    ):
        """A broker whose replicated set silently diverged (here: its router
        swapped for one on a private replica that missed one subscription, as
        a broker in another process might) rejects the digest on the
        checksum even though the epoch counter still matches, and routes
        with its own set."""
        subscriptions = make_subscriptions(
            draw_placements(data, topology, subscription_data)
        )
        protocol = build_protocol(topology, subscriptions, config, use_digests=True)
        brokers = sorted(protocol.routers)
        if len(brokers) < 2:
            return
        root = topology.broker_of(topology.publishers()[0])
        diverged = data.draw(st.sampled_from([b for b in brokers if b != root]))
        victim = data.draw(st.sampled_from(subscriptions))
        context = protocol.context
        replica = create_matcher(SCHEMA, **context.matcher_options)
        router = ContentRouter(
            topology,
            diverged,
            context.routing_tables[diverged],
            context.spanning_trees,
            replica,
        )
        for subscription in subscriptions:
            if subscription is not victim:
                replica.insert(subscription)
                router.add_subscription(subscription)
        protocol.routers[diverged].close()
        protocol.routers[diverged] = router
        # Re-align every router's counter so *only the checksum* can catch
        # the divergence — the counters agree, the sets do not.
        epoch = max(other.subscription_epoch for other in protocol.routers.values())
        for other in protocol.routers.values():
            other.sync_epoch(epoch)
        _decision, digest = protocol.routers[root].route_digest(event, root)
        assert digest is not None
        with pytest.raises(RoutingError):
            router.route_with_digest(event, root, digest)
        consumed = protocol.handle(
            diverged, SimMessage(event, root, digest=digest)
        )
        rematch = protocol.routers[diverged].route(event, root)
        assert sorted(consumed.deliveries) == sorted(rematch.deliver_to)
        assert {n for n, _m in consumed.sends} == set(rematch.forward_to)
        for _neighbor, message in consumed.sends:
            assert message.digest is None  # fallback strips the digest

    @given(
        topology=topologies(),
        subscription_data=st.lists(predicate_specs, min_size=0, max_size=6),
        event=events,
        data=st.data(),
    )
    @settings(max_examples=20, deadline=None)
    def test_stale_flood_window_keeps_digest_riding(
        self, config, topology, subscription_data, event, data
    ):
        """A stale broker floods (no matching beyond local delivery) but the
        in-flight digest rides along, so post-window brokers still consume
        it; deliveries match digest-off routing through the same window."""
        placements = draw_placements(data, topology, subscription_data)
        subscriptions = make_subscriptions(placements)
        digest_on = build_protocol(topology, subscriptions, config, use_digests=True)
        digest_off = build_protocol(
            topology, make_subscriptions(placements), config, use_digests=False
        )
        root = topology.broker_of(topology.publishers()[0])
        stale = data.draw(st.sampled_from(sorted(digest_on.routers)))
        digest_on.set_stale(stale, True)
        digest_off.set_stale(stale, True)
        on = drive(digest_on, root, event)
        off = drive(digest_off, root, event)
        delivered_on = {c for d in on.values() for c in d.deliveries}
        delivered_off = {c for d in off.values() for c in d.deliveries}
        assert delivered_on == delivered_off
        flood = on.get(stale)
        if flood is not None and root != stale:
            for _neighbor, message in flood.sends:
                assert message.digest is not None  # rides through the flood

    @given(
        topology=topologies(),
        subscription_data=st.lists(predicate_specs, min_size=1, max_size=6),
        event=events,
        data=st.data(),
    )
    @settings(max_examples=20, deadline=None)
    def test_replay_messages_always_rematch(
        self, config, topology, subscription_data, event, data
    ):
        """A fault replay routes against its restricted mask and never
        trusts (or propagates) a digest."""
        subscriptions = make_subscriptions(
            draw_placements(data, topology, subscription_data)
        )
        protocol = build_protocol(topology, subscriptions, config, use_digests=True)
        root = topology.broker_of(topology.publishers()[0])
        _decision, digest = protocol.routers[root].route_digest(event, root)
        restriction = frozenset(s.subscriber for s in subscriptions)
        message = SimMessage(event, root, replay_for=restriction, digest=digest)
        replayed = protocol.handle(root, message)
        restricted = protocol.routers[root].route(event, root, restrict_to=restriction)
        assert sorted(replayed.deliveries) == sorted(restricted.deliver_to)
        for _neighbor, forward in replayed.sends:
            assert forward.digest is None
            assert forward.replay_for == restriction


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
class TestHandleBatchEquivalence:
    @given(
        topology=topologies(),
        subscription_data=st.lists(predicate_specs, min_size=0, max_size=6),
        batch=st.lists(events, min_size=1, max_size=6),
        stale=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=20, deadline=None)
    def test_handle_batch_equals_per_message_handle(
        self, config, topology, subscription_data, batch, stale, data
    ):
        """``handle_batch`` decision ``i`` equals ``handle(messages[i])`` —
        including the grouped stale-broker flood path and mixed
        digest-bearing / digest-less / replay batches."""
        subscriptions = make_subscriptions(
            draw_placements(data, topology, subscription_data)
        )
        batched = build_protocol(topology, subscriptions, config, use_digests=True)
        single = build_protocol(topology, subscriptions, config, use_digests=True)
        root = topology.broker_of(topology.publishers()[0])
        broker = data.draw(st.sampled_from(sorted(batched.routers)))
        if stale:
            batched.set_stale(broker, True)
            single.set_stale(broker, True)
        messages = []
        for event in batch:
            kind = data.draw(st.sampled_from(["plain", "digest", "replay"]))
            if kind == "digest":
                _d, digest = batched.routers[root].route_digest(event, root)
                messages.append(SimMessage(event, root, digest=digest))
            elif kind == "replay":
                replay = frozenset(s.subscriber for s in subscriptions[:1])
                messages.append(SimMessage(event, root, replay_for=replay or None))
            else:
                messages.append(SimMessage(event, root))
        from_batch = batched.handle_batch(broker, messages)
        one_by_one = [single.handle(broker, message) for message in messages]
        assert len(from_batch) == len(one_by_one)
        for got, want in zip(from_batch, one_by_one):
            assert sorted(got.deliveries) == sorted(want.deliveries)
            assert {n for n, _m in got.sends} == {n for n, _m in want.sends}
            assert got.matching_steps == want.matching_steps
            got_digests = {n: m.digest for n, m in got.sends}
            want_digests = {n: m.digest for n, m in want.sends}
            assert got_digests == want_digests
