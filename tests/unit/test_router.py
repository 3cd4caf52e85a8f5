"""Unit tests for the per-broker content router."""

from __future__ import annotations

import pytest

from repro.core import ContentRouter
from repro.core.router import factored_matcher_for
from repro.errors import RoutingError, SubscriptionError
from repro.matching import Event, uniform_schema
from repro.network import RoutingTable, spanning_trees_for_publishers
from tests.conftest import make_subscription

DOMAINS = {f"a{i}": [0, 1, 2] for i in range(1, 6)}


def router_for(topology, broker, schema, **kwargs) -> ContentRouter:
    return ContentRouter(
        topology,
        broker,
        RoutingTable(topology, broker),
        spanning_trees_for_publishers(topology),
        schema,
        **kwargs,
    )


class TestSubscriptions:
    def test_add_and_count(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        router.add_subscription(make_subscription(schema5, "a1=1", "c0"))
        assert router.subscription_count == 1

    def test_unknown_subscriber_rejected_early(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        with pytest.raises(RoutingError):
            router.add_subscription(make_subscription(schema5, "a1=1", "stranger"))

    def test_remove(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        sub = make_subscription(schema5, "a1=1", "c0")
        router.add_subscription(sub)
        router.remove_subscription(sub.subscription_id)
        assert router.subscription_count == 0


    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"factoring_attributes": ["a1"], "domains": DOMAINS}],
        ids=["plain", "factored"],
    )
    def test_count_does_not_list_the_subscriptions(
        self, two_broker_topology, schema5, monkeypatch, kwargs
    ):
        """``subscription_count`` is polled (stats, repr, flood waits): it
        must come from the matcher's own tally, not ``len(subscriptions)``."""
        router = router_for(two_broker_topology, "B0", schema5, **kwargs)
        subs = [make_subscription(schema5, f"a1={v}", "c0") for v in (0, 1, 1)]
        for sub in subs:
            router.add_subscription(sub)

        def listing_forbidden(self):
            raise AssertionError("subscription_count listed the subscriptions")

        monkeypatch.setattr(
            type(router.matcher), "subscriptions", property(listing_forbidden)
        )
        assert router.subscription_count == 3
        router.remove_subscription(subs[1].subscription_id)
        assert router.subscription_count == 2


class TestRouting:
    def test_delivers_to_local_client(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        router.add_subscription(make_subscription(schema5, "a1=1", "c0"))
        decision = router.route(Event.from_tuple(schema5, (1, 0, 0, 0, 0)), "B0")
        assert decision.deliver_to == ["c0"]
        assert decision.forward_to == []

    def test_forwards_to_remote_broker(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        router.add_subscription(make_subscription(schema5, "a1=1", "c1"))
        decision = router.route(Event.from_tuple(schema5, (1, 0, 0, 0, 0)), "B0")
        assert decision.forward_to == ["B1"]
        assert decision.deliver_to == []

    def test_non_matching_event_goes_nowhere(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        router.add_subscription(make_subscription(schema5, "a1=1", "c1"))
        decision = router.route(Event.from_tuple(schema5, (2, 0, 0, 0, 0)), "B0")
        assert decision.forward_to == [] and decision.deliver_to == []

    def test_annotations_refresh_after_subscribe(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        event = Event.from_tuple(schema5, (1, 0, 0, 0, 0))
        assert router.route(event, "B0").deliver_to == []
        router.add_subscription(make_subscription(schema5, "a1=1", "c0"))
        assert router.route(event, "B0").deliver_to == ["c0"]

    def test_annotations_refresh_after_unsubscribe(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        sub = make_subscription(schema5, "a1=1", "c0")
        router.add_subscription(sub)
        event = Event.from_tuple(schema5, (1, 0, 0, 0, 0))
        assert router.route(event, "B0").deliver_to == ["c0"]
        router.remove_subscription(sub.subscription_id)
        assert router.route(event, "B0").deliver_to == []

    def test_unknown_tree_root(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        with pytest.raises(RoutingError):
            router.route(Event.from_tuple(schema5, (1, 0, 0, 0, 0)), "B1")

    def test_steps_reported(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        router.add_subscription(make_subscription(schema5, "a1=1", "c0"))
        decision = router.route(Event.from_tuple(schema5, (1, 0, 0, 0, 0)), "B0")
        assert decision.steps >= 1


class TestFactoredRouter:
    def test_factored_routing_matches_plain(self, two_broker_topology, schema5):
        plain = router_for(two_broker_topology, "B0", schema5, domains=DOMAINS)
        factored = router_for(
            two_broker_topology,
            "B0",
            schema5,
            domains=DOMAINS,
            factoring_attributes=["a1"],
        )
        import random

        rng = random.Random(11)
        for i in range(60):
            tests = [
                f"a{j}={rng.randrange(3)}" for j in range(1, 6) if rng.random() < 0.5
            ]
            expression = " & ".join(tests) if tests else "*"
            subscriber = rng.choice(["c0", "c1"])
            plain.add_subscription(make_subscription(schema5, expression, subscriber))
            factored.add_subscription(make_subscription(schema5, expression, subscriber))
        for _ in range(100):
            event = Event.from_tuple(schema5, tuple(rng.randrange(3) for _ in range(5)))
            a = plain.route(event, "B0")
            b = factored.route(event, "B0")
            assert (a.forward_to, a.deliver_to) == (b.forward_to, b.deliver_to)

    def test_factoring_requires_domains(self, two_broker_topology, schema5):
        with pytest.raises(RoutingError):
            router_for(
                two_broker_topology, "B0", schema5, factoring_attributes=["a1"]
            )

    def test_local_matching(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        router.add_subscription(make_subscription(schema5, "a1=1", "c0"))
        router.add_subscription(make_subscription(schema5, "a1=1", "c1"))
        result = router.match_locally(Event.from_tuple(schema5, (1, 0, 0, 0, 0)))
        assert {s.subscriber for s in result.subscriptions} == {"c0", "c1"}


def shared_routers(topology, schema, **kwargs):
    """One router per broker, all annotating one FactoredMatcher."""
    options = dict(domains=DOMAINS, factoring_attributes=["a1"], **kwargs)
    matcher = factored_matcher_for(schema, **options)
    routers = {
        broker: router_for(topology, broker, schema, matcher=matcher, **options)
        for broker in topology.brokers()
    }
    return matcher, routers


def tell(matcher, routers, subscription):
    matcher.insert(subscription)
    for router in routers.values():
        router.add_subscription(subscription)


class TestSharedMatcher:
    """One subscription replica per process: N routers annotate one
    FactoredMatcher (see also the shared == private property in
    tests/property/test_prop_routing.py)."""

    def test_routers_share_structure_and_own_annotations(self, diamond_topology, schema5):
        matcher, routers = shared_routers(diamond_topology, schema5)
        tell(matcher, routers, make_subscription(schema5, "a1=1 & a2=1", "c.B3"))
        event = Event.from_tuple(schema5, (1, 1, 0, 0, 0))
        assert routers["B0"].route(event, "B0").forward_to == ["B1"]
        assert routers["B1"].route(event, "B0").forward_to == ["B3"]
        assert routers["B3"].route(event, "B0").deliver_to == ["c.B3"]
        assert routers["B2"].route(event, "B0").forward_to == []
        views = [router._subtrees[(1,)][1] for router in routers.values()]
        program = dict(matcher.subtrees())[(1,)]
        assert all(view._base is program for view in views)
        assert all(view._records is program._records for view in views)
        assert len({id(view.ann_yes) for view in views}) == len(views)

    def test_a_replaced_program_is_never_routed_on(self, diamond_topology, schema5):
        matcher, routers = shared_routers(diamond_topology, schema5)
        tell(matcher, routers, make_subscription(schema5, "a1=1 & a2=1", "c.B3"))
        tell(matcher, routers, make_subscription(schema5, "a1=2", "c.B1"))
        event = Event.from_tuple(schema5, (1, 2, 0, 0, 0))
        assert routers["B0"].route(event, "B0").forward_to == []
        untouched = routers["B0"]._subtrees[(2,)]
        program = dict(matcher.subtrees())[(1,)]
        stale = routers["B0"]._subtrees[(1,)][1]
        # The owner changes the shared matcher's program in place; B0 is not
        # even told — its next route must still follow the program as it is
        # *now*, through a view annotated after the change.
        matcher.insert(make_subscription(schema5, "a1=1 & a2=2", "c.B2"))
        assert routers["B0"].route(event, "B0").forward_to == ["B2"]
        assert dict(matcher.subtrees())[(1,)] is program
        fresh = routers["B0"]._subtrees[(1,)][1]
        assert fresh is not stale and fresh._base is program
        assert routers["B0"]._subtrees[(2,)] is untouched, "only the touched key re-annotates"

    def test_emptied_subtree_is_dropped(self, two_broker_topology, schema5):
        matcher, routers = shared_routers(two_broker_topology, schema5)
        subscription = make_subscription(schema5, "a1=1", "c1")
        tell(matcher, routers, subscription)
        event = Event.from_tuple(schema5, (1, 0, 0, 0, 0))
        assert routers["B0"].route(event, "B0").forward_to == ["B1"]
        matcher.remove(subscription.subscription_id)
        for router in routers.values():
            assert router.remove_subscription(subscription.subscription_id) is None
        decision = routers["B0"].route(event, "B0")
        assert (decision.forward_to, decision.steps) == ([], 1)
        assert not routers["B0"]._subtrees

    def test_duplicate_and_unknown_raise_once_at_the_owner(self, two_broker_topology, schema5):
        matcher, routers = shared_routers(two_broker_topology, schema5)
        subscription = make_subscription(schema5, "a1=1", "c1")
        tell(matcher, routers, subscription)
        epochs = [router.subscription_epoch for router in routers.values()]
        with pytest.raises(SubscriptionError):
            tell(matcher, routers, subscription)
        with pytest.raises(SubscriptionError):
            matcher.remove(subscription.subscription_id + 1000)
        assert [router.subscription_epoch for router in routers.values()] == epochs

    def test_sharing_router_fails_closed_on_a_diverged_matcher(
        self, two_broker_topology, schema5
    ):
        matcher, routers = shared_routers(two_broker_topology, schema5)
        router = routers["B0"]
        stranger = make_subscription(schema5, "a1=1", "c1")
        with pytest.raises(SubscriptionError, match="not in the shared matcher"):
            router.add_subscription(stranger)
        tell(matcher, routers, stranger)
        with pytest.raises(SubscriptionError, match="still in the shared matcher"):
            router.remove_subscription(stranger.subscription_id)
        assert router.subscription_epoch == 1  # neither refusal moved the epoch

    def test_matcher_of_another_engine_is_refused(self, two_broker_topology, schema5):
        matcher = factored_matcher_for(
            schema5, domains=DOMAINS, factoring_attributes=["a1"], engine="tree"
        )
        with pytest.raises(RoutingError, match="another engine"):
            router_for(
                two_broker_topology, "B0", schema5, domains=DOMAINS,
                factoring_attributes=["a1"], matcher=matcher,
            )

    def test_cut_off_subscriber_is_indexed_with_no_link(self, diamond_topology, schema5):
        """A shared matcher holds a subscription whose subscriber one broker
        cannot reach; that broker lights no link for it."""
        matcher, routers = shared_routers(diamond_topology, schema5)
        subscription = make_subscription(schema5, "a1=1", "c.B3")
        matcher.insert(subscription)
        router = routers["B0"]
        del router.links._position_of["c.B3"]  # as after a failure cut it off
        with pytest.raises(RoutingError):
            router.add_subscription(subscription)  # the protocol defers it
        decision = router.route(Event.from_tuple(schema5, (1, 0, 0, 0, 0)), "B0")
        assert (decision.forward_to, decision.deliver_to) == ([], [])


class TestChurnCostIsPerSubtree:
    """Counts, not clocks: after one subscription change on a warm matcher
    shared by N routers, each touched sub-tree is changed in place and
    annotated once per router; untouched sub-trees cost nothing."""

    def test_one_insert_recompiles_and_reannotates_its_keys_only(
        self, diamond_topology, live_registry, monkeypatch
    ):
        from repro.matching.compile import CompiledProgram

        schema = uniform_schema(4)
        domains = {name: list(range(6)) for name in schema.names}
        options = dict(domains=domains, factoring_attributes=["a1", "a2"])
        matcher = factored_matcher_for(schema, **options)
        routers = {
            broker: router_for(diamond_topology, broker, schema, matcher=matcher, **options)
            for broker in diamond_topology.brokers()
        }
        for a in range(6):
            for b in range(6):
                tell(matcher, routers, make_subscription(schema, f"a1={a} & a2={b} & a3=1", "c.B3"))
        warm = Event.from_tuple(schema, (0, 0, 1, 0))
        for router in routers.values():
            router.route(warm, "B0")
        programs = dict(matcher.subtrees())
        assert len(programs) == 36

        annotations = []
        annotate = CompiledProgram.annotate

        def recording_annotate(program, *args):
            annotations.append(program)
            annotate(program, *args)

        monkeypatch.setattr(CompiledProgram, "annotate", recording_annotate)
        # a1 pinned, a2 free: 6 in-domain keys + the out-of-domain bucket.
        added = make_subscription(schema, "a1=2 & a4=3", "c.B1")
        tell(matcher, routers, added)
        keys = matcher._keys_for(added)
        assert len(keys) == 7
        for router in routers.values():
            router.route(warm, "B0")
            router.route(warm, "B0")
        assert all(programs[key] is dict(matcher.subtrees())[key] for key in programs)
        assert len(dict(matcher.subtrees())) == 36 + 1  # one out-of-domain key is new
        assert len(annotations) == len(keys) * len(routers)
        assert len({id(view) for view in annotations}) == len(annotations)
