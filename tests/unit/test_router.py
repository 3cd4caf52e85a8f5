"""Unit tests for the per-broker content router."""

from __future__ import annotations

import pytest

from repro.core import ContentRouter
from repro.errors import RoutingError, SubscriptionError
from repro.matching import OUT_OF_DOMAIN, Event, create_matcher, uniform_schema
from repro.matching.compile import CompiledProgram
from repro.network import RoutingTable, spanning_trees_for_publishers
from tests.conftest import make_subscription

DOMAINS = {f"a{i}": [0, 1, 2] for i in range(1, 6)}


def router_for(topology, broker, schema, replica=None, **options) -> ContentRouter:
    """A router on ``replica``; by default a private one built from
    ``options`` (``create_matcher``'s keyword arguments)."""
    return ContentRouter(
        topology,
        broker,
        RoutingTable(topology, broker),
        spanning_trees_for_publishers(topology),
        replica if replica is not None else create_matcher(schema, **options),
    )


def subscribe(router, subscription):
    """The owner inserts into the replica; the router is told."""
    router.replica.insert(subscription)
    router.add_subscription(subscription)


def unsubscribe(router, subscription_id):
    router.replica.remove(subscription_id)
    router.remove_subscription(subscription_id)


class TestSubscriptions:
    def test_add_and_count(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        subscribe(router, make_subscription(schema5, "a1=1", "c0"))
        assert router.subscription_count == 1

    def test_unknown_subscriber_rejected_early(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        with pytest.raises(RoutingError):
            router.add_subscription(make_subscription(schema5, "a1=1", "stranger"))

    def test_remove(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        sub = make_subscription(schema5, "a1=1", "c0")
        subscribe(router, sub)
        unsubscribe(router, sub.subscription_id)
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
            subscribe(router, sub)

        def listing_forbidden(self):
            raise AssertionError("subscription_count listed the subscriptions")

        monkeypatch.setattr(
            type(router.replica), "subscriptions", property(listing_forbidden)
        )
        assert router.subscription_count == 3
        unsubscribe(router, subs[1].subscription_id)
        assert router.subscription_count == 2


class TestRouting:
    def test_delivers_to_local_client(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        subscribe(router, make_subscription(schema5, "a1=1", "c0"))
        decision = router.route(Event.from_tuple(schema5, (1, 0, 0, 0, 0)), "B0")
        assert decision.deliver_to == ["c0"]
        assert decision.forward_to == []

    def test_forwards_to_remote_broker(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        subscribe(router, make_subscription(schema5, "a1=1", "c1"))
        decision = router.route(Event.from_tuple(schema5, (1, 0, 0, 0, 0)), "B0")
        assert decision.forward_to == ["B1"]
        assert decision.deliver_to == []

    def test_non_matching_event_goes_nowhere(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        subscribe(router, make_subscription(schema5, "a1=1", "c1"))
        decision = router.route(Event.from_tuple(schema5, (2, 0, 0, 0, 0)), "B0")
        assert decision.forward_to == [] and decision.deliver_to == []

    def test_annotations_refresh_after_subscribe(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        event = Event.from_tuple(schema5, (1, 0, 0, 0, 0))
        assert router.route(event, "B0").deliver_to == []
        subscribe(router, make_subscription(schema5, "a1=1", "c0"))
        assert router.route(event, "B0").deliver_to == ["c0"]

    def test_annotations_refresh_after_unsubscribe(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        sub = make_subscription(schema5, "a1=1", "c0")
        subscribe(router, sub)
        event = Event.from_tuple(schema5, (1, 0, 0, 0, 0))
        assert router.route(event, "B0").deliver_to == ["c0"]
        unsubscribe(router, sub.subscription_id)
        assert router.route(event, "B0").deliver_to == []

    def test_unknown_tree_root(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        with pytest.raises(RoutingError):
            router.route(Event.from_tuple(schema5, (1, 0, 0, 0, 0)), "B1")

    def test_steps_reported(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        subscribe(router, make_subscription(schema5, "a1=1", "c0"))
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
            subscribe(plain, make_subscription(schema5, expression, subscriber))
            subscribe(factored, make_subscription(schema5, expression, subscriber))
        for _ in range(100):
            event = Event.from_tuple(schema5, tuple(rng.randrange(3) for _ in range(5)))
            a = plain.route(event, "B0")
            b = factored.route(event, "B0")
            assert (a.forward_to, a.deliver_to) == (b.forward_to, b.deliver_to)

    def test_factoring_requires_domains(self, two_broker_topology, schema5):
        with pytest.raises(SubscriptionError, match="finite attribute domains"):
            router_for(
                two_broker_topology, "B0", schema5, factoring_attributes=["a1"]
            )

    def test_local_matching(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        subscribe(router, make_subscription(schema5, "a1=1", "c0"))
        subscribe(router, make_subscription(schema5, "a1=1", "c1"))
        result = router.match_locally(Event.from_tuple(schema5, (1, 0, 0, 0, 0)))
        assert {s.subscriber for s in result.subscriptions} == {"c0", "c1"}


class TestAnnotationRebuilds:
    """``engine.annotation_rebuilds`` counts every full annotation, on every
    configuration: a view's first route, and its first after a layout
    rebind — never a subscription change."""

    @pytest.mark.parametrize("factored", [False, True], ids=["whole", "factored"])
    @pytest.mark.parametrize("engine", ["compiled"])
    def test_first_route_and_rebind_count(
        self, diamond_topology, schema5, live_registry, engine, factored
    ):
        router = router_for(
            diamond_topology,
            "B0",
            schema5,
            domains=DOMAINS,
            factoring_attributes=["a1"] if factored else None,
        )

        def rebuilds():
            return live_registry.value_of("engine.annotation_rebuilds", engine=engine) or 0

        subscribe(router, make_subscription(schema5, "a1=1 & a2=1", "c.B3"))
        event = Event.from_tuple(schema5, (1, 1, 0, 0, 0))
        assert rebuilds() == 0, "a view that never routed is not annotated"
        assert router.route(event, "B0").forward_to == ["B1"]
        assert rebuilds() == 1
        subscribe(router, make_subscription(schema5, "a1=1 & a2=2", "c.B2"))
        router.route(event, "B0")
        assert rebuilds() == 1, "a change re-annotates its path only"
        diamond_topology.remove_link("B0", "B2")
        changed = router.rebuild_links(
            RoutingTable(diamond_topology, "B0"),
            spanning_trees_for_publishers(diamond_topology),
        )
        assert changed and rebuilds() == 1
        assert router.route(event, "B0").forward_to == ["B1"]
        assert rebuilds() == 2


def shared_routers(topology, schema, **kwargs):
    """One router per broker, all viewing one replica (factored on ``a1``
    unless ``kwargs`` say otherwise)."""
    options = dict(domains=DOMAINS, factoring_attributes=["a1"])
    options.update(kwargs)
    replica = create_matcher(schema, **options)
    routers = {
        broker: router_for(topology, broker, schema, replica)
        for broker in topology.brokers()
    }
    return replica, routers


def tell(replica, routers, subscription):
    replica.insert(subscription)
    for router in routers.values():
        router.add_subscription(subscription)


class TestSharedMatcher:
    """One subscription replica per process: N routers view one replica
    (see also the shared == private property in
    tests/property/test_prop_routing.py)."""

    def test_routers_share_structure_and_own_annotations(self, diamond_topology, schema5):
        replica, routers = shared_routers(diamond_topology, schema5)
        tell(replica, routers, make_subscription(schema5, "a1=1 & a2=1", "c.B3"))
        event = Event.from_tuple(schema5, (1, 1, 0, 0, 0))
        assert routers["B0"].route(event, "B0").forward_to == ["B1"]
        assert routers["B1"].route(event, "B0").forward_to == ["B3"]
        assert routers["B3"].route(event, "B0").deliver_to == ["c.B3"]
        assert routers["B2"].route(event, "B0").forward_to == []
        assert len(replica.views) == len(routers)
        # Each router routed into key (1,): one view of its program each,
        # annotated for that router alone.
        views = replica.subtree((1,)).views
        assert len(views) == len(routers)
        assert len({id(view.ann_yes) for view in views}) == len(views)

    def test_a_replaced_program_is_never_routed_on(self, diamond_topology, schema5, monkeypatch):
        replica, routers = shared_routers(diamond_topology, schema5)
        tell(replica, routers, make_subscription(schema5, "a1=1 & a2=1", "c.B3"))
        tell(replica, routers, make_subscription(schema5, "a1=2", "c.B1"))
        event = Event.from_tuple(schema5, (1, 2, 0, 0, 0))
        assert routers["B0"].route(event, "B0").forward_to == []
        program = replica.subtree((1,))
        full = []
        monkeypatch.setattr(CompiledProgram, "annotate", lambda _program, view: full.append(view))
        # The owner changes the replica's program in place; B0 is not even
        # told — its next route must still follow the program as it is
        # *now*: its view was re-annotated along the changed path.
        replica.insert(make_subscription(schema5, "a1=1 & a2=2", "c.B2"))
        assert routers["B0"].route(event, "B0").forward_to == ["B2"]
        assert replica.subtree((1,)) is program
        assert full == []

    def test_emptied_subtree_is_dropped(self, two_broker_topology, schema5):
        replica, routers = shared_routers(two_broker_topology, schema5)
        subscription = make_subscription(schema5, "a1=1", "c1")
        tell(replica, routers, subscription)
        event = Event.from_tuple(schema5, (1, 0, 0, 0, 0))
        assert routers["B0"].route(event, "B0").forward_to == ["B1"]
        program = replica.subtree((1,))
        assert len(program.views) == 1
        replica.remove(subscription.subscription_id)
        for router in routers.values():
            assert router.remove_subscription(subscription.subscription_id) is None
        decision = routers["B0"].route(event, "B0")
        assert (decision.forward_to, decision.steps) == ([], 1)
        assert replica.subtree((1,)) is None
        assert program.views == [], "the dropped sub-tree's views were released"

    def test_duplicate_and_unknown_raise_once_at_the_owner(self, two_broker_topology, schema5):
        replica, routers = shared_routers(two_broker_topology, schema5)
        subscription = make_subscription(schema5, "a1=1", "c1")
        tell(replica, routers, subscription)
        epochs = [router.subscription_epoch for router in routers.values()]
        with pytest.raises(SubscriptionError):
            tell(replica, routers, subscription)
        with pytest.raises(SubscriptionError):
            replica.remove(subscription.subscription_id + 1000)
        assert [router.subscription_epoch for router in routers.values()] == epochs

    def test_sharing_router_fails_closed_on_a_diverged_matcher(
        self, two_broker_topology, schema5
    ):
        for factoring in (["a1"], None):
            replica, routers = shared_routers(
                two_broker_topology, schema5, factoring_attributes=factoring
            )
            router = routers["B0"]
            stranger = make_subscription(schema5, "a1=1", "c1")
            with pytest.raises(SubscriptionError, match="not in the replica"):
                router.add_subscription(stranger)
            tell(replica, routers, stranger)
            with pytest.raises(SubscriptionError, match="still in the replica"):
                router.remove_subscription(stranger.subscription_id)
            assert router.subscription_epoch == 1  # neither refusal moved the epoch

    def test_closing_a_router_releases_its_view(self, two_broker_topology, schema5):
        replica, routers = shared_routers(two_broker_topology, schema5)
        tell(replica, routers, make_subscription(schema5, "a1=1", "c1"))
        routers["B1"].route(Event.from_tuple(schema5, (1, 0, 0, 0, 0)), "B0")
        program = replica.subtree((1,))
        assert len(replica.views) == 2 and len(program.views) == 1
        routers["B1"].close()
        assert len(replica.views) == 1 and program.views == []

    def test_cut_off_subscriber_is_indexed_with_no_link(self, diamond_topology, schema5):
        """A shared replica holds a subscription whose subscriber one broker
        cannot reach; that broker lights no link for it."""
        replica, routers = shared_routers(diamond_topology, schema5)
        subscription = make_subscription(schema5, "a1=1", "c.B3")
        replica.insert(subscription)
        router = routers["B0"]
        del router.links._position_of["c.B3"]  # as after a failure cut it off
        with pytest.raises(RoutingError):
            router.add_subscription(subscription)  # the protocol defers it
        decision = router.route(Event.from_tuple(schema5, (1, 0, 0, 0, 0)), "B0")
        assert (decision.forward_to, decision.deliver_to) == ([], [])


class TestChurnCostIsPerSubtree:
    """Counts, not clocks: one subscription change on a warm replica shared
    by N routers changes its path in place and re-annotates that path once
    per annotated view; no view is annotated in full, and a view that has
    never routed does no annotation work at all."""

    SCHEMA = uniform_schema(4)
    DOMAINS = {name: list(range(6)) for name in SCHEMA.names}

    def build(self, topology, factored):
        replica = create_matcher(
            self.SCHEMA,
            domains=self.DOMAINS,
            factoring_attributes=["a1", "a2"] if factored else None,
        )
        routers = {
            broker: router_for(topology, broker, self.SCHEMA, replica)
            for broker in topology.brokers()
        }
        for a in range(6):
            for b in range(6):
                tell(
                    replica,
                    routers,
                    make_subscription(self.SCHEMA, f"a1={a} & a2={b} & a3=1", "c.B3"),
                )
        return replica, routers

    def events(self):
        return [Event.from_tuple(self.SCHEMA, (a, b, 1, 0)) for a in range(6) for b in range(6)]

    @staticmethod
    def count_annotation(monkeypatch):
        """Record ``(program, view)`` per full annotation and per path
        re-annotation from here on."""
        calls = {"full": [], "path": []}
        annotate, annotate_path = CompiledProgram.annotate, CompiledProgram._annotate_path

        def full(program, view):
            calls["full"].append((program, view))
            annotate(program, view)

        def path(program, view, slots):
            calls["path"].append((program, view))
            annotate_path(program, view, slots)

        monkeypatch.setattr(CompiledProgram, "annotate", full)
        monkeypatch.setattr(CompiledProgram, "_annotate_path", path)
        return calls

    def test_one_insert_recompiles_and_reannotates_its_keys_only(
        self, diamond_topology, monkeypatch
    ):
        self.check_one_insert(diamond_topology, True, monkeypatch)

    def test_one_insert_into_a_whole_replica_reannotates_its_path_only(
        self, diamond_topology, monkeypatch
    ):
        self.check_one_insert(diamond_topology, False, monkeypatch)

    def check_one_insert(self, diamond_topology, factored, monkeypatch):
        replica, routers = self.build(diamond_topology, factored)
        events = self.events()
        for router in routers.values():
            router.route_batch(events, "B0")
        calls = self.count_annotation(monkeypatch)
        # a1 pinned, a2 free: 6 in-domain keys + the out-of-domain bucket.
        added = make_subscription(self.SCHEMA, "a1=2 & a4=3", "c.B1")
        if factored:
            keys = [(2, b) for b in range(6)] + [(2, OUT_OF_DOMAIN)]
            programs = {key: replica.subtree(key) for key in keys}
            assert programs.pop((2, OUT_OF_DOMAIN)) is None
            touched = list(programs.values())
        else:
            touched = [replica]
        tell(replica, routers, added)
        assert calls["full"] == []
        expected = [(program, view) for program in touched for view in program.views]
        assert len(expected) == len(touched) * len(routers)
        assert sorted(map(id, (view for _p, view in calls["path"]))) == sorted(
            map(id, (view for _p, view in expected))
        )
        if factored:
            assert all(replica.subtree(key) is program for key, program in programs.items())
        # Routing again annotates nothing in full (no event selects the new
        # out-of-domain key, the one new sub-tree).
        for router in routers.values():
            router.route_batch(events, "B0")
        assert calls["full"] == []

    @pytest.mark.parametrize("factored", [False, True], ids=["whole", "factored"])
    def test_a_view_that_never_routed_does_no_annotation_work(
        self, diamond_topology, factored, monkeypatch
    ):
        calls = self.count_annotation(monkeypatch)
        replica, routers = self.build(diamond_topology, factored)
        assert calls == {"full": [], "path": []}
        routers["B0"].route_batch(self.events(), "B0")
        annotated = len(calls["full"])
        assert annotated == (36 if factored else 1)
        tell(replica, routers, make_subscription(self.SCHEMA, "a1=2 & a2=3 & a4=3", "c.B1"))
        assert len(calls["full"]) == annotated
        # Only B0's view of the touched program re-annotates the path.
        touched = replica.subtree((2, 3)) if factored else replica
        assert [view for _program, view in calls["path"]] == [
            view for program, view in calls["full"] if program is touched
        ]
        # The other routers' views: none of a factored sub-tree (made at a
        # view's first event of its key), unannotated ones of a whole tree.
        unannotated = [view for view in touched.views if view.ann_yes is None]
        assert len(unannotated) == (0 if factored else len(routers) - 1)
