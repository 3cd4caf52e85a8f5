"""Unit tests for the per-broker content router."""

from __future__ import annotations

import pytest

from repro.core import ContentRouter
from repro.errors import RoutingError
from repro.matching import Event
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
        [{}, {"factoring_attributes": ["a1"], "domains": DOMAINS}, {"aggregate": True}],
        ids=["plain", "factored", "aggregate"],
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

    def test_factored_router_honors_backend(self, two_broker_topology, schema5):
        """Regression: the per-sub-tree link programs were compiled without
        the router's backend, so a factored ``backend="vector"`` router
        refined every event on ``interp``."""
        pytest.importorskip("numpy")
        router = router_for(
            two_broker_topology,
            "B0",
            schema5,
            domains=DOMAINS,
            factoring_attributes=["a1"],
            backend="vector",
        )
        for value in range(3):
            router.add_subscription(make_subscription(schema5, f"a1={value} & a2=1", "c1"))
        decision = router.route(Event.from_tuple(schema5, (1, 1, 0, 0, 0)), "B0")
        assert decision.forward_to == ["B1"]
        assert router._programs, "the route must have compiled link programs"
        assert {p.backend.name for p in router._programs.values()} == {"vector"}

    def test_local_matching(self, two_broker_topology, schema5):
        router = router_for(two_broker_topology, "B0", schema5)
        router.add_subscription(make_subscription(schema5, "a1=1", "c0"))
        router.add_subscription(make_subscription(schema5, "a1=1", "c1"))
        result = router.match_locally(Event.from_tuple(schema5, (1, 0, 0, 0, 0)))
        assert {s.subscriber for s in result.subscriptions} == {"c0", "c1"}
