"""Churn is visible to the very next match: no answer outlives the
subscription set it was computed from.

These began as stale-answer regressions against the compiled engine's result
caches (removed: matching an event is walking the program).  They stay as
churn-correctness tests of ``insert`` / ``remove`` / ``patch``: the same
event matched before and after every change must see exactly the live set.
"""

from __future__ import annotations

from repro.matching import Event, Predicate, Subscription, uniform_schema
from repro.matching.compile import CompiledProgram
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


def build_engine(*subscriptions):
    engine = CompiledEngine(CompiledProgram(SCHEMA, domains=DOMAINS))
    for entry in subscriptions:
        engine.insert(entry)
    return engine


class TestInvalidation:
    def test_insert_is_seen_by_the_next_match(self):
        """Regression: a repeated event must not hide a new subscription."""
        engine = build_engine(subscription("alice", a1=1))
        target = event(1, 1, 1)
        assert {s.subscriber for s in engine.match(target).subscriptions} == {"alice"}
        engine.insert(subscription("bob", a2=1))
        assert {s.subscriber for s in engine.match(target).subscriptions} == {
            "alice",
            "bob",
        }

    def test_remove_is_seen_by_the_next_match(self):
        """Regression: a repeated event must not resurrect a removed one."""
        bob = subscription("bob", a2=1)
        engine = build_engine(subscription("alice", a1=1), bob)
        target = event(1, 1, 1)
        assert {s.subscriber for s in engine.match(target).subscriptions} == {
            "alice",
            "bob",
        }
        engine.remove(bob.subscription_id)
        assert {s.subscriber for s in engine.match(target).subscriptions} == {"alice"}

    def test_churn_never_serves_stale_results(self):
        """Alternating matches of one event with churn on its path."""
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
