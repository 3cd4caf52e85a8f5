"""What a subscription change costs a compiled program: its path, in time,
and nothing, in space.

The equivalence of a changed program with the oracle tree is the property
suite's business (``tests/property/test_prop_churn_incremental.py``); this
file pins the *cost* side — the node slots stay put under steady churn,
removed subscriptions are let go of, and the first digest projection after
a change does not grow with the subscription set.
"""

from __future__ import annotations

import gc
import weakref
from collections import deque
from time import perf_counter

import pytest

from repro.errors import RoutingError
from repro.matching.compile import CompiledProgram
from repro.matching.engines import CompiledEngine
from repro.matching.predicates import Subscription
from repro.workload.generators import SubscriptionGenerator
from repro.workload.spec import WorkloadSpec

#: churn_mem's subscription population: 10 attributes of 5 values.
SPEC = WorkloadSpec(num_attributes=10, values_per_attribute=5)
NUM_LINKS = 4
FIFO_DEPTH = 50


class TrackedSubscription(Subscription):
    """``Subscription`` is slotted without ``__weakref__``; this one can be
    watched."""

    __slots__ = ("__weakref__",)


def churned_engine(standing, *, seed=1):
    """An annotated engine holding ``standing`` subscriptions plus a full
    FIFO of churn subscriptions; returns it with the generator and FIFO."""
    generator = SubscriptionGenerator(SPEC, seed=seed)
    engine = CompiledEngine(CompiledProgram(SPEC.schema(), domains=SPEC.domains()))
    engine.bind_links(NUM_LINKS, lambda s: s.subscription_id % NUM_LINKS)
    for _ in range(standing):
        engine.insert(generator.subscription_for("c"))
    fifo = deque()
    for _ in range(FIFO_DEPTH):
        subscription = generator.subscription_for("c")
        engine.insert(subscription)
        fifo.append(subscription.subscription_id)
    engine.project_links([], 0, 0)  # annotate
    return engine, generator, fifo


def churn_once(engine, generator, fifo):
    subscription = generator.subscription_for("c")
    engine.insert(subscription)
    fifo.append(subscription.subscription_id)
    return engine.remove(fifo.popleft())


class TestSteadyChurnIsStationary:
    def test_five_thousand_cycles_over_a_thousand_standing(self):
        engine, generator, fifo = churned_engine(1000)
        program = engine.program
        starting_nodes = program.node_count
        tracked = TrackedSubscription(generator.predicate_for("c"), "c")
        removed = weakref.ref(tracked)
        engine.insert(tracked)
        engine.remove(tracked.subscription_id)
        del tracked
        for _ in range(5000):
            churn_once(engine, generator, fifo)
        assert engine.program is program  # changed 10 000 times in place
        assert abs(program.node_count - starting_nodes) <= 0.05 * starting_nodes
        assert program.node_count == len(program.reachable_slots()) + len(program._free_slots)
        gc.collect()
        assert removed() is None  # no orphaned slice pins it

    def test_unknown_id_digest_still_raises_after_churn(self):
        engine, generator, fifo = churned_engine(200)
        gone = churn_once(engine, generator, fifo)
        kept = fifo[0]
        engine.project_links([kept], 0, 0b1111)
        with pytest.raises(RoutingError, match="diverged"):
            engine.project_links([kept, gone.subscription_id], 0, 0b1111)


class TestFirstProjectionAfterAPatch:
    @staticmethod
    def best_of(engine, generator, fifo, repeats=20):
        ids = sorted(s.subscription_id for s in engine.subscriptions[:32])
        best = float("inf")
        for _ in range(repeats):
            churn_once(engine, generator, fifo)
            live = [i for i in ids if i in engine.program]
            began = perf_counter()
            engine.project_links(live, 0, 0b1111)
            best = min(best, perf_counter() - began)
        return best

    def test_does_not_scale_with_the_subscription_set(self):
        """A graph walk per generation made this ≈ 10x slower at 10x the
        subscriptions; a maintained map makes it a dict probe per id."""
        small = self.best_of(*churned_engine(2_000))
        large = self.best_of(*churned_engine(20_000))
        assert large < 4 * small
