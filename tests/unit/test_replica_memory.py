"""Heap-census guard: a subscription replica allocates only what it holds.

Link matching keeps the full annotated PST at every broker, so the objects a
replica allocates per subscription are what link matching costs in memory.
The guard inserts 2 000 subscriptions of the ``chain_mem_25k`` benchmark's
population (10 attributes, 20 values each, population seed 1999) into a
:class:`CompiledEngine` and counts the garbage collector's tracked objects.
Unused PST containers are shared immutable empties, and equality tests are
interned, so a broker-subscription costs ~14 tracked objects; an empty list
or dict per node, or one test per predicate slot, more than doubles that.
"""

from __future__ import annotations

import gc

from repro.matching import EqualityTest, Subscription
from repro.matching.engines import CompiledEngine
from repro.workload.generators import SubscriptionGenerator
from repro.workload.spec import WorkloadSpec

SUBSCRIPTIONS = 2000
POPULATION_SEED = 1999  # the e2e benchmark's population seed
CLIENTS = [f"c{i}" for i in range(40)]


def test_replica_tracked_objects_per_subscription():
    spec = WorkloadSpec(
        num_attributes=10, values_per_attribute=20, factoring_levels=0, locality_regions=1
    )
    generator = SubscriptionGenerator(spec, seed=POPULATION_SEED)
    engine = CompiledEngine(spec.schema(), domains=spec.domains())
    gc.collect()
    before = len(gc.get_objects())
    for index in range(SUBSCRIPTIONS):
        client = CLIENTS[index % len(CLIENTS)]
        engine.insert(Subscription(generator.predicate_for(client), client))
    gc.collect()
    per_subscription = (len(gc.get_objects()) - before) / SUBSCRIPTIONS
    assert per_subscription <= 16, f"{per_subscription:.1f} tracked objects per subscription"

    tests = {
        id(test)
        for subscription in engine.subscriptions
        for test in subscription.predicate.tests
        if isinstance(test, EqualityTest)
    }
    assert len(tests) <= 200, f"{len(tests)} distinct EqualityTest instances"
