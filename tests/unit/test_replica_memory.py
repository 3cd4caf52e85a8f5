"""Heap-census guard: a subscription replica allocates only what it holds.

Link matching keeps the full annotated PST at every broker, so the objects a
replica allocates per subscription are what link matching costs in memory.
The guard inserts 2 000 subscriptions of the ``chain_mem_25k`` benchmark's
population (10 attributes, 20 values each, population seed 1999) into a
:class:`CompiledEngine` and counts the garbage collector's tracked objects.
The engine's program is the whole replica — no node graph stands behind
it — and equality tests are interned, so a broker-subscription costs ~8 tracked
objects; a PST kept beside the program (~10 more), or one test per
predicate slot, more than doubles that.

The other guards annotate that replica.  One node slot per tree node, and
no node left with only a ``*``-child (trivial-test elimination holds on the
records), keeps it at ~3.6 slots per subscription; a tree that grows a node
on every level its subscriptions leave ``*`` needs twice that.  Then they
size what the compiled program and its one view own per node slot.  One
record per slot is the whole structure and the view's two columns the whole
annotation — the program holds none of its own, so a router's view is not a
second copy; beside them a program keeps only the subscription-to-leaf map
and the free list, so a second copy of the structure — a parallel array, a
node-id map — shows as a multiple of that small remainder.
"""

from __future__ import annotations

import gc
import sys

from repro.matching import EqualityTest, Subscription
from repro.matching.compile import CompiledProgram
from repro.matching.engines import CompiledEngine
from repro.matching.predicates import AttributeTest, Predicate
from repro.workload.generators import SubscriptionGenerator
from repro.workload.spec import WorkloadSpec

SUBSCRIPTIONS = 2000
POPULATION_SEED = 1999  # the e2e benchmark's population seed
CLIENTS = [f"c{i}" for i in range(40)]
#: Slots per subscription, measured at 3.571 (7 142 slots), plus 5 %; 7.44
#: (14 889 slots) while star-only nodes were kept.
SLOTS_PER_SUBSCRIPTION_BOUND = 3.75
#: Bytes per slot, measured at 333.2 (records and annotation) and 11.4
#: (everything else) on those 7 142 slots, plus ~15 %.  Restoring a
#: parallel array adds >= 8 bookkeeping bytes per slot (the per-slot node
#: id column did: 19.7), a node-id map ~40.
STRUCTURE_BOUND = 383
BOOKKEEPING_BOUND = 13.1


#: Where the program walk stops: what its leaves name.
BORROWED = (Subscription, Predicate, AttributeTest)
#: Program slots that wire it to its surroundings rather than hold structure.
WIRING = {"schema", "attribute_order", "_schema_ok", "views"}
#: The program's records and its view's annotation columns; every other
#: program field is bookkeeping.
STRUCTURE = ("_records",)
COLUMNS = ("ann_yes", "ann_maybe")


SPEC = WorkloadSpec(
    num_attributes=10, values_per_attribute=20, factoring_levels=0, locality_regions=1
)


def replica(matcher=None):
    generator = SubscriptionGenerator(SPEC, seed=POPULATION_SEED)
    engine = matcher
    if engine is None:
        engine = CompiledEngine(CompiledProgram(SPEC.schema(), domains=SPEC.domains()))
    for index in range(SUBSCRIPTIONS):
        client = CLIENTS[index % len(CLIENTS)]
        engine.insert(Subscription(generator.predicate_for(client), client))
    return engine


def owned_bytes(owner, fields, seen):
    """``sys.getsizeof`` summed over what ``fields`` of ``owner`` (a program
    or its view) reach and ``seen`` does not hold yet, without entering the
    tree's objects; small ints are free."""
    total = 0
    stack = [getattr(owner, field) for field in fields]
    while stack:
        item = stack.pop()
        if item is None or type(item) is bool or isinstance(item, BORROWED):
            continue
        if (type(item) is int and -5 <= item <= 256) or id(item) in seen:
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return total


def test_replica_tracked_objects_per_subscription():
    gc.collect()
    before = len(gc.get_objects())
    engine = replica()
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


def annotated_replica():
    engine = replica()
    engine.bind_links(len(CLIENTS), lambda subscription: int(subscription.subscriber[1:]))
    engine.project_links([], 0, 0)  # annotate
    return engine


def test_compiled_program_slots_per_subscription():
    engine = annotated_replica()
    per_subscription = engine.program.node_count / SUBSCRIPTIONS
    assert per_subscription <= SLOTS_PER_SUBSCRIPTION_BOUND, (
        f"{per_subscription:.3f} slots per subscription"
    )


def test_compiled_program_bytes_per_slot():
    engine = annotated_replica()
    program = engine.program
    slots = program.node_count
    # Subscription ids are the subscriptions', not the program's.
    seen = {id(subscription.subscription_id) for subscription in engine.subscriptions}
    assert program.views == [engine]
    assert not set(COLUMNS) & set(CompiledProgram.__slots__), "one set of columns: the view's"
    structure = (owned_bytes(program, STRUCTURE, seen) + owned_bytes(engine, COLUMNS, seen)) / slots
    others = [field for field in CompiledProgram.__slots__ if field not in WIRING]
    bookkeeping = owned_bytes(program, [f for f in others if f not in STRUCTURE], seen) / slots
    assert structure <= STRUCTURE_BOUND, f"{structure:.1f} record bytes per slot"
    assert bookkeeping <= BOOKKEEPING_BOUND, f"{bookkeeping:.1f} bookkeeping bytes per slot"
