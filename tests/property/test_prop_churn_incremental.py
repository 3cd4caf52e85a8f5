"""Incremental ≡ rebuild: a patched program is a freshly compiled one.

``CompiledProgram.patch`` maintains three things along the changed path
instead of rebuilding them: the node records, the packed annotations, and
the ``subscription_id -> leaf`` map digests project through; slots under a
pruned branch are recycled, and a live node never changes slot — a child a
re-materialized level is put above keeps its own, and so does the
``*``-child a spliced node leaves behind — except across a root
replacement, where the new root takes slot 0.  This suite drives random
interleavings of every operation that touches that state through one
``CompiledEngine`` (an insert that re-materializes a skipped level
included) and, after each step, holds the engine's program against a
program compiled from the same tree there and then — same match sets, same
steps, same refined masks, same digest projection —, its records against
the live tree node for node, and the map against the from-the-root walk
that used to build it (kept here as the reference).  The tree itself must
hold trivial-test elimination as an invariant (no node has only a
``*``-child) and be the tree a fresh build of the live set gives, up to
branch order; no patch may bail out to a recompile.
"""

from __future__ import annotations

import importlib.util

from hypothesis import given, settings, strategies as st

from repro.matching import (
    Event,
    ParallelSearchTree,
    Predicate,
    RangeOp,
    Subscription,
    uniform_schema,
)
from repro.matching.compile import _FREE_RECORD, compile_tree
from repro.matching.engines import CompiledEngine
from repro.matching.predicates import EqualityTest, RangeTest
from repro.obs import MetricsRegistry, get_registry, set_registry
from tests.program_walk import slots_by_node

SCHEMA = uniform_schema(4)
DOMAIN = [0, 1, 2]
DOMAINS = {name: DOMAIN for name in SCHEMA.names}
NUM_LINKS = 5
FULL = (1 << NUM_LINKS) - 1
#: ``vector`` requires numpy; without it the interp half still runs.
BACKENDS = ["interp", "vector"] if importlib.util.find_spec("numpy") else ["interp"]

#: Per attribute: None = don't care, int = equality, (op, bound) = range.
test_specs = st.one_of(
    st.none(),
    st.sampled_from(DOMAIN),
    st.tuples(
        st.sampled_from([RangeOp.LT, RangeOp.LE, RangeOp.GT, RangeOp.GE]),
        st.sampled_from(DOMAIN),
    ),
)
predicate_specs = st.tuples(*(test_specs for _ in range(4)))
events = st.tuples(*(st.sampled_from(DOMAIN) for _ in range(4))).map(
    lambda values: Event.from_tuple(SCHEMA, values)
)
links = st.integers(min_value=0, max_value=NUM_LINKS - 1)
yes_masks = st.integers(min_value=0, max_value=FULL)

#: One step: (operation, predicate, pick, link, event, yes bits).  ``pick``
#: selects the live subscription a remove / refresh acts on, or the
#: level-skipping edge and skipped level a ``rematerialize`` step's insert
#: constrains; ``unroot`` inserts a subscription that leaves the root's
#: level ``*`` and removes every one that constrains it, so the last removal
#: splices the root out for its ``*``-child; ``invalidate`` makes the next
#: step patch a fresh compile.
steps = st.tuples(
    st.sampled_from(
        [
            "insert",
            "insert",
            "remove",
            "remove",
            "refresh",
            "invalidate",
            "rematerialize",
            "unroot",
            "match",
        ]
    ),
    predicate_specs,
    st.integers(min_value=0, max_value=1 << 16),
    links,
    events,
    yes_masks,
)


def predicate_of(spec) -> Predicate:
    tests = {}
    for name, part in zip(SCHEMA.names, spec):
        if part is None:
            continue
        tests[name] = RangeTest(*part) if isinstance(part, tuple) else EqualityTest(part)
    return Predicate(SCHEMA, tests)


def reference_sub_leaf(program):
    """``subscription_id -> leaf index`` by walking the live records from
    the root — what ``CompiledProgram`` computed per generation before the
    map became part of lowering."""
    mapping = {}
    stack = [0]
    seen = set()
    while stack:
        index = stack.pop()
        assert index not in seen, "the compiled graph must stay a tree"
        seen.add(index)
        position, table, ranges, star, subs = program._records[index]
        if position < 0:
            for subscription in subs or ():
                mapping[subscription.subscription_id] = index
            continue
        if table is not None:
            stack.extend(table.values())
        if ranges is not None:
            stack.extend(child for _test, child in ranges)
        if star >= 0:
            stack.append(star)
    return mapping, seen


def assert_structure(engine):
    program = engine.program
    mapping, reachable = reference_sub_leaf(program)
    assert program._sub_leaf == mapping
    assert set(mapping) == {s.subscription_id for s in engine.tree.subscriptions}
    # The reachable slots are the live tree, node for node.
    assert set(slots_by_node(program, engine.tree).values()) == reachable
    # Every slot is either a live node or on the free list, exactly once.
    free = program._free_slots
    assert len(set(free)) == len(free)
    assert reachable.isdisjoint(free)
    assert len(reachable) + len(free) == program.node_count
    for slot in free:
        assert program._records[slot] == _FREE_RECORD
        assert program.ann_yes[slot] == program.ann_maybe[slot] == 0
        assert program._slot_node_id[slot] == 0


def skipping_edges(tree):
    """Every edge that skips levels, the root's included: ``(tests down to
    it, first skipped level, level reached)``, with ``tests`` in attribute
    order (``None`` = don't care)."""
    levels = len(SCHEMA.names)
    edges = []
    stack = [(tree.root, -1, [None] * levels)]
    while stack:
        node, parent_level, tests = stack.pop()
        level = levels if node.is_leaf else node.attribute_position
        if level > parent_level + 1:
            edges.append((tests, parent_level + 1, level))
        if node.is_leaf:
            continue
        labelled = [(EqualityTest(value), child) for value, child in node.value_branches.items()]
        labelled.extend(node.range_branches)
        for test, child in labelled:
            stack.append((child, level, tests[:level] + [test] + tests[level + 1 :]))
        if node.star_child is not None:
            stack.append((node.star_child, level, tests))
    return edges


def rematerializing_subscription(engine, pick, value):
    """A subscription down a level-skipping edge that constrains one of the
    levels it skips; ``None`` if no edge skips a level."""
    edges = skipping_edges(engine.tree)
    if not edges:
        return None
    tests, first, reached = edges[pick % len(edges)]
    tests = list(tests)
    tests[first + pick % (reached - first)] = EqualityTest(value)
    predicate = Predicate(
        SCHEMA, {name: test for name, test in zip(SCHEMA.names, tests) if test is not None}
    )
    return Subscription(predicate, "rematerialized")


def shape(node):
    """A node's subtree up to branch order: its tested level, its labelled
    children and its leaf's subscription ids; ``None`` for an empty node
    (a drained root)."""
    if node.is_empty:
        return None
    if node.is_leaf:
        return frozenset(s.subscription_id for s in node.subscriptions)
    labelled = [(EqualityTest(value), child) for value, child in node.value_branches.items()]
    labelled.extend(node.range_branches)
    return (
        node.attribute_position,
        frozenset((test, shape(child)) for test, child in labelled),
        shape(node.star_child) if node.star_child is not None else None,
    )


def assert_canonical(tree):
    """No node keeps only a ``*``-child, and the history that built the tree
    left no trace: a fresh build of the live set has the same shape."""
    for node in tree.nodes():
        if node.star_child is not None:
            assert node.value_branches or node.range_branches, f"{node} is star-only"
    fresh = ParallelSearchTree(SCHEMA, domains=DOMAINS)
    for subscription in tree.subscriptions:
        fresh.insert(subscription)
    assert shape(tree.root) == shape(fresh.root)


def assert_equals_rebuild(engine, link_of, event, yes_bits):
    """The engine's (patched) answers against a fresh compile."""
    fresh = compile_tree(engine.tree)
    fresh.annotate(NUM_LINKS, link_of)
    maybe_bits = FULL & ~yes_bits
    expected = fresh.match(event)
    result = engine.match(event)
    ids = sorted(s.subscription_id for s in expected.subscriptions)
    assert sorted(s.subscription_id for s in result.subscriptions) == ids
    assert result.steps == expected.steps
    refined = fresh.match_links(event, yes_bits, maybe_bits)
    assert engine.match_links(event, yes_bits, maybe_bits) == refined
    projected = engine.project_links(ids, yes_bits, maybe_bits)
    assert projected == fresh.project_links(ids, yes_bits, maybe_bits)
    assert projected[0] == refined[0]  # digest ≡ rematch


@given(
    backend=st.sampled_from(BACKENDS),
    script=st.lists(steps, min_size=1, max_size=40),
)
@settings(max_examples=150, deadline=None)
def test_every_step_equals_a_fresh_compile(backend, script):
    previous = set_registry(MetricsRegistry(enabled=True))
    try:
        run_script(backend, script)
        assert get_registry().counter("engine.compiled.patch_bailouts").value == 0
    finally:
        set_registry(previous)


def run_script(backend, script):
    engine = CompiledEngine(SCHEMA, domains=DOMAINS, backend=backend)
    link_by_id = {}

    def link_of(subscription):
        return link_by_id[subscription.subscription_id]

    def insert(subscription, link):
        link_by_id[subscription.subscription_id] = link
        engine.insert(subscription)
        live.append(subscription)

    engine.bind_links(NUM_LINKS, link_of)
    live = []
    for operation, spec, pick, link, event, yes_bits in script:
        program = engine._program
        before = slots_by_node(program, engine.tree) if program is not None else {}
        old_root = engine.tree.root.node_id
        if operation == "insert":
            insert(Subscription(predicate_of(spec), f"s{link}"), link)
        elif operation == "remove" and live:
            engine.remove(live.pop(pick % len(live)).subscription_id)
        elif operation == "refresh" and live:
            subscription = live[pick % len(live)]
            link_by_id[subscription.subscription_id] = link
            engine.refresh_links(subscription)
        elif operation == "invalidate":
            engine.invalidate()
        elif operation == "unroot" and not engine.tree.root.is_leaf:
            # A survivor that leaves the root's level (and those above) ``*``
            # keeps the tree from draining, so the root is spliced, not emptied.
            level = engine.tree.root.attribute_position
            survivor = predicate_of((None,) * (level + 1) + spec[level + 1 :])
            insert(Subscription(survivor, f"s{link}"), link)
            for subscription in [s for s in live if not s.predicate.tests[level].is_dont_care]:
                engine.remove(subscription.subscription_id)
                live.remove(subscription)
        elif operation == "rematerialize":
            subscription = rematerializing_subscription(engine, pick, DOMAIN[link % 3])
            if subscription is not None:
                insert(subscription, link)
        if engine._program is program and program is not None:
            # A patch moves no live node: a redirected child keeps its slot.
            # Only a root replacement moves the roots it swaps through slot 0.
            after = slots_by_node(program, engine.tree)
            moved = {old_root, engine.tree.root.node_id}
            for node_id in (before.keys() & after.keys()) - moved:
                assert after[node_id] == before[node_id], f"node #{node_id} moved"
        assert_canonical(engine.tree)
        assert_structure(engine)
        assert_equals_rebuild(engine, link_of, event, yes_bits)
