"""Incremental ≡ rebuild: a patched program is a freshly compiled one.

``CompiledProgram.patch`` maintains three things along the changed path
instead of rebuilding them: the flat arrays, the packed annotations, and the
``subscription_id -> leaf`` map digests project through; slots under a pruned
branch are recycled.  This suite drives random interleavings of every
operation that touches that state through one ``CompiledEngine`` and, after
each step, holds the engine's program against a program compiled from the
same tree there and then — same match sets, same steps, same refined masks,
same digest projection — and the map against the from-the-root graph walk
that used to build it (kept here as the reference).
"""

from __future__ import annotations

import importlib.util

from hypothesis import given, settings, strategies as st

from repro.matching import Event, Predicate, RangeOp, Subscription, uniform_schema
from repro.matching.compile import _FREE_RECORD, compile_tree
from repro.matching.engines import CompiledEngine
from repro.matching.predicates import EqualityTest, RangeTest

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
#: selects the live subscription a remove / refresh acts on; ``pressure``
#: pre-charges the program's waste so that the waste bail-out (and the
#: recompile after it) happens inside sequences this short.
steps = st.tuples(
    st.sampled_from(["insert", "insert", "remove", "remove", "refresh", "pressure", "match"]),
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
    """``subscription_id -> leaf index`` by walking the live node graph from
    the root — what ``CompiledProgram`` computed per generation before the
    map became part of lowering."""
    mapping = {}
    stack = [0]
    seen = set()
    while stack:
        index = stack.pop()
        assert index not in seen, "the compiled graph must stay a tree"
        seen.add(index)
        if program.event_pos[index] < 0:
            for subscription in program.subs_flat[
                program.sub_start[index] : program.sub_end[index]
            ]:
                mapping[subscription.subscription_id] = index
            continue
        table = program.value_tables[index]
        if table is not None:
            stack.extend(table.values())
        stack.extend(
            program.range_children[program.range_start[index] : program.range_end[index]]
        )
        if program.star[index] >= 0:
            stack.append(program.star[index])
    return mapping, seen


def assert_structure(engine):
    program = engine.program
    mapping, reachable = reference_sub_leaf(program)
    assert program._sub_leaf == mapping
    assert set(mapping) == {s.subscription_id for s in engine.tree.subscriptions}
    # Every slot is either a live node or on the free list, exactly once.
    free = program._free_slots
    assert len(set(free)) == len(free)
    assert reachable.isdisjoint(free)
    assert len(reachable) + len(free) == program.node_count
    assert len(program.index_of_node) == len(reachable) == engine.tree.node_count()
    assert set(program.index_of_node.values()) == reachable
    for slot in free:
        assert program._records[slot] == _FREE_RECORD
        assert program.ann_yes[slot] == program.ann_maybe[slot] == 0
    # Orphaned slices pin nothing: every Subscription the pool still holds
    # is a live one.
    held = [s.subscription_id for s in program.subs_flat if s is not None]
    assert sorted(held) == sorted(mapping)


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
    engine = CompiledEngine(SCHEMA, domains=DOMAINS, backend=backend)
    link_by_id = {}

    def link_of(subscription):
        return link_by_id[subscription.subscription_id]

    engine.bind_links(NUM_LINKS, link_of)
    live = []
    for operation, spec, pick, link, event, yes_bits in script:
        if operation == "insert":
            subscription = Subscription(predicate_of(spec), f"s{link}")
            link_by_id[subscription.subscription_id] = link
            engine.insert(subscription)
            live.append(subscription)
        elif operation == "remove" and live:
            engine.remove(live.pop(pick % len(live)).subscription_id)
        elif operation == "refresh" and live:
            subscription = live[pick % len(live)]
            link_by_id[subscription.subscription_id] = link
            engine.refresh_links(subscription)
        elif operation == "pressure":
            engine.program._waste += 40
        assert_structure(engine)
        assert_equals_rebuild(engine, link_of, event, yes_bits)
