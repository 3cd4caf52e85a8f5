"""The program is the replica: after any history it is the oracle's tree.

A ``CompiledEngine`` keeps no PST: ``CompiledProgram.insert`` / ``remove``
run Section 2's walks on the records, maintaining three things along the
changed path — the node records, the packed annotations, and the
``subscription_id -> leaf`` map digests project through — and putting
pruned slots on a free list.  This suite drives random interleavings of
every operation that touches that state through one ``CompiledEngine`` and
one ``OracleView`` (the object-graph oracle) fed the same history —
equality, range, interval and don't-care tests; inserts that re-materialize
a skipped level; removals that splice the root out or drain it — and after
each step holds the program against the oracle: the slots reachable from
slot 0 map node for node onto the oracle's PST (positions, value branches,
range pairs in branch order, leaf subscriptions), every value table has the
shape its branch count gives it (after every insert and remove, too: a pair
for one branch, a dict only for two or more), every other slot is free
exactly once, the digest map equals a from-the-root walk, every slot's
packed annotation is ``TreeAnnotation``'s, and match sets, steps, refined
masks and digest projections are the oracle's.  The oracle's tree must hold
trivial-test elimination as an invariant (no node has only a ``*``-child)
and be the tree a fresh build of the live set gives, up to branch order —
so the program is history-independent too.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.matching import (
    Event,
    Predicate,
    RangeOp,
    Subscription,
    uniform_schema,
)
from repro.matching.compile import _FREE_RECORD, CompiledProgram, value_branches
from repro.matching.engines import CompiledEngine
from repro.matching.predicates import EqualityTest, IntervalTest, RangeTest
from tests.oracle import OracleView, ParallelSearchTree
from tests.oracle.trits import pack_tritvector
from tests.program_walk import slots_by_node

SCHEMA = uniform_schema(4)
DOMAIN = [0, 1, 2]
DOMAINS = {name: DOMAIN for name in SCHEMA.names}
NUM_LINKS = 5
FULL = (1 << NUM_LINKS) - 1

#: Per attribute: None = don't care, int = equality, (op, bound) = range,
#: (low, high) of ints = a closed interval.
test_specs = st.one_of(
    st.none(),
    st.sampled_from(DOMAIN),
    st.tuples(
        st.sampled_from([RangeOp.LT, RangeOp.LE, RangeOp.GT, RangeOp.GE]),
        st.sampled_from(DOMAIN),
    ),
    st.tuples(st.sampled_from(DOMAIN), st.sampled_from(DOMAIN)).map(sorted).map(tuple),
)
predicate_specs = st.tuples(*(test_specs for _ in range(4)))
events = st.tuples(*(st.sampled_from(DOMAIN) for _ in range(4))).map(
    lambda values: Event.from_tuple(SCHEMA, values)
)
links = st.integers(min_value=0, max_value=NUM_LINKS - 1)
yes_masks = st.integers(min_value=0, max_value=FULL)

#: One step: (operation, predicate, pick, link, event, yes bits).  ``pick``
#: selects the live subscription a remove / rebind acts on, or the
#: level-skipping edge and skipped level a ``rematerialize`` step's insert
#: constrains; ``unroot`` inserts a subscription that leaves the root's
#: level ``*`` and removes every one that constrains it, so the last removal
#: splices the root out for its ``*``-child; ``drain`` removes every live
#: subscription, leaving an empty root the next insert starts over from.
steps = st.tuples(
    st.sampled_from(
        [
            "insert",
            "insert",
            "insert",
            "remove",
            "remove",
            "rebind",
            "rematerialize",
            "unroot",
            "drain",
            "match",
        ]
    ),
    predicate_specs,
    st.integers(min_value=0, max_value=1 << 16),
    links,
    events,
    yes_masks,
)


def attribute_test_of(part):
    if isinstance(part, int):
        return EqualityTest(part)
    if isinstance(part[0], RangeOp):
        return RangeTest(*part)
    return IntervalTest(*part)


def predicate_of(spec) -> Predicate:
    tests = zip(SCHEMA.names, spec)
    return Predicate(
        SCHEMA, {name: attribute_test_of(part) for name, part in tests if part is not None}
    )


def reference_sub_leaf(program):
    """``subscription_id -> leaf index`` and the reachable slots, by walking
    the live records from the root."""
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
        stack.extend(child for _value_id, child in value_branches(table))
        if ranges is not None:
            stack.extend(child for _test, child in ranges)
        if star >= 0:
            stack.append(star)
    return mapping, seen


def assert_value_table_shapes(program):
    """Every record's value table has the shape its branch count gives it:
    ``None`` for none, a ``(value_id, child)`` pair for one, a dict for two
    or more."""
    for slot, (_position, table, _ranges, _star, _subs) in enumerate(program._records):
        if isinstance(table, dict):
            assert len(table) >= 2, f"slot {slot} keeps {len(table)} value branch in a dict"
        elif table is not None:
            assert type(table) is tuple and len(table) == 2, f"slot {slot}: {table!r}"


def assert_structure(engine, oracle):
    """The program's records are the oracle's tree, node for node."""
    program = engine.program
    slots = slots_by_node(program, oracle.tree)
    mapping, reachable = reference_sub_leaf(program)
    assert set(slots.values()) == reachable
    assert program._sub_leaf == mapping
    assert [s.subscription_id for s in engine.subscriptions] == [
        s.subscription_id for s in oracle.subscriptions
    ]
    # Every slot is either a live node or on the free list, exactly once.
    free = program._free_slots
    assert len(set(free)) == len(free)
    assert reachable.isdisjoint(free)
    assert len(reachable) + len(free) == program.node_count
    annotated = engine.ann_yes is not None  # the view's columns, once annotated
    if annotated:
        assert len(engine.ann_yes) == len(engine.ann_maybe) == program.node_count
    for slot in free:
        assert program._records[slot] == _FREE_RECORD
        if annotated:
            assert engine.ann_yes[slot] == engine.ann_maybe[slot] == 0
    return slots


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


def rematerializing_subscription(tree, pick, value):
    """A subscription down a level-skipping edge that constrains one of the
    levels it skips; ``None`` if no edge skips a level."""
    edges = skipping_edges(tree)
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


def assert_answers_like_the_oracle(engine, oracle, slots, event, yes_bits):
    maybe_bits = FULL & ~yes_bits
    expected = oracle.match(event)
    result = engine.match(event)
    ids = sorted(s.subscription_id for s in expected.subscriptions)
    assert sorted(s.subscription_id for s in result.subscriptions) == ids
    assert result.steps == expected.steps
    refined = oracle.match_links(event, yes_bits, maybe_bits)
    assert engine.match_links(event, yes_bits, maybe_bits) == refined
    for node in oracle.tree.nodes():
        slot = slots[node.node_id]
        assert (engine.ann_yes[slot], engine.ann_maybe[slot]) == pack_tritvector(
            oracle._annotation.vector_for(node)
        ), f"slot {slot}'s annotation differs from TreeAnnotation"
    projected = engine.project_links(ids, yes_bits, maybe_bits)
    matched_links = 0
    for subscription in expected.subscriptions:
        matched_links |= 1 << oracle.link_of_subscriber(subscription)
    assert projected[0] == yes_bits | (maybe_bits & matched_links)
    assert projected[0] == refined[0]  # digest ≡ rematch


@given(script=st.lists(steps, min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_every_step_is_the_oracle_tree(script):
    engine = CompiledEngine(CompiledProgram(SCHEMA, domains=DOMAINS))
    oracle = OracleView(ParallelSearchTree(SCHEMA, domains=DOMAINS))
    link_by_id = {}

    def link_of(subscription):
        return link_by_id[subscription.subscription_id]

    def insert(subscription, link):
        link_by_id[subscription.subscription_id] = link
        engine.insert(subscription)
        oracle.insert(subscription)
        live.append(subscription)
        assert_value_table_shapes(engine.program)

    def remove(subscription):
        assert engine.remove(subscription.subscription_id) is subscription
        oracle.remove(subscription.subscription_id)
        live.remove(subscription)
        assert_value_table_shapes(engine.program)

    engine.bind_links(NUM_LINKS, link_of)
    oracle.bind_links(NUM_LINKS, link_of)
    live = []
    for operation, spec, pick, link, event, yes_bits in script:
        root = oracle.tree.root
        if operation == "insert":
            insert(Subscription(predicate_of(spec), f"s{link}"), link)
        elif operation == "remove" and live:
            remove(live[pick % len(live)])
        elif operation == "rebind" and live:
            # One subscriber moves to another link: both re-annotate.
            subscription = live[pick % len(live)]
            link_by_id[subscription.subscription_id] = link
            engine.bind_links(NUM_LINKS, link_of)
            oracle.bind_links(NUM_LINKS, link_of)
        elif operation == "unroot" and not root.is_leaf and not root.is_empty:
            # A survivor that leaves the root's level (and those above) ``*``
            # keeps the tree from draining, so the root is spliced, not emptied.
            level = root.attribute_position
            survivor = predicate_of((None,) * (level + 1) + spec[level + 1 :])
            insert(Subscription(survivor, f"s{link}"), link)
            for subscription in [s for s in live if not s.predicate.tests[level].is_dont_care]:
                remove(subscription)
        elif operation == "drain":
            for subscription in list(live):
                remove(subscription)
            assert oracle.tree.root.is_empty and engine.subscription_count == 0
        elif operation == "rematerialize":
            subscription = rematerializing_subscription(oracle.tree, pick, DOMAIN[link % 3])
            if subscription is not None:
                insert(subscription, link)
        assert_canonical(oracle.tree)
        slots = assert_structure(engine, oracle)
        assert_answers_like_the_oracle(engine, oracle, slots, event, yes_bits)
