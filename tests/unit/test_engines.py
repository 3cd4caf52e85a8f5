"""Unit tests of the MatcherEngine surface and the compiled program's
lifecycle (lazy compilation, incremental patching, recompile fallback)."""

from __future__ import annotations

import itertools

import pytest

from repro.errors import RoutingError, SubscriptionError
from repro.matching import (
    CompiledEngine,
    MatcherEngine,
    TreeEngine,
    create_engine,
    uniform_schema,
)
from repro.matching.compile import compile_tree
from repro.matching.events import Event
from repro.matching.predicates import EqualityTest, Predicate, Subscription
from tests.program_walk import slots_by_node

SCHEMA = uniform_schema(3)
DOMAINS = {name: [0, 1, 2] for name in SCHEMA.names}


def subscription(values, subscriber="s0", **kwargs):
    tests = {
        name: EqualityTest(value)
        for name, value in zip(SCHEMA.names, values)
        if value is not None
    }
    return Subscription(Predicate(SCHEMA, tests), subscriber, **kwargs)


def link_of(sub):
    return int(sub.subscriber[1:])


def assert_matches_a_fresh_compile(engine):
    """The patched program walks like one lowered from the tree now."""
    slots_by_node(engine.program, engine.tree)
    fresh = compile_tree(engine.tree)
    fresh.annotate(2, link_of)
    for values in itertools.product(range(3), repeat=3):
        event = Event.from_tuple(SCHEMA, values)
        assert engine.match(event).steps == fresh.match(event).steps
        assert engine.match_links(event, 0, 0b11) == fresh.match_links(event, 0, 0b11)


class TestCreateEngine:
    def test_names(self):
        assert create_engine("tree", SCHEMA).name == "tree"
        assert create_engine("compiled", SCHEMA).name == "compiled"

    def test_unknown_name_rejected(self):
        with pytest.raises(SubscriptionError):
            create_engine("jit", SCHEMA)

    def test_engines_are_matcher_engines(self):
        assert isinstance(create_engine("tree", SCHEMA), MatcherEngine)
        assert isinstance(create_engine("compiled", SCHEMA), MatcherEngine)


class TestEngineSurface:
    @pytest.mark.parametrize("engine_name", ["tree", "compiled"])
    def test_match_links_requires_bind_links(self, engine_name):
        engine = create_engine(engine_name, SCHEMA, domains=DOMAINS)
        with pytest.raises(RoutingError):
            engine.match_links(Event.from_tuple(SCHEMA, (0, 0, 0)), 0, 0b11)

    @pytest.mark.parametrize("engine_name", ["tree", "compiled"])
    def test_match_links_rejects_wrong_mask_length(self, engine_name):
        engine = create_engine(engine_name, SCHEMA, domains=DOMAINS)
        engine.bind_links(3, link_of)
        with pytest.raises(ValueError):  # a bit at position 3 of 3 links
            engine.match_links(Event.from_tuple(SCHEMA, (0, 0, 0)), 0, 0b1011)

    @pytest.mark.parametrize("engine_name", ["tree", "compiled"])
    def test_subscription_bookkeeping(self, engine_name):
        engine = create_engine(engine_name, SCHEMA)
        sub = subscription((0, None, 1))
        engine.insert(sub)
        assert engine.subscription_count == 1
        assert engine.subscriptions == [sub]
        removed = engine.remove(sub.subscription_id)
        assert removed is sub
        assert engine.subscription_count == 0


class TestCompiledProgramLifecycle:
    def test_program_compiles_lazily_and_is_patched_in_place(self):
        engine = CompiledEngine(SCHEMA)
        engine.insert(subscription((0, 1, None)))
        program = engine.program  # force compilation
        engine.insert(subscription((0, 2, None)))
        assert engine.program is program  # patched, not recompiled

    def test_steady_churn_never_recompiles(self, live_registry):
        """A patch leaves no garbage behind, so nothing ever forces a
        recompile: pruned slots are reused and the slot count stays put."""
        engine = CompiledEngine(SCHEMA)
        engine.insert(subscription((0, 1, None)))
        program = engine.program
        recompiles = live_registry.counter("engine.compiled.recompiles")
        assert recompiles.value == 1
        slot_counts = set()
        for round_index in range(5000):
            sub = subscription((round_index % 3, None, round_index % 2))
            engine.insert(sub)
            engine.remove(sub.subscription_id)
            slot_counts.add(engine.program.node_count)
        assert engine.program is program
        assert recompiles.value == 1
        # The standing path's 3 slots (root, a2 node, leaf; a3 is ``*``)
        # plus the longest churned path's 2 (an a3 node and its leaf).
        assert max(slot_counts) == 5
        event = Event.from_tuple(SCHEMA, (0, 1, 0))
        assert {s.subscription_id for s in engine.match(event).subscriptions}

    def test_a_spliced_node_is_patched_in_place(self, live_registry):
        """A removal that leaves a node with only its ``*``-child splices it
        out; the patch frees that node's slot and its pruned branch, and the
        parent's edge takes the ``*``-child's slot as it is."""
        engine = CompiledEngine(SCHEMA, domains=DOMAINS)
        engine.bind_links(2, link_of)
        keep = subscription((0, None, 1), "s0")
        gone = subscription((0, 2, 1), "s1")
        engine.insert(keep)
        engine.insert(gone)
        program = engine.program
        engine.project_links([], 0, 0)  # annotate
        a2_node = engine.tree.root.value_branches[0]
        star_slot = slots_by_node(program, engine.tree)[a2_node.star_child.node_id]
        engine.remove(gone.subscription_id)
        assert engine.tree.root.value_branches[0] is a2_node.star_child
        assert engine.program is program
        assert slots_by_node(program, engine.tree)[a2_node.star_child.node_id] == star_slot
        assert len(program._free_slots) == 3  # the a2 node, gone's a3 node and leaf
        assert_matches_a_fresh_compile(engine)
        assert live_registry.counter("engine.compiled.patch_bailouts").value == 0

    @pytest.mark.parametrize(
        "standing, changed",
        [
            ((None, 1, 2), (0, 1, 2)),  # a level re-materialized above the root
            ((0, 1, 2), (None, 1, 2)),  # the root spliced out on remove
        ],
    )
    def test_a_replaced_root_is_patched_at_slot_zero(self, live_registry, standing, changed):
        engine = CompiledEngine(SCHEMA, domains=DOMAINS)
        engine.bind_links(2, link_of)
        engine.insert(subscription(standing, "s0"))
        program = engine.program
        engine.project_links([], 0, 0)  # annotate
        late = subscription(changed, "s1")
        engine.insert(late)
        if standing[0] is not None:
            engine.remove(engine.subscriptions[0].subscription_id)  # leaves late only
        assert engine.program is program
        assert program._slot_node_id[0] == engine.tree.root.node_id
        assert_matches_a_fresh_compile(engine)
        assert live_registry.counter("engine.compiled.patch_bailouts").value == 0

    def test_invalidate_forces_recompile(self):
        engine = CompiledEngine(SCHEMA)
        engine.insert(subscription((0, 1, None)))
        before = engine.program
        engine.invalidate()
        assert engine.program is not before

    def test_compile_tree_matches_like_the_tree(self):
        engine = TreeEngine(SCHEMA)
        for values in ((0, 1, None), (None, 1, 2), (2, None, None)):
            engine.insert(subscription(values))
        program = compile_tree(engine.tree)
        for event_values in ((0, 1, 2), (2, 1, 2), (1, 1, 1)):
            event = Event.from_tuple(SCHEMA, event_values)
            tree_result = engine.match(event)
            compiled_result = program.match(event)
            assert sorted(
                s.subscription_id for s in compiled_result.subscriptions
            ) == sorted(s.subscription_id for s in tree_result.subscriptions)
            assert compiled_result.steps == tree_result.steps

    def test_match_rejects_foreign_schema(self):
        engine = CompiledEngine(SCHEMA)
        engine.insert(subscription((0, None, None)))
        other = uniform_schema(2)
        with pytest.raises(SubscriptionError):
            engine.match(Event.from_tuple(other, (0, 0)))
