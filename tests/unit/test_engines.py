"""Unit tests of the MatcherEngine surface and the compiled program's
lifecycle (one program per replica, changed in place by insert and remove)."""

from __future__ import annotations

import itertools

import pytest

from repro.errors import RoutingError, SubscriptionError
from repro.matching import (
    CompiledEngine,
    FactoredMatcher,
    MatcherEngine,
    create_matcher,
    uniform_schema,
    view_of,
)
from repro.matching.compile import CompiledProgram, value_branches
from repro.matching.events import Event
from repro.matching.predicates import EqualityTest, Predicate, Subscription
from tests.oracle import OracleView, ParallelSearchTree
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


def assert_answers_like_the_oracle(engine, oracle):
    """The program's records are the oracle's tree, and it answers alike."""
    slots_by_node(engine.program, oracle.tree)
    oracle.bind_links(2, link_of)
    for values in itertools.product(range(3), repeat=3):
        event = Event.from_tuple(SCHEMA, values)
        assert engine.match(event).steps == oracle.match(event).steps
        assert engine.match_links(event, 0, 0b11) == oracle.match_links(event, 0, 0b11)


def engine_named(name, **options):
    """An engine by name: a view of a private replica."""
    engine = view_of(create_matcher(SCHEMA, **options))
    assert engine.name == name
    return engine


class TestCreateEngine:
    """An engine is a view (``view_of``) of the replica ``create_matcher``
    builds: one compiled program, or a factored set of them."""

    def test_names(self):
        assert engine_named("compiled").name == "compiled"
        assert engine_named("factored", domains=DOMAINS, factoring_attributes=["a1"])
        assert isinstance(create_matcher(SCHEMA), CompiledProgram)
        factored = create_matcher(SCHEMA, domains=DOMAINS, factoring_attributes=["a1"])
        assert isinstance(factored, FactoredMatcher)

    def test_unknown_name_rejected(self):
        """There is one matcher: the engine knob is gone, not ignored."""
        for name in ("tree", "compiled", "jit"):
            with pytest.raises(TypeError):
                create_matcher(SCHEMA, engine=name)

    def test_engines_are_matcher_engines(self):
        assert isinstance(engine_named("compiled"), MatcherEngine)
        factored = engine_named("factored", domains=DOMAINS, factoring_attributes=["a1"])
        assert isinstance(factored, MatcherEngine)


class TestEngineSurface:
    @pytest.mark.parametrize("engine_name", ["compiled"])
    def test_match_links_requires_bind_links(self, engine_name):
        engine = engine_named(engine_name, domains=DOMAINS)
        with pytest.raises(RoutingError):
            engine.match_links(Event.from_tuple(SCHEMA, (0, 0, 0)), 0, 0b11)

    @pytest.mark.parametrize("engine_name", ["compiled"])
    def test_a_failed_annotation_is_not_routed_on(self, engine_name):
        """A link position out of range aborts the full annotation, and the
        half-written one is not kept: the next link match tries again."""
        engine = engine_named(engine_name, domains=DOMAINS)
        engine.insert(subscription((0, None, None), "s0"))
        engine.insert(subscription((1, None, None), "s5"))
        engine.bind_links(2, link_of)
        event = Event.from_tuple(SCHEMA, (0, 0, 0))
        for _attempt in range(2):
            with pytest.raises(RoutingError, match="out of range"):
                engine.match_links(event, 0, 0b11)

    @pytest.mark.parametrize("engine_name", ["compiled"])
    def test_match_links_rejects_wrong_mask_length(self, engine_name):
        engine = engine_named(engine_name, domains=DOMAINS)
        engine.bind_links(3, link_of)
        with pytest.raises(ValueError):  # a bit at position 3 of 3 links
            engine.match_links(Event.from_tuple(SCHEMA, (0, 0, 0)), 0, 0b1011)

    @pytest.mark.parametrize("engine_name", ["compiled"])
    def test_subscription_bookkeeping(self, engine_name):
        engine = engine_named(engine_name)
        sub = subscription((0, None, 1))
        engine.insert(sub)
        assert engine.subscription_count == 1
        assert engine.subscriptions == [sub]
        removed = engine.remove(sub.subscription_id)
        assert removed is sub
        assert engine.subscription_count == 0


class TestCompiledProgramLifecycle:
    def test_the_program_is_built_eagerly_and_changed_in_place(self):
        engine = CompiledEngine(CompiledProgram(SCHEMA))
        program = engine.program  # there from construction, empty
        assert program.match(Event.from_tuple(SCHEMA, (0, 1, 2))).steps == 1
        engine.insert(subscription((0, 1, None)))
        engine.insert(subscription((0, 2, None)))
        assert engine.program is program
        assert len(program) == 2

    def test_steady_churn_never_recompiles(self):
        """A change leaves no garbage behind: pruned slots are reused and
        the slot count stays put, in one program for the engine's life."""
        engine = CompiledEngine(CompiledProgram(SCHEMA))
        engine.insert(subscription((0, 1, None)))
        program = engine.program
        slot_counts = set()
        for round_index in range(5000):
            sub = subscription((round_index % 3, None, round_index % 2))
            engine.insert(sub)
            engine.remove(sub.subscription_id)
            slot_counts.add(engine.program.node_count)
        assert engine.program is program
        # The standing path's 3 slots (root, a2 node, leaf; a3 is ``*``)
        # plus the longest churned path's 2 (an a3 node and its leaf).
        assert max(slot_counts) == 5
        event = Event.from_tuple(SCHEMA, (0, 1, 0))
        assert {s.subscription_id for s in engine.match(event).subscriptions}

    def test_a_spliced_node_is_patched_in_place(self):
        """A removal that leaves a node with only its ``*``-child splices it
        out: the node's slot takes the child's record, and the child's old
        slot and the pruned branch's two go onto the free list."""
        engine = CompiledEngine(CompiledProgram(SCHEMA, domains=DOMAINS))
        oracle = OracleView(ParallelSearchTree(SCHEMA))
        engine.bind_links(2, link_of)
        keep = subscription((0, None, 1), "s0")
        gone = subscription((0, 2, 1), "s1")
        for sub in (keep, gone):
            engine.insert(sub)
            oracle.insert(sub)
        program = engine.program
        engine.project_links([], 0, 0)  # annotate
        a2_slot = dict(value_branches(program._records[0][1]))[program.value_ids[0]]
        engine.remove(gone.subscription_id)
        oracle.remove(gone.subscription_id)
        assert engine.program is program
        assert dict(value_branches(program._records[0][1])) == {program.value_ids[0]: a2_slot}
        assert program._records[a2_slot][0] == SCHEMA.position_of("a3")
        assert len(program._free_slots) == 3  # the *-child's old slot, gone's a3 node and leaf
        assert_answers_like_the_oracle(engine, oracle)

    @pytest.mark.parametrize(
        "standing, changed",
        [
            ((None, 1, 2), (0, 1, 2)),  # a level re-materialized above the root
            ((0, 1, 2), (None, 1, 2)),  # the root spliced out on remove
        ],
    )
    def test_a_replaced_root_is_patched_at_slot_zero(self, standing, changed):
        engine = CompiledEngine(CompiledProgram(SCHEMA, domains=DOMAINS))
        oracle = OracleView(ParallelSearchTree(SCHEMA))
        engine.bind_links(2, link_of)
        program = engine.program
        engine.project_links([], 0, 0)  # annotate
        for sub in (subscription(standing, "s0"), subscription(changed, "s1")):
            engine.insert(sub)
            oracle.insert(sub)
        if standing[0] is not None:
            first = engine.subscriptions[0].subscription_id
            engine.remove(first)  # leaves the late one only
            oracle.remove(first)
        assert engine.program is program
        assert program._records[0][0] == oracle.tree.root.attribute_position  # order = schema order
        assert_answers_like_the_oracle(engine, oracle)

    def test_a_value_table_is_a_pair_until_a_second_branch(self):
        """One value branch is kept as the pair ``(value_id, child)``; a
        second turns it into a dict, and a removal back to one turns the
        dict back into the pair."""
        engine = CompiledEngine(CompiledProgram(SCHEMA, domains=DOMAINS))
        oracle = OracleView(ParallelSearchTree(SCHEMA))
        engine.bind_links(2, link_of)
        program = engine.program
        subs = [subscription((value, None, None), f"s{value % 2}") for value in (0, 1, 2)]
        engine.insert(subs[0])
        oracle.insert(subs[0])
        table = program._records[0][1]
        assert type(table) is tuple and table[0] == program.value_ids[0]
        for sub in subs[1:]:
            engine.insert(sub)
            oracle.insert(sub)
        assert type(program._records[0][1]) is dict and len(program._records[0][1]) == 3
        assert_answers_like_the_oracle(engine, oracle)
        for sub in subs[:2]:
            engine.remove(sub.subscription_id)
            oracle.remove(sub.subscription_id)
        table = program._records[0][1]
        assert type(table) is tuple and table[0] == program.value_ids[2]
        assert_answers_like_the_oracle(engine, oracle)
        engine.remove(subs[2].subscription_id)
        assert program._records[0][1] is None

    def test_a_program_matches_like_the_tree(self):
        engine = OracleView(ParallelSearchTree(SCHEMA))
        program = CompiledProgram(SCHEMA)
        for values in ((0, 1, None), (None, 1, 2), (2, None, None)):
            engine.insert(subscription(values))
            program.insert(engine.subscriptions[-1])
        for event_values in ((0, 1, 2), (2, 1, 2), (1, 1, 1)):
            event = Event.from_tuple(SCHEMA, event_values)
            tree_result = engine.match(event)
            compiled_result = program.match(event)
            assert sorted(
                s.subscription_id for s in compiled_result.subscriptions
            ) == sorted(s.subscription_id for s in tree_result.subscriptions)
            assert compiled_result.steps == tree_result.steps

    def test_bad_inserts_and_removes_change_nothing(self):
        program = CompiledProgram(SCHEMA)
        standing = subscription((0, None, None))
        program.insert(standing)
        records = list(program._records)
        with pytest.raises(SubscriptionError, match="already registered"):
            program.insert(standing)
        with pytest.raises(SubscriptionError, match="unknown subscription id"):
            program.remove(standing.subscription_id + 1)
        with pytest.raises(SubscriptionError, match="schema"):
            program.insert(Subscription(Predicate(uniform_schema(2), {}), "s0"))
        assert program._records == records and program.subscriptions == [standing]

    def test_match_rejects_foreign_schema(self):
        engine = CompiledEngine(CompiledProgram(SCHEMA))
        engine.insert(subscription((0, None, None)))
        other = uniform_schema(2)
        with pytest.raises(SubscriptionError):
            engine.match(Event.from_tuple(other, (0, 0)))
