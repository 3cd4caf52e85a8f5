"""Property-based tests of annotation soundness and incrementality.

Two deep invariants:

1. **Soundness** — for every node reachable by some event's search, a Yes at
   link *l* implies every event reaching that node matches a subscriber on
   *l*, and a No implies none does (checked at the root, which every search
   reaches).
2. **Incrementality** — updating annotations along a changed subscription's
   path (``update_path``) yields exactly the same vectors as recomputing
   from scratch, across arbitrary insert/remove interleavings.

And one of representation: a compiled program's packed annotation equals
``TreeAnnotation``'s literal per-value recipe at every node.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import M, N, Y
from repro.matching import (
    EqualityTest,
    Event,
    Predicate,
    RangeOp,
    RangeTest,
    Subscription,
    uniform_schema,
    view_of,
)
from repro.matching.compile import CompiledProgram
from tests.oracle import ParallelSearchTree, TreeAnnotation
from tests.oracle.trits import pack_tritvector
from tests.program_walk import slots_by_node

SCHEMA = uniform_schema(3)
DOMAIN = [0, 1, 2]
DOMAINS = {name: DOMAIN for name in SCHEMA.names}
NUM_LINKS = 3

predicate_specs = st.tuples(
    *(st.one_of(st.none(), st.sampled_from(DOMAIN)) for _ in range(3))
)
link_choices = st.integers(min_value=0, max_value=NUM_LINKS - 1)
subscription_data = st.lists(
    st.tuples(predicate_specs, link_choices), min_size=0, max_size=15
)

#: Subscribers are named after their link so link_of is trivial.
def link_of(subscription: Subscription) -> int:
    return int(subscription.subscriber)


def build(specs_with_links):
    tree = ParallelSearchTree(SCHEMA, domains=DOMAINS)
    subscriptions = []
    for specs, link in specs_with_links:
        tests = {
            name: EqualityTest(value)
            for name, value in zip(SCHEMA.names, specs)
            if value is not None
        }
        subscription = Subscription(Predicate(SCHEMA, tests), str(link))
        tree.insert(subscription)
        subscriptions.append(subscription)
    return tree, subscriptions


def all_events():
    return [
        Event.from_tuple(SCHEMA, (a, b, c))
        for a in DOMAIN
        for b in DOMAIN
        for c in DOMAIN
    ]


class TestSoundness:
    @given(data=subscription_data)
    @settings(max_examples=150)
    def test_root_annotation_vs_exhaustive_truth(self, data):
        tree, subscriptions = build(data)
        annotation = TreeAnnotation(NUM_LINKS, link_of)
        root_vector = annotation.annotate(tree)
        for link in range(NUM_LINKS):
            on_link = [s for s in subscriptions if link_of(s) == link]
            outcomes = [
                any(s.predicate.matches(event) for s in on_link)
                for event in all_events()
            ]
            if root_vector[link] is Y:
                assert all(outcomes), "Yes must mean every event matches"
            elif root_vector[link] is N:
                assert not any(outcomes), "No must mean no event matches"
            # Maybe is always sound.

    @given(data=subscription_data)
    @settings(max_examples=100)
    def test_domain_knowledge_only_sharpens(self, data):
        """With domains declared, Y/N may replace M but never flip Y<->N."""
        tree_plain, _ = build(data)
        tree_plain.domains.clear()
        annotation_plain = TreeAnnotation(NUM_LINKS, link_of)
        open_root = annotation_plain.annotate(tree_plain)
        tree_domained, _ = build(data)
        annotation_domained = TreeAnnotation(NUM_LINKS, link_of)
        domain_root = annotation_domained.annotate(tree_domained)
        for open_trit, domain_trit in zip(open_root, domain_root):
            if open_trit is not M:
                assert domain_trit is open_trit


class AnnotationMachine(RuleBasedStateMachine):
    """Insert/remove subscriptions, patching annotations incrementally; a
    from-scratch annotation of the same tree must agree on every node."""

    def __init__(self):
        super().__init__()
        self.tree = ParallelSearchTree(SCHEMA, domains=DOMAINS)
        self.annotation = TreeAnnotation(NUM_LINKS, link_of)
        self.annotation.annotate(self.tree)
        self.live = []

    @rule(specs=predicate_specs, link=link_choices)
    def insert(self, specs, link):
        tests = {
            name: EqualityTest(value)
            for name, value in zip(SCHEMA.names, specs)
            if value is not None
        }
        subscription = Subscription(Predicate(SCHEMA, tests), str(link))
        self.tree.insert(subscription)
        self.live.append(subscription)
        self.annotation.update_path(self.tree, subscription.predicate)

    @rule(data=st.data())
    def remove(self, data):
        if not self.live:
            return
        victim = data.draw(st.sampled_from(self.live))
        self.live.remove(victim)
        self.tree.remove(victim.subscription_id)
        self.annotation.update_path(self.tree, victim.predicate)

    @invariant()
    def incremental_equals_full(self):
        fresh = TreeAnnotation(NUM_LINKS, link_of)
        fresh.annotate(self.tree)
        for node in self.tree.nodes():
            assert self.annotation.vector_for(node) == fresh.vector_for(node), (
                f"incremental annotation diverged at node #{node.node_id}"
            )


TestAnnotationMachine = AnnotationMachine.TestCase


# ----------------------------------------------------------------------
# Compiled annotation == TreeAnnotation, node by node

#: Per level: an open domain, or a declared one — empty, one value, a few,
#: or more values than branches usually cover.  Branch values range past
#: every domain.
level_domains = st.sampled_from([None, (), (0,), (0, 1, 2), (0, 1, 2, 3, 4)])
branch_values = st.integers(min_value=-1, max_value=5)


@st.composite
def attribute_tests(draw):
    """``None`` (don't care), an equality, or — less often, so that most
    nodes stay equality-only — a range test."""
    kind = draw(st.sampled_from(["*", "*", "=", "=", "=", "range"]))
    if kind == "*":
        return None
    if kind == "=":
        return EqualityTest(draw(branch_values))
    return RangeTest(draw(st.sampled_from(list(RangeOp))), draw(branch_values))


mixed_specs = st.tuples(attribute_tests(), attribute_tests(), attribute_tests())
#: -1: a subscriber cut off from this broker lights no link.
reachable_links = st.integers(min_value=-1, max_value=NUM_LINKS - 1)
churn = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), mixed_specs, reachable_links),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=63), st.none()),
    ),
    max_size=25,
)


def annotated_view(program):
    """A view of ``program`` for ``NUM_LINKS`` links, annotated in full."""
    view = view_of(program)
    view.bind_links(NUM_LINKS, link_of)
    program.annotate(view)
    return view


def assert_exact(tree, view):
    reference = TreeAnnotation(NUM_LINKS, link_of)
    reference.annotate(tree)
    slots = slots_by_node(view.program, tree)
    for node in tree.nodes():
        slot = slots[node.node_id]
        assert (view.ann_yes[slot], view.ann_maybe[slot]) == pack_tritvector(
            reference.vector_for(node)
        ), f"slot {slot} (node #{node.node_id}) differs from TreeAnnotation"


class TestCompiledAnnotationExact:
    @given(domains=st.tuples(level_domains, level_domains, level_domains), steps=churn)
    @settings(max_examples=200, deadline=None)
    def test_every_slot_matches_tree_annotation(self, domains, steps):
        """``annotate``, every insert and remove (re-annotating a live view
        along the path) and a fresh view agree with TreeAnnotation at every
        node: equality-only and mixed
        range nodes, out-of-domain branch values, one-value, empty and open
        domains, nodes with and without a *-child."""
        declared = {
            name: domain for name, domain in zip(SCHEMA.names, domains) if domain is not None
        }
        tree = ParallelSearchTree(SCHEMA, domains=declared)
        program = CompiledProgram(SCHEMA, domains=declared)
        view = annotated_view(program)
        live = []
        for action, argument, link in steps:
            if action == "insert":
                tests = {
                    name: test
                    for name, test in zip(SCHEMA.names, argument)
                    if test is not None
                }
                subscription = Subscription(Predicate(SCHEMA, tests), str(link))
                tree.insert(subscription)
                program.insert(subscription)
                live.append(subscription)
            elif live:
                subscription = live.pop(argument % len(live))
                tree.remove(subscription.subscription_id)
                program.remove(subscription.subscription_id)
            else:
                continue
            assert_exact(tree, view)
        assert_exact(tree, annotated_view(program))
        # Built in one go from the live set, annotated first.
        fresh_tree = ParallelSearchTree(SCHEMA, domains=declared)
        fresh = CompiledProgram(SCHEMA, domains=declared)
        for subscription in tree.subscriptions:
            fresh_tree.insert(subscription)
            fresh.insert(subscription)
        assert_exact(fresh_tree, annotated_view(fresh))
