"""Stateful fuzzing of the Parallel Search Tree against a reference model.

Random interleavings of insert / remove / match; the model is a plain list
of subscriptions evaluated brute force.  Catches structural corruption that
single-shot property tests can miss (e.g. a splice interacting with a later
removal).  After every step, no reachable non-leaf node has only a
``*``-child (trivial-test elimination is an invariant of insert and
remove), and no node holds an empty mutable container: unused ones are the
shared immutable empties, so a replica allocates only what it holds.
"""

from __future__ import annotations

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.matching import (
    EqualityTest,
    Event,
    ParallelSearchTree,
    Predicate,
    RangeOp,
    RangeTest,
    Subscription,
    uniform_schema,
)

SCHEMA = uniform_schema(3)
DOMAIN = [0, 1, 2]

# Per attribute: don't care (None), ``= v`` or ``< v``.
attribute_tests = st.one_of(
    st.none(),
    st.sampled_from(DOMAIN).map(EqualityTest),
    st.sampled_from(DOMAIN).map(lambda value: RangeTest(RangeOp.LT, value)),
)
predicate_specs = st.tuples(*(attribute_tests for _ in range(3)))
event_values = st.tuples(*(st.sampled_from(DOMAIN) for _ in range(3)))


class PstMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tree = ParallelSearchTree(SCHEMA)
        self.model = {}  # subscription_id -> Subscription

    @rule(specs=predicate_specs)
    def insert(self, specs):
        tests = {name: test for name, test in zip(SCHEMA.names, specs) if test is not None}
        subscription = Subscription(Predicate(SCHEMA, tests), "s")
        self.tree.insert(subscription)
        self.model[subscription.subscription_id] = subscription

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove(self, data):
        victim_id = data.draw(st.sampled_from(sorted(self.model)))
        removed = self.tree.remove(victim_id)
        assert removed.subscription_id == victim_id
        del self.model[victim_id]

    @rule(values=event_values)
    def match(self, values):
        event = Event.from_tuple(SCHEMA, values)
        expected = {
            sid for sid, s in self.model.items() if s.predicate.matches(event)
        }
        actual = {
            s.subscription_id for s in self.tree.match(event).subscriptions
        }
        assert actual == expected

    @invariant()
    def registry_size_consistent(self):
        assert len(self.tree) == len(self.model)

    @invariant()
    def no_star_only_node(self):
        for node in self.tree.nodes():
            if node.star_child is not None:
                assert node.value_branches or node.range_branches, node

    @invariant()
    def no_empty_mutable_container(self):
        for node in self.tree.nodes():
            for container in (node.value_branches, node.range_branches, node.subscriptions):
                assert container or not isinstance(container, (dict, list)), node

    @invariant()
    def empty_tree_is_single_root(self):
        if not self.model:
            # After everything is removed, pruning must have collapsed the
            # structure back to a bare root (no leaked nodes).
            assert self.tree.node_count() == 1


TestPstMachine = PstMachine.TestCase
