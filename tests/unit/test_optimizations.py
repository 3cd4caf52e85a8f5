"""Unit tests for factoring and delayed branching (Section 2.1)."""

from __future__ import annotations

import random

import pytest

from repro.errors import SubscriptionError
from repro.matching import (
    Event,
    FactoredMatcher,
    ParallelSearchTree,
    SearchDag,
    build_pst,
    view_of,
)
from repro.matching.compile import CompiledProgram
from tests.conftest import make_subscription

DOMAINS = {f"a{i}": [0, 1, 2] for i in range(1, 6)}


def random_workload(schema, num_subscriptions, num_events, seed=0):
    rng = random.Random(seed)
    subscriptions = []
    for i in range(num_subscriptions):
        tests = [f"a{j}={rng.randrange(3)}" for j in range(1, 6) if rng.random() < 0.5]
        subscriptions.append(
            make_subscription(schema, " & ".join(tests) if tests else "*", f"s{i}")
        )
    events = [
        Event.from_tuple(schema, tuple(rng.randrange(3) for _ in range(5)))
        for _ in range(num_events)
    ]
    return subscriptions, events


class TestFactoredMatcher:
    def test_requires_index_attributes(self, schema5):
        with pytest.raises(SubscriptionError):
            FactoredMatcher(schema5, [], DOMAINS)

    def test_requires_domains_for_index(self, schema5):
        with pytest.raises(SubscriptionError):
            FactoredMatcher(schema5, ["a1"], {"a2": [1, 2]})

    def test_cannot_factor_everything(self, schema5):
        with pytest.raises(SubscriptionError):
            FactoredMatcher(schema5, ["a1", "a2", "a3", "a4", "a5"], DOMAINS)

    def test_equality_subscription_goes_to_one_tree(self, schema5):
        matcher = FactoredMatcher(schema5, ["a1"], DOMAINS)
        matcher.insert(make_subscription(schema5, "a1=1 & a3=2", "alice"))
        assert len(dict(matcher.subtrees())) == 1

    def test_star_subscription_replicated_across_domain(self, schema5):
        matcher = FactoredMatcher(schema5, ["a1"], DOMAINS)
        matcher.insert(make_subscription(schema5, "a3=2", "alice"))
        # One tree per a1 domain value, plus the out-of-domain bucket.
        assert len(dict(matcher.subtrees())) == 4

    def test_two_index_attributes_cross_product(self, schema5):
        matcher = FactoredMatcher(schema5, ["a1", "a2"], DOMAINS)
        matcher.insert(make_subscription(schema5, "a3=2", "alice"))
        assert len(dict(matcher.subtrees())) == 16  # (3 values + out-of-domain)^2

    def test_out_of_domain_equality_lives_in_overflow_bucket(self, schema5):
        matcher = FactoredMatcher(schema5, ["a1"], DOMAINS)
        matcher.insert(make_subscription(schema5, "a1=99", "alice"))
        assert len(matcher) == 1
        assert len(dict(matcher.subtrees())) == 1  # the out-of-domain bucket
        in_domain = Event.from_tuple(schema5, (1, 0, 0, 0, 0))
        assert matcher.match(in_domain).subscriptions == []
        out_miss = Event.from_tuple(schema5, (7, 0, 0, 0, 0))
        assert matcher.match(out_miss).subscriptions == []
        out_hit = Event.from_tuple(schema5, (99, 0, 0, 0, 0))
        assert matcher.match(out_hit).subscribers == {"alice"}

    def test_match_equals_brute_force(self, schema5):
        subscriptions, events = random_workload(schema5, 80, 150, seed=2)
        matcher = FactoredMatcher(schema5, ["a1", "a2"], DOMAINS)
        for subscription in subscriptions:
            matcher.insert(subscription)
        for event in events:
            expected = {s.subscription_id for s in matcher.match_brute_force(event)}
            actual = {s.subscription_id for s in matcher.match(event).subscriptions}
            assert actual == expected

    def test_match_equals_plain_tree(self, schema5):
        subscriptions, events = random_workload(schema5, 60, 100, seed=3)
        matcher = FactoredMatcher(schema5, ["a1"], DOMAINS)
        tree = ParallelSearchTree(schema5)
        for subscription in subscriptions:
            matcher.insert(subscription)
            tree.insert(subscription)
        for event in events:
            assert {s.subscription_id for s in matcher.match(event).subscriptions} == {
                s.subscription_id for s in tree.match(event).subscriptions
            }

    def test_factoring_reduces_steps(self, schema5):
        subscriptions, events = random_workload(schema5, 150, 100, seed=4)
        matcher = FactoredMatcher(schema5, ["a1"], DOMAINS)
        tree = ParallelSearchTree(schema5)
        for subscription in subscriptions:
            matcher.insert(subscription)
            tree.insert(subscription)
        factored_steps = sum(matcher.match(e).steps for e in events)
        plain_steps = sum(tree.match(e).steps for e in events)
        assert factored_steps < plain_steps

    def test_remove(self, schema5):
        matcher = FactoredMatcher(schema5, ["a1"], DOMAINS)
        sub = make_subscription(schema5, "a3=2", "alice")
        matcher.insert(sub)
        removed = matcher.remove(sub.subscription_id)
        assert removed.subscription_id == sub.subscription_id
        assert len(matcher) == 0
        assert len(dict(matcher.subtrees())) == 0

    def test_remove_unknown(self, schema5):
        matcher = FactoredMatcher(schema5, ["a1"], DOMAINS)
        with pytest.raises(SubscriptionError):
            matcher.remove(424242)

    def test_duplicate_insert_rejected(self, schema5):
        matcher = FactoredMatcher(schema5, ["a1"], DOMAINS)
        sub = make_subscription(schema5, "a3=2", "alice")
        matcher.insert(sub)
        with pytest.raises(SubscriptionError):
            matcher.insert(sub)

    def test_lookup_counts_one_step(self, schema5):
        matcher = FactoredMatcher(schema5, ["a1"], DOMAINS)
        event = Event.from_tuple(schema5, (0, 0, 0, 0, 0))
        assert matcher.match(event).steps == 1  # empty matcher: lookup only


class TestPerSubtreeStaleness:
    """A subscription change costs the sub-trees it maps to: only their
    programs change, in place."""

    def test_a_change_moves_only_its_keys(self, schema5):
        matcher = FactoredMatcher(schema5, ["a1"], DOMAINS, engine="compiled")
        for value in range(3):
            matcher.insert(make_subscription(schema5, f"a1={value} & a2=1", "alice"))
        programs = dict(matcher.subtrees())
        sizes = {key: len(program) for key, program in programs.items()}
        late = make_subscription(schema5, "a1=1 & a3=2", "bob")
        matcher.insert(late)
        for key, program in programs.items():
            touched = key == (1,)
            assert matcher.subtree(key) is program
            assert (len(program) != sizes[key]) == touched
        matcher.remove(late.subscription_id)
        assert all(matcher.subtree(key) is program for key, program in programs.items())

    def test_program_is_lowered_from_the_compacted_tree(self, schema5):
        """The index level a relaxed insert leaves ``*`` never gets a node
        (trivial-test elimination holds in the program as in the tree), so
        the program and the tree-engine matcher agree on steps."""
        matcher = FactoredMatcher(schema5, ["a1"], DOMAINS, engine="compiled")
        matcher.insert(make_subscription(schema5, "a1=1 & a5=2", "alice"))
        event = Event.from_tuple(schema5, (1, 0, 0, 0, 2))
        oracle = FactoredMatcher(schema5, ["a1"], DOMAINS, engine="tree")
        oracle.insert(make_subscription(schema5, "a1=1 & a5=2", "alice"))
        tree = dict(oracle.subtrees())[(1,)]
        program = dict(matcher.subtrees())[(1,)]
        assert program.match(event).steps == tree.match(event).steps == 2
        assert matcher.match(event).steps == 3  # + the index lookup

    def test_membership(self, schema5):
        matcher = FactoredMatcher(schema5, ["a1"], DOMAINS)
        sub = make_subscription(schema5, "a3=2", "alice")
        matcher.insert(sub)
        assert sub.subscription_id in matcher
        matcher.remove(sub.subscription_id)
        assert sub.subscription_id not in matcher


class TestAnnotatedViews:
    """A program's views (``view_of``): one structure, N annotations."""

    @pytest.fixture
    def program(self, schema5):
        program = CompiledProgram(schema5, domains=DOMAINS)
        program.insert(make_subscription(schema5, "a1=1 & a2=1", "alice"))
        program.insert(make_subscription(schema5, "a1=1", "bob"))
        program.insert(make_subscription(schema5, "a3=2", "carol"))
        return program

    @staticmethod
    def view(program, num_links, link_of):
        view = view_of(program)
        view.bind_links(num_links, link_of)
        view.project_links([], 0, 0)  # annotate
        return view

    def test_views_do_not_see_each_others_annotations(self, program, schema5):
        # Two brokers, two link layouts: alice/bob/carol behind links 0/1/2
        # of a 3-link broker, all behind link 0 of a 1-link broker.
        wide = self.view(program, 3, lambda s: "abc".index(s.subscriber[0]))
        narrow = self.view(program, 1, lambda s: 0)
        assert wide.program is program is narrow.program
        assert program.views == [wide, narrow]
        assert wide.ann_yes is not narrow.ann_yes
        assert not hasattr(program, "ann_yes"), "the program holds no annotation"
        event = Event.from_tuple(schema5, (1, 1, 0, 0, 0))
        assert wide.match_links(event, 0, 0b111)[0] == 0b011
        assert narrow.match_links(event, 0, 0b1)[0] == 0b1
        miss = Event.from_tuple(schema5, (0, 0, 0, 0, 0))
        assert wide.match_links(miss, 0, 0b111)[0] == 0
        assert [s.subscriber for s in wide.match(event).subscriptions] == [
            s.subscriber for s in program.match(event).subscriptions
        ]

    def test_reannotating_one_view_leaves_the_other_alone(self, program):
        first = self.view(program, 2, lambda s: 0)
        second = self.view(program, 2, lambda s: 1)
        before = list(second.ann_yes)
        first.bind_links(2, lambda s: 1)
        first.project_links([], 0, 0)  # annotate again
        assert first.ann_yes == second.ann_yes
        assert second.ann_yes == before

    def test_a_change_through_one_view_reaches_every_view(self, program, schema5):
        first = self.view(program, 1, lambda s: 0)
        second = self.view(program, 1, lambda s: 0)
        late = make_subscription(schema5, "a1=2", "dave")
        event = Event.from_tuple(schema5, (2, 0, 0, 0, 0))
        assert second.match_links(event, 0, 0b1)[0] == 0
        first.insert(late)  # a view's change is its replica's
        assert late.subscription_id in program
        assert second.match_links(event, 0, 0b1)[0] == 0b1
        program.remove(late.subscription_id)
        assert first.match_links(event, 0, 0b1)[0] == 0
        second.release()
        assert program.views == [first]


class TestSearchDag:
    def test_rejects_range_branches(self, stock_schema):
        tree = build_pst(
            stock_schema, [make_subscription(stock_schema, "price<10", "a")]
        )
        with pytest.raises(SubscriptionError):
            SearchDag(tree)

    def test_match_equals_tree(self, schema5):
        subscriptions, events = random_workload(schema5, 100, 200, seed=5)
        tree = build_pst(schema5, subscriptions)
        dag = SearchDag(tree)
        for event in events:
            tree_ids = {s.subscription_id for s in tree.match(event).subscriptions}
            dag_ids = {s.subscription_id for s in dag.match(event).subscriptions}
            assert dag_ids == tree_ids

    def test_steps_bounded_by_levels(self, schema5):
        subscriptions, events = random_workload(schema5, 100, 50, seed=6)
        dag = SearchDag(build_pst(schema5, subscriptions))
        for event in events:
            assert dag.match(event).steps <= len(schema5) + 1

    def test_dag_never_more_steps_than_tree(self, schema5):
        subscriptions, events = random_workload(schema5, 100, 100, seed=7)
        tree = build_pst(schema5, subscriptions)
        dag = SearchDag(tree)
        for event in events:
            assert dag.match(event).steps <= tree.match(event).steps

    def test_nodes_are_shared(self, schema5):
        # Heavy star-overlap forces sharing: the DAG memoizes merged frontiers.
        subscriptions = [
            make_subscription(schema5, f"a1={v}", f"s{v}") for v in range(3)
        ] + [make_subscription(schema5, "a5=1", "tail")]
        tree = build_pst(schema5, subscriptions)
        dag = SearchDag(tree)
        event = Event.from_tuple(schema5, (0, 0, 0, 0, 1))
        assert dag.match(event).subscribers == {"s0", "tail"}
        # All three a1 branches merge with the same *-subtree: the DAG must
        # be smaller than three independent copies of it.
        assert dag.node_count() < 3 * tree.node_count()

    def test_empty_tree(self, schema5):
        dag = SearchDag(ParallelSearchTree(schema5))
        result = dag.match(Event.from_tuple(schema5, (0, 0, 0, 0, 0)))
        assert result.subscriptions == []

    def test_works_on_optimized_tree(self, schema5):
        subscriptions, events = random_workload(schema5, 60, 80, seed=8)
        tree = build_pst(schema5, subscriptions)
        dag = SearchDag(tree)
        for event in events:
            assert {s.subscription_id for s in dag.match(event).subscriptions} == {
                s.subscription_id for s in tree.match(event).subscriptions
            }

    def test_brute_force_passthrough(self, schema5):
        subscriptions, _ = random_workload(schema5, 10, 0, seed=9)
        tree = build_pst(schema5, subscriptions)
        dag = SearchDag(tree)
        event = Event.from_tuple(schema5, (1, 1, 1, 1, 1))
        assert {s.subscription_id for s in dag.match_brute_force(event)} == {
            s.subscription_id for s in tree.match_brute_force(event)
        }
