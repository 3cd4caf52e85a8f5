"""Property-based tests of the matching engines.

The master invariant: every matcher (PST, PST with declared domains,
factored, search DAG) returns exactly the subscriptions whose predicates
evaluate true under direct brute-force evaluation — for arbitrary
subscription sets and events.  The PST is always trivial-test eliminated
(no node has only a ``*``-child), whatever history built it.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.matching import (
    EqualityTest,
    Event,
    FactoredMatcher,
    Predicate,
    SearchDag,
    Subscription,
    build_pst,
    uniform_schema,
)

SCHEMA = uniform_schema(4)
DOMAIN = [0, 1, 2]
DOMAINS = {name: DOMAIN for name in SCHEMA.names}

#: A predicate as a map of attribute -> equality value (None = don't care).
predicate_specs = st.tuples(
    *(st.one_of(st.none(), st.sampled_from(DOMAIN)) for _ in range(4))
)
subscription_lists = st.lists(predicate_specs, min_size=0, max_size=25)
events = st.tuples(*(st.sampled_from(DOMAIN + [7]) for _ in range(4)))  # 7 = out of domain


def make_subscriptions(specs):
    subscriptions = []
    for index, spec in enumerate(specs):
        tests = {
            name: EqualityTest(value)
            for name, value in zip(SCHEMA.names, spec)
            if value is not None
        }
        subscriptions.append(
            Subscription(Predicate(SCHEMA, tests), f"s{index}")
        )
    return subscriptions


def brute_force(subscriptions, event):
    return {s.subscription_id for s in subscriptions if s.predicate.matches(event)}


class TestMatchEquivalence:
    @given(specs=subscription_lists, event_values=events)
    @settings(max_examples=200)
    def test_pst_matches_brute_force(self, specs, event_values):
        subscriptions = make_subscriptions(specs)
        tree = build_pst(SCHEMA, subscriptions)
        event = Event.from_tuple(SCHEMA, event_values)
        assert {
            s.subscription_id for s in tree.match(event).subscriptions
        } == brute_force(subscriptions, event)

    @given(specs=subscription_lists, event_values=events)
    @settings(max_examples=150)
    def test_optimized_pst_matches_brute_force(self, specs, event_values):
        subscriptions = make_subscriptions(specs)
        tree = build_pst(SCHEMA, subscriptions, domains=DOMAINS)
        event = Event.from_tuple(SCHEMA, event_values)
        assert {
            s.subscription_id for s in tree.match(event).subscriptions
        } == brute_force(subscriptions, event)

    @given(specs=subscription_lists, event_values=events)
    @settings(max_examples=150)
    def test_factored_matches_brute_force(self, specs, event_values):
        subscriptions = make_subscriptions(specs)
        matcher = FactoredMatcher(SCHEMA, ["a1"], DOMAINS)
        for subscription in subscriptions:
            matcher.insert(subscription)
        event = Event.from_tuple(SCHEMA, event_values)
        assert {
            s.subscription_id for s in matcher.match(event).subscriptions
        } == brute_force(subscriptions, event)

    @given(specs=subscription_lists, event_values=events)
    @settings(max_examples=150)
    def test_dag_matches_brute_force(self, specs, event_values):
        subscriptions = make_subscriptions(specs)
        dag = SearchDag(build_pst(SCHEMA, subscriptions))
        event = Event.from_tuple(SCHEMA, event_values)
        assert {
            s.subscription_id for s in dag.match(event).subscriptions
        } == brute_force(subscriptions, event)


class TestInsertRemoveRoundtrip:
    @given(specs=subscription_lists, event_values=events, data=st.data())
    @settings(max_examples=100)
    def test_remove_restores_previous_matches(self, specs, event_values, data):
        subscriptions = make_subscriptions(specs)
        tree = build_pst(SCHEMA, subscriptions)
        event = Event.from_tuple(SCHEMA, event_values)
        if not subscriptions:
            return
        victim = data.draw(st.sampled_from(subscriptions))
        tree.remove(victim.subscription_id)
        remaining = [s for s in subscriptions if s is not victim]
        assert {
            s.subscription_id for s in tree.match(event).subscriptions
        } == brute_force(remaining, event)

    @given(specs=subscription_lists)
    @settings(max_examples=100)
    def test_remove_everything_empties_tree(self, specs):
        subscriptions = make_subscriptions(specs)
        tree = build_pst(SCHEMA, subscriptions)
        for subscription in subscriptions:
            tree.remove(subscription.subscription_id)
        assert len(tree) == 0
        assert tree.node_count() == 1

    @given(specs=subscription_lists, event_values=events)
    @settings(max_examples=100)
    def test_elimination_then_insert_consistent(self, specs, event_values):
        subscriptions = make_subscriptions(specs)
        if len(subscriptions) < 2:
            return
        # Removals splice levels out; the inserts after them must
        # re-materialize whichever ones they constrain.
        half = len(subscriptions) // 2
        tree = build_pst(SCHEMA, subscriptions[:half])
        for subscription in subscriptions[: half // 2]:
            tree.remove(subscription.subscription_id)
        for subscription in subscriptions[half:]:
            tree.insert(subscription)
        live = subscriptions[half // 2 :]
        event = Event.from_tuple(SCHEMA, event_values)
        assert {
            s.subscription_id for s in tree.match(event).subscriptions
        } == brute_force(live, event)


class TestStepAccounting:
    @given(specs=subscription_lists, event_values=events)
    @settings(max_examples=100)
    def test_steps_bounded_by_node_count(self, specs, event_values):
        tree = build_pst(SCHEMA, make_subscriptions(specs))
        event = Event.from_tuple(SCHEMA, event_values)
        result = tree.match(event)
        assert 1 <= result.steps <= tree.node_count()

    @given(specs=subscription_lists, event_values=events)
    @settings(max_examples=100)
    def test_elimination_never_increases_steps(self, specs, event_values):
        """At most the steps of the tree with a node on every level: that
        tree has one node per distinct prefix of branch labels, and a
        search visits the root plus every prefix whose labels all accept
        the event."""
        tree = build_pst(SCHEMA, make_subscriptions(specs))
        accepted = {
            spec[:length]
            for spec in specs
            for length in range(1, len(spec) + 1)
            if all(v is None or v == e for v, e in zip(spec[:length], event_values))
        }
        event = Event.from_tuple(SCHEMA, event_values)
        assert tree.match(event).steps <= 1 + len(accepted)
