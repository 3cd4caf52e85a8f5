"""PST optimizations — Section 2.1 of the paper.

Three optimizations are described:

1. **Factoring** (:class:`FactoredMatcher`): selected *index attributes* —
   preferably ones that subscriptions rarely leave as ``*`` — are pulled out
   of the tree, and a separate sub-PST is built for each combination of index
   values.  A subscription with a ``*`` on an index attribute is replicated
   into every sub-PST for that attribute's domain (the space cost the paper
   mentions); matching becomes a table lookup on the event's index values
   followed by a search of one (smaller) sub-PST, each a
   :class:`~repro.matching.compile.CompiledProgram`.

2. **Trivial test elimination** is an invariant of the tree itself: no
   :class:`~repro.matching.compile.CompiledProgram` node is ever left with
   only a ``*``-child (see :mod:`repro.matching.compile`).  For factoring
   this means the index levels a relaxed insertion leaves ``*`` never cost a
   search step.

3. **Delayed branching** (:class:`SearchDag`): instead of forking a parallel
   subsearch at every ``*``-branch, the ``*``-subtree is merged down into
   each value branch, so a search follows exactly *one* branch per node (the
   value branch when the event's value has one, otherwise the "else" branch).
   Merged subtrees are shared, so the structure becomes a directed acyclic
   graph — the paper notes that "after applying optimizations, the parallel
   search tree will no longer be a tree but instead a directed acyclic
   graph."  This trades space for a worst-case search of one node per
   attribute, and is the same shape as the subscription automata the paper
   cites from Gough & Smith.

All matchers implement the small informal interface of
:class:`repro.matching.base.Matcher` so the broker engine, the simulator and
the benchmarks can swap them freely.
"""

from __future__ import annotations

import itertools
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import SubscriptionError
from repro.matching.base import Matcher
from repro.matching.compile import CompiledProgram, MatchResult, check_insertable, value_branches
from repro.matching.events import Event
from repro.obs import get_registry
from repro.matching.predicates import EqualityTest, Predicate, Subscription
from repro.matching.schema import AttributeValue, EventSchema

_dag_ids = itertools.count(1)


class _OutOfDomain:
    """Sentinel index-key component for event values outside the declared
    domain.  Subscriptions that can accept such values (don't-cares, range
    tests, equalities on out-of-domain constants) are also replicated into
    the matching out-of-domain bucket, with their index tests kept intact so
    the bucket's sub-PST can still discriminate."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<out-of-domain>"


#: The shared out-of-domain key component.
OUT_OF_DOMAIN = _OutOfDomain()


class FactoredMatcher(Matcher):
    """Factoring (Section 2.1, item 1): one sub-PST per index-value combo.

    Parameters
    ----------
    schema:
        The event schema.
    index_attributes:
        Names of the attributes to factor out, in lookup order.
    domains:
        Finite value domains; required for every index attribute (a ``*`` on
        an index attribute replicates the subscription across the whole
        domain, so the domain must be known).  Domains for non-index
        attributes are passed through to the sub-PSTs for annotation use.
    residual_order:
        Optional attribute order for the residual sub-PSTs (must be a
        permutation of the non-index attributes).

    Each sub-PST is a :class:`~repro.matching.compile.CompiledProgram`,
    changed in place by every insert and remove.

    Events whose index values fall outside the declared domains select
    :data:`OUT_OF_DOMAIN` buckets, so matching stays exactly equivalent to
    brute force even on values the domain never anticipated (at the cost of
    one extra replica for every subscription whose index test is not a
    specific in-domain equality).

    **One replica per process.**  One matcher may back many
    :class:`~repro.core.router.ContentRouter` instances (every simulated
    broker holds *the same* PST, Section 3.1).  Each sub-tree is held once
    (:meth:`subtrees`), for :meth:`match` and every router's link matching
    alike.  A router's view
    (:class:`~repro.matching.engines.FactoredEngine`, one of ``views``)
    keeps one view of each sub-tree it has routed into, which that sub-tree
    keeps live; a sub-tree that empties is dropped from every view.
    """

    def __init__(
        self,
        schema: EventSchema,
        index_attributes: Sequence[str],
        domains: Mapping[str, Iterable[AttributeValue]],
        *,
        residual_order: Optional[Sequence[str]] = None,
    ) -> None:
        if not index_attributes:
            raise SubscriptionError("factoring needs at least one index attribute")
        self.schema = schema
        self.index_attributes: Tuple[str, ...] = tuple(index_attributes)
        self.domains: Dict[str, FrozenSet[AttributeValue]] = {
            name: frozenset(values) for name, values in domains.items()
        }
        for name in self.index_attributes:
            schema.position_of(name)
            if name not in self.domains or not self.domains[name]:
                raise SubscriptionError(
                    f"index attribute {name!r} needs a non-empty finite domain"
                )
        self._index_positions = tuple(schema.position_of(n) for n in self.index_attributes)
        self._index_domains_sorted = {
            name: sorted(self.domains[name], key=repr) for name in self.index_attributes
        }
        residual_names = [n for n in schema.names if n not in self.index_attributes]
        if not residual_names:
            raise SubscriptionError("factoring every attribute leaves no residual tree")
        if residual_order is not None:
            if sorted(residual_order) != sorted(residual_names):
                raise SubscriptionError(
                    "residual_order must be a permutation of the non-index attributes"
                )
            residual_names = list(residual_order)
        self._residual_order = residual_names
        self._trees: Dict[Tuple[AttributeValue, ...], CompiledProgram] = {}
        self._by_id: Dict[int, Subscription] = {}
        self._keys_by_id: Dict[int, List[Tuple[AttributeValue, ...]]] = {}
        #: The last foreign schema object found equal to ours (see
        #: :meth:`check_schema`).
        self._schema_ok: Optional[EventSchema] = None
        #: The views handed out over this matcher (each a
        #: :class:`~repro.matching.engines.FactoredEngine`).
        self.views: List[Any] = []
        obs = get_registry()
        self._obs_matches = obs.counter("engine.matches", engine="factored")
        self._obs_match_steps = obs.counter("engine.match_steps", engine="factored")
        self._obs_index_misses = obs.counter("engine.factored.index_misses", engine="factored")

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, subscription_id: object) -> bool:
        return subscription_id in self._by_id

    @property
    def subscriptions(self) -> List[Subscription]:
        return list(self._by_id.values())

    def subtrees(self) -> Iterable[Tuple[Tuple[AttributeValue, ...], CompiledProgram]]:
        """The populated ``(index key, sub-PST)`` pairs."""
        return self._trees.items()

    def subtree(self, key: Tuple[AttributeValue, ...]) -> Optional[CompiledProgram]:
        """The sub-PST of index key ``key``; ``None`` while unpopulated."""
        return self._trees.get(key)

    def _keys_for(self, subscription: Subscription) -> List[Tuple[AttributeValue, ...]]:
        """All index-key combinations a subscription applies to.

        Per index attribute the options are the in-domain values the test
        accepts, plus :data:`OUT_OF_DOMAIN` whenever the test could accept a
        value outside the domain (anything but an in-domain equality).
        """
        per_attribute: List[List[AttributeValue]] = []
        for name in self.index_attributes:
            test = subscription.predicate.test_for(name)
            domain = self.domains[name]
            if isinstance(test, EqualityTest):
                options: List[AttributeValue] = (
                    [test.value] if test.value in domain else [OUT_OF_DOMAIN]
                )
            else:
                options = [v for v in self._index_domains_sorted[name] if test.evaluate(v)]
                options.append(OUT_OF_DOMAIN)
            if not options:
                return []
            per_attribute.append(options)
        return [tuple(combo) for combo in itertools.product(*per_attribute)]

    def _subtree_for(self, key: Tuple[AttributeValue, ...]) -> CompiledProgram:
        subtree = self._trees.get(key)
        if subtree is None:
            # The index attributes stay in the sub-PST's schema (every
            # subscription in this tree has them fixed or ``*``), but they are
            # ordered last, so a path grows no node for them where they are ``*``.
            order = self._residual_order + [
                n for n in self.schema.names if n in self.index_attributes
            ]
            subtree = self._trees[key] = CompiledProgram(
                self.schema, attribute_order=order, domains=self.domains
            )
        return subtree

    def insert(self, subscription: Subscription) -> None:
        """Register a subscription in every applicable sub-PST.

        Inside each sub-PST an index attribute fixed by the key is redundant,
        so the stored copy relaxes it to ``*`` — this keeps the sub-trees
        small, which is the whole point of factoring.  Index attributes whose
        key component is :data:`OUT_OF_DOMAIN` keep their original tests (the
        key does not pin the value there).
        """
        check_insertable(self.schema, subscription, self._by_id)
        keys = self._keys_for(subscription)
        for key in keys:
            self._subtree_for(key).insert(self._relaxed_for_key(subscription, key))
        self._by_id[subscription.subscription_id] = subscription
        self._keys_by_id[subscription.subscription_id] = keys

    def _relaxed_for_key(
        self, subscription: Subscription, key: Tuple[AttributeValue, ...]
    ) -> Subscription:
        pinned = {
            name
            for name, component in zip(self.index_attributes, key)
            if component is not OUT_OF_DOMAIN
        }
        tests = {
            name: test
            for name, test in zip(self.schema.names, subscription.predicate.tests)
            if not test.is_dont_care and name not in pinned
        }
        relaxed_predicate = Predicate(self.schema, tests)
        return Subscription(
            relaxed_predicate,
            subscription.subscriber,
            subscription_id=subscription.subscription_id,
        )

    def remove(self, subscription_id: int) -> Subscription:
        subscription = self._by_id.pop(subscription_id, None)
        if subscription is None:
            raise SubscriptionError(f"unknown subscription id {subscription_id}")
        for key in self._keys_by_id.pop(subscription_id):
            subtree = self._trees[key]
            subtree.remove(subscription_id)
            if len(subtree) == 0:
                del self._trees[key]
                for view in self.views:
                    view.drop(key)
        return subscription

    def key_for_event(self, event: Event) -> Tuple[AttributeValue, ...]:
        """The index key an event selects (out-of-domain values map to the
        :data:`OUT_OF_DOMAIN` bucket).  An event on a shorter schema, which
        lacks an index position, selects the empty key: no sub-tree."""
        values = event.as_tuple()
        key = []
        try:
            for name, position in zip(self.index_attributes, self._index_positions):
                value = values[position]
                key.append(value if value in self.domains[name] else OUT_OF_DOMAIN)
        except IndexError:
            return ()
        return tuple(key)

    def match(self, event: Event) -> MatchResult:
        """Table lookup on the index values, then search the sub-PST.

        The lookup counts as one matching step.
        """
        key = self.key_for_event(event)
        subtree = self._trees.get(key)
        self._obs_matches.inc()
        if subtree is None:
            self.check_schema(event, SubscriptionError)
            self._obs_index_misses.inc()
            self._obs_match_steps.inc()
            return MatchResult([], 1)
        result = subtree.match(event)
        self._obs_match_steps.inc(result.steps + 1)
        return MatchResult(result.subscriptions, result.steps + 1)

    def check_schema(self, event: Event, error: type) -> None:
        """Raise ``error`` for an event on another schema: the guard every
        sub-PST applies, for an event whose index key selects none.  As
        there, one deep comparison per foreign schema object suffices."""
        schema = event.schema
        if schema is self.schema or schema is self._schema_ok:
            return
        if schema != self.schema:
            raise error("event schema does not match the tree's schema")
        self._schema_ok = schema

    def match_brute_force(self, event: Event) -> List[Subscription]:
        return [s for s in self._by_id.values() if s.predicate.matches(event)]

    def __repr__(self) -> str:
        return (
            f"FactoredMatcher({len(self._by_id)} subscriptions, "
            f"{len(self._trees)} sub-trees, index={list(self.index_attributes)!r})"
        )


class DagNode:
    """A node of the delayed-branching search DAG.

    Unlike a PST node, a search visits *exactly one* child: the value branch
    for the event's value if present, otherwise ``else_branch``.
    ``subscriptions`` holds the subscriptions already fully matched when the
    search reaches this node (merged in from PST leaves during construction).
    """

    __slots__ = ("node_id", "attribute_position", "value_branches", "else_branch", "subscriptions")

    def __init__(self, attribute_position: Optional[int]) -> None:
        self.node_id = next(_dag_ids)
        self.attribute_position = attribute_position
        self.value_branches: Dict[AttributeValue, "DagNode"] = {}
        self.else_branch: Optional["DagNode"] = None
        self.subscriptions: List[Subscription] = []

    @property
    def is_leaf(self) -> bool:
        return self.attribute_position is None

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"DagNode(leaf, {len(self.subscriptions)} subs)"
        return f"DagNode(attr#{self.attribute_position}, {len(self.value_branches)} values)"


class SearchDag:
    """Delayed branching (Section 2.1, item 3): a deterministic search DAG.

    Built from a :class:`CompiledProgram`'s records as they stand; later
    inserts and removes do not reach it (build it again after churn).  Only
    equality tests and don't-cares are supported, matching the scope the
    paper gives for the annotated-tree algorithms.
    """

    def __init__(self, program: CompiledProgram) -> None:
        # Each reachable record, its value table read out as a dict.
        self._records = {}
        for slot in program.reachable_slots():
            position, table, *rest = program._records[slot]
            self._records[slot] = (position, dict(value_branches(table)), *rest)
        if any(record[2] is not None for record in self._records.values()):
            raise SubscriptionError(
                "delayed branching supports equality and don't-care tests only"
            )
        self.schema = program.schema
        self.attribute_order = program.attribute_order
        self._positions = program._positions
        self._levels = program._levels
        self._values = {value_id: value for value, value_id in program.value_ids.items()}
        self._source = program
        self._memo: Dict[FrozenSet[int], DagNode] = {}
        self.root = self._build(frozenset([0]))

    def _build(self, member_slots: FrozenSet[int]) -> DagNode:
        memoized = self._memo.get(member_slots)
        if memoized is not None:
            return memoized
        members = [(slot, self._records[slot]) for slot in sorted(member_slots)]
        matched: List[Subscription] = []
        level: Optional[int] = None
        for _slot, (position, _table, _ranges, _star, subs) in members:
            if position < 0:
                matched.extend(subs or ())
            elif level is None or self._levels[position] < level:
                level = self._levels[position]
        active = [
            record
            for _slot, record in members
            if record[0] >= 0 and self._levels[record[0]] == level
        ]
        passive = [
            slot
            for slot, record in members
            if record[0] >= 0 and self._levels[record[0]] != level
        ]
        dag_node = DagNode(level)
        dag_node.subscriptions = matched
        self._memo[member_slots] = dag_node
        if level is None:
            return dag_node
        else_slots = frozenset([record[3] for record in active if record[3] >= 0] + passive)
        value_ids: Set[int] = set()
        for record in active:
            value_ids.update(record[1])
        for value_id in value_ids:
            value_slots = frozenset(
                record[1][value_id] for record in active if value_id in record[1]
            )
            dag_node.value_branches[self._values[value_id]] = self._build(
                value_slots | else_slots
            )
        if else_slots:
            dag_node.else_branch = self._build(else_slots)
        return dag_node

    def node_count(self) -> int:
        """Distinct DAG nodes (shared nodes counted once)."""
        return len(self._memo)

    @property
    def subscriptions(self) -> List[Subscription]:
        return self._source.subscriptions

    def match(self, event: Event) -> MatchResult:
        """Follow exactly one branch per node; steps = nodes visited."""
        if event.schema != self.schema:
            raise SubscriptionError("event schema does not match the DAG's schema")
        values = event.as_tuple()
        positions = self._positions
        matched: List[Subscription] = []
        steps = 0
        node: Optional[DagNode] = self.root
        while node is not None:
            steps += 1
            matched.extend(node.subscriptions)
            if node.is_leaf:
                break
            value = values[positions[node.attribute_position]]
            node = node.value_branches.get(value, node.else_branch)
        return MatchResult(matched, steps)

    def match_brute_force(self, event: Event) -> List[Subscription]:
        return self._source.match_brute_force(event)

    def __repr__(self) -> str:
        return f"SearchDag({len(self.subscriptions)} subscriptions, {self.node_count()} nodes)"
