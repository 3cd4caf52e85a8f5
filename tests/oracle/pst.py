"""The Parallel Search Tree (PST) of Section 2 as an object graph — the
reference the compiled program is held against.

:class:`~repro.matching.compile.CompiledProgram` is the only matcher the
package ships; this literal node-per-object tree stays here, beside the
tests, so that every equivalence property compares the program with an
independent reading of the paper.

Subscriptions are organized into a tree in which each level tests one
attribute (in a fixed order) and each root-to-leaf path spells out one
predicate.  Branches out of a node are labeled with attribute tests:

* **value branches** — equality tests, stored in a hash map keyed by value so
  the applicable branch is found in O(1);
* **range branches** — range/interval tests, scanned linearly (there are
  normally few of them per node);
* the ***-branch** — "don't care", followed *in parallel* with any applicable
  value/range branch.

Matching starts at the root and follows, at each node, every branch whose
test accepts the event's value for that node's attribute, collecting the
subscriptions stored at reached leaves.  The paper counts a *matching step*
as the visitation of a single node; :class:`MatchResult` reports that count
so Chart 2 can be regenerated.

**Trivial test elimination** (Section 2.1, item 2) is an invariant of the
tree rather than a pass over it: no reachable non-leaf node has only a
``*``-child.  Each node records the attribute it tests in
``attribute_position``, so a path may skip levels.  An insert grows a new
child at the subscription's next *constrained* level (or straight to the
leaf) and re-materializes a skipped level the subscription constrains; a
remove replaces a node it leaves with only a ``*``-child by that child.  The
shape therefore depends only on the live subscription set, never on the
history that produced it (up to branch order).

Optional per-attribute **domains** (the finite value sets used throughout the
paper's simulations, e.g. "5 values per attribute") tighten the link-matching
annotations of :mod:`tests.oracle.annotation`: when a node's value branches
cover the whole domain, the annotator may skip the implicit all-No
alternative for unlisted values.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import SubscriptionError
from repro.matching.compile import (
    MatchResult,
    check_insertable,
    checked_domains,
    checked_order,
    first_constrained,
)
from repro.matching.events import Event
from repro.matching.predicates import AttributeTest, EqualityTest, Predicate, Subscription
from repro.matching.schema import AttributeValue, EventSchema

_node_ids = itertools.count(1)

#: Every node's ``value_branches`` until it has one; read-only, so a stray write raises.
_NO_VALUE_BRANCHES: Mapping[AttributeValue, "PSTNode"] = MappingProxyType({})


class PSTNode:
    """A node of the Parallel Search Tree.

    ``attribute_position`` is the index (into the tree's attribute order) of
    the attribute this node tests; it is ``None`` for leaves.  Children:

    * ``value_branches`` maps an equality-test value to the child node,
    * ``range_branches`` lists ``(test, child)`` pairs for range tests,
    * ``star_child`` is the child along the ``*``-branch.

    ``subscriptions`` is non-empty only at leaves.  An unused container is a
    shared immutable empty; the tree installs a real one on first use.
    """

    __slots__ = (
        "node_id",
        "attribute_position",
        "value_branches",
        "range_branches",
        "star_child",
        "subscriptions",
    )

    def __init__(self, attribute_position: Optional[int]) -> None:
        self.node_id = next(_node_ids)
        self.attribute_position = attribute_position
        self.value_branches: Mapping[AttributeValue, "PSTNode"] = _NO_VALUE_BRANCHES
        self.range_branches: Sequence[Tuple[AttributeTest, "PSTNode"]] = ()
        self.star_child: Optional["PSTNode"] = None
        self.subscriptions: Sequence[Subscription] = ()

    @property
    def is_leaf(self) -> bool:
        return self.attribute_position is None

    def children(self) -> Iterator["PSTNode"]:
        """All children: value branches, range branches, then the *-branch."""
        yield from self.value_branches.values()
        for _test, child in self.range_branches:
            yield child
        if self.star_child is not None:
            yield self.star_child

    @property
    def is_empty(self) -> bool:
        """True when the node has no children and no subscriptions."""
        return (
            not self.value_branches
            and not self.range_branches
            and self.star_child is None
            and not self.subscriptions
        )

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"PSTNode(leaf, {len(self.subscriptions)} subs)"
        return (
            f"PSTNode(attr#{self.attribute_position}, "
            f"{len(self.value_branches)} values, {len(self.range_branches)} ranges, "
            f"star={self.star_child is not None})"
        )


def child_for_test(node: PSTNode, test: AttributeTest) -> Optional[PSTNode]:
    """The child of ``node`` whose branch label equals ``test``, if any —
    one step of the root-to-leaf walk a predicate selects."""
    if test.is_dont_care:
        return node.star_child
    if isinstance(test, EqualityTest):
        return node.value_branches.get(test.value)
    for branch_test, child in node.range_branches:
        if branch_test == test:
            return child
    return None


class ParallelSearchTree:
    """The PST over a schema, with insert, remove, and parallel-search match.

    Parameters
    ----------
    schema:
        The event schema.  Attributes are tested in the order given by
        ``attribute_order`` (a permutation of schema names) or, by default,
        schema declaration order.
    attribute_order:
        Optional explicit test order; see :mod:`repro.matching.ordering` for
        heuristics that compute a good one.
    domains:
        Optional map from attribute name to its finite set of possible
        values.  Only used to tighten link-matching annotations; matching
        itself never needs it.
    """

    def __init__(
        self,
        schema: EventSchema,
        *,
        attribute_order: Optional[Sequence[str]] = None,
        domains: Optional[Mapping[str, Iterable[AttributeValue]]] = None,
    ) -> None:
        self.schema = schema
        self.attribute_order = checked_order(schema, attribute_order)
        self._positions: Tuple[int, ...] = tuple(
            schema.position_of(n) for n in self.attribute_order
        )
        self.domains = checked_domains(schema, domains)
        self.root = PSTNode(0)
        self._by_id: Dict[int, Subscription] = {}
        #: The views over this tree (each a :class:`~tests.oracle.view.OracleView`),
        #: told of every change.
        self.views: List[Any] = []

    # ------------------------------------------------------------------
    # Introspection

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, subscription_id: object) -> bool:
        return subscription_id in self._by_id

    @property
    def subscriptions(self) -> List[Subscription]:
        """All registered subscriptions (unordered)."""
        return list(self._by_id.values())

    def nodes(self) -> Iterator[PSTNode]:
        """All nodes, preorder."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children())

    def node_count(self) -> int:
        return sum(1 for _ in self.nodes())

    def domain_of(self, position: int) -> Optional[FrozenSet[AttributeValue]]:
        """The declared finite domain of the attribute at ``position``, if any."""
        return self.domains.get(self.attribute_order[position])

    # ------------------------------------------------------------------
    # Insert / remove

    def _tests_in_order(self, predicate: Predicate) -> List[AttributeTest]:
        return [predicate.tests[position] for position in self._positions]

    def insert(self, subscription: Subscription) -> None:
        """Add a subscription, extending the tree along its path.

        New nodes start at the subscription's next constrained level, and a
        level the path skips but the subscription constrains is
        re-materialized, so no node is left with only a ``*``-child.
        """
        check_insertable(self.schema, subscription, self._by_id)
        tests = self._tests_in_order(subscription.predicate)
        if self.root.is_empty:
            self.root = self._new_node(tests, 0)
        self.root = self._insert(self.root, tests, 0, subscription)
        self._by_id[subscription.subscription_id] = subscription
        for view in self.views:
            view.path_changed(subscription)

    def _insert(
        self,
        node: PSTNode,
        tests: List[AttributeTest],
        level: int,
        subscription: Subscription,
    ) -> PSTNode:
        """Insert below ``node``, which covers levels ``level..`` — its own
        ``attribute_position`` is greater than ``level`` where the path skips
        levels.  Returns the (possibly replaced) node."""
        end = len(self.attribute_order)
        node_position = end if node.is_leaf else node.attribute_position
        assert node_position is not None
        target = first_constrained(tests, level, node_position)
        if target is not None:
            # The subscription constrains a level this path skips: insert a
            # fresh node at that level whose *-branch leads to the old path.
            replacement = PSTNode(target)
            replacement.star_child = node
            return self._insert(replacement, tests, target, subscription)
        if node.is_leaf:
            if not node.subscriptions:
                node.subscriptions = []
            node.subscriptions.append(subscription)
            return node
        test = tests[node_position]
        child = child_for_test(node, test)
        if child is None:
            child = self._new_node(tests, node_position + 1)
            self._set_child(node, test, child)
        new_child = self._insert(child, tests, node_position + 1, subscription)
        if new_child is not child:
            self._set_child(node, test, new_child)
        return node

    def _new_node(self, tests: List[AttributeTest], level: int) -> PSTNode:
        """An empty node for a path that continues at ``level``: placed at
        the first level from there that ``tests`` constrain, or a leaf."""
        return PSTNode(first_constrained(tests, level, len(self.attribute_order)))

    def _set_child(self, node: PSTNode, test: AttributeTest, child: PSTNode) -> None:
        """Point the branch for ``test`` at ``child``; a new branch goes
        last, an existing one keeps its place in the branch order."""
        if test.is_dont_care:
            node.star_child = child
        elif isinstance(test, EqualityTest):
            if not node.value_branches:
                node.value_branches = {}
            node.value_branches[test.value] = child
        elif any(branch_test == test for branch_test, _old in node.range_branches):
            node.range_branches = tuple(
                (branch_test, child if branch_test == test else old)
                for branch_test, old in node.range_branches
            )
        else:
            node.range_branches = (*node.range_branches, (test, child))

    def remove(self, subscription_id: int) -> Subscription:
        """Remove a subscription by id, pruning now-empty branches and
        splicing out a node left with only a ``*``-child.

        Returns the removed subscription; raises :class:`SubscriptionError`
        if the id is unknown.
        """
        subscription = self._by_id.pop(subscription_id, None)
        if subscription is None:
            raise SubscriptionError(f"unknown subscription id {subscription_id}")
        tests = self._tests_in_order(subscription.predicate)
        # A drained root stays, empty, until the next insert replaces it.
        self.root = self._remove_along_path(self.root, tests, subscription) or self.root
        for view in self.views:
            view.path_changed(subscription)
        return subscription

    def _remove_along_path(
        self, node: PSTNode, tests: List[AttributeTest], subscription: Subscription
    ) -> Optional[PSTNode]:
        """Remove ``subscription`` below ``node`` and return what takes
        ``node``'s place in its parent: ``None`` once it is empty (pruned),
        its ``*``-child once that is all it has left (a trivial test,
        spliced out), otherwise ``node`` itself."""
        if node.is_leaf:
            try:
                node.subscriptions.remove(subscription)
                if not node.subscriptions:
                    node.subscriptions = ()
            except (ValueError, AttributeError):  # absent, or an empty leaf's ()
                raise SubscriptionError(
                    f"subscription #{subscription.subscription_id} not found at its leaf "
                    "(tree structure was mutated externally?)"
                ) from None
            return node if node.subscriptions else None
        position = node.attribute_position
        assert position is not None
        test = tests[position]
        child = child_for_test(node, test)
        if child is None:
            raise SubscriptionError(
                f"no branch for {test!r} while removing subscription "
                f"#{subscription.subscription_id}"
            )
        replacement = self._remove_along_path(child, tests, subscription)
        if replacement is None:
            self._unlink_child(node, test)
        elif replacement is not child:
            self._set_child(node, test, replacement)
        if node.value_branches or node.range_branches:
            return node
        return node.star_child

    def _unlink_child(self, node: PSTNode, test: AttributeTest) -> None:
        if test.is_dont_care:
            node.star_child = None
        elif isinstance(test, EqualityTest):
            del node.value_branches[test.value]
            if not node.value_branches:
                node.value_branches = _NO_VALUE_BRANCHES
        else:
            node.range_branches = tuple(
                (branch_test, child)
                for branch_test, child in node.range_branches
                if branch_test != test
            )

    # ------------------------------------------------------------------
    # Matching

    def match(self, event: Event) -> MatchResult:
        """Run the parallel search of Section 2 and return matches + steps.

        The search is implemented with an explicit stack rather than
        recursion: the "parallel subsearches" of the paper are independent,
        so visiting them in LIFO order is equivalent and avoids Python's
        recursion limit on deep schemas.
        """
        if event.schema != self.schema:
            raise SubscriptionError("event schema does not match the tree's schema")
        values = event.as_tuple()
        matched: List[Subscription] = []
        steps = 0
        stack: List[PSTNode] = [self.root]
        while stack:
            node = stack.pop()
            steps += 1
            if node.is_leaf:
                matched.extend(node.subscriptions)
                continue
            value = values[self._positions[node.attribute_position]]
            child = node.value_branches.get(value)
            if child is not None:
                stack.append(child)
            for test, range_child in node.range_branches:
                if test.evaluate(value):
                    stack.append(range_child)
            if node.star_child is not None:
                stack.append(node.star_child)
        return MatchResult(matched, steps)

    def match_brute_force(self, event: Event) -> List[Subscription]:
        """Reference implementation: evaluate every predicate directly.

        Used by tests to check that the PST search is semantics-preserving,
        and by the simulator's "match-first" straw-man protocol when step
        counting is irrelevant.
        """
        return [s for s in self._by_id.values() if s.predicate.matches(event)]

    def __repr__(self) -> str:
        return (
            f"ParallelSearchTree({len(self._by_id)} subscriptions, "
            f"{self.node_count()} nodes, order={list(self.attribute_order)!r})"
        )


def build_pst(
    schema: EventSchema,
    subscriptions: Iterable[Subscription],
    *,
    attribute_order: Optional[Sequence[str]] = None,
    domains: Optional[Mapping[str, Iterable[AttributeValue]]] = None,
) -> ParallelSearchTree:
    """Convenience constructor: build a PST holding ``subscriptions``."""
    tree = ParallelSearchTree(schema, attribute_order=attribute_order, domains=domains)
    for subscription in subscriptions:
        tree.insert(subscription)
    return tree
