"""Annotating the oracle PST with trit vectors — Section 3.1.

Each broker annotates every node of its Parallel Search Tree with a trit
vector of length equal to its number of (virtual) links.  Leaves get Yes at
the positions of links through which one of the leaf's subscribers is
reached, No elsewhere.  Annotations propagate to the root with:

    node = ParallelCombine(
        AlternativeCombine(value children...,
                           implicit all-No unless the value branches cover
                           the attribute's whole domain),
        *-child (all-No when absent))

The *implicit all-No alternative* represents event values for which no value
branch exists: such an event follows only the ``*``-branch, so the value
branches alone must not promote a link to Yes.  When the tree knows the
attribute's finite domain (the paper's simulations fix e.g. 5 values per
attribute) and the value branches cover it, the implicit alternative is
dropped — this is what lets annotations reach Yes above fully-enumerated
levels and is exactly how the paper's Figure 5 example combines.  Branches
on values outside a declared domain are never taken and do not take part.

Under a declared domain the combination is evaluated per domain value (see
:meth:`TreeAnnotation._combine_children`), which makes range branches exact
too.  Without one, range branches are handled conservatively (the paper
restricts the described algorithm to equality tests and don't-cares,
deferring ranges to a "parallel search graph"): a range child joins the
Alternative Combine and the implicit all-No is always kept, so range
branches can produce Maybe but never an unsound Yes or No.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.trits import TritVector
from repro.errors import RoutingError
from repro.matching.base import LinkOfSubscriber
from tests.oracle.pst import ParallelSearchTree, PSTNode, child_for_test
from tests.oracle.trits import alternative_combine_all, parallel_combine_all


class TreeAnnotation:
    """The trit-vector annotation of one PST for one broker.

    Annotations are keyed by PST node id.  :meth:`annotate` computes them
    for the tree as it is; after a subscription changes, :meth:`update_path`
    re-annotates its path (a :class:`~tests.oracle.view.OracleView` does so
    for every change its tree makes).
    """

    def __init__(self, num_links: int, link_of_subscriber: LinkOfSubscriber) -> None:
        if num_links < 0:
            raise RoutingError("num_links must be >= 0")
        self.num_links = num_links
        self._link_of_subscriber = link_of_subscriber
        self._by_node: Dict[int, TritVector] = {}

    def annotate(self, tree: ParallelSearchTree) -> TritVector:
        """(Re)compute annotations bottom-up; returns the root's vector."""
        self._by_node.clear()
        return self._annotate_node(tree, tree.root)

    def update_path(self, tree: ParallelSearchTree, predicate) -> TritVector:
        """Incrementally re-annotate after one subscription changed.

        A node's annotation depends only on its descendants, so inserting or
        removing a subscription can only change annotations on the root-to-
        leaf path its predicate selects.  This walks that path in the
        *current* tree (which already reflects the change), recomputes those
        nodes bottom-up — descending into a subtree only when it has no
        cached annotation (freshly created by a re-materializing insert) —
        and leaves everything else untouched.

        Returns the new root vector.  Stale entries for pruned nodes are
        left in the map; they are unreachable and harmless, and
        :meth:`annotate` clears them on the next full pass.
        """
        tests = [
            predicate.tests[tree.schema.position_of(name)]
            for name in tree.attribute_order
        ]
        path: List[PSTNode] = []
        node: Optional[PSTNode] = tree.root
        while node is not None:
            path.append(node)
            if node.is_leaf:
                break
            node = child_for_test(node, tests[node.attribute_position])
        for stale in path:
            self._by_node.pop(stale.node_id, None)
        # _annotate_node recurses only into children without annotations...
        # it recomputes everything below.  To keep the incremental cost at
        # O(path x fanout) rather than O(subtree), recompute bottom-up using
        # cached child vectors.
        for node in reversed(path):
            if node.is_leaf:
                self._by_node[node.node_id] = self._leaf_vector(node)
            else:
                self._by_node[node.node_id] = self._combine_children(tree, node)
        return self._by_node[tree.root.node_id]

    def _cached_or_computed(self, tree: ParallelSearchTree, child: PSTNode) -> TritVector:
        cached = self._by_node.get(child.node_id)
        if cached is not None:
            return cached
        return self._annotate_node(tree, child)

    def vector_for(self, node: PSTNode) -> TritVector:
        """The annotation of ``node`` (must have been annotated)."""
        try:
            return self._by_node[node.node_id]
        except KeyError:
            raise RoutingError(
                f"node #{node.node_id} has no annotation — tree changed since annotate()?"
            ) from None

    def _annotate_node(self, tree: ParallelSearchTree, node: PSTNode) -> TritVector:
        if node.is_leaf:
            vector = self._leaf_vector(node)
        else:
            vector = self._internal_vector(tree, node)
        self._by_node[node.node_id] = vector
        return vector

    def _leaf_vector(self, node: PSTNode) -> TritVector:
        positions = set()
        for subscription in node.subscriptions:
            position = self._link_of_subscriber(subscription)
            if position < 0:
                continue  # subscriber unreachable — no link to light
            if position >= self.num_links:
                raise RoutingError(
                    f"link position {position} out of range for {subscription!r}"
                )
            positions.add(position)
        return TritVector.with_yes_at(self.num_links, positions)

    def _internal_vector(self, tree: ParallelSearchTree, node: PSTNode) -> TritVector:
        for child in node.children():
            self._annotate_node(tree, child)
        return self._combine_children(tree, node)

    def _combine_children(self, tree: ParallelSearchTree, node: PSTNode) -> TritVector:
        """Combine the (cached or freshly computed) child vectors per the
        Section 3.1 recipe; see the module docstring.

        With a declared (exhaustive) domain the combination is computed
        *per domain value* — Alternative Combine over the exact outcome of
        each possible event value, where an outcome Parallel-Combines every
        branch that value satisfies (its equality branch, every accepting
        range branch, and the ``*``-branch).  This is exactly the paper's
        recipe for equality-only trees (by the distributivity of Parallel
        over Alternative Combine) and extends it precisely to range tests —
        the case the paper defers to a "parallel search graph".
        This literal fold is the reference for ``CompiledProgram.annotate``,
        which folds each distinct outcome once.
        """
        assert node.attribute_position is not None
        star = (
            self._cached_or_computed(tree, node.star_child)
            if node.star_child is not None
            else TritVector.all_no(self.num_links)
        )
        domain = tree.domain_of(node.attribute_position)
        if domain is not None:
            outcomes: List[TritVector] = []
            for value in sorted(domain, key=repr):
                parts: List[TritVector] = []
                value_child = node.value_branches.get(value)
                if value_child is not None:
                    parts.append(self._cached_or_computed(tree, value_child))
                for test, range_child in node.range_branches:
                    if test.evaluate(value):
                        parts.append(self._cached_or_computed(tree, range_child))
                parts.append(star)
                outcomes.append(parallel_combine_all(parts, self.num_links))
            return alternative_combine_all(outcomes, self.num_links)
        # Open domain: the conservative recipe — value/range children
        # Alternative-Combined with an implicit all-No for unlisted values,
        # then Parallel-Combined with the *-branch.  Sound (never a false
        # Yes or No) but ranges and unlisted values can only yield Maybe.
        alternatives: List[TritVector] = [
            self._cached_or_computed(tree, child)
            for child in node.value_branches.values()
        ]
        for _test, child in node.range_branches:
            alternatives.append(self._cached_or_computed(tree, child))
        alternatives.append(TritVector.all_no(self.num_links))
        combined = alternative_combine_all(alternatives, self.num_links)
        return combined.parallel(star)

    def __repr__(self) -> str:
        return f"TreeAnnotation({self.num_links} links, {len(self._by_node)} nodes)"
