"""The link-matching search — Section 3.3.

Given an event, a broker refines the initialization mask of the publisher's
spanning tree against the annotated PST until every trit is Yes or No:

1. Start with the initialization mask.
2. At each node, replace every Maybe in the mask with the node's annotation
   trit.  If no Maybe remains, the search terminates.
3. Otherwise perform the node's test, fork a subsearch (with a copy of the
   mask) into each applicable child; when a subsearch returns, convert to Yes
   every Maybe whose returned trit is Yes.  After all children, remaining
   Maybes become No.
4. The event is sent on every link whose final trit is Yes.

The broker does *just enough* matching to decide its links: the search stops
as soon as the mask is fully refined, which on selective workloads is long
before a full match would finish — that is the efficiency claim Chart 2
measures via the ``steps`` counter.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import RoutingError
from repro.core.annotation import TreeAnnotation
from repro.core.trits import TritVector, pack_tritvector, unpack_tritvector
from repro.matching.events import Event
from repro.matching.pst import ParallelSearchTree, PSTNode


class LinkMatchResult:
    """Outcome of a link-matching search: the fully refined mask and the
    number of matching steps (node visits) it took."""

    __slots__ = ("mask", "steps")

    def __init__(self, mask: TritVector, steps: int) -> None:
        self.mask = mask
        self.steps = steps

    def __repr__(self) -> str:
        return f"LinkMatchResult(mask={self.mask}, steps={self.steps})"


class LinkMatcher:
    """Runs the refinement search over one annotated PST."""

    def __init__(self, tree: ParallelSearchTree, annotation: TreeAnnotation) -> None:
        self.tree = tree
        self.annotation = annotation

    def match_links(self, event: Event, initialization_mask: TritVector) -> LinkMatchResult:
        """Refine ``initialization_mask`` for ``event``; see module docstring."""
        if event.schema != self.tree.schema:
            raise RoutingError("event schema does not match the annotated tree")
        values = event.as_tuple()
        positions = tuple(
            self.tree.schema.position_of(name) for name in self.tree.attribute_order
        )
        steps = 0

        def search(node: PSTNode, mask: TritVector) -> TritVector:
            nonlocal steps
            steps += 1
            mask = mask.refine_with(self.annotation.vector_for(node))
            if not mask.has_maybe:
                return mask
            if node.is_leaf:
                # Leaf annotations are Yes/No only, so refinement above has
                # already removed every Maybe; this is unreachable unless an
                # annotation is stale.
                raise RoutingError("leaf annotation left Maybe trits — stale annotation?")
            value = values[positions[node.attribute_position]]
            children: List[PSTNode] = []
            child = node.value_branches.get(value)
            if child is not None:
                children.append(child)
            for test, range_child in node.range_branches:
                if test.evaluate(value):
                    children.append(range_child)
            if node.star_child is not None:
                children.append(node.star_child)
            for child in children:
                returned = search(child, mask)
                mask = mask.import_yes(returned)
                if not mask.has_maybe:
                    return mask
            return mask.close_maybes()

        final = search(self.tree.root, initialization_mask)
        return LinkMatchResult(final, steps)

    def match_bits(self, event: Event, yes_bits: int, maybe_bits: int) -> Tuple[int, int]:
        """:meth:`match_links` behind the packed routing interface of
        :meth:`~repro.matching.compile.CompiledProgram.match_links`: takes
        ``(yes_bits, maybe_bits)``, returns ``(final_yes_bits, steps)``."""
        mask = unpack_tritvector(yes_bits, maybe_bits, self.annotation.num_links)
        result = self.match_links(event, mask)
        return pack_tritvector(result.mask)[0], result.steps
