"""One router's view of the oracle PST: its trit annotation and the
refinement search, behind the packed interface of
:class:`~repro.matching.engines.CompiledEngine`.

The tree tells every view of each insert and remove, and the view
re-annotates the changed path; it annotates in full at the first link match
after :meth:`OracleView.bind_links`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import RoutingError
from repro.matching.base import LinkOfSubscriber
from repro.matching.compile import MatchResult
from repro.matching.events import Event
from repro.matching.predicates import Subscription
from tests.oracle.annotation import TreeAnnotation
from tests.oracle.link_matcher import LinkMatcher
from tests.oracle.pst import ParallelSearchTree


class OracleView:
    """Matching and link matching on an object-graph PST, step for step the
    paper's search."""

    def __init__(self, tree: ParallelSearchTree) -> None:
        self.tree = tree
        self.schema = tree.schema
        self.num_links: Optional[int] = None
        self.link_of_subscriber: Optional[LinkOfSubscriber] = None
        self._annotation: Optional[TreeAnnotation] = None
        self._link_matcher: Optional[LinkMatcher] = None
        tree.views.append(self)

    def insert(self, subscription: Subscription) -> None:
        self.tree.insert(subscription)

    def remove(self, subscription_id: int) -> Subscription:
        return self.tree.remove(subscription_id)

    @property
    def subscriptions(self) -> List[Subscription]:
        return self.tree.subscriptions

    def path_changed(self, subscription: Subscription) -> None:
        """The tree inserted or removed ``subscription``: re-annotate its
        path (when annotated)."""
        if self._annotation is not None:
            self._annotation.update_path(self.tree, subscription.predicate)

    def match(self, event: Event) -> MatchResult:
        return self.tree.match(event)

    def match_batch(self, events: Sequence[Event]) -> List[MatchResult]:
        return [self.match(event) for event in events]

    def bind_links(self, num_links: int, link_of_subscriber: LinkOfSubscriber) -> None:
        if num_links < 0:
            raise RoutingError("num_links must be >= 0")
        self.num_links = num_links
        self.link_of_subscriber = link_of_subscriber
        self._annotation = None
        self._link_matcher = None

    def annotate(self) -> None:
        """Annotate the tree in full for the bound links, unless done since
        the last :meth:`bind_links`."""
        if self._link_matcher is None:
            if self.num_links is None:
                raise RoutingError("OracleView.match_links() requires a prior bind_links()")
            self._annotation = TreeAnnotation(self.num_links, self.link_of_subscriber)
            self._annotation.annotate(self.tree)
            self._link_matcher = LinkMatcher(self.tree, self._annotation)

    def match_links(self, event: Event, yes_bits: int, maybe_bits: int) -> Tuple[int, int]:
        self.annotate()
        if (yes_bits | maybe_bits) >> self.num_links:
            raise ValueError(f"packed mask has bits beyond the {self.num_links} bound links")
        return self._link_matcher.match_bits(event, yes_bits, maybe_bits)

    def match_links_batch(
        self, events: Sequence[Event], yes_bits: int, maybe_bits: int
    ) -> List[Tuple[int, int]]:
        return [self.match_links(event, yes_bits, maybe_bits) for event in events]
