"""One broker's link-matching decisions computed on the oracle PST.

:class:`OracleRouter` shares the broker's virtual links and initialization
masks with :class:`~repro.core.router.ContentRouter` (they are topology,
not matching) and refines them with :class:`~tests.oracle.view.OracleView`:
what a router's decisions are held against.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from repro.core.masks import VirtualLinkTable
from repro.core.router import RouteDecision
from repro.errors import RoutingError
from repro.matching.compile import MatchResult
from repro.matching.events import Event
from repro.matching.predicates import Subscription
from repro.network.paths import RoutingTable
from repro.network.spanning import SpanningTree
from repro.network.topology import Topology
from tests.oracle.pst import ParallelSearchTree
from tests.oracle.view import OracleView


class OracleRouter:
    """The decisions a :class:`~repro.core.router.ContentRouter` on ``tree``
    must make: its owner inserts into and removes from ``tree``."""

    def __init__(
        self,
        topology: Topology,
        broker: str,
        routing_table: RoutingTable,
        spanning_trees: Mapping[str, SpanningTree],
        tree: ParallelSearchTree,
    ) -> None:
        self.broker = broker
        self.replica = tree
        self.links = VirtualLinkTable(topology, broker, routing_table, spanning_trees)
        self._view = OracleView(tree)
        self._view.bind_links(self.links.num_links, self._link_of_subscriber)

    @property
    def subscription_count(self) -> int:
        return len(self.replica)

    def add_subscription(self, subscription: Subscription) -> None:
        self.links.position_of(subscription.subscriber)

    def remove_subscription(self, subscription_id: int) -> None:
        pass

    def _link_of_subscriber(self, subscription: Subscription) -> int:
        try:
            return self.links.position_of(subscription.subscriber)
        except RoutingError:
            return -1

    def rebuild_links(
        self, routing_table: RoutingTable, spanning_trees: Mapping[str, SpanningTree]
    ) -> bool:
        changed = self.links.rebuild(routing_table, spanning_trees)
        if changed:
            self._view.bind_links(self.links.num_links, self._link_of_subscriber)
        return changed

    def route(self, event: Event, tree_root: str) -> RouteDecision:
        maybe_bits = self.links.initialization_bits(tree_root)
        final_yes, steps = self._view.match_links(event, 0, maybe_bits)
        forward_to, deliver_to = self.links.split(final_yes)
        return RouteDecision(
            self.broker, forward_to, deliver_to, steps, final_yes, self.links.num_links
        )

    def route_batch(self, events: Sequence[Event], tree_root: str) -> List[RouteDecision]:
        return [self.route(event, tree_root) for event in events]

    def match_locally(self, event: Event) -> MatchResult:
        return self.replica.match(event)
