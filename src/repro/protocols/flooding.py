"""The flooding baseline.

"The message is broadcast or flooded to all destinations using standard
multicast technology and unwanted messages are filtered out at these
destinations."

Every broker forwards every event to all of its spanning-tree children,
unconditionally, and sends it to *every* attached subscriber; clients filter
for themselves.  The broker pays a send per client; ``matched_deliveries``
records which clients actually wanted the event so metrics can count useful
vs wasted traffic.  Every broker in the network processes every event — which
is exactly why flooding saturates first in Chart 1.
"""

from __future__ import annotations

from typing import Dict, List

from repro.matching.base import MatcherEngine
from repro.matching.compile import MatchResult
from repro.matching.engines import create_matcher, view_of
from repro.obs import get_registry
from repro.protocols.base import Decision, ProtocolContext, RoutingProtocol, SimMessage


class FloodingProtocol(RoutingProtocol):
    """Flood the spanning tree; the clients filter."""

    name = "flooding"
    supports_faults = True

    def __init__(self, context: ProtocolContext) -> None:
        super().__init__(context)
        obs = get_registry().scope("protocol.flooding")
        self._obs_handled = obs.counter("events_handled")
        self._obs_deliveries = obs.counter("deliveries")
        self._obs_wasted = obs.counter("wasted_deliveries")
        # Per-broker matcher over the subscriptions of *locally attached*
        # clients only: flooding needs no global knowledge, that is its one
        # virtue.
        self._local_trees: Dict[str, MatcherEngine] = {}
        topology = context.topology
        for broker in topology.brokers():
            self._local_trees[broker] = self._make_local_tree()
        self._subscriber_names = frozenset(topology.subscribers())
        client_broker = {client: topology.broker_of(client) for client in topology.clients()}
        for subscription in context.subscriptions:
            broker = client_broker.get(subscription.subscriber)
            if broker is None:
                continue
            self._local_trees[broker].insert(subscription)

    def _make_local_tree(self) -> MatcherEngine:
        context = self.context
        return view_of(
            create_matcher(
                context.schema,
                attribute_order=context.attribute_order,
                domains=context.domains,
            )
        )

    def on_topology_repaired(self, repair) -> List[str]:
        """Flooding reads the (already repaired) trees directly; only a
        joined broker needs fresh local state."""
        for broker in repair.joined_brokers:
            self._local_trees[broker] = self._make_local_tree()
        self._subscriber_names = frozenset(self.context.topology.subscribers())
        return []

    def add_subscription(self, subscription) -> None:
        """Flooding filters locally, so only the subscriber's broker cares."""
        broker = self.context.topology.broker_of(subscription.subscriber)
        self._local_trees[broker].insert(subscription)

    def handle(self, broker: str, message: SimMessage) -> Decision:
        local = self._local_trees[broker].match(message.event)
        return self._decision_for(broker, message, local)

    def _decision_for(
        self, broker: str, message: SimMessage, local: MatchResult
    ) -> Decision:
        children = self.context.tree_children(broker, message.root)
        sends = [(child, message.forwarded()) for child in children]
        matched_clients = sorted(local.subscribers)
        # The broker sends to every subscriber client and the clients filter
        # for themselves, so the broker is charged no matching steps (the
        # local match above is only bookkeeping for the useful-traffic
        # metrics).
        deliveries = [
            client
            for client in self.context.topology.clients_of(broker)
            if client in self._subscriber_names
        ]
        self._obs_handled.inc()
        self._obs_deliveries.inc(len(deliveries))
        self._obs_wasted.inc(len(deliveries) - len(matched_clients))
        return Decision(
            sends=sends,
            deliveries=deliveries,
            matched_deliveries=matched_clients,
            matching_steps=0,
        )
