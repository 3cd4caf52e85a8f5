"""The content-routed network fabric: all brokers' routers wired together.

:class:`ContentRoutedNetwork` is the *untimed* reference implementation of
the whole protocol: every broker routes on the full subscription set (per
Section 3.1: one shared replica, annotated per broker), and
:meth:`publish` walks an event hop by hop down the publisher's spanning
tree, asking each broker's :class:`~repro.core.router.ContentRouter` for
its route decision.

It returns a :class:`DeliveryTrace` recording exactly which clients received
the event, through which links, with how many matching steps per broker —
the raw material for both the correctness tests (delivery equivalence with
brute-force matching) and the Chart 2 experiment (cumulative steps per hop
count).  The discrete-event simulator of :mod:`repro.sim` layers queues and
latencies over the same route decisions.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.errors import RoutingError, TopologyError
from repro.core.router import ContentRouter, RouteDecision
from repro.matching.engines import create_matcher
from repro.matching.events import Event
from repro.matching.parser import parse_predicate
from repro.matching.predicates import Predicate, Subscription
from repro.matching.compile import MatchResult
from repro.matching.schema import AttributeValue, EventSchema
from repro.network.paths import RoutingTable, all_routing_tables
from repro.network.spanning import SpanningTree, spanning_trees_for_publishers
from repro.network.topology import NodeKind, Topology
from repro.obs import get_registry


class DeliveryTrace:
    """Everything that happened while routing one event.

    * ``deliveries`` — client name → broker-hop count (number of brokers on
      the path from the publishing broker to the client's broker, inclusive;
      a client on the publishing broker is 1 hop in Chart 2's terms).
    * ``broker_steps`` — broker → matching steps spent there (brokers that
      never saw the event are absent).
    * ``links_used`` — each broker-to-broker link the event crossed, as
      ``(from, to)`` pairs; client links are not included.
    * ``decisions`` — the per-broker :class:`RouteDecision`, for inspection.
    """

    __slots__ = ("event", "root", "deliveries", "broker_steps", "links_used", "decisions")

    def __init__(self, event: Event, root: str) -> None:
        self.event = event
        self.root = root
        self.deliveries: Dict[str, int] = {}
        self.broker_steps: Dict[str, int] = {}
        self.links_used: List[Tuple[str, str]] = []
        self.decisions: Dict[str, RouteDecision] = {}

    @property
    def delivered_clients(self) -> Set[str]:
        return set(self.deliveries)

    @property
    def total_steps(self) -> int:
        return sum(self.broker_steps.values())

    def cumulative_steps_to(self, client: str) -> int:
        """Chart 2's quantity: the sum of matching steps at every broker on
        the event's path from the publishing broker to ``client``."""
        if client not in self.deliveries:
            raise RoutingError(f"{client!r} did not receive this event")
        broker = self._broker_of(client)
        total = 0
        while True:
            total += self.broker_steps.get(broker, 0)
            parent = self._parent_broker(broker)
            if parent is None:
                return total
            broker = parent

    def _broker_of(self, client: str) -> str:
        for broker, decision in self.decisions.items():
            if client in decision.deliver_to:
                return broker
        raise RoutingError(f"no decision delivered to {client!r}")

    def _parent_broker(self, broker: str) -> Optional[str]:
        for source, target in self.links_used:
            if target == broker:
                return source
        return None

    def render_tree(self) -> str:
        """ASCII rendering of the multicast tree this event actually took.

        One line per broker, indented by depth, with its matching steps and
        local deliveries — handy in examples and postmortems::

            B0 [8 steps]
            +- c0
            +- B1 [5 steps]
               +- c1
        """
        children: Dict[str, List[str]] = {}
        for source, target in self.links_used:
            children.setdefault(source, []).append(target)
        lines: List[str] = []

        def walk(broker: str, indent: str) -> None:
            steps = self.broker_steps.get(broker, 0)
            lines.append(f"{indent}{broker} [{steps} steps]")
            decision = self.decisions.get(broker)
            child_indent = indent + "   "
            if decision is not None:
                for client in decision.deliver_to:
                    lines.append(f"{child_indent}+- {client}")
            for child in sorted(children.get(broker, [])):
                walk(child, child_indent)

        walk(self.root, "")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"DeliveryTrace({len(self.deliveries)} deliveries, "
            f"{self.total_steps} steps, {len(self.links_used)} broker links)"
        )


class ContentRoutedNetwork:
    """The full link-matching system over a topology (see module docstring).

    The matcher parameters are :func:`~repro.matching.engines.create_matcher`'s:
    they build the one subscription replica every broker's router views.
    """

    def __init__(
        self,
        topology: Topology,
        schema: EventSchema,
        *,
        attribute_order: Optional[Sequence[str]] = None,
        domains: Optional[Mapping[str, Sequence[AttributeValue]]] = None,
        factoring_attributes: Optional[Sequence[str]] = None,
    ) -> None:
        topology.validate()
        if not topology.publishers():
            raise TopologyError("the topology declares no publishers")
        self.topology = topology
        self.schema = schema
        self.routing_tables: Dict[str, RoutingTable] = all_routing_tables(topology)
        self.spanning_trees: Dict[str, SpanningTree] = spanning_trees_for_publishers(topology)
        self.replica = create_matcher(
            schema,
            attribute_order=attribute_order,
            domains=domains,
            factoring_attributes=factoring_attributes,
        )
        self.routers: Dict[str, ContentRouter] = {
            broker: ContentRouter(
                topology,
                broker,
                self.routing_tables[broker],
                self.spanning_trees,
                self.replica,
            )
            for broker in topology.brokers()
        }
        self._subscriptions: Dict[int, Subscription] = {}

    # ------------------------------------------------------------------
    # Subscription management (replicated to every broker)

    def subscribe(self, client: str, predicate: Union[Predicate, str]) -> Subscription:
        """Register a subscription for ``client`` (a subscriber node name).

        ``predicate`` may be a :class:`Predicate` or an expression string
        such as ``"issue='IBM' & price<120"``.
        """
        node = self.topology.node(client)
        if not node.kind.is_client:
            raise RoutingError(f"{client!r} is a broker; only clients subscribe")
        if isinstance(predicate, str):
            predicate = parse_predicate(self.schema, predicate)
        subscription = Subscription(predicate, client)
        self.replica.insert(subscription)
        for router in self.routers.values():
            router.add_subscription(subscription)
        self._subscriptions[subscription.subscription_id] = subscription
        return subscription

    def unsubscribe(self, subscription_id: int) -> Subscription:
        """Remove a subscription everywhere."""
        subscription = self._subscriptions.pop(subscription_id, None)
        if subscription is None:
            raise RoutingError(f"unknown subscription id {subscription_id}")
        self.replica.remove(subscription_id)
        for router in self.routers.values():
            router.remove_subscription(subscription_id)
        return subscription

    @property
    def subscriptions(self) -> List[Subscription]:
        return list(self._subscriptions.values())

    # ------------------------------------------------------------------
    # Publishing

    def publish(
        self, publisher: str, event: Union[Event, Mapping[str, AttributeValue]]
    ) -> DeliveryTrace:
        """Route one event from ``publisher`` through the network.

        Returns the full :class:`DeliveryTrace`.  The walk follows each
        broker's route decision; because decisions follow the publisher's
        spanning tree, every broker is visited at most once.
        """
        node = self.topology.node(publisher)
        if node.kind is not NodeKind.PUBLISHER:
            raise RoutingError(f"{publisher!r} is not a publisher client")
        if not isinstance(event, Event):
            event = Event(self.schema, event, publisher=publisher)
        root = self.topology.broker_of(publisher)
        if root not in self.spanning_trees:
            raise RoutingError(f"no spanning tree rooted at {root!r}")
        trace = DeliveryTrace(event, root)
        registry = get_registry()
        registry.counter("fabric.events_published").inc()
        frontier: List[Tuple[str, int]] = [(root, 1)]
        visited: Set[str] = set()
        while frontier:
            broker, hop = frontier.pop()
            if broker in visited:
                raise RoutingError(
                    f"broker {broker!r} visited twice — spanning tree violation"
                )
            visited.add(broker)
            decision = self.routers[broker].route(event, root)
            # Chart 2's quantity at its source: trit-mask refinement steps
            # spent at each hop distance from the publishing broker.
            registry.counter("fabric.refinement_steps", hop=str(hop)).inc(decision.steps)
            trace.decisions[broker] = decision
            trace.broker_steps[broker] = decision.steps
            for client in decision.deliver_to:
                trace.deliveries[client] = hop
                registry.counter("fabric.deliveries", hop=str(hop)).inc()
            for neighbor in decision.forward_to:
                trace.links_used.append((broker, neighbor))
                frontier.append((neighbor, hop + 1))
        return trace

    def publish_batch(
        self,
        publisher: str,
        events: Sequence[Union[Event, Mapping[str, AttributeValue]]],
    ) -> List[DeliveryTrace]:
        """Route a batch of events from ``publisher`` in one tree walk.

        Trace ``i`` is exactly ``publish(publisher, events[i])``.  The walk
        visits each broker once with the subset of events that reached it
        (a broker is only ever reached through its spanning-tree parent, so
        subsets never split across visits) and routes that subset through
        :meth:`ContentRouter.route_batch`, which amortizes refinement across
        events sharing tested-attribute projections.
        """
        if not events:
            return []
        node = self.topology.node(publisher)
        if node.kind is not NodeKind.PUBLISHER:
            raise RoutingError(f"{publisher!r} is not a publisher client")
        batch: List[Event] = [
            event
            if isinstance(event, Event)
            else Event(self.schema, event, publisher=publisher)
            for event in events
        ]
        root = self.topology.broker_of(publisher)
        if root not in self.spanning_trees:
            raise RoutingError(f"no spanning tree rooted at {root!r}")
        traces = [DeliveryTrace(event, root) for event in batch]
        registry = get_registry()
        registry.counter("fabric.events_published").inc(len(batch))
        # Frontier entries carry (broker, hop, indices of events that reached
        # it); forwarding splits the subset by next-hop neighbor.
        frontier: List[Tuple[str, int, List[int]]] = [(root, 1, list(range(len(batch))))]
        visited: Set[str] = set()
        while frontier:
            broker, hop, indices = frontier.pop()
            if broker in visited:
                raise RoutingError(
                    f"broker {broker!r} visited twice — spanning tree violation"
                )
            visited.add(broker)
            decisions = self.routers[broker].route_batch(
                [batch[i] for i in indices], root
            )
            by_neighbor: Dict[str, List[int]] = {}
            for i, decision in zip(indices, decisions):
                trace = traces[i]
                registry.counter("fabric.refinement_steps", hop=str(hop)).inc(
                    decision.steps
                )
                trace.decisions[broker] = decision
                trace.broker_steps[broker] = decision.steps
                for client in decision.deliver_to:
                    trace.deliveries[client] = hop
                    registry.counter("fabric.deliveries", hop=str(hop)).inc()
                for neighbor in decision.forward_to:
                    trace.links_used.append((broker, neighbor))
                    group = by_neighbor.get(neighbor)
                    if group is None:
                        by_neighbor[neighbor] = [i]
                    else:
                        group.append(i)
            for neighbor, group in by_neighbor.items():
                frontier.append((neighbor, hop + 1, group))
        return traces

    def centralized_match(
        self, publisher: str, event: Union[Event, Mapping[str, AttributeValue]]
    ) -> MatchResult:
        """The Section 2 alternative: one full match at the publishing broker
        (the "centralized" line of Chart 2 and the first stage of the
        match-first baseline)."""
        if not isinstance(event, Event):
            event = Event(self.schema, event, publisher=publisher)
        root = self.topology.broker_of(publisher)
        return self.routers[root].match_locally(event)

    def would_deliver(
        self, publisher: str, event: Union[Event, Mapping[str, AttributeValue]]
    ) -> bool:
        """Quenching (as in Elvin, the paper's related work): would this
        event reach any subscriber at all?

        The publisher's broker answers with one link-matching pass — if no
        link resolves to Yes there, no broker downstream would have said
        otherwise (delivery equivalence), so the publisher can *quench* the
        event before paying to marshal and send it.
        """
        if not isinstance(event, Event):
            event = Event(self.schema, event)
        root = self.topology.broker_of(publisher)
        decision = self.routers[root].route(event, root)
        return bool(decision.forward_to or decision.deliver_to)

    def expected_recipients(self, event: Union[Event, Mapping[str, AttributeValue]]) -> Set[str]:
        """Ground truth for tests: subscribers whose predicate matches,
        evaluated brute force against the replicated subscription set."""
        if not isinstance(event, Event):
            event = Event(self.schema, event)
        return {
            s.subscriber for s in self._subscriptions.values() if s.predicate.matches(event)
        }

    def __repr__(self) -> str:
        return (
            f"ContentRoutedNetwork({len(self.routers)} brokers, "
            f"{len(self._subscriptions)} subscriptions, "
            f"{len(self.spanning_trees)} spanning trees)"
        )
