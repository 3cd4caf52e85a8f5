"""Protocol interface shared by link matching and the baselines.

A routing protocol answers one question, per broker, per message: *what does
this broker do with this message?*  The answer is a :class:`Decision`:
messages to send to neighbor brokers, clients to hand the event to, and the
work profile (matching steps, destination-list entries) the cost model
charges for.

The simulator (:mod:`repro.sim`) owns queues, service times and link
latencies; protocols are pure decision logic, so the same implementations
also back the untimed traces used in tests.
"""

from __future__ import annotations

import abc
import itertools
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.matching.digest import MatchDigest
from repro.matching.events import Event
from repro.matching.predicates import Subscription
from repro.matching.schema import AttributeValue, EventSchema
from repro.network.paths import RoutingTable, all_routing_tables
from repro.network.spanning import SpanningTree, spanning_trees_for_publishers
from repro.network.topology import Topology


class TopologyRepair:
    """What a :meth:`ProtocolContext.repair_topology` pass actually changed.

    ``tree_changes`` maps each spanning-tree root to the nodes whose tree
    position changed; ``routing_changes`` maps each broker to the
    destinations its routing table rerouted (or lost/gained);
    ``joined_brokers`` are brokers that appeared since the last repair.
    Protocols use this to rebuild only the per-broker state the repair can
    have invalidated.
    """

    __slots__ = ("tree_changes", "routing_changes", "joined_brokers")

    def __init__(
        self,
        tree_changes: Dict[str, FrozenSet[str]],
        routing_changes: Dict[str, FrozenSet[str]],
        joined_brokers: Tuple[str, ...],
    ) -> None:
        self.tree_changes = tree_changes
        self.routing_changes = routing_changes
        self.joined_brokers = joined_brokers

    @property
    def changed(self) -> bool:
        return bool(self.tree_changes or self.routing_changes or self.joined_brokers)

    def __repr__(self) -> str:
        return (
            f"TopologyRepair({len(self.tree_changes)} trees, "
            f"{len(self.routing_changes)} tables, "
            f"joined={list(self.joined_brokers)!r})"
        )

_message_ids = itertools.count(1)


class SimMessage:
    """A message in flight between brokers.

    ``root`` names the spanning tree the event travels on (the publisher's
    broker).  ``destinations`` is only used by the match-first baseline (the
    destination list carried in the header).  ``publish_time_ticks`` is
    stamped by the simulator for latency accounting.  ``replay_for`` marks a
    replayed copy of a message lost to a failure: the set of destinations the
    failed element was responsible for, which restricts routing at every hop
    so already-served subtrees are not traversed again (see
    :mod:`repro.sim.faults`).  ``digest`` is the optional match-once
    forwarding summary minted by the publisher's broker (see
    :class:`~repro.matching.digest.MatchDigest`); ``None`` means classic
    per-hop matching — fully backward compatible.
    """

    __slots__ = (
        "message_id",
        "event",
        "root",
        "destinations",
        "publish_time_ticks",
        "hop",
        "replay_for",
        "digest",
    )

    def __init__(
        self,
        event: Event,
        root: str,
        *,
        destinations: Optional[Tuple[str, ...]] = None,
        publish_time_ticks: int = 0,
        hop: int = 0,
        replay_for: Optional[FrozenSet[str]] = None,
        digest: Optional[MatchDigest] = None,
    ) -> None:
        self.message_id = next(_message_ids)
        self.event = event
        self.root = root
        self.destinations = destinations
        self.publish_time_ticks = publish_time_ticks
        self.hop = hop
        self.replay_for = replay_for
        self.digest = digest

    def forwarded(self, *, destinations: Optional[Tuple[str, ...]] = None) -> "SimMessage":
        """A copy to send one hop further (a replay restriction and any
        match digest ride along)."""
        return SimMessage(
            self.event,
            self.root,
            destinations=destinations if destinations is not None else self.destinations,
            publish_time_ticks=self.publish_time_ticks,
            hop=self.hop + 1,
            replay_for=self.replay_for,
            digest=self.digest,
        )

    @property
    def header_entries(self) -> int:
        """Destination-list length (0 when the protocol carries none)."""
        return len(self.destinations) if self.destinations is not None else 0

    #: Fixed framing + routing header cost, and per-value / per-destination
    #: wire sizes.  Rough but consistent across protocols, which is all the
    #: comparisons need.
    BASE_HEADER_BYTES = 24
    BYTES_PER_VALUE = 8
    BYTES_PER_DESTINATION = 12

    @property
    def wire_size_bytes(self) -> int:
        """Estimated on-the-wire size of this message.

        Match-first's destination lists show up here: its headers grow by
        :data:`BYTES_PER_DESTINATION` per carried destination, which is the
        cost the paper says "makes the approach impractical" at thousands of
        subscribers.
        """
        size = (
            self.BASE_HEADER_BYTES
            + self.BYTES_PER_VALUE * len(self.event.schema)
            + self.BYTES_PER_DESTINATION * self.header_entries
        )
        if self.digest is not None:
            # Match-once forwarding is not free on the wire: the digest's
            # encoded size (id list or dense bitmap, whichever is smaller)
            # is charged so bandwidth comparisons stay honest.
            size += self.digest.encoded_size_bytes
        return size

    def __repr__(self) -> str:
        return (
            f"SimMessage(#{self.message_id}, root={self.root!r}, hop={self.hop}, "
            f"header={self.header_entries})"
        )


class Decision:
    """A broker's answer for one message (see module docstring).

    ``deliveries`` are the clients the broker sends the event to;
    ``matched_deliveries`` the subset that actually subscribed to it (they
    differ only under pure flooding, where clients filter for themselves).
    """

    __slots__ = (
        "sends",
        "deliveries",
        "matched_deliveries",
        "matching_steps",
        "destination_entries",
    )

    def __init__(
        self,
        *,
        sends: Optional[List[Tuple[str, SimMessage]]] = None,
        deliveries: Optional[List[str]] = None,
        matched_deliveries: Optional[List[str]] = None,
        matching_steps: int = 0,
        destination_entries: int = 0,
    ) -> None:
        self.sends = sends if sends is not None else []
        self.deliveries = deliveries if deliveries is not None else []
        self.matched_deliveries = (
            matched_deliveries if matched_deliveries is not None else list(self.deliveries)
        )
        self.matching_steps = matching_steps
        self.destination_entries = destination_entries

    @property
    def send_count(self) -> int:
        return len(self.sends) + len(self.deliveries)

    def __repr__(self) -> str:
        return (
            f"Decision({len(self.sends)} forwards, {len(self.deliveries)} deliveries, "
            f"{self.matching_steps} steps)"
        )


class ProtocolContext:
    """Everything a protocol needs to build its per-broker state: the
    topology, the event schema, the global subscription set, spanning trees,
    routing tables, and the matcher configuration knobs."""

    def __init__(
        self,
        topology: Topology,
        schema: EventSchema,
        subscriptions: Sequence[Subscription],
        *,
        attribute_order: Optional[Sequence[str]] = None,
        domains: Optional[Mapping[str, Sequence[AttributeValue]]] = None,
        factoring_attributes: Optional[Sequence[str]] = None,
    ) -> None:
        topology.validate()
        self.topology = topology
        self.schema = schema
        self.subscriptions = list(subscriptions)
        self.attribute_order = attribute_order
        self.domains = domains
        self.factoring_attributes = factoring_attributes
        self.routing_tables: Dict[str, RoutingTable] = all_routing_tables(topology)
        self.spanning_trees: Dict[str, SpanningTree] = spanning_trees_for_publishers(topology)

    @property
    def matcher_options(self) -> dict:
        """The matcher configuration, as the keyword arguments
        :func:`~repro.matching.engines.create_matcher` takes."""
        return dict(
            attribute_order=self.attribute_order,
            domains=self.domains,
            factoring_attributes=self.factoring_attributes,
        )

    def tree_children(self, broker: str, root: str) -> List[str]:
        """Broker children of ``broker`` in the spanning tree of ``root``."""
        tree = self.spanning_trees.get(root)
        if tree is None:
            raise SimulationError(f"no spanning tree rooted at {root!r}")
        return [
            child
            for child in tree.children.get(broker, [])
            if child in self.topology and not self.topology.node(child).kind.is_client
        ]

    def repair_topology(self) -> TopologyRepair:
        """Incrementally repair spanning trees and routing tables after the
        topology was mutated (failure, recovery, join, leave).

        Every cached structure is patched rather than rebuilt: trees via
        :meth:`SpanningTree.repair`, tables via :meth:`RoutingTable.repair`.
        Brokers that appeared get fresh tables (and fresh trees when they
        host publishers); the report tells protocols what changed so they
        can limit mask/annotation rebuilds to affected brokers.
        """
        tree_changes: Dict[str, FrozenSet[str]] = {}
        for root, tree in self.spanning_trees.items():
            changed = tree.repair()
            if changed:
                tree_changes[root] = changed
        for publisher in self.topology.publishers():
            root = self.topology.broker_of(publisher)
            if root not in self.spanning_trees:
                tree = SpanningTree(self.topology, root, partial=True)
                self.spanning_trees[root] = tree
                tree_changes[root] = tree.covered
        routing_changes: Dict[str, FrozenSet[str]] = {}
        for broker, table in self.routing_tables.items():
            changed = table.repair()
            if changed:
                routing_changes[broker] = changed
        joined = tuple(
            broker
            for broker in self.topology.brokers()
            if broker not in self.routing_tables
        )
        for broker in joined:
            self.routing_tables[broker] = RoutingTable(self.topology, broker)
        return TopologyRepair(tree_changes, routing_changes, joined)


class RoutingProtocol(abc.ABC):
    """Decision logic for one multicast strategy."""

    #: Short name used in logs and experiment tables.
    name: str = "abstract"

    #: Whether the protocol implements the fault hooks below — the fault
    #: coordinator refuses to inject failures into protocols that don't.
    supports_faults: bool = False

    def __init__(self, context: ProtocolContext) -> None:
        self.context = context

    # ------------------------------------------------------------------
    # Fault hooks (see repro.sim.faults)

    def on_topology_repaired(self, repair: "TopologyRepair") -> List[str]:
        """React to a topology repair; returns the brokers whose routing
        state (masks/annotations) actually changed — those brokers are the
        candidates for a stale window with flood fallback."""
        raise SimulationError(
            f"protocol {self.name!r} does not support topology repair"
        )

    def set_stale(self, broker: str, stale: bool) -> None:
        """Mark a broker's annotations stale (repair known, annotations not
        yet rebuilt).  Protocols without an annotation concept ignore it."""

    def add_subscription(self, subscription: Subscription) -> None:
        """Register a subscription at runtime (thundering herds, joins)."""
        raise SimulationError(
            f"protocol {self.name!r} does not support runtime subscriptions"
        )

    def make_message(self, event: Event, root: str, publish_time_ticks: int = 0) -> SimMessage:
        """The initial message injected at the publishing broker."""
        return SimMessage(event, root, publish_time_ticks=publish_time_ticks)

    @abc.abstractmethod
    def handle(self, broker: str, message: SimMessage) -> Decision:
        """Decide what ``broker`` does with ``message``."""

    def handle_batch(self, broker: str, messages: Sequence[SimMessage]) -> List[Decision]:
        """Decide what ``broker`` does with each message of a batch.

        Decision ``i`` is exactly ``handle(broker, messages[i])``.  This base
        fallback loops; protocols whose matchers have real batch kernels
        (link matching, flooding) override it to amortize matching across
        the batch.
        """
        return [self.handle(broker, message) for message in messages]

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
