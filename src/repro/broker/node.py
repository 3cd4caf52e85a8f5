"""The prototype broker node (Section 4.2, Figure 7).

A :class:`BrokerNode` assembles the components the paper diagrams:

* **matching engine** — the node's own subscription replica
  (:func:`~repro.matching.engines.create_matcher`) and the link-matching
  :class:`~repro.core.router.ContentRouter` over it, so inter-broker
  forwarding is content-routed exactly as in Section 3; subscriptions are
  parsed on arrival and events decoded by :mod:`repro.broker.codec`;
* **client protocol** — CONNECT/SUBSCRIBE/PUBLISH/EVENT/ACK handling with a
  per-client :class:`~repro.broker.event_log.EventLog` for reliable
  redelivery across disconnects, plus a garbage collector for acked entries;
* **broker protocol** — BROKER_HELLO handshakes, flooded subscription
  propagation (every broker keeps a full copy of the subscription set, as
  Section 3.1 requires), and BROKER_EVENT forwarding along spanning trees;
  a forward to a neighbor whose link is down is parked and sent when the
  link comes back (Section 4.2's "transient failures of connections");
* **connection manager** — tracks broker and client connections, dials
  neighbor brokers at startup (the lexicographically smaller name dials, so
  each topology link maps to exactly one TCP connection);
* **transport** — any :class:`~repro.broker.transport.Transport`
  (in-memory for tests, TCP for real deployments).

The broker network's shape is static configuration
(:class:`BrokerNetworkConfig` wraps the topology, routing tables and
spanning trees), matching the paper's "brokers are connected using a
specified topology"; clients are *declared* in the topology and attach by
name.
"""

from __future__ import annotations

import itertools
import sys
import threading
from collections import deque
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import (
    ConnectionClosedError,
    PredicateError,
    ProtocolError,
    RoutingError,
    SubscriptionError,
    TransportError,
)
from repro.broker import messages as wire
from repro.broker.codec import decode_event
from repro.broker.event_log import EventLog
from repro.broker.transport import Connection, Listener, Transport
from repro.core.router import ContentRouter
from repro.matching.digest import MatchDigest
from repro.matching.engines import create_matcher
from repro.matching.parser import parse_predicate
from repro.matching.predicates import Subscription
from repro.matching.schema import AttributeValue, EventSchema
from repro.network.paths import RoutingTable, all_routing_tables
from repro.network.spanning import SpanningTree, spanning_trees_for_publishers
from repro.network.topology import Topology
from repro.obs import get_registry

_global_subscription_ids = itertools.count(1_000_000)


def _try_send(connection: Connection, payload: bytes) -> bool:
    """Send ``payload``; ``False`` when the connection closed under the
    caller.  A close on another thread (a TCP receiver or sender) can land
    between a caller's ``is_open`` check and its send; its close
    notification follows, so the caller treats the link as down."""
    try:
        connection.send(payload)
    except ConnectionClosedError:
        return False
    return True


def _send_message(connection: Connection, message: object) -> bool:
    """Encode ``message`` and :func:`_try_send` it."""
    return _try_send(connection, wire.encode_message(message))


class BrokerNetworkConfig:
    """Shared static configuration for a prototype broker network."""

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
            raise RoutingError("the topology declares no publishers")
        self.topology = topology
        self.schema = schema
        self.attribute_order = attribute_order
        self.domains = domains
        self.factoring_attributes = factoring_attributes
        self.routing_tables: Dict[str, RoutingTable] = all_routing_tables(topology)
        self.spanning_trees: Dict[str, SpanningTree] = spanning_trees_for_publishers(topology)


class ClientSession:
    """Broker-side state for one declared client: its event log (which
    outlives connections) and the live connection, when any."""

    __slots__ = ("name", "log", "connection")

    def __init__(self, name: str, log: Optional[object] = None) -> None:
        self.name = name
        self.log = log if log is not None else EventLog(name)
        self.connection: Optional[Connection] = None

    @property
    def is_connected(self) -> bool:
        return self.connection is not None and self.connection.is_open

    def __repr__(self) -> str:
        return f"ClientSession({self.name!r}, connected={self.is_connected})"


class BrokerNode:
    """One prototype broker (see module docstring).

    Lifecycle: construct, :meth:`start` (listens and dials neighbors), use,
    :meth:`stop`.  All message handling is serialized under one lock, so the
    node is safe under the TCP transport's receiver threads.
    """

    def __init__(
        self,
        config: BrokerNetworkConfig,
        name: str,
        transport: Transport,
        endpoints: Mapping[str, str],
        *,
        gc_interval_acks: int = 64,
        log_directory: Optional[str] = None,
        ingest_batch_size: int = 64,
    ) -> None:
        if name not in config.topology.brokers():
            raise ProtocolError(f"{name!r} is not a broker in the topology")
        if ingest_batch_size < 1:
            raise ProtocolError("ingest_batch_size must be >= 1")
        self.config = config
        self.name = name
        self.transport = transport
        # Kept by reference on purpose: when several nodes share one mapping
        # and listen on ephemeral ports ("host:0"), each node publishes its
        # actual bound port back into the shared mapping at start().
        self.endpoints = endpoints if isinstance(endpoints, dict) else dict(endpoints)
        # A private replica: brokers are separate processes in principle.
        # The node inserts and removes; its router is only told.
        self.replica = create_matcher(
            config.schema,
            attribute_order=config.attribute_order,
            domains=config.domains,
            factoring_attributes=config.factoring_attributes,
        )
        self.router = ContentRouter(
            config.topology,
            name,
            config.routing_tables[name],
            config.spanning_trees,
            self.replica,
        )
        #: When set, per-client event logs are persisted under this
        #: directory (one subdirectory per broker), so reliable redelivery
        #: also survives broker restarts — see
        #: :class:`repro.broker.persistent_log.FileEventLog`.
        self.log_directory = log_directory
        self._lock = threading.RLock()
        self._listener: Optional[Listener] = None
        self._broker_connections: Dict[str, Connection] = {}
        #: Every live broker connection, dialled or announced by a
        #: BROKER_HELLO, to its neighbour's name (after a re-dial a link can
        #: have two), and the only ones broker-protocol messages are taken
        #: from.  Each was greeted (hello + resync) once: no hello ping-pong.
        self._broker_peers: Dict[Connection, str] = {}
        #: Neighbour -> its forwards that found the link down, one root ->
        #: batch map per ingest batch, digests stripped: the neighbour owes
        #: its (static) subtree and routes a replay with its own replica.
        self._parked: Dict[str, List[Dict[str, List[Tuple[str, bytes, None]]]]] = {}
        self._sessions: Dict[str, ClientSession] = {}
        #: Live client connection -> its session (``session.connection`` is
        #: the key); what PUBLISH/SUBSCRIBE/ACK look their sender up in.
        self._session_of: Dict[Connection, ClientSession] = {}
        #: Subscriber of every subscription this broker holds, by id: flood
        #: deduplication, and who may UNSUBSCRIBE what.
        self._subscriber_of: Dict[int, str] = {}
        self._gc_interval_acks = max(1, gc_interval_acks)
        self._acks_since_gc = 0
        #: Pending (event_data, root, publisher) triples awaiting routing;
        #: drained in batches of up to ``ingest_batch_size`` through the
        #: router's batched matching path.
        self.ingest_batch_size = ingest_batch_size
        self._ingest: Deque[Tuple[bytes, str, str, Optional[MatchDigest]]] = deque()
        self._draining = False
        self.events_routed = 0
        self.events_delivered = 0
        # Observability mirrors of the dashboard counters (no-ops unless the
        # global registry is enabled before the node is constructed).
        obs = get_registry().scope("broker")
        self._obs_routed = obs.counter("events_routed", broker=name)
        self._obs_delivered = obs.counter("events_delivered", broker=name)
        self._obs_subscribes = obs.counter("subscriptions_added", broker=name)
        self._obs_unsubscribes = obs.counter("subscriptions_removed", broker=name)
        self._obs_ingest_batches = obs.counter("ingest_batches", broker=name)
        self._obs_coalesced_sends = obs.counter("coalesced_sends", broker=name)
        self._obs_forwards_parked = obs.counter("forwards_parked", broker=name)
        self._obs_forwards_replayed = obs.counter("forwards_replayed", broker=name)
        self._obs_events_rejected = obs.counter("events_rejected", broker=name)

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self) -> None:
        """Listen on this broker's endpoint and dial neighbor brokers.

        Only the lexicographically smaller broker of each link dials, so
        every topology link yields exactly one connection.
        """
        endpoint = self.endpoints.get(self.name)
        if endpoint is None:
            raise TransportError(f"no endpoint configured for broker {self.name!r}")
        self._listener = self.transport.listen(endpoint, self._on_accept)
        bound_port = getattr(self._listener, "port", None)
        if bound_port is not None and endpoint.endswith(":0"):
            self.endpoints[self.name] = f"{endpoint[: -len(':0')]}:{bound_port}"

    def connect_neighbors(self) -> None:
        """Dial broker neighbors this node is responsible for.  Separate from
        :meth:`start` so a whole network can listen first, then dial."""
        for neighbor in self.config.topology.broker_neighbors(self.name):
            if self.name < neighbor:
                self.dial_broker(neighbor)

    def stop(self) -> None:
        with self._lock:
            if self._listener is not None:
                self._listener.close()
                self._listener = None
            for connection in list(self._broker_peers):
                connection.close()
            self._broker_connections.clear()
            self._broker_peers.clear()
            self._session_of.clear()
            for session in self._sessions.values():
                if session.connection is not None:
                    session.connection.close()
                    session.connection = None
                close = getattr(session.log, "close", None)
                if close is not None:
                    close()

    def dial_broker(self, neighbor: str) -> None:
        """Open (or re-open) the connection to a neighbor broker.

        Used at startup for the neighbors this node is responsible for, and
        by operators after a neighbor restart or a lost link (a restarted
        broker has lost its connections *and* its subscription state; the
        hello handshake triggers a full subscription resync from the peer —
        see :meth:`_handle_broker_hello`).  After the hello and the sync,
        the forwards parked while the link was down follow on it.
        """
        endpoint = self.endpoints.get(neighbor)
        if endpoint is None:
            raise TransportError(f"no endpoint configured for broker {neighbor!r}")
        connection = self.transport.connect(endpoint)
        connection.on_message = lambda payload: self._on_payload(connection, payload)
        connection.on_close = lambda: self._on_connection_closed(connection)
        connection.start()
        with self._lock:
            self._broker_connections[neighbor] = connection
            self._broker_peers[connection] = neighbor
            self._greet(connection)
            self._replay_parked(neighbor)

    # ------------------------------------------------------------------
    # Connection management

    def _on_accept(self, connection: Connection) -> None:
        # The peer identifies itself with its first message (BrokerHello or
        # Connect); until then the connection is anonymous.
        connection.on_message = lambda payload: self._on_payload(connection, payload)
        connection.on_close = lambda: self._on_connection_closed(connection)
        connection.start()

    def _on_connection_closed(self, connection: Connection) -> None:
        with self._lock:
            neighbor = self._broker_peers.pop(connection, None)
            if neighbor is not None and self._broker_connections.get(neighbor) is connection:
                # The link passes to another open connection of that
                # neighbour; the entry goes with the last one.
                del self._broker_connections[neighbor]
                for other, name in self._broker_peers.items():
                    if name == neighbor and other.is_open:
                        self._broker_connections[neighbor] = other
                self._replay_parked(neighbor)
            session = self._session_of.pop(connection, None)
            if session is not None:
                session.connection = None  # log is kept for redelivery

    def _session_for(self, client_name: str) -> ClientSession:
        session = self._sessions.get(client_name)
        if session is None:
            log = None
            if self.log_directory is not None:
                from repro.broker.persistent_log import FileEventLog

                import os.path

                log = FileEventLog(
                    client_name, os.path.join(self.log_directory, self.name)
                )
            session = ClientSession(client_name, log)
            self._sessions[client_name] = session
        return session

    # ------------------------------------------------------------------
    # Message dispatch

    def _on_payload(self, connection: Connection, payload: bytes) -> None:
        message = wire.decode_message(payload)
        with self._lock:
            self._dispatch(connection, message)

    def _dispatch(self, connection: Connection, message: object) -> None:
        handler = self._HANDLERS.get(type(message))
        if handler is None:
            raise ProtocolError(f"broker cannot handle {type(message).__name__}")
        handler(self, connection, message)

    # ------------------------------------------------------------------
    # Client protocol

    def _handle_connect(self, connection: Connection, message: wire.Connect) -> None:
        name = message.client_name
        node = self.config.topology.node(name) if name in self.config.topology else None
        if node is None or not node.kind.is_client:
            _send_message(connection, wire.ErrorReply(0, f"unknown client {name!r}"))
            connection.close()
            return
        if self.config.topology.broker_of(name) != self.name:
            reason = f"{name!r} is not attached to broker {self.name!r}"
            _send_message(connection, wire.ErrorReply(0, reason))
            connection.close()
            return
        session = self._session_for(name)
        replaced = session.connection
        if replaced is not None:
            # Closed from this side, so no close notification may come to
            # unmap it.
            self._session_of.pop(replaced, None)
            if replaced.is_open:
                replaced.close()
        session.connection = connection
        self._session_of[connection] = session
        session.log.ack(min(message.last_seq, session.log.last_seq))
        # A client gone again mid-backlog finds the rest in its log next time.
        backlog = session.log.entries_after(message.last_seq)
        if not _send_message(connection, wire.ConnAck(self.name, len(backlog))):
            return
        for seq, event_data in backlog:
            if not _send_message(connection, wire.EventDelivery(seq, event_data)):
                return

    def _handle_subscribe(self, connection: Connection, message: wire.Subscribe) -> None:
        session = self._session_of.get(connection)
        if session is None:
            _send_message(connection, wire.ErrorReply(message.request_id, "not connected"))
            return
        client = session.name
        try:
            predicate = parse_predicate(self.config.schema, message.expression)
            if not predicate.is_satisfiable:  # the router would refuse it
                raise PredicateError(f"unsatisfiable predicate {message.expression!r}")
        except Exception as exc:  # parse/predicate errors go back to the client
            _send_message(connection, wire.ErrorReply(message.request_id, str(exc)))
            return
        subscription_id = next(_global_subscription_ids)
        subscription = Subscription(predicate, client, subscription_id=subscription_id)
        self.replica.insert(subscription)
        self.router.add_subscription(subscription)
        self._obs_subscribes.inc()
        self._subscriber_of[subscription_id] = client
        self._flood_to_brokers(
            wire.SubPropagate(subscription_id, client, message.expression, self.name),
            exclude=None,
        )
        _send_message(connection, wire.SubAck(message.request_id, subscription_id))

    def _handle_unsubscribe(self, connection: Connection, message: wire.Unsubscribe) -> None:
        session = self._session_of.get(connection)
        if session is None:
            _send_message(connection, wire.ErrorReply(message.request_id, "not connected"))
            return
        # Ownership is settled before anything mutates: a refusal must leave
        # the router, and with it the digest epoch, exactly as it was.
        owner = self._subscriber_of.get(message.subscription_id)
        if owner != session.name:
            reason = (
                f"unknown subscription id {message.subscription_id}"
                if owner is None
                else "not your subscription"
            )
            _send_message(connection, wire.ErrorReply(message.request_id, reason))
            return
        del self._subscriber_of[message.subscription_id]
        self.replica.remove(message.subscription_id)
        self.router.remove_subscription(message.subscription_id)
        self._obs_unsubscribes.inc()
        self._flood_to_brokers(
            wire.UnsubPropagate(message.subscription_id, self.name), exclude=None
        )
        _send_message(connection, wire.UnsubAck(message.request_id, message.subscription_id))

    def _publisher_of(self, connection: Connection) -> Optional[str]:
        """The client publishing on ``connection`` (``None``, after an error
        reply, when it may not publish here)."""
        session = self._session_of.get(connection)
        if session is None:
            reason = "not connected"
        elif self.name not in self.config.spanning_trees:
            reason = f"broker {self.name!r} hosts no declared publisher"
        else:
            return session.name
        _send_message(connection, wire.ErrorReply(0, reason))
        return None

    def _handle_publish(self, connection: Connection, message: wire.Publish) -> None:
        client = self._publisher_of(connection)
        if client is not None:
            self._ingest.append((message.event_data, self.name, client, None))
            self._drain_ingest()

    def _handle_publish_batch(
        self, connection: Connection, message: wire.PublishBatch
    ) -> None:
        client = self._publisher_of(connection)
        if client is not None:
            for event_data in message.events:
                self._ingest.append((event_data, self.name, client, None))
            self._drain_ingest()

    def _handle_ack(self, connection: Connection, message: wire.Ack) -> None:
        session = self._session_of.get(connection)
        if session is None:
            return
        session.log.ack(message.seq)
        self._acks_since_gc += 1
        if self._acks_since_gc >= self._gc_interval_acks:
            self.collect_garbage()

    def _handle_disconnect(self, connection: Connection, _message: wire.Disconnect) -> None:
        session = self._session_of.pop(connection, None)
        if session is not None:
            session.connection = None
        connection.close()

    # ------------------------------------------------------------------
    # Broker protocol

    def _handle_broker_hello(self, connection: Connection, message: wire.BrokerHello) -> None:
        """Register the peer and resync it.

        The hello may come from a broker that just (re)started with empty
        state, so we push our full subscription copy as individual
        SUB_PROPAGATE messages; the id-based flood deduplication makes the
        sync idempotent for peers that already know them.

        Each connection is greeted (hello + resync) at most once per side:
        the dialer greets when dialing, the acceptor greets on the first
        hello it sees.  Without that cap, two brokers dialing each other
        would answer each other's answers forever.

        A neighbour's open link keeps its connection; a newcomer is a peer
        all the same (a restart needs that) and takes over when it closes.
        A connection that becomes the link carries the forwards parked while
        the link was down, after our own hello and sync.

        Refused (:class:`ProtocolError`) on a client's connection, on one
        already named otherwise, and from a name that is not a topology
        neighbor of this broker.
        """
        name = message.broker_name
        if (
            connection in self._session_of
            or self._broker_peers.get(connection, name) != name
            or name not in self.config.topology.broker_neighbors(self.name)
        ):
            raise ProtocolError(f"BROKER_HELLO from {name!r} refused")
        mapped = self._broker_connections.get(name)
        if mapped is None or not mapped.is_open:
            self._broker_connections[name] = connection
        if connection not in self._broker_peers:
            self._broker_peers[connection] = name
            self._greet(connection)
        self._replay_parked(name)

    def _greet(self, connection: Connection) -> None:
        """Our hello, then our whole subscription set as SUB_PROPAGATEs;
        stops at a send that finds the link down."""
        if not _send_message(connection, wire.BrokerHello(self.name)):
            return
        for subscription in self.replica.subscriptions:
            propagate = wire.SubPropagate(
                subscription.subscription_id,
                subscription.subscriber,
                subscription.predicate.describe(),
                self.name,
            )
            if not _send_message(connection, propagate):
                return

    def _flood_to_brokers(self, message: object, exclude: Optional[Connection]) -> None:
        payload = wire.encode_message(message)
        for connection in self._broker_connections.values():
            # A link found down misses nothing: the hello resyncs it.
            if connection is not exclude and connection.is_open:
                _try_send(connection, payload)

    def _require_broker(self, connection: Connection, message: object) -> None:
        """Broker-protocol messages come from broker connections only, so a
        client cannot act for others or publish past :meth:`_publisher_of`."""
        if connection not in self._broker_peers:
            raise ProtocolError(
                f"{type(message).__name__} on a connection that is not a broker's"
            )

    def _handle_sub_propagate(self, connection: Connection, message: wire.SubPropagate) -> None:
        self._require_broker(connection, message)
        if message.subscription_id in self._subscriber_of:
            return  # flood deduplication
        subscriber = sys.intern(message.subscriber)  # one object per name, not per message
        try:
            predicate = parse_predicate(self.config.schema, message.expression)
            # The subscriber is checked before the replica takes the id: a
            # refused propagate records nothing.
            self.router.links.position_of(subscriber)
            subscription = Subscription(
                predicate, subscriber, subscription_id=message.subscription_id
            )
            self.replica.insert(subscription)
        except (PredicateError, RoutingError, SubscriptionError) as exc:
            raise ProtocolError(
                f"bad SUB_PROPAGATE for subscription #{message.subscription_id}: {exc}"
            ) from exc
        self.router.add_subscription(subscription)
        self._subscriber_of[message.subscription_id] = subscriber
        self._obs_subscribes.inc()
        self._flood_to_brokers(message, exclude=connection)

    def _handle_unsub_propagate(self, connection: Connection, message: wire.UnsubPropagate) -> None:
        self._require_broker(connection, message)
        if self._subscriber_of.pop(message.subscription_id, None) is None:
            return
        self.replica.remove(message.subscription_id)
        self.router.remove_subscription(message.subscription_id)
        self._obs_unsubscribes.inc()
        self._flood_to_brokers(message, exclude=connection)

    def _handle_broker_event(self, connection: Connection, message: wire.BrokerEvent) -> None:
        self._require_broker(connection, message)
        self._ingest.append(
            (message.event_data, message.root, message.publisher, message.digest)
        )
        self._drain_ingest()

    def _handle_broker_event_batch(
        self, connection: Connection, message: wire.BrokerEventBatch
    ) -> None:
        self._require_broker(connection, message)
        for i, (publisher, event_data) in enumerate(message.entries):
            self._ingest.append(
                (event_data, message.root, publisher, message.digest_for(i))
            )
        self._drain_ingest()

    def _drain_ingest(self) -> None:
        """Route everything queued, in batches of up to ``ingest_batch_size``.

        Re-entrant calls (a handler enqueuing while a drain is in progress)
        just leave their entries on the queue; the outer drain picks them up.
        """
        if self._draining:
            return
        self._draining = True
        try:
            while self._ingest:
                count = min(self.ingest_batch_size, len(self._ingest))
                self._route_entries([self._ingest.popleft() for _ in range(count)])
        finally:
            self._draining = False

    def _route_entries(
        self, entries: List[Tuple[bytes, str, str, Optional[MatchDigest]]]
    ) -> None:
        """Route one ingest batch: decode, one
        :meth:`~repro.core.router.ContentRouter.route_hop` per spanning-tree
        root (every decision, match-once digests included), then reject,
        deliver and forward in batch order.

        Forwards are coalesced (:meth:`_send_forwards`); those to a neighbor
        whose link is down are parked (see ``_parked``).  An event the router
        refuses (a value outside a declared domain) is rejected alone
        (:meth:`_reject`).
        """
        self._obs_ingest_batches.inc()
        events = [
            decode_event(self.config.schema, event_data, publisher=publisher)
            for event_data, _root, publisher, _digest in entries
        ]
        by_root: Dict[str, List[int]] = {}
        for i, entry in enumerate(entries):
            by_root.setdefault(entry[1], []).append(i)
        hops: List = [None] * len(entries)
        for root, indices in by_root.items():
            routed = self.router.route_hop(
                [events[i] for i in indices], root, [entries[i][3] for i in indices], trusted=True
            )
            for i, hop in zip(indices, routed):
                hops[i] = hop
        routed_count = 0
        # neighbor -> root -> (publisher, event_data, digest), in batch order.
        forwards: Dict[str, Dict[str, List[Tuple[str, bytes, Optional[MatchDigest]]]]] = {}
        for entry, (decision, out_digest) in zip(entries, hops):
            if isinstance(decision, RoutingError):
                self._reject(entry, decision)
                continue
            routed_count += 1
            event_data, root, publisher, _digest = entry
            for neighbor in decision.forward_to:
                per_root = forwards.setdefault(neighbor, {})
                per_root.setdefault(root, []).append((publisher, event_data, out_digest))
            for client in decision.deliver_to:
                self._deliver_to_client(client, event_data)
        self.events_routed += routed_count
        self._obs_routed.inc(routed_count)
        for neighbor, per_root in forwards.items():
            parked = self._send_forwards(neighbor, per_root)
            if parked:
                self._obs_forwards_parked.inc(parked)

    def _send_forwards(self, neighbor: str, per_root: Mapping[str, List]) -> int:
        """Send one neighbor's ``(publisher, event_data, digest)`` forwards
        by root, coalesced: one
        :class:`~repro.broker.messages.BrokerEventBatch` per root instead of
        one message per event.

        While the link is down, or parked forwards wait for it, the forwards
        are parked behind them; a send that finds the link down parks the
        roots not yet sent, so nothing is sent twice.  Returns how many
        events were parked."""
        connection = self._broker_connections.get(neighbor)
        link_up = connection is not None and connection.is_open and neighbor not in self._parked
        items = list(per_root.items())
        for i, (root, batch) in enumerate(items):
            if not link_up or not _try_send(connection, self._forward_payload(root, batch)):
                unsent = {r: [(p, d, None) for p, d, _ in b] for r, b in items[i:]}
                self._parked.setdefault(neighbor, []).append(unsent)
                return sum(len(b) for b in unsent.values())
            if len(batch) > 1:
                self._obs_coalesced_sends.inc()
        return 0

    @staticmethod
    def _forward_payload(
        root: str, batch: List[Tuple[str, bytes, Optional[MatchDigest]]]
    ) -> bytes:
        if len(batch) == 1:
            publisher, event_data, digest = batch[0]
            return wire.encode_message(wire.BrokerEvent(root, publisher, event_data, digest))
        digests = tuple(digest for _, _, digest in batch)
        return wire.encode_message(
            wire.BrokerEventBatch(
                root,
                tuple((p, d) for p, d, _ in batch),
                digests if any(d is not None for d in digests) else (),
            )
        )

    def _replay_parked(self, neighbor: str) -> None:
        """Send the forwards parked for ``neighbor`` once its link is open
        again, in the order they were parked; if the link goes down again
        midway, what is left stays parked, in order."""
        connection = self._broker_connections.get(neighbor)
        if connection is None or not connection.is_open:
            return
        pending = self._parked.pop(neighbor, [])
        for i, per_root in enumerate(pending):
            count = sum(len(batch) for batch in per_root.values())
            self._obs_forwards_replayed.inc(count - self._send_forwards(neighbor, per_root))
            if neighbor in self._parked:
                self._parked[neighbor].extend(pending[i + 1 :])
                return

    def _reject(
        self, entry: Tuple[bytes, str, str, Optional[MatchDigest]], error: RoutingError
    ) -> None:
        """Count an ingest entry the router refused; a publisher attached
        here is told why."""
        self._obs_events_rejected.inc()
        _event_data, root, publisher, _digest = entry
        session = self._sessions.get(publisher) if root == self.name else None
        if session is not None and session.is_connected:
            _send_message(session.connection, wire.ErrorReply(0, f"event rejected: {error}"))

    def _deliver_to_client(self, client: str, event_data: bytes) -> None:
        session = self._session_for(client)
        seq = session.log.append(event_data)
        self.events_delivered += 1
        self._obs_delivered.inc()
        connection = session.connection
        if connection is not None and connection.is_open:
            try:
                connection.send(wire.encode_message(wire.EventDelivery(seq, event_data)))
            except ConnectionClosedError:
                pass  # gone meanwhile: the log redelivers it on reconnect

    #: Message class -> handler ``(node, connection, message)``.
    _HANDLERS = {
        wire.BrokerHello: _handle_broker_hello,
        wire.Connect: _handle_connect,
        wire.Subscribe: _handle_subscribe,
        wire.Unsubscribe: _handle_unsubscribe,
        wire.Publish: _handle_publish,
        wire.Ack: _handle_ack,
        wire.Disconnect: _handle_disconnect,
        wire.BrokerEvent: _handle_broker_event,
        wire.BrokerEventBatch: _handle_broker_event_batch,
        wire.PublishBatch: _handle_publish_batch,
        wire.SubPropagate: _handle_sub_propagate,
        wire.UnsubPropagate: _handle_unsub_propagate,
    }

    # ------------------------------------------------------------------
    # Maintenance / introspection

    def collect_garbage(self) -> int:
        """Run the event-log garbage collector over all sessions."""
        with self._lock:
            self._acks_since_gc = 0
            return sum(session.log.collect() for session in self._sessions.values())

    def session(self, client_name: str) -> ClientSession:
        with self._lock:
            return self._session_for(client_name)

    def stats(self) -> Dict[str, object]:
        """A consistent snapshot of the node's operational counters —
        what an operator's dashboard would scrape."""
        with self._lock:
            connected_clients = sorted(
                name for name, session in self._sessions.items() if session.is_connected
            )
            return {
                "broker": self.name,
                "subscriptions": self.subscription_count,
                "events_routed": self.events_routed,
                "events_delivered": self.events_delivered,
                "connected_brokers": sorted(
                    name for name, c in self._broker_connections.items() if c.is_open
                ),
                "connected_clients": connected_clients,
                "sessions": len(self._sessions),
                "logged_entries": sum(
                    len(session.log) for session in self._sessions.values()
                ),
                "acks_since_gc": self._acks_since_gc,
            }

    @property
    def subscription_count(self) -> int:
        return self.router.subscription_count

    @property
    def connected_brokers(self) -> List[str]:
        with self._lock:
            return sorted(
                name for name, c in self._broker_connections.items() if c.is_open
            )

    def __repr__(self) -> str:
        return (
            f"BrokerNode({self.name!r}, {self.subscription_count} subscriptions, "
            f"{len(self._broker_connections)} broker links)"
        )
