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
import threading
from collections import deque
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import (
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
from repro.matching.events import Event
from repro.matching.parser import parse_predicate
from repro.matching.predicates import Subscription
from repro.matching.schema import AttributeValue, EventSchema
from repro.network.paths import RoutingTable, all_routing_tables
from repro.network.spanning import SpanningTree, spanning_trees_for_publishers
from repro.network.topology import Topology
from repro.obs import get_registry

_global_subscription_ids = itertools.count(1_000_000)


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
        #: Connections we have already sent our hello+resync on; prevents
        #: hello ping-pong when both ends of a link dial each other.
        self._greeted_connections: Set[int] = set()
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
        self._obs_digest_hits = obs.counter("digest_hits", broker=name)
        self._obs_digest_fallbacks = obs.counter("digest_fallbacks", broker=name)
        self._obs_forwards_dropped = obs.counter("forwards_dropped", broker=name)
        self._obs_events_rejected = obs.counter("events_rejected", broker=name)
        self._obs_unneeded_forwards = get_registry().counter("link.unneeded_forwards", broker=name)

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
            for connection in list(self._broker_connections.values()):
                connection.close()
            self._broker_connections.clear()
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
        by operators after a neighbor restart (a restarted broker has lost
        its connections *and* its subscription state; the hello handshake
        triggers a full subscription resync from the peer — see
        :meth:`_handle_broker_hello`).
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
            self._greeted_connections.add(id(connection))
        connection.send(wire.encode_message(wire.BrokerHello(self.name)))
        self._send_subscription_sync(connection)

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
            self._greeted_connections.discard(id(connection))
            for neighbor, existing in list(self._broker_connections.items()):
                if existing is connection:
                    del self._broker_connections[neighbor]
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
            connection.send(
                wire.encode_message(wire.ErrorReply(0, f"unknown client {name!r}"))
            )
            connection.close()
            return
        if self.config.topology.broker_of(name) != self.name:
            connection.send(
                wire.encode_message(
                    wire.ErrorReply(0, f"{name!r} is not attached to broker {self.name!r}")
                )
            )
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
        backlog = session.log.entries_after(message.last_seq)
        connection.send(wire.encode_message(wire.ConnAck(self.name, len(backlog))))
        for seq, event_data in backlog:
            connection.send(wire.encode_message(wire.EventDelivery(seq, event_data)))

    def _handle_subscribe(self, connection: Connection, message: wire.Subscribe) -> None:
        session = self._session_of.get(connection)
        if session is None:
            connection.send(
                wire.encode_message(wire.ErrorReply(message.request_id, "not connected"))
            )
            return
        client = session.name
        try:
            predicate = parse_predicate(self.config.schema, message.expression)
            if not predicate.is_satisfiable:  # the router would refuse it
                raise PredicateError(f"unsatisfiable predicate {message.expression!r}")
        except Exception as exc:  # parse/predicate errors go back to the client
            connection.send(
                wire.encode_message(wire.ErrorReply(message.request_id, str(exc)))
            )
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
        connection.send(
            wire.encode_message(wire.SubAck(message.request_id, subscription_id))
        )

    def _handle_unsubscribe(self, connection: Connection, message: wire.Unsubscribe) -> None:
        session = self._session_of.get(connection)
        if session is None:
            connection.send(
                wire.encode_message(wire.ErrorReply(message.request_id, "not connected"))
            )
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
            connection.send(wire.encode_message(wire.ErrorReply(message.request_id, reason)))
            return
        del self._subscriber_of[message.subscription_id]
        self.replica.remove(message.subscription_id)
        self.router.remove_subscription(message.subscription_id)
        self._obs_unsubscribes.inc()
        self._flood_to_brokers(
            wire.UnsubPropagate(message.subscription_id, self.name), exclude=None
        )
        connection.send(
            wire.encode_message(wire.UnsubAck(message.request_id, message.subscription_id))
        )

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
        connection.send(wire.encode_message(wire.ErrorReply(0, reason)))
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
        """
        self._broker_connections[message.broker_name] = connection
        if id(connection) in self._greeted_connections:
            return
        self._greeted_connections.add(id(connection))
        connection.send(wire.encode_message(wire.BrokerHello(self.name)))
        self._send_subscription_sync(connection)

    def _send_subscription_sync(self, connection: Connection) -> None:
        for subscription in self.replica.subscriptions:
            connection.send(
                wire.encode_message(
                    wire.SubPropagate(
                        subscription.subscription_id,
                        subscription.subscriber,
                        subscription.predicate.describe(),
                        self.name,
                    )
                )
            )

    def _flood_to_brokers(self, message: object, exclude: Optional[Connection]) -> None:
        payload = wire.encode_message(message)
        for connection in self._broker_connections.values():
            if connection is exclude or not connection.is_open:
                continue
            connection.send(payload)

    def _handle_sub_propagate(self, connection: Connection, message: wire.SubPropagate) -> None:
        if message.subscription_id in self._subscriber_of:
            return  # flood deduplication
        try:
            predicate = parse_predicate(self.config.schema, message.expression)
            # The subscriber is checked before the replica takes the id: a
            # refused propagate records nothing.
            self.router.links.position_of(message.subscriber)
            subscription = Subscription(
                predicate, message.subscriber, subscription_id=message.subscription_id
            )
            self.replica.insert(subscription)
        except (PredicateError, RoutingError, SubscriptionError) as exc:
            raise ProtocolError(
                f"bad SUB_PROPAGATE for subscription #{message.subscription_id}: {exc}"
            ) from exc
        self.router.add_subscription(subscription)
        self._subscriber_of[message.subscription_id] = message.subscriber
        self._obs_subscribes.inc()
        self._flood_to_brokers(message, exclude=connection)

    def _handle_unsub_propagate(self, connection: Connection, message: wire.UnsubPropagate) -> None:
        if self._subscriber_of.pop(message.subscription_id, None) is None:
            return
        self.replica.remove(message.subscription_id)
        self.router.remove_subscription(message.subscription_id)
        self._obs_unsubscribes.inc()
        self._flood_to_brokers(message, exclude=connection)

    def _handle_broker_event(self, _connection: Connection, message: wire.BrokerEvent) -> None:
        self._ingest.append(
            (message.event_data, message.root, message.publisher, message.digest)
        )
        self._drain_ingest()

    def _handle_broker_event_batch(
        self, _connection: Connection, message: wire.BrokerEventBatch
    ) -> None:
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
        """Route one ingest batch: batched refinement, coalesced forwarding.

        Entries are grouped by spanning-tree root for the router's
        :meth:`~repro.core.router.ContentRouter.route_batch`; forwards are
        then coalesced so each neighbor link carries one
        :class:`~repro.broker.messages.BrokerEventBatch` per root instead of
        one message per event.  Per-event decisions, deliveries and event-log
        appends are identical to the one-at-a-time path.

        Match-once forwarding: digest-less entries route through
        :meth:`~repro.core.router.ContentRouter.route_digest_batch`, minting
        a digest the forwards carry; digest-bearing entries convert the
        digest straight to this node's link mask.  A digest that fails
        verification (the replicated subscription set diverged — e.g. a
        subscription still propagating) falls back to a full rematch and is
        stripped from the forwards.  The epoch/checksum converge without any
        coordination because subscription flooding applies every add/remove
        exactly once at every broker.

        An event the router refuses (a value outside a declared domain) is
        rejected alone (:meth:`_reject`); every other entry still routes.
        """
        self._obs_ingest_batches.inc()
        events = [
            decode_event(self.config.schema, event_data, publisher=publisher)
            for event_data, _root, publisher, _digest in entries
        ]
        use_digests = self.router.supports_digests
        by_root: Dict[str, List[int]] = {}
        for i, (_event_data, root, _publisher, _digest) in enumerate(entries):
            group = by_root.get(root)
            if group is None:
                by_root[root] = [i]
            else:
                group.append(i)
        decisions = [None] * len(entries)
        # The digest each entry's forwards carry (consumed, minted, or None).
        out_digests: List[Optional[MatchDigest]] = [None] * len(entries)
        rejected = 0
        for root, indices in by_root.items():
            plain: List[int] = []
            for i in indices:
                digest = entries[i][3]
                if digest is None or not use_digests:
                    plain.append(i)
                    continue
                try:
                    decisions[i] = self.router.route_with_digest(
                        events[i], root, digest
                    )
                except RoutingError:
                    self._obs_digest_fallbacks.inc()
                    try:
                        decisions[i] = self.router.route(events[i], root)
                    except RoutingError as error:
                        self._reject(entries[i], error)
                        rejected += 1
                else:
                    self._obs_digest_hits.inc()
                    out_digests[i] = digest
            if not plain:
                continue
            plain_events = [events[i] for i in plain]
            for i, outcome in zip(plain, self._route_group(plain_events, root, use_digests)):
                if isinstance(outcome, RoutingError):
                    self._reject(entries[i], outcome)
                    rejected += 1
                else:
                    decisions[i], out_digests[i] = outcome
        self.events_routed += len(entries) - rejected
        self._obs_routed.inc(len(entries) - rejected)
        # neighbor -> root -> (publisher, event_data, digest), in batch order.
        forwards: Dict[str, Dict[str, List[Tuple[str, bytes, Optional[MatchDigest]]]]] = {}
        for (event_data, root, publisher, _digest), decision, out_digest in zip(
            entries, decisions, out_digests
        ):
            if decision is None:
                continue  # rejected
            if root != self.name and not decision.forward_to and not decision.deliver_to:
                # The neighbour that sent this event here had no reason to.
                self._obs_unneeded_forwards.inc()
            for neighbor in decision.forward_to:
                per_root = forwards.setdefault(neighbor, {})
                per_root.setdefault(root, []).append((publisher, event_data, out_digest))
            for client in decision.deliver_to:
                self._deliver_to_client(client, event_data)
        for neighbor, per_root in forwards.items():
            connection = self._broker_connections.get(neighbor)
            if connection is None or not connection.is_open:
                # Neighbor down: the events are dropped (counted, not parked).
                self._obs_forwards_dropped.inc(sum(len(batch) for batch in per_root.values()))
                continue
            for root, batch in per_root.items():
                if len(batch) == 1:
                    publisher, event_data, digest = batch[0]
                    connection.send(
                        wire.encode_message(
                            wire.BrokerEvent(root, publisher, event_data, digest)
                        )
                    )
                else:
                    digests = tuple(digest for _, _, digest in batch)
                    connection.send(
                        wire.encode_message(
                            wire.BrokerEventBatch(
                                root,
                                tuple((p, d) for p, d, _ in batch),
                                digests if any(d is not None for d in digests) else (),
                            )
                        )
                    )
                    self._obs_coalesced_sends.inc()

    def _route_group(
        self, events: List[Event], root: str, use_digests: bool
    ) -> List[object]:
        """Route digest-less events on ``root``'s tree as one batch: per
        event ``(decision, minted digest or None)``, or the
        :class:`RoutingError` the router refused it with.  A refused batch
        is retried one event at a time, so only the refused events fail."""
        try:
            if use_digests:
                return self.router.route_digest_batch(events, root)
            return [(decision, None) for decision in self.router.route_batch(events, root)]
        except RoutingError as error:
            if len(events) == 1:
                return [error]
            return [
                outcome
                for event in events
                for outcome in self._route_group([event], root, use_digests)
            ]

    def _reject(
        self, entry: Tuple[bytes, str, str, Optional[MatchDigest]], error: RoutingError
    ) -> None:
        """Count an ingest entry the router refused; a publisher attached
        here is told why."""
        self._obs_events_rejected.inc()
        _event_data, root, publisher, _digest = entry
        session = self._sessions.get(publisher) if root == self.name else None
        if session is not None and session.is_connected:
            session.connection.send(
                wire.encode_message(wire.ErrorReply(0, f"event rejected: {error}"))
            )

    def _deliver_to_client(self, client: str, event_data: bytes) -> None:
        session = self._session_for(client)
        seq = session.log.append(event_data)
        self.events_delivered += 1
        self._obs_delivered.inc()
        if session.is_connected:
            assert session.connection is not None
            session.connection.send(
                wire.encode_message(wire.EventDelivery(seq, event_data))
            )

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
