"""Client library for the prototype broker.

:class:`BrokerClient` speaks the client protocol: connect (with resume),
subscribe/unsubscribe by expression, publish, receive sequenced events and
acknowledge them (driving the broker's log GC).

Synchronization model: requests return a request id immediately;
:meth:`wait_for` blocks until the matching reply arrives.  Over the
in-memory transport "blocking" means pumping the hub; over TCP it means
waiting on a condition variable fed by the receiver thread.  The ``pump``
constructor argument selects the former: pass ``hub.pump`` (tests and
examples built on :class:`~repro.broker.transport.InMemoryTransport` do).
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import ProtocolError, TransportError
from repro.broker import messages as wire
from repro.broker.codec import decode_event, encode_event
from repro.broker.transport import Connection, Transport
from repro.matching.events import Event
from repro.matching.schema import AttributeValue, EventSchema

#: Receives (event, sequence number) for every delivery.
EventHandler = Callable[[Event, int], None]


class RequestFailed(ProtocolError):
    """The broker answered a request with an error."""


class _PendingRequest:
    __slots__ = ("done", "result", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Optional[int] = None
        self.error: Optional[str] = None


class BrokerClient:
    """A publisher/subscriber client of one prototype broker."""

    def __init__(
        self,
        name: str,
        schema: EventSchema,
        transport: Transport,
        endpoint: str,
        *,
        on_event: Optional[EventHandler] = None,
        auto_ack: bool = True,
        pump: Optional[Callable[[], int]] = None,
    ) -> None:
        self.name = name
        self.schema = schema
        self.transport = transport
        self.endpoint = endpoint
        self.on_event = on_event
        self.auto_ack = auto_ack
        self._pump = pump
        self._connection: Optional[Connection] = None
        self._requests = itertools.count(1)
        self._pending: Dict[int, _PendingRequest] = {}
        self._lock = threading.Lock()
        self.connected_broker: Optional[str] = None
        self.last_seq = 0
        self.deliveries: List[Tuple[int, Event]] = []
        self.subscription_ids: List[int] = []
        #: Broker error replies not tied to a pending request (connect
        #: rejections, publish failures) land here instead of raising inside
        #: the transport's delivery path.
        self.errors: List[str] = []
        self._expected_backlog: Optional[int] = None

    # ------------------------------------------------------------------
    # Connection

    @property
    def is_connected(self) -> bool:
        return self._connection is not None and self._connection.is_open

    def connect(self, *, resume: bool = True) -> None:
        """Open a session.  With ``resume`` the broker replays every event
        logged since the last one this client acknowledged."""
        if self.is_connected:
            raise TransportError(f"client {self.name!r} is already connected")
        connection = self.transport.connect(self.endpoint)
        connection.on_message = self._on_payload
        connection.on_close = self._on_close
        connection.start()
        self._connection = connection
        last_seq = self.last_seq if resume else 0
        connection.send(wire.encode_message(wire.Connect(self.name, last_seq)))

    def disconnect(self) -> None:
        """Graceful disconnect (the broker keeps logging for us)."""
        if self._connection is not None and self._connection.is_open:
            self._connection.send(wire.encode_message(wire.Disconnect()))
            self._connection.close()
        self._connection = None
        self.connected_broker = None

    def drop_connection(self) -> None:
        """Simulate a transient failure: close without telling the broker."""
        if self._connection is not None:
            self._connection.close()
        self._connection = None
        self.connected_broker = None

    def _on_close(self) -> None:
        self._connection = None
        self.connected_broker = None

    # ------------------------------------------------------------------
    # Requests

    def subscribe(self, expression: str) -> int:
        """Send a SUBSCRIBE; returns the request id (see :meth:`wait_for`)."""
        return self._request(lambda rid: wire.Subscribe(rid, expression))

    def unsubscribe(self, subscription_id: int) -> int:
        return self._request(lambda rid: wire.Unsubscribe(rid, subscription_id))

    def _request(self, build: Callable[[int], object]) -> int:
        connection = self._require_connection()
        request_id = next(self._requests)
        with self._lock:
            self._pending[request_id] = _PendingRequest()
        connection.send(wire.encode_message(build(request_id)))
        return request_id

    def wait_for(self, request_id: int, timeout_s: float = 5.0) -> int:
        """Block until the reply for ``request_id`` arrives; returns the
        subscription id.  Raises :class:`RequestFailed` on an error reply and
        :class:`ProtocolError` on timeout."""
        with self._lock:
            pending = self._pending.get(request_id)
        if pending is None:
            raise ProtocolError(f"unknown request id {request_id}")
        deadline = time.monotonic() + timeout_s
        while not pending.done.is_set():
            if self._pump is not None:
                self._pump()
                if pending.done.is_set():
                    break
                if time.monotonic() > deadline:
                    raise ProtocolError(f"request {request_id} timed out")
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not pending.done.wait(min(remaining, 0.05)):
                    if time.monotonic() > deadline:
                        raise ProtocolError(f"request {request_id} timed out")
        with self._lock:
            self._pending.pop(request_id, None)
        if pending.error is not None:
            raise RequestFailed(pending.error)
        assert pending.result is not None
        return pending.result

    def subscribe_and_wait(self, expression: str, timeout_s: float = 5.0) -> int:
        """Subscribe and block for the subscription id."""
        subscription_id = self.wait_for(self.subscribe(expression), timeout_s)
        self.subscription_ids.append(subscription_id)
        return subscription_id

    def unsubscribe_and_wait(self, subscription_id: int, timeout_s: float = 5.0) -> int:
        result = self.wait_for(self.unsubscribe(subscription_id), timeout_s)
        if subscription_id in self.subscription_ids:
            self.subscription_ids.remove(subscription_id)
        return result

    # ------------------------------------------------------------------
    # Publishing and receiving

    def publish(self, values: Union[Event, Mapping[str, AttributeValue]]) -> None:
        """Publish an event (a mapping is validated against the schema)."""
        connection = self._require_connection()
        event = values if isinstance(values, Event) else Event(self.schema, values)
        connection.send(wire.encode_message(wire.Publish(encode_event(event))))

    def publish_many(
        self, batch: List[Union[Event, Mapping[str, AttributeValue]]]
    ) -> None:
        """Publish a batch of events in one ``PUBLISH_BATCH`` wire message.

        The broker ingests all of them together and routes them through its
        batched matching path; per-event delivery semantics are identical to
        calling :meth:`publish` in a loop.
        """
        if not batch:
            return
        connection = self._require_connection()
        blobs = tuple(
            encode_event(
                values if isinstance(values, Event) else Event(self.schema, values)
            )
            for values in batch
        )
        connection.send(wire.encode_message(wire.PublishBatch(blobs)))

    def ack(self, seq: int) -> None:
        """Acknowledge processing up to ``seq`` (automatic by default)."""
        connection = self._require_connection()
        connection.send(wire.encode_message(wire.Ack(seq)))

    def _require_connection(self) -> Connection:
        if self._connection is None or not self._connection.is_open:
            raise TransportError(f"client {self.name!r} is not connected")
        return self._connection

    def _on_payload(self, payload: bytes) -> None:
        message = wire.decode_message(payload)
        handler = self._HANDLERS.get(type(message))
        if handler is None:
            raise ProtocolError(f"client cannot handle {type(message).__name__}")
        handler(self, message)

    def _on_connack(self, message: wire.ConnAck) -> None:
        self.connected_broker = message.broker_name
        self._expected_backlog = message.backlog

    def _on_request_ack(self, message: Union[wire.SubAck, wire.UnsubAck]) -> None:
        self._resolve(message.request_id, result=message.subscription_id)

    def _on_error_reply(self, message: wire.ErrorReply) -> None:
        self._resolve(message.request_id, error=message.reason)

    def _resolve(
        self, request_id: int, *, result: Optional[int] = None, error: Optional[str] = None
    ) -> None:
        with self._lock:
            pending = self._pending.get(request_id)
        if pending is None:
            if error is not None:
                self.errors.append(error)
            return
        pending.result = result
        pending.error = error
        pending.done.set()

    def _on_event_delivery(self, message: wire.EventDelivery) -> None:
        event = decode_event(self.schema, message.event_data)
        if message.seq > self.last_seq:
            self.last_seq = message.seq
            self.deliveries.append((message.seq, event))
            if self.on_event is not None:
                self.on_event(event, message.seq)
        # Duplicates (redelivery overlap) are acked but not re-processed.
        connection = self._connection
        if self.auto_ack and connection is not None and connection.is_open:
            try:
                self.ack(message.seq)
            except TransportError:
                pass  # closed meanwhile: the broker redelivers from its log

    #: Message class -> handler ``(client, message)``.
    _HANDLERS = {
        wire.ConnAck: _on_connack,
        wire.SubAck: _on_request_ack,
        wire.UnsubAck: _on_request_ack,
        wire.ErrorReply: _on_error_reply,
        wire.EventDelivery: _on_event_delivery,
    }

    @property
    def received_events(self) -> List[Event]:
        return [event for _seq, event in self.deliveries]

    def __repr__(self) -> str:
        return (
            f"BrokerClient({self.name!r}, connected={self.is_connected}, "
            f"last_seq={self.last_seq})"
        )
