"""Transport abstraction plus the in-memory implementation.

The prototype broker is transport-agnostic: it talks to
:class:`Connection` objects (send payload bytes, receive payload bytes via a
callback) obtained from a :class:`Transport` (listen on an endpoint /
connect to one).  Two implementations ship:

* :class:`InMemoryTransport` (here) — all endpoints live in one process and
  one :class:`InMemoryHub`; message delivery is deferred into a FIFO the
  test (or example) drains with :meth:`InMemoryHub.pump`.  Fully
  deterministic, no threads, ideal for tests and for measuring matching
  throughput without kernel noise.
* :class:`repro.broker.tcp.TcpTransport` — real sockets, a receiver thread
  per connection and the paper's outgoing-queue + sender-thread-pool design.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.errors import ConnectionClosedError, TransportError

#: Called with each received payload.
MessageHandler = Callable[[bytes], None]
#: Called when the peer closes.
CloseHandler = Callable[[], None]
#: Called by a listener with each newly accepted connection.
AcceptHandler = Callable[["Connection"], None]


class Connection(abc.ABC):
    """One bidirectional message channel (already framed: whole payloads)."""

    def __init__(self) -> None:
        self.on_message: Optional[MessageHandler] = None
        self.on_close: Optional[CloseHandler] = None

    def start(self) -> None:
        """Begin receiving.  Call after attaching ``on_message``/``on_close``.

        A no-op for transports that deliver via an external pump (in-memory);
        socket transports start their receiver thread here.
        """

    @abc.abstractmethod
    def send(self, payload: bytes) -> None:
        """Queue a payload for asynchronous delivery to the peer."""

    @abc.abstractmethod
    def close(self) -> None:
        """Close both directions; the peer's ``on_close`` fires."""

    @property
    @abc.abstractmethod
    def is_open(self) -> bool: ...


class Listener(abc.ABC):
    """An open server endpoint; close to stop accepting."""

    @abc.abstractmethod
    def close(self) -> None: ...


class Transport(abc.ABC):
    """Factory for listeners and outbound connections."""

    @abc.abstractmethod
    def listen(self, endpoint: str, on_accept: AcceptHandler) -> Listener: ...

    @abc.abstractmethod
    def connect(self, endpoint: str) -> Connection: ...


# ----------------------------------------------------------------------
# In-memory implementation


class InMemoryHub:
    """The shared switchboard for in-process endpoints.

    ``send`` enqueues ``(connection, payload)`` pairs (``close`` a
    ``(connection, None)`` notification); :meth:`pump` delivers them in
    order until quiescent.  Deferring delivery (instead of calling
    handlers inline) avoids unbounded recursion when brokers react to
    messages by sending more messages.
    """

    def __init__(self) -> None:
        self._listeners: Dict[str, AcceptHandler] = {}
        self._pending: Deque[Tuple["InMemoryConnection", Optional[bytes]]] = deque()
        self._pumping = False

    def register_listener(self, endpoint: str, on_accept: AcceptHandler) -> None:
        if endpoint in self._listeners:
            raise TransportError(f"endpoint {endpoint!r} is already listening")
        self._listeners[endpoint] = on_accept

    def unregister_listener(self, endpoint: str) -> None:
        self._listeners.pop(endpoint, None)

    def dial(self, endpoint: str) -> "InMemoryConnection":
        on_accept = self._listeners.get(endpoint)
        if on_accept is None:
            raise TransportError(f"nothing is listening on {endpoint!r}")
        near = InMemoryConnection(self)
        far = InMemoryConnection(self)
        near.peer = far
        far.peer = near
        on_accept(far)
        return near

    def pump(self, max_messages: Optional[int] = None) -> int:
        """Deliver queued messages in order; returns how many were delivered.

        Re-entrant calls (a handler that pumps) are flattened into the outer
        pump to keep ordering sane.
        """
        if self._pumping:
            return 0
        self._pumping = True
        delivered = 0
        try:
            while self._pending:
                if max_messages is not None and delivered >= max_messages:
                    break
                target, payload = self._pending.popleft()
                delivered += 1
                if payload is None:
                    target._handle_close()
                elif target._open and target.on_message is not None:
                    target.on_message(payload)
        finally:
            self._pumping = False
        return delivered

    @property
    def pending(self) -> int:
        return len(self._pending)


class InMemoryConnection(Connection):
    """One side of an in-memory channel."""

    def __init__(self, hub: InMemoryHub) -> None:
        super().__init__()
        self.hub = hub
        self.peer: Optional["InMemoryConnection"] = None
        self._open = True
        self.sent_count = 0

    def send(self, payload: bytes) -> None:
        if not self._open or self.peer is None:
            raise ConnectionClosedError("connection is closed")
        if not isinstance(payload, (bytes, bytearray)):
            raise TransportError(f"payload must be bytes, got {type(payload).__name__}")
        self.sent_count += 1
        self.hub._pending.append(
            (self.peer, payload if payload.__class__ is bytes else bytes(payload))
        )

    def close(self) -> None:
        if not self._open:
            return
        self._open = False
        if self.peer is not None:
            self.hub._pending.append((self.peer, None))  # the close notification

    @property
    def is_open(self) -> bool:
        return self._open

    def _handle_close(self) -> None:
        if not self._open:
            return
        self._open = False
        if self.on_close is not None:
            self.on_close()


class _InMemoryListener(Listener):
    def __init__(self, hub: InMemoryHub, endpoint: str) -> None:
        self.hub = hub
        self.endpoint = endpoint

    def close(self) -> None:
        self.hub.unregister_listener(self.endpoint)


class InMemoryTransport(Transport):
    """Transport over a shared :class:`InMemoryHub`."""

    def __init__(self, hub: Optional[InMemoryHub] = None) -> None:
        self.hub = hub if hub is not None else InMemoryHub()

    def listen(self, endpoint: str, on_accept: AcceptHandler) -> Listener:
        self.hub.register_listener(endpoint, on_accept)
        return _InMemoryListener(self.hub, endpoint)

    def connect(self, endpoint: str) -> Connection:
        return self.hub.dial(endpoint)

    def pump(self, max_messages: Optional[int] = None) -> int:
        """Convenience passthrough to the hub."""
        return self.hub.pump(max_messages)
