"""TCP transport — the prototype's real network layer (Section 4.2).

Mirrors the paper's design: "To improve scalability, it implements an
asynchronous 'send' operation by maintaining a set of outgoing queues, one
per connection.  A broker thread sends a message by en-queueing it in the
appropriate queue.  A pool of sending threads is responsible for monitoring
these queues for outgoing messages, and sending them to destinations using
the underlying network protocol."

* Framing: 4-byte big-endian payload length + payload.  ``send`` refuses a
  payload above :data:`MAX_FRAME_BYTES` (:class:`TransportError`).
* Each connection has an unbounded outgoing queue and a receiver thread.
  Both sides move bursts, not frames, and the byte stream is the same as
  frame by frame: the frames in the order they were sent.  A pool thread
  takes a connection's whole queue in one swap and writes it with one
  ``sendall``; the receiver fills one buffer, allocated once, with
  ``recv_into`` and passes every complete frame in it to ``on_message``,
  one call per frame.  Nothing waits to fill a batch (no timer, no
  corking, ``TCP_NODELAY`` on): a burst is what queued or arrived while
  the previous system call ran.
* A frame the handler rejects as malformed
  (:class:`~repro.errors.ProtocolError`, which includes
  :class:`~repro.errors.CodecError`) or a length header above
  :data:`MAX_FRAME_BYTES` closes the connection, with the rest of its
  burst: it is counted in ``transport.tcp.bad_frames``, never raised out
  of the thread.
* A :class:`SenderPool` shared by the whole transport drains ready
  connections; ``send`` never blocks on the socket.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
from typing import List, Optional, Tuple

from repro.errors import ConnectionClosedError, ProtocolError, TransportError
from repro.broker.transport import AcceptHandler, Connection, Listener, Transport
from repro.obs import get_registry

_LENGTH = struct.Struct(">I")
#: Frames above this are rejected as corrupt rather than allocated.
MAX_FRAME_BYTES = 16 * 1024 * 1024
#: Size of a connection's receive buffer; it grows only for a larger frame,
#: and shrinks back once that frame is handled.
RECEIVE_BUFFER_BYTES = 32 * 1024


def parse_endpoint(endpoint: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)``."""
    host, separator, port_text = endpoint.rpartition(":")
    if not separator or not host:
        raise TransportError(f"endpoint must look like host:port, got {endpoint!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise TransportError(f"invalid port in endpoint {endpoint!r}") from None
    return host, port


class SenderPool:
    """The paper's pool of sending threads.

    A connection with queued output is put on the ready queue once, by the
    ``send`` that found it idle; a pool thread pops it and drains its
    queue to the socket until the queue is empty.  So a connection is on
    the ready queue at most once and never drained by two threads at once.
    """

    def __init__(self, num_threads: int = 2) -> None:
        if num_threads < 1:
            raise TransportError("sender pool needs at least one thread")
        self._ready: "queue.Queue[Optional[TcpConnection]]" = queue.Queue()
        self._threads = [
            threading.Thread(target=self._run, name=f"sender-{i}", daemon=True)
            for i in range(num_threads)
        ]
        self._closed = False
        for thread in self._threads:
            thread.start()

    def notify(self, connection: "TcpConnection") -> None:
        if not self._closed:
            self._ready.put(connection)

    def close(self) -> None:
        self._closed = True
        for _thread in self._threads:
            self._ready.put(None)

    def _run(self) -> None:
        while True:
            connection = self._ready.get()
            if connection is None:
                return
            connection._drain()


class TcpConnection(Connection):
    """One TCP socket with framing, a receiver thread and an outgoing queue."""

    def __init__(self, sock: socket.socket, pool: SenderPool) -> None:
        super().__init__()
        self._socket = sock
        self._pool = pool
        #: Length headers and payloads, in send order, not yet written.
        self._outgoing: List[bytes] = []
        self._lock = threading.Lock()
        #: On the pool's ready queue or being drained (under ``_lock``).
        self._scheduled = False
        self._open = True
        self._receiver = threading.Thread(target=self._receive_loop, daemon=True)
        registry = get_registry()
        self._obs_bad_frames = registry.counter("transport.tcp.bad_frames")
        self._obs_socket_writes = registry.counter("transport.tcp.socket_writes")
        self._obs_socket_reads = registry.counter("transport.tcp.socket_reads")

    def start(self) -> None:
        """Begin receiving (called once handlers are attached).  Idempotent —
        accepted connections are started by the listener, and a node calling
        ``start`` again per the base-class contract is harmless."""
        if not self._receiver.is_alive() and self._open:
            try:
                self._receiver.start()
            except RuntimeError:
                pass  # raced with another starter; the thread is running

    def send(self, payload: bytes) -> None:
        if len(payload) > MAX_FRAME_BYTES:
            raise TransportError(
                f"payload of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES}-byte frame limit"
            )
        if not self._open:
            raise ConnectionClosedError("connection is closed")
        header = _LENGTH.pack(len(payload))
        with self._lock:
            self._outgoing += (header, payload)
            should_notify = not self._scheduled
            self._scheduled = True
        if should_notify:
            self._pool.notify(self)

    def _drain(self) -> None:
        """Called by a pool thread: write the outgoing queue to the socket,
        everything queued so far in one ``sendall``, until it is empty."""
        while True:
            with self._lock:
                burst = self._outgoing
                if not burst:
                    self._scheduled = False
                    return
                self._outgoing = []
            try:
                self._socket.sendall(b"".join(burst))
            except OSError:
                self._close_from_error()
                return
            self._obs_socket_writes.inc()

    def _receive_loop(self) -> None:
        buffer = bytearray(RECEIVE_BUFFER_BYTES)
        view = memoryview(buffer)
        filled = 0  # buffer[:filled] holds bytes not yet handled
        try:
            while self._open:
                try:
                    received = self._socket.recv_into(view[filled:])
                except OSError:
                    return
                if not received:
                    return
                self._obs_socket_reads.inc()
                filled += received
                start, capacity = 0, RECEIVE_BUFFER_BYTES
                while filled - start >= _LENGTH.size:
                    (length,) = _LENGTH.unpack_from(buffer, start)
                    if length > MAX_FRAME_BYTES:
                        self._obs_bad_frames.inc()
                        return
                    end = start + _LENGTH.size + length
                    if end > filled:
                        capacity = max(capacity, end - start)
                        break
                    handler = self.on_message
                    if handler is not None:
                        handler(bytes(view[start + _LENGTH.size : end]))
                    start = end
                tail = filled - start  # a partial frame, moved to the front
                if capacity != len(buffer):
                    resized = bytearray(capacity)
                    resized[:tail] = view[start:filled]
                    buffer, view = resized, memoryview(resized)
                elif start and tail:
                    buffer[:tail] = buffer[start:filled]
                filled = tail
        except ProtocolError:
            self._obs_bad_frames.inc()  # fail closed: the finally drops the peer
        finally:
            self._close_from_error()

    def close(self) -> None:
        if not self._open:
            return
        self._open = False
        try:
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._socket.close()

    def _close_from_error(self) -> None:
        if not self._open:
            return
        self.close()
        handler = self.on_close
        if handler is not None:
            handler()

    @property
    def is_open(self) -> bool:
        return self._open


class _TcpListener(Listener):
    def __init__(
        self, sock: socket.socket, transport: "TcpTransport", on_accept: AcceptHandler
    ) -> None:
        self._socket = sock
        self._transport = transport
        self._on_accept = on_accept
        self._open = True
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    @property
    def port(self) -> int:
        return self._socket.getsockname()[1]

    def _accept_loop(self) -> None:
        while self._open:
            try:
                client_socket, _address = self._socket.accept()
            except OSError:
                return
            client_socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = TcpConnection(client_socket, self._transport.pool)
            self._on_accept(connection)
            connection.start()

    def close(self) -> None:
        self._open = False
        try:
            self._socket.close()
        except OSError:
            pass


class TcpTransport(Transport):
    """TCP transport with a shared sender pool (see module docstring).

    Note for acceptors: ``on_accept`` runs on the accept thread and must
    attach ``on_message`` *before* returning — reception starts immediately
    after.
    """

    def __init__(self, *, sender_threads: int = 2) -> None:
        self.pool = SenderPool(sender_threads)
        self._listeners: list = []

    def listen(self, endpoint: str, on_accept: AcceptHandler) -> _TcpListener:
        host, port = parse_endpoint(endpoint)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(64)
        listener = _TcpListener(sock, self, on_accept)
        self._listeners.append(listener)
        return listener

    def connect(self, endpoint: str) -> TcpConnection:
        host, port = parse_endpoint(endpoint)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.connect((host, port))
        except OSError as exc:
            sock.close()
            raise TransportError(f"cannot connect to {endpoint!r}: {exc}") from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        connection = TcpConnection(sock, self.pool)
        return connection

    def close(self) -> None:
        for listener in self._listeners:
            listener.close()
        self.pool.close()
