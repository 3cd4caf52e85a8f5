"""Unit tests for the in-memory transport."""

from __future__ import annotations

import pytest

from repro.broker import InMemoryHub, InMemoryTransport
from repro.errors import ConnectionClosedError, TransportError


def connected_pair(transport):
    """Listen, dial, return (client_side, server_side)."""
    accepted = []
    transport.listen("mem://server", accepted.append)
    client = transport.connect("mem://server")
    assert len(accepted) == 1
    return client, accepted[0]


class TestConnectLifecycle:
    def test_dial_triggers_accept(self):
        transport = InMemoryTransport()
        client, server = connected_pair(transport)
        assert client.is_open and server.is_open

    def test_dial_unknown_endpoint(self):
        transport = InMemoryTransport()
        with pytest.raises(TransportError):
            transport.connect("mem://nobody")

    def test_duplicate_listen_rejected(self):
        transport = InMemoryTransport()
        transport.listen("mem://x", lambda c: None)
        with pytest.raises(TransportError):
            transport.listen("mem://x", lambda c: None)

    def test_listener_close_frees_endpoint(self):
        transport = InMemoryTransport()
        listener = transport.listen("mem://x", lambda c: None)
        listener.close()
        transport.listen("mem://x", lambda c: None)  # no error

    def test_close_notifies_peer_on_pump(self):
        transport = InMemoryTransport()
        client, server = connected_pair(transport)
        closed = []
        server.on_close = lambda: closed.append(True)
        client.close()
        assert not closed  # deferred
        transport.pump()
        assert closed == [True]
        assert not server.is_open


class TestMessaging:
    def test_messages_delivered_in_order(self):
        transport = InMemoryTransport()
        client, server = connected_pair(transport)
        received = []
        server.on_message = received.append
        client.send(b"one")
        client.send(b"two")
        assert received == []  # nothing until pump
        transport.pump()
        assert received == [b"one", b"two"]

    def test_bidirectional(self):
        transport = InMemoryTransport()
        client, server = connected_pair(transport)
        client_received = []
        client.on_message = client_received.append
        server.send(b"hello")
        transport.pump()
        assert client_received == [b"hello"]

    def test_send_after_close_raises(self):
        transport = InMemoryTransport()
        client, _server = connected_pair(transport)
        client.close()
        with pytest.raises(ConnectionClosedError):
            client.send(b"x")

    def test_send_requires_bytes(self):
        transport = InMemoryTransport()
        client, _server = connected_pair(transport)
        with pytest.raises(TransportError):
            client.send("text")  # type: ignore[arg-type]

    def test_a_bytearray_is_copied_at_send(self):
        # The peer receives the payload as it was when sent, as bytes, even
        # if the sender reuses its buffer before the pump.
        transport = InMemoryTransport()
        client, server = connected_pair(transport)
        received = []
        server.on_message = received.append
        buffer = bytearray(b"first")
        client.send(buffer)
        buffer[:] = b"later"
        client.send(b"bytes")
        transport.pump()
        assert received == [b"first", b"bytes"]
        assert [type(payload) for payload in received] == [bytes, bytes]

    def test_handlers_may_send_more(self):
        # A reply loop: server echoes, client counts; the pump must flatten
        # the cascade without recursion errors.
        transport = InMemoryTransport()
        client, server = connected_pair(transport)
        replies = []
        server.on_message = lambda payload: server.send(payload + b"!")
        client.on_message = replies.append
        client.send(b"ping")
        transport.pump()
        assert replies == [b"ping!"]

    def test_pump_max_messages(self):
        transport = InMemoryTransport()
        client, server = connected_pair(transport)
        received = []
        server.on_message = received.append
        for i in range(5):
            client.send(bytes([i]))
        assert transport.pump(max_messages=2) == 2
        assert len(received) == 2
        transport.pump()
        assert len(received) == 5

    def test_messages_to_closed_endpoint_dropped(self):
        transport = InMemoryTransport()
        client, server = connected_pair(transport)
        received = []
        server.on_message = received.append
        client.send(b"in flight")
        server.close()
        transport.pump()
        assert received == []  # closed before delivery

    def test_shared_hub_between_transports(self):
        hub = InMemoryHub()
        transport_a = InMemoryTransport(hub)
        transport_b = InMemoryTransport(hub)
        accepted = []
        transport_a.listen("mem://a", accepted.append)
        connection = transport_b.connect("mem://a")
        assert connection.is_open and len(accepted) == 1
