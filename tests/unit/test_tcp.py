"""Unit tests for the TCP transport (framing, sender pool, lifecycle)."""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.broker import TcpTransport, parse_endpoint
from repro.broker.messages import decode_message
from repro.errors import TransportError


@pytest.fixture
def transport():
    t = TcpTransport(sender_threads=2)
    yield t
    t.close()


def wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestEndpointParsing:
    def test_host_port(self):
        assert parse_endpoint("127.0.0.1:8080") == ("127.0.0.1", 8080)

    def test_missing_port(self):
        with pytest.raises(TransportError):
            parse_endpoint("localhost")

    def test_bad_port(self):
        with pytest.raises(TransportError):
            parse_endpoint("localhost:http")

    def test_missing_host(self):
        with pytest.raises(TransportError):
            parse_endpoint(":8080")


class TestTcpMessaging:
    def test_roundtrip(self, transport):
        received = []
        accepted = threading.Event()

        def on_accept(connection):
            connection.on_message = received.append
            accepted.set()

        listener = transport.listen("127.0.0.1:0", on_accept)
        endpoint = f"127.0.0.1:{listener.port}"
        client = transport.connect(endpoint)
        client.start()
        assert wait_until(accepted.is_set)
        client.send(b"hello")
        client.send(b"world")
        assert wait_until(lambda: len(received) == 2)
        assert received == [b"hello", b"world"]

    def test_large_frame(self, transport):
        received = []

        def on_accept(connection):
            connection.on_message = received.append

        listener = transport.listen("127.0.0.1:0", on_accept)
        client = transport.connect(f"127.0.0.1:{listener.port}")
        client.start()
        payload = bytes(range(256)) * 4096  # 1 MiB
        client.send(payload)
        assert wait_until(lambda: len(received) == 1, timeout_s=10.0)
        assert received[0] == payload

    def test_bidirectional(self, transport):
        client_received = []
        server_connections = []

        def on_accept(connection):
            server_connections.append(connection)
            connection.on_message = lambda p: connection.send(p.upper())

        listener = transport.listen("127.0.0.1:0", on_accept)
        client = transport.connect(f"127.0.0.1:{listener.port}")
        client.on_message = client_received.append
        client.start()
        client.send(b"echo me")
        assert wait_until(lambda: client_received == [b"ECHO ME"])

    def test_connect_refused(self, transport):
        with pytest.raises(TransportError):
            transport.connect("127.0.0.1:1")  # nothing listens there

    def test_peer_close_fires_on_close(self, transport):
        closed = threading.Event()
        server_side = []

        def on_accept(connection):
            server_side.append(connection)

        listener = transport.listen("127.0.0.1:0", on_accept)
        client = transport.connect(f"127.0.0.1:{listener.port}")
        client.on_close = closed.set
        client.start()
        assert wait_until(lambda: server_side)
        server_side[0].close()
        assert wait_until(closed.is_set)
        assert not client.is_open

    def test_bad_frame_closes_the_connection_quietly(self, live_registry, monkeypatch):
        """A well-framed payload that does not decode closes the receiving
        connection and is counted; no exception escapes its thread."""
        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        transport = TcpTransport(sender_threads=1)
        accepted = []

        def on_accept(connection):
            connection.on_message = decode_message
            accepted.append(connection)

        try:
            listener = transport.listen("127.0.0.1:0", on_accept)
            with socket.create_connection(("127.0.0.1", listener.port), timeout=5) as raw:
                raw.sendall(struct.pack(">I", 4) + b"\xff\xff\xff\xff")
                assert raw.recv(1) == b""  # the receiving side hung up
            assert wait_until(lambda: accepted)
            accepted[0]._receiver.join(timeout=5)  # excepthook runs before it ends
        finally:
            transport.close()
        assert not accepted[0]._receiver.is_alive()
        assert not accepted[0].is_open
        assert escaped == []
        assert live_registry.value_of("transport.tcp.bad_frames") == 1

    def test_many_messages_in_order(self, transport):
        received = []

        def on_accept(connection):
            connection.on_message = received.append

        listener = transport.listen("127.0.0.1:0", on_accept)
        client = transport.connect(f"127.0.0.1:{listener.port}")
        client.start()
        for i in range(500):
            client.send(i.to_bytes(4, "big"))
        assert wait_until(lambda: len(received) == 500)
        assert received == [i.to_bytes(4, "big") for i in range(500)]
