"""Unit tests for the TCP transport (framing, sender pool, lifecycle)."""

from __future__ import annotations

import random
import socket
import struct
import sys
import threading
import time

import pytest

from repro.broker import BrokerClient, TcpTransport, parse_endpoint
from repro.broker import tcp
from repro.broker.messages import decode_message
from repro.errors import ConnectionClosedError, ProtocolError, TransportError
from tests.integration.test_prototype_tcp import running_tcp_network


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


def frame(payload):
    return struct.pack(">I", len(payload)) + payload


@pytest.fixture
def raw_peer(transport):
    """A :class:`TcpConnection` accepted from a raw client socket: yields
    ``(raw_socket, accepted_connection, received_payloads)``; the
    connection starts once ``on_message`` is attached."""
    received = []
    accepted = []

    def on_accept(connection):
        connection.on_message = received.append
        accepted.append(connection)

    listener = transport.listen("127.0.0.1:0", on_accept)
    with socket.create_connection(("127.0.0.1", listener.port), timeout=5) as raw:
        raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        assert wait_until(lambda: accepted)
        yield raw, accepted[0], received


class TestBurstReader:
    """The receiver reads whatever arrived into one buffer and hands every
    complete frame in it to ``on_message``, one call per frame."""

    def test_frames_in_any_chunking_arrive_whole_and_in_order(self, raw_peer):
        raw, _connection, received = raw_peer
        rng = random.Random(44)
        size = tcp.RECEIVE_BUFFER_BYTES
        lengths = [0, 1, 3, 4, 5, size - 4, size - 3, size, 3 * size + 7]
        lengths += [rng.choice((0, 1, 2, 60, 300, 2000)) for _ in range(40)]
        rng.shuffle(lengths)
        payloads = [rng.randbytes(n) for n in lengths]
        stream = b"".join(frame(p) for p in payloads)
        # One byte at a time, then chunks that split headers and carry
        # several frames each; a pause now and then lets the receiver see
        # the partial pieces.
        position = 0
        while position < len(stream):
            step = 1 if position < 400 else rng.choice((1, 2, 3, 5, 7, 4096, 50_000))
            raw.sendall(stream[position : position + step])
            position += step
            if rng.random() < 0.05:
                time.sleep(0.001)
        assert wait_until(lambda: len(received) == len(payloads))
        assert received == payloads

    @pytest.fixture
    def buffer_sizes(self, monkeypatch):
        """The size of every ``bytearray`` the transport allocates."""
        sizes = []

        def recording_bytearray(*args):
            buffer = bytearray(*args)
            sizes.append(len(buffer))
            return buffer

        monkeypatch.setattr(tcp, "bytearray", recording_bytearray, raising=False)
        return sizes

    def test_the_buffer_grows_for_a_large_frame_and_shrinks_back(self, buffer_sizes, raw_peer):
        """The receive buffer is allocated once; a frame larger than it is
        the only reason to allocate, and the next frame finds the initial
        size again."""
        raw, _connection, received = raw_peer
        size = tcp.RECEIVE_BUFFER_BYTES
        big = bytes(range(256)) * (size // 64)  # four buffers' worth
        raw.sendall(frame(b"a"))
        assert wait_until(lambda: received == [b"a"])
        raw.sendall(frame(big))
        assert wait_until(lambda: len(received) == 2)
        for _ in range(3):
            raw.sendall(frame(b"b") * 100)
        assert wait_until(lambda: len(received) == 302)
        assert received[1] == big and received[2:] == [b"b"] * 300
        assert buffer_sizes == [size, len(big) + 4, size]

    def test_a_rejected_frame_stops_the_rest_of_its_burst(self, raw_peer):
        raw, connection, _received = raw_peer
        handled = []

        def reject_first(payload):
            handled.append(payload)
            raise ProtocolError("malformed")

        connection.on_message = reject_first
        raw.sendall(frame(b"one") + frame(b"two") + frame(b"three"))
        assert raw.recv(1) == b""  # the receiving side hung up
        connection._receiver.join(timeout=5)
        assert handled == [b"one"]
        assert not connection.is_open


class TestBurstWriter:
    """The sender pool writes everything queued on a connection with one
    ``sendall``; the bytes on the wire are the frames, in send order."""

    def test_the_wire_carries_the_length_prefixed_frames(self, transport, live_registry):
        payloads = [b"", b"x", b"hello", bytes(70_000), b"\x00\x01\x02", b"end"]
        expected = b"".join(frame(p) for p in payloads)
        with socket.create_server(("127.0.0.1", 0)) as server:
            server.settimeout(5)
            connection = transport.connect(f"127.0.0.1:{server.getsockname()[1]}")
            peer, _address = server.accept()
            with peer:
                peer.settimeout(5)
                for payload in payloads:
                    connection.send(payload)
                wire = b""
                while len(wire) < len(expected):
                    chunk = peer.recv(1 << 16)
                    assert chunk
                    wire += chunk
            connection.close()
        assert wire == expected

        def writes():
            return live_registry.value_of("transport.tcp.socket_writes")

        assert wait_until(lambda: writes() >= 1)  # counted once sendall returns
        assert writes() <= len(payloads)

    def test_concurrent_senders_lose_nothing_and_keep_their_order(self, transport):
        received = []

        def on_accept(connection):
            connection.on_message = received.append

        listener = transport.listen("127.0.0.1:0", on_accept)
        client = transport.connect(f"127.0.0.1:{listener.port}")
        client.start()

        def sender(thread_id):
            for seq in range(500):
                client.send(bytes([thread_id]) + seq.to_bytes(2, "big"))

        threads = [threading.Thread(target=sender, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the senders and the pool finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wait_until(lambda: len(received) == 2000)
        for thread_id in range(4):
            sequence = [int.from_bytes(p[1:], "big") for p in received if p[0] == thread_id]
            assert sequence == list(range(500))


class TestOversizedFrames:
    def test_an_oversized_length_header_is_counted(self, live_registry, monkeypatch):
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
                raw.sendall(struct.pack(">I", tcp.MAX_FRAME_BYTES + 1))
                assert raw.recv(1) == b""  # the receiving side hung up
            assert wait_until(lambda: accepted)
            accepted[0]._receiver.join(timeout=5)
        finally:
            transport.close()
        assert not accepted[0].is_open
        assert escaped == []
        assert live_registry.value_of("transport.tcp.bad_frames") == 1

    def test_send_refuses_an_oversized_payload(self, transport):
        received = []

        def on_accept(connection):
            connection.on_message = received.append

        listener = transport.listen("127.0.0.1:0", on_accept)
        client = transport.connect(f"127.0.0.1:{listener.port}")
        client.start()
        with pytest.raises(TransportError, match="frame limit"):
            client.send(bytearray(tcp.MAX_FRAME_BYTES + 1))
        client.send(b"after")  # nothing was queued, and the link is intact
        assert wait_until(lambda: received == [b"after"])
        assert client.is_open


def closed_under_the_send(payload):
    """A send racing a close on another thread: the caller saw the
    connection open, the send finds it closed."""
    raise ConnectionClosedError("connection is closed")


class TestSendRacingAClose:
    """``BrokerNode`` checks ``is_open`` and then sends; a TCP connection can
    close in between on its own threads.  The node treats the failed send
    as the link being down, and the connection the triggering message came
    in on stays up."""

    def test_a_forward_is_parked_and_a_delivery_kept(self, live_registry, monkeypatch):
        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        with running_tcp_network() as (schema, transport, endpoints, nodes):
            alice = BrokerClient("alice", schema, transport, endpoints["B0"])
            carol = BrokerClient("carol", schema, transport, endpoints["B2"])
            pub = BrokerClient("pub", schema, transport, endpoints["B1"])
            for client in (alice, carol, pub):
                client.connect()
            assert wait_until(lambda: all(c.connected_broker for c in (alice, carol, pub)))
            alice.subscribe_and_wait("*", timeout_s=8.0)
            carol.subscribe_and_wait("*", timeout_s=8.0)
            assert wait_until(lambda: all(n.subscription_count == 2 for n in nodes.values()))
            # B1's link to B2 and B0's connection to alice look open but
            # refuse the send.
            link_to_b2 = nodes["B1"]._broker_connections["B2"]
            link_to_b2.send = closed_under_the_send
            alices = nodes["B0"].session("alice").connection
            alices.send = closed_under_the_send
            link_from_b1 = nodes["B0"]._broker_connections["B1"]

            pub.publish({"issue": "A", "price": 1.0, "volume": 1})
            parked = live_registry.counter("broker.forwards_parked", broker="B1")
            assert wait_until(lambda: len(nodes["B0"].session("alice").log) == 1)
            assert wait_until(lambda: parked.value == 1)
            # The connections the event came in on are still up.
            assert nodes["B1"].session("pub").is_connected and link_from_b1.is_open
            assert pub.is_connected
            assert alice.received_events == [] and carol.received_events == []

            # The link comes back: the parked forward follows; alice
            # reconnects: the logged delivery follows.
            link_to_b2.close()
            nodes["B1"].dial_broker("B2")
            alice.drop_connection()
            alice.connect(resume=True)
            assert wait_until(lambda: len(carol.received_events) == 1)
            assert wait_until(lambda: len(alice.received_events) == 1)
            replayed = live_registry.counter("broker.forwards_replayed", broker="B1")
            assert (parked.value, replayed.value) == (1, 1)
            assert alice.received_events[0].value("issue") == "A"
            assert carol.received_events[0].value("issue") == "A"
        assert escaped == []


class TestAckRacingAClose:
    """``BrokerClient`` checks its connection is open and then auto-acks a
    delivery; the connection can close in between on its own threads.  The
    client treats the failed ack as the link being down: the delivery stays
    recorded, the broker keeps it logged and redelivers it, and the
    duplicate is acked but not processed again."""

    def test_a_failed_auto_ack_keeps_the_delivery(self, monkeypatch):
        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        with running_tcp_network() as (schema, transport, endpoints, nodes):
            alice = BrokerClient("alice", schema, transport, endpoints["B0"])
            pub = BrokerClient("pub", schema, transport, endpoints["B1"])
            for client in (alice, pub):
                client.connect()
            assert wait_until(lambda: alice.connected_broker and pub.connected_broker)
            alice.subscribe_and_wait("*", timeout_s=8.0)
            assert wait_until(lambda: all(n.subscription_count == 1 for n in nodes.values()))
            # Alice's connection looks open but refuses the ack.
            connection = alice._connection
            connection.send = closed_under_the_send

            pub.publish({"issue": "A", "price": 1.0, "volume": 1})
            assert wait_until(lambda: len(alice.received_events) == 1)
            log = nodes["B0"].session("alice").log
            # The ack never left, and the connection the delivery came in on
            # is still up.
            assert (log.last_seq, log.acked) == (1, 0)
            assert connection.is_open and alice.is_connected

            # A fresh session: the log redelivers the event; alice acks the
            # duplicate and does not process it again.
            alice.drop_connection()
            alice.connect(resume=False)
            assert wait_until(lambda: log.acked == 1)
            assert [seq for seq, _event in alice.deliveries] == [1]
            assert alice.received_events[0].value("issue") == "A"
        assert escaped == []
