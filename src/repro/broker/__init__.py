"""The prototype broker of Section 4.2: matching engine, client and broker
protocols with reliable redelivery, connection manager, and pluggable
transports (in-memory and TCP with a sender-thread pool)."""

from repro.broker.client import BrokerClient, EventHandler, RequestFailed
from repro.broker.codec import decode_event, encode_event
from repro.broker.engine import MatchingEngine
from repro.broker.event_log import EventLog
from repro.broker.messages import MessageType, decode_message, encode_message
from repro.broker.node import BrokerNetworkConfig, BrokerNode, ClientSession
from repro.broker.persistent_log import FileEventLog
from repro.broker.tcp import SenderPool, TcpConnection, TcpTransport, parse_endpoint
from repro.broker.transport import (
    Connection,
    InMemoryHub,
    InMemoryTransport,
    Listener,
    Transport,
)

__all__ = [
    "BrokerClient",
    "BrokerNetworkConfig",
    "BrokerNode",
    "ClientSession",
    "Connection",
    "EventHandler",
    "EventLog",
    "FileEventLog",
    "InMemoryHub",
    "InMemoryTransport",
    "Listener",
    "MatchingEngine",
    "MessageType",
    "RequestFailed",
    "SenderPool",
    "TcpConnection",
    "TcpTransport",
    "Transport",
    "decode_event",
    "decode_message",
    "encode_event",
    "encode_message",
    "parse_endpoint",
]
