"""Outside-in tracing: spans around the public callables of each layer.

The traced run installs timing wrappers from *this* file — nothing under
``src/`` changes.  Every wrapper records one :class:`Span` (name, start,
end, the enclosing span on the same thread, the thread, and — for a message
handler — the ``send`` span that caused it).  Spans stay in per-thread
lists in memory; :meth:`Tracer.drain` hands them to :func:`budget`, which
turns them into per-name call counts, total time and *self* time (a span's
duration minus the part of it its child spans cover).

Layers are the repo's modules; :data:`LAYER_OF` maps each span name to one.
Time no wrapper covers inside a message handler stays in that handler's
self time, so it lands on ``broker.node`` (prototype) or ``sim`` (simulator).
"""

from __future__ import annotations

import itertools
import sys
import threading
from array import array
from collections import deque
from time import perf_counter, sleep
from typing import Any, Callable, Deque, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    #: The enclosing span on the same thread (0 = none).
    parent: int
    thread: int
    #: For a message handler: the ``transport.send`` span that queued the
    #: payload, possibly on another thread (0 = none).
    cause: int
    #: ``id()`` of the receiver object for spans that need it (0 = unset).
    obj: int


#: span name -> layer (a module of this repo, or the harness itself).
LAYER_OF: Dict[str, str] = {
    "client.publish": "broker.client",
    "client.ack": "broker.client",
    "client.request": "broker.client",
    "client.on_message": "broker.client",
    "codec.encode_event": "broker.codec",
    "codec.decode_event": "broker.codec",
    "messages.encode": "broker.messages",
    "messages.decode": "broker.messages",
    "transport.send": "broker.transport",
    "transport.pump": "broker.transport",
    "node.on_message": "broker.node",
    "event_log.append": "broker.event_log",
    "event_log.ack": "broker.event_log",
    "event_log.collect": "broker.event_log",
    "router.route": "core.router",
    "router.route_with_digest": "core.router",
    "router.add_subscription": "core.router",
    "router.remove_subscription": "core.router",
    "engine.match": "matching",
    "engine.project_links": "matching",
    "parser.parse": "matching.parser",
    "protocol.handle": "protocols.link_matching",
    "sim.run": "sim",
    "harness.on_event": "harness",
}

_MISSING = object()
#: ``on_enter(args, start, span_id) -> cause span id`` hook of a wrapper.
EnterHook = Callable[[Tuple[Any, ...], float, int], int]


class _ThreadBuffer:
    """One thread's open-span stack and finished spans.

    Finished spans are kept as two flat arrays, not as objects: a list of
    hundreds of thousands of tuples makes every generational collection
    during the traced run longer, which doubled the tracing overhead."""

    __slots__ = ("thread", "stack", "times", "fields")

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.stack: List[int] = []
        self.times = array("d")  # start, end
        self.fields = array("q")  # id, name index, parent, cause, obj


class Tracer:
    """Records spans and the transport counters that ride on them."""

    def __init__(self) -> None:
        #: Wrappers call straight through while this is false, so set-up
        #: chatter and between-repetition hygiene stay out of the budget.
        self.active = False
        self._ids = itertools.count(1)
        self._names: List[str] = []
        self._local = threading.local()
        self._buffers: List[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        # payload -> (send start, send span id), oldest first.
        self._in_flight: Dict[bytes, Deque[Tuple[float, int]]] = {}
        self.reset_counters()

    def reset_counters(self) -> None:
        self.messages_sent = 0
        self.bytes_sent = 0
        self.transit_total_s = 0.0
        self.transit_count = 0
        self.queue_depth = 0
        self.queue_depth_max = 0
        self.forwarded_events = 0
        self.digest_bytes = 0

    # ------------------------------------------------------------------
    # Recording

    def _buffer(self) -> _ThreadBuffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = self._local.buffer = _ThreadBuffer(threading.get_ident())
            with self._lock:
                self._buffers.append(buffer)
        return buffer

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        *,
        on_enter: Optional[EnterHook] = None,
        keep_obj: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call."""
        tracer = self
        next_id = self._ids.__next__
        if name not in self._names:
            self._names.append(name)
        name_index = self._names.index(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            buffer = tracer._buffer()
            stack = buffer.stack
            span_id = next_id()
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = perf_counter()
            cause = on_enter(args, start, span_id) if on_enter is not None else 0
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                buffer.times.extend((start, end))
                buffer.fields.extend(
                    (span_id, name_index, parent, cause, id(args[0]) if keep_obj else 0)
                )
                stack.pop()  # last: an empty stack means every span is recorded

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def quiesce(self, timeout_s: float = 2.0) -> None:
        """Stop recording once no thread is inside a span (a handler thread
        may still be finishing the last message of a repetition)."""
        deadline = perf_counter() + timeout_s
        while perf_counter() < deadline:
            with self._lock:
                if not any(buffer.stack for buffer in self._buffers):
                    break
            sleep(0.0005)
        self.active = False

    def drain(self) -> List[Span]:
        """All finished spans so far, oldest first; the buffers are emptied."""
        with self._lock:
            buffers = list(self._buffers)
        spans: List[Span] = []
        names = self._names
        for buffer in buffers:
            times, buffer.times = buffer.times, array("d")
            fields, buffer.fields = buffer.fields, array("q")
            for index in range(len(times) // 2):
                span_id, name, parent, cause, obj = fields[5 * index : 5 * index + 5]
                spans.append(
                    Span(
                        span_id,
                        names[name],
                        times[2 * index],
                        times[2 * index + 1],
                        parent,
                        buffer.thread,
                        cause,
                        obj,
                    )
                )
        spans.sort(key=lambda span: span.start)
        return spans

    # ------------------------------------------------------------------
    # Transport bookkeeping (hooks of the send / on_message wrappers)

    def _note_send(self, args: Tuple[Any, ...], start: float, span_id: int) -> int:
        payload = bytes(args[1])
        with self._lock:
            self.messages_sent += 1
            self.bytes_sent += len(payload)
            self.queue_depth += 1
            if self.queue_depth > self.queue_depth_max:
                self.queue_depth_max = self.queue_depth
            self._in_flight.setdefault(payload, deque()).append((start, span_id))
        return 0

    def _note_receive(self, args: Tuple[Any, ...], start: float, span_id: int) -> int:
        # Payloads are matched by content, oldest first: both transports are
        # FIFO per connection, and equal payloads on different connections
        # are interchangeable for a mean.
        payload = args[0]
        with self._lock:
            pending = self._in_flight.get(payload)
            if not pending:
                return 0  # sent before tracing was switched on
            sent_at, cause = pending.popleft()
            if not pending:
                del self._in_flight[payload]
            self.queue_depth -= 1
            self.transit_total_s += start - sent_at
            self.transit_count += 1
        return cause

    def _note_encode(self, args: Tuple[Any, ...], start: float, span_id: int) -> int:
        from repro.broker import messages as wire

        message = args[0]
        if isinstance(message, wire.BrokerEvent):
            digests: Iterable[Any] = (message.digest,)
            entries = 1
        elif isinstance(message, wire.BrokerEventBatch):
            digests = message.digests
            entries = len(message.entries)
        else:
            return 0
        size = sum(d.encoded_size_bytes for d in digests if d is not None)
        with self._lock:
            self.forwarded_events += entries
            self.digest_bytes += size
        return 0

    # ------------------------------------------------------------------
    # Installing the wrappers

    def _patch_attribute(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def _patch_method(self, owner: type, attr: str, name: str, **options: Any) -> None:
        self._patch_attribute(owner, attr, self.wrap(vars(owner)[attr], name, **options))

    def _patch_function(self, module: Any, attr: str, name: str, **options: Any) -> None:
        """Wrap a module-level function in *every* ``repro`` module that
        holds a binding of it (``from x import f`` copies the binding)."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, **options)
        for module_name, candidate in list(sys.modules.items()):
            if candidate is None or not module_name.startswith("repro"):
                continue
            for key, value in list(vars(candidate).items()):
                if value is original:
                    self._patch_attribute(candidate, key, wrapped)

    def install(self) -> None:
        """Wrap the fixed list of public callables (see the README)."""
        import repro.broker.engine  # noqa: F401  (binds decode_event/parse_predicate by name)
        from repro.broker import codec, messages, tcp, transport
        from repro.broker.client import BrokerClient
        from repro.broker.event_log import EventLog
        from repro.core.router import ContentRouter
        from repro.matching import parser
        from repro.matching.compile import CompiledProgram
        from repro.matching.engines import CompiledEngine
        from repro.protocols.link_matching import LinkMatchingProtocol
        from repro.sim.runner import NetworkSimulation

        if self._patches:
            raise RuntimeError("tracer is already installed")
        for attr in ("publish", "publish_many"):
            self._patch_method(BrokerClient, attr, "client.publish")
        self._patch_method(BrokerClient, "ack", "client.ack")
        for attr in ("subscribe_and_wait", "unsubscribe_and_wait"):
            self._patch_method(BrokerClient, attr, "client.request")
        self._patch_function(codec, "encode_event", "codec.encode_event")
        self._patch_function(codec, "decode_event", "codec.decode_event")
        self._patch_function(
            messages, "encode_message", "messages.encode", on_enter=self._note_encode
        )
        self._patch_function(messages, "decode_message", "messages.decode")
        for connection_class in (transport.InMemoryConnection, tcp.TcpConnection):
            self._patch_method(
                connection_class, "send", "transport.send", on_enter=self._note_send
            )
        self._patch_method(transport.InMemoryHub, "pump", "transport.pump")
        self._install_on_message(transport.Connection, BrokerClient)
        for attr in ("append", "ack", "collect"):
            self._patch_method(EventLog, attr, f"event_log.{attr}")
        for attr in ("route", "route_batch", "route_digest", "route_digest_batch"):
            self._patch_method(ContentRouter, attr, "router.route", keep_obj=True)
        self._patch_method(
            ContentRouter, "route_with_digest", "router.route_with_digest", keep_obj=True
        )
        for attr in ("add_subscription", "remove_subscription"):
            self._patch_method(ContentRouter, attr, f"router.{attr}", keep_obj=True)
        for attr in ("match", "match_batch", "match_links", "match_links_batch"):
            self._patch_method(CompiledEngine, attr, "engine.match")
        # The factored router bypasses the engine and calls its per-sub-tree
        # programs directly.
        for attr in ("match_links", "match_links_batch"):
            self._patch_method(CompiledProgram, attr, "engine.match")
        self._patch_method(CompiledEngine, "project_links", "engine.project_links")
        self._patch_function(parser, "parse_predicate", "parser.parse")
        for attr in ("handle", "handle_batch"):
            self._patch_method(LinkMatchingProtocol, attr, "protocol.handle")
        self._patch_method(NetworkSimulation, "run", "sim.run")

    def _install_on_message(self, connection_class: type, client_class: type) -> None:
        """Time the ``on_message`` callback of every connection.

        Handlers are plain instance attributes assigned after construction,
        so a class-level property intercepts the reads: the raw handler stays
        in the instance ``__dict__`` (where it is found again once the
        property is removed) and readers get a wrapped one.
        """
        tracer = self

        def get_handler(connection: Any) -> Any:
            state = vars(connection)
            handler = state.get("on_message")
            if handler is None or not tracer.active:
                return handler
            cached = state.get("_e2e_traced_handler")
            if cached is None or cached[0] is not handler:
                owner = getattr(handler, "__self__", None)
                name = (
                    "client.on_message" if isinstance(owner, client_class) else "node.on_message"
                )
                cached = (handler, tracer.wrap(handler, name, on_enter=tracer._note_receive))
                state["_e2e_traced_handler"] = cached
            return cached[1]

        def set_handler(connection: Any, handler: Any) -> None:
            vars(connection)["on_message"] = handler

        self._patch_attribute(connection_class, "on_message", property(get_handler, set_handler))

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# ----------------------------------------------------------------------
# From spans to a budget


class Row(NamedTuple):
    calls: int
    total_s: float
    self_s: float


def budget(spans: Iterable[Span]) -> Dict[str, Row]:
    """Per span name: calls, total (inclusive) time and self time.

    Self time is the span's duration minus the part of that interval its
    child spans cover.  A child is a span whose ``parent`` is this span;
    parents are always on the same thread, where spans nest and siblings
    never overlap, so the covered part is the sum of the children's
    durations clipped to the parent's interval.  A handler caused by a
    ``send`` on another thread (``cause``) is *not* that send's child: it
    runs concurrently and takes nothing from the sender's self time.
    """
    spans = list(spans)
    bounds = {span.id: (span.start, span.end) for span in spans}
    covered: Dict[int, float] = {}
    for span in spans:
        limits = bounds.get(span.parent)
        if limits is None:
            continue
        overlap = min(span.end, limits[1]) - max(span.start, limits[0])
        if overlap > 0:
            covered[span.parent] = covered.get(span.parent, 0.0) + overlap
    rows: Dict[str, List[float]] = {}
    for span in spans:
        duration = span.end - span.start
        row = rows.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - covered.get(span.id, 0.0)
    return {name: Row(int(calls), total, own) for name, (calls, total, own) in rows.items()}


def by_layer(rows: Dict[str, Row]) -> Dict[str, Row]:
    """Budget rows folded by layer (calls, total and self summed)."""
    layers: Dict[str, List[float]] = {}
    for name, row in rows.items():
        entry = layers.setdefault(LAYER_OF.get(name, name), [0, 0.0, 0.0])
        entry[0] += row.calls
        entry[1] += row.total_s
        entry[2] += row.self_s
    return {layer: Row(int(c), t, s) for layer, (c, t, s) in layers.items()}


def format_budget(rows: Dict[str, Row], wall_s: float, events: int) -> str:
    """The budget table: layer, span, calls, total ms, self ms, self us per
    published event and share of wall — spans grouped under their layer,
    layers ordered by self time."""
    layers = by_layer(rows)
    lines = [
        f"{'layer / span':<34}{'calls':>10}{'total ms':>12}{'self ms':>12}"
        f"{'us/event':>10}{'share':>8}"
    ]

    def line(label: str, row: Row) -> str:
        return (
            f"{label:<34}{row.calls:>10}{row.total_s * 1e3:>12.1f}{row.self_s * 1e3:>12.1f}"
            f"{row.self_s * 1e6 / max(1, events):>10.2f}{row.self_s / wall_s:>8.1%}"
        )

    for layer in sorted(layers, key=lambda key: -layers[key].self_s):
        lines.append(line(layer, layers[layer]))
        members = [name for name in rows if LAYER_OF.get(name, name) == layer]
        if members != [layer]:
            for name in sorted(members, key=lambda key: -rows[key].self_s):
                lines.append(line("  " + name, rows[name]))
    covered = sum(row.self_s for row in rows.values())
    lines.append(
        f"{'sum of self times':<34}{'':>10}{'':>12}{covered * 1e3:>12.1f}"
        f"{covered * 1e6 / max(1, events):>10.2f}{covered / wall_s:>8.1%}"
    )
    lines.append(f"{'wall':<34}{'':>10}{'':>12}{wall_s * 1e3:>12.1f}")
    return "\n".join(lines)


def check_call_counts(rows: Dict[str, Row], expected: Dict[str, int]) -> List[str]:
    """Mismatches between wrapper call counts and what the oracle predicts.

    A wrapper that silently failed to bind (a module that kept its own
    ``from x import f`` binding, say) shows up here as a short count."""
    problems = []
    for name in sorted(expected):
        got = rows[name].calls if name in rows else 0
        if got != expected[name]:
            problems.append(f"{name}: {got} calls traced, {expected[name]} predicted")
    return problems


def first_route_after_churn(spans: Iterable[Span]) -> List[float]:
    """Durations of the first ``router.route*`` span on each router after an
    ``add_subscription``/``remove_subscription`` on that same router — where
    the deferred cost of churn (recompile, re-annotate, cache flush) lands."""
    dirty = set()
    durations = []
    for span in spans:  # oldest first
        if span.name in ("router.add_subscription", "router.remove_subscription"):
            dirty.add(span.obj)
        elif span.name in ("router.route", "router.route_with_digest") and span.obj in dirty:
            dirty.discard(span.obj)
            durations.append(span.end - span.start)
    return durations
