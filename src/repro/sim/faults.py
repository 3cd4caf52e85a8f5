"""Fault injection, incremental repair and reliable replay.

The paper's Section 4.2 sketches how the multicast protocol survives
"transient failures of connections by maintaining an event log per client".
This module turns that sketch into a testable fault model for the simulator:

* :class:`FaultAction` / :class:`FaultPlan` — a script of link/broker
  failures, recoveries, joins and leaves, triggered either at simulated
  wall-clock times (``at_s``) or when the Nth event is published
  (``after_events``).  :meth:`FaultPlan.random` draws seeded random
  fail/recover pairs for chaos testing.
* :class:`FaultCoordinator` — applies the actions to the live topology,
  schedules **incremental repair** (``ProtocolContext.repair_topology`` →
  ``RoutingProtocol.on_topology_repaired``) ``repair_delay_ms`` later, and
  keeps the :class:`~repro.broker.event_log.EventLog` instances that make
  the failures survivable: per-link transmit logs, per-publisher logs, and
  per-client offline logs for subscribers cut off from the network.
* :func:`check_invariants` — verifies the two properties every run must
  preserve: **no event is lost to a live subscriber**, and **no link
  carries more than one copy** of an undisturbed event.

How a failure plays out
-----------------------

At the failure instant the topology is mutated (a broker failure removes
its broker-broker links; its clients become an unreachable island) and the
dead broker's input queue is swept into the pending-replay set.  Until the
repair fires, routing state is stale: messages forwarded toward the dead
element are *parked* at the failure boundary, each remembering the
downstream responsibility (the dead subtree, read from the tree as it was
when the routing decision was made).  The repair patches spanning trees,
routing tables and virtual-link masks incrementally, then:

* parked messages are re-injected at their holder with a ``replay_for``
  restriction, so the rerouted copies only traverse toward the failed
  element's responsibilities — subtrees already served are not traversed
  again (the ≤1-copy discipline for everyone else);
* responsibilities that are *still* unreachable (the dead broker's own
  clients) move to per-client offline logs, drained when a later repair
  re-covers the client — the paper's reconnect-replay;
* brokers whose mask layout changed can be held **stale** for
  ``annotation_lag_ms``: they degrade to tree flood-fallback (correct,
  wasteful) until their annotations catch up.

Events with a copy in flight across any mutation or repair are marked
*disturbed*: replay may legitimately duplicate deliveries and link copies
for them, so the ≤1-copy invariant is checked on undisturbed events only.
The no-loss invariant is checked on every event that entered the network.
"""

from __future__ import annotations

import random
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.broker.event_log import EventLog
from repro.errors import SimulationError
from repro.matching.predicates import Subscription
from repro.network.topology import Link, NodeKind
from repro.protocols.base import SimMessage
from repro.sim.engine import ms_to_ticks, seconds_to_ticks

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.runner import NetworkSimulation


# ----------------------------------------------------------------------
# The plan


_KINDS = (
    "fail_link",
    "recover_link",
    "fail_broker",
    "recover_broker",
    "join_broker",
    "leave_broker",
)


class FaultAction:
    """One scripted fault event.

    Exactly one of ``at_s`` (simulated seconds) or ``after_events`` (fire
    when the Nth event is published, 1-based) must be set.  Use the
    classmethod constructors; the raw constructor validates but does not
    guess.
    """

    __slots__ = ("kind", "target", "at_s", "after_events", "attach_to", "latency_ms", "clients")

    def __init__(
        self,
        kind: str,
        target: object,
        *,
        at_s: Optional[float] = None,
        after_events: Optional[int] = None,
        attach_to: Optional[str] = None,
        latency_ms: float = 10.0,
        clients: Tuple[str, ...] = (),
    ) -> None:
        if kind not in _KINDS:
            raise SimulationError(f"unknown fault kind {kind!r}")
        if (at_s is None) == (after_events is None):
            raise SimulationError("set exactly one of at_s / after_events")
        if at_s is not None and at_s < 0:
            raise SimulationError("at_s must be >= 0")
        if after_events is not None and after_events < 1:
            raise SimulationError("after_events is 1-based")
        if kind == "join_broker" and not attach_to:
            raise SimulationError("join_broker needs attach_to")
        self.kind = kind
        self.target = target
        self.at_s = at_s
        self.after_events = after_events
        self.attach_to = attach_to
        self.latency_ms = latency_ms
        self.clients = tuple(clients)

    # -- constructors ---------------------------------------------------

    @classmethod
    def fail_link(cls, a: str, b: str, **when: object) -> "FaultAction":
        return cls("fail_link", (a, b), **when)  # type: ignore[arg-type]

    @classmethod
    def recover_link(cls, a: str, b: str, **when: object) -> "FaultAction":
        return cls("recover_link", (a, b), **when)  # type: ignore[arg-type]

    @classmethod
    def fail_broker(cls, broker: str, **when: object) -> "FaultAction":
        return cls("fail_broker", broker, **when)  # type: ignore[arg-type]

    @classmethod
    def recover_broker(cls, broker: str, **when: object) -> "FaultAction":
        return cls("recover_broker", broker, **when)  # type: ignore[arg-type]

    @classmethod
    def join_broker(
        cls,
        broker: str,
        *,
        attach_to: str,
        latency_ms: float = 10.0,
        clients: Sequence[str] = (),
        **when: object,
    ) -> "FaultAction":
        return cls(
            "join_broker",
            broker,
            attach_to=attach_to,
            latency_ms=latency_ms,
            clients=tuple(clients),
            **when,  # type: ignore[arg-type]
        )

    @classmethod
    def leave_broker(cls, broker: str, **when: object) -> "FaultAction":
        return cls("leave_broker", broker, **when)  # type: ignore[arg-type]

    def __repr__(self) -> str:
        when = f"at_s={self.at_s}" if self.at_s is not None else f"after_events={self.after_events}"
        return f"FaultAction({self.kind}, {self.target!r}, {when})"


class FaultPlan:
    """An ordered script of :class:`FaultAction` (possibly empty).

    An empty plan still arms the coordinator's bookkeeping — benchmarks use
    it to run the invariant checkers over a healthy run.
    """

    def __init__(self, actions: Sequence[FaultAction] = ()) -> None:
        self.actions: Tuple[FaultAction, ...] = tuple(actions)

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    @classmethod
    def random(
        cls,
        topology,
        *,
        seed: int,
        failures: int = 2,
        window_s: Tuple[float, float] = (0.5, 2.5),
        outage_s: float = 0.5,
        kinds: Sequence[str] = ("link", "broker"),
        spare: Sequence[str] = (),
    ) -> "FaultPlan":
        """A seeded random chaos plan: ``failures`` fail/recover pairs.

        Publisher-hosting brokers (plus ``spare``) are never failed, so
        every run keeps injecting events; each element is targeted at most
        once so recoveries cannot race their own failures.
        """
        rng = random.Random(seed)
        protected = set(spare)
        for publisher in topology.publishers():
            protected.add(topology.broker_of(publisher))
        broker_pool = [b for b in topology.brokers() if b not in protected]
        link_pool = [
            link
            for link in topology.links()
            if not topology.node(link.a).kind.is_client
            and not topology.node(link.b).kind.is_client
        ]
        rng.shuffle(broker_pool)
        rng.shuffle(link_pool)
        actions: List[FaultAction] = []
        for _ in range(failures):
            start = rng.uniform(*window_s)
            kind = rng.choice(tuple(kinds))
            if kind == "broker" and broker_pool:
                broker = broker_pool.pop()
                actions.append(FaultAction.fail_broker(broker, at_s=start))
                actions.append(FaultAction.recover_broker(broker, at_s=start + outage_s))
            elif link_pool:
                link = link_pool.pop()
                actions.append(FaultAction.fail_link(link.a, link.b, at_s=start))
                actions.append(
                    FaultAction.recover_link(link.a, link.b, at_s=start + outage_s)
                )
        return cls(actions)

    def __repr__(self) -> str:
        return f"FaultPlan({len(self.actions)} actions)"


# ----------------------------------------------------------------------
# Internal bookkeeping records


class _Entry:
    """One logged copy of a message: where it came from, where it can be
    re-injected, and what subtree it was responsible for."""

    __slots__ = ("log_key", "seq", "message", "source", "target", "tree_gen", "responsibility")

    def __init__(
        self,
        log_key: Tuple[str, str],
        seq: int,
        message: SimMessage,
        source: str,
        target: Optional[str],
        tree_gen: int,
        responsibility: Optional[FrozenSet[str]],
    ) -> None:
        self.log_key = log_key
        self.seq = seq
        self.message = message
        self.source = source
        self.target = target
        self.tree_gen = tree_gen
        # None means "the whole tree" (publisher-side copies and copies
        # whose tree was repaired before the responsibility was read).
        self.responsibility = responsibility


class PublishRecord:
    """What the invariant checker needs to know about one published event."""

    __slots__ = ("event", "root", "publisher", "publish_ticks", "entered")

    def __init__(self, event, root: str, publisher: str, publish_ticks: int) -> None:
        self.event = event
        self.root = root
        self.publisher = publisher
        self.publish_ticks = publish_ticks
        #: Whether the event actually reached its root broker (immediately,
        #: or later via publisher-log replay).
        self.entered = False


# ----------------------------------------------------------------------
# The coordinator


class FaultCoordinator:
    """Applies a :class:`FaultPlan` to a running simulation (see module
    docstring for the failure/repair/replay lifecycle)."""

    def __init__(
        self,
        network: "NetworkSimulation",
        plan: FaultPlan,
        *,
        repair_delay_ms: float = 5.0,
        annotation_lag_ms: float = 0.0,
    ) -> None:
        if len(plan) and not network.protocol.supports_faults:
            raise SimulationError(
                f"protocol {network.protocol.name!r} does not support fault injection"
            )
        if repair_delay_ms < 0 or annotation_lag_ms < 0:
            raise SimulationError("repair/annotation delays must be >= 0")
        self.network = network
        self.topology = network.topology
        self.protocol = network.protocol
        self.plan = plan
        self.repair_delay_ms = repair_delay_ms
        self.annotation_lag_ms = annotation_lag_ms

        obs = network.registry.scope("sim.fault")
        self._obs_actions = obs.counter("actions_applied")
        self._obs_repairs = obs.counter("repairs")
        self._obs_parked = obs.counter("messages_parked")
        self._obs_dropped = obs.counter("messages_dropped_inflight")
        self._obs_swept = obs.counter("queue_swept")
        self._obs_pub_parked = obs.counter("publishes_parked")
        self._obs_replayed = obs.counter("messages_replayed")
        self._obs_pub_replayed = obs.counter("publishes_replayed")
        self._obs_offline_logged = obs.counter("offline_logged")
        self._obs_offline_replayed = obs.counter("offline_replayed")
        self._obs_stale_windows = obs.counter("stale_windows")
        self._obs_deferred_subs = obs.counter("deferred_subscriptions")
        self._obs_brokers_down = obs.gauge("brokers_down")
        self._obs_links_down = obs.gauge("links_down")

        # Element state
        self.down_brokers: Set[str] = set()
        self.left_brokers: Set[str] = set()
        self._down_links: Dict[Tuple[str, str], Link] = {}
        self._islands: Dict[str, List[Link]] = {}

        # Logs and replay state.  EventLogs keep the paper's per-client
        # sequence/ack/GC discipline; the entries themselves additionally
        # carry the live message so replay never depends on GC timing.
        self._logs: Dict[Tuple[str, str], EventLog] = {}
        self._offline_logs: Dict[str, EventLog] = {}
        self._offline_messages: Dict[str, Dict[int, SimMessage]] = {}
        self._entries: Dict[int, _Entry] = {}
        self._pending: List[_Entry] = []

        # Invariant bookkeeping
        self.events: Dict[int, PublishRecord] = {}
        self.disturbed: Set[int] = set()
        self._outstanding: Dict[int, int] = {}
        self.link_copies: Dict[Tuple[int, Tuple[str, str]], int] = {}
        self._tree_gen: Dict[str, int] = {}

        # Subscription epochs: (activation tick, subscriptions) — the
        # initial set is epoch 0, runtime additions get the tick at which
        # the protocol actually indexed them.
        self.subscription_epochs: List[Tuple[int, List[Subscription]]] = [
            (0, list(self.protocol.context.subscriptions))
        ]
        self._deferred_subscriptions: List[Subscription] = []

        self._publish_index = 0
        self._by_index: Dict[int, List[FaultAction]] = {}
        self._pending_repairs = 0
        self._stale_brokers: Set[str] = set()
        for action in plan:
            if action.after_events is not None:
                self._by_index.setdefault(action.after_events, []).append(action)
            else:
                network.simulator.schedule_at(
                    seconds_to_ticks(action.at_s or 0.0),
                    (lambda a=action: self._apply(a)),
                )
        # Subscribers with no live path per tree root, refreshed at every
        # repair; publishes consult it to fill offline logs.
        self._uncovered: Dict[str, FrozenSet[str]] = {}

    # ------------------------------------------------------------------
    # Element state queries

    def is_broker_down(self, broker: str) -> bool:
        return broker in self.down_brokers or broker in self.left_brokers

    @property
    def settled(self) -> bool:
        """No repair scheduled and no broker held stale."""
        return self._pending_repairs == 0 and not self._stale_brokers

    # ------------------------------------------------------------------
    # Hooks called by the simulation

    def on_publish(self, publisher: str, broker: str, message: SimMessage) -> bool:
        """Register a publish attempt; returns False when the event must be
        parked because the publisher's broker is down (it re-enters via the
        publisher log once the broker recovers)."""
        event_id = message.event.event_id
        now = self.network.simulator.now
        record = PublishRecord(message.event, message.root, publisher, now)
        self.events[event_id] = record
        self._publish_index += 1
        for action in self._by_index.pop(self._publish_index, ()):  # event-index triggers
            self.network.simulator.schedule(0, (lambda a=action: self._apply(a)))
        entry = self._log(("client", publisher), message, source=broker, target=broker)
        if self.is_broker_down(broker):
            self._obs_pub_parked.inc()
            self._park(entry)
            return False
        record.entered = True
        self._bump(event_id, +1)
        self._offline_log_uncovered(message)
        return True

    def on_transmit(self, source: str, target: str, message: SimMessage) -> bool:
        """Log an outgoing broker-broker copy; returns False (parked) when
        the link or the target is currently dead."""
        entry = self._log((source, target), message, source=source, target=target)
        if self.is_broker_down(target) or not self.topology.has_link(source, target):
            self._obs_parked.inc()
            self._park(entry)
            return False
        self._bump(message.event.event_id, +1)
        key = (message.event.event_id, self._link_key(source, target))
        self.link_copies[key] = self.link_copies.get(key, 0) + 1
        return True

    def on_arrival_lost(self, message: SimMessage) -> None:
        """A copy in flight when its link or target died drops at arrival."""
        self._obs_dropped.inc()
        self._bump(message.event.event_id, -1)
        entry = self._entries.get(message.message_id)
        if entry is not None:
            self._park(entry)

    def on_service_annihilated(self, messages: Sequence[SimMessage]) -> None:
        """Messages being serviced when their broker died."""
        for message in messages:
            self._bump(message.event.event_id, -1)
            entry = self._entries.get(message.message_id)
            if entry is not None:
                self._park(entry)

    def on_processed(self, broker: str, message: SimMessage) -> None:
        """A broker finished servicing a copy: ack its log entry."""
        self._bump(message.event.event_id, -1)
        entry = self._entries.pop(message.message_id, None)
        if entry is None:
            return
        log = self._logs[entry.log_key]
        log.ack(entry.seq)
        if entry.seq % 256 == 0:
            log.collect()

    # ------------------------------------------------------------------
    # Runtime subscriptions (thundering herds, joining subscribers)

    def add_subscription(self, subscription: Subscription) -> None:
        """Index a runtime subscription, deferring while the network is
        mid-repair (stale annotations would index against dying layouts)."""
        if not self.settled:
            self._obs_deferred_subs.inc()
            self._deferred_subscriptions.append(subscription)
            return
        self.protocol.add_subscription(subscription)
        self.subscription_epochs.append(
            (self.network.simulator.now, [subscription])
        )

    def _drain_deferred_subscriptions(self) -> None:
        if not self._deferred_subscriptions or not self.settled:
            return
        pending, self._deferred_subscriptions = self._deferred_subscriptions, []
        now = self.network.simulator.now
        for subscription in pending:
            self.protocol.add_subscription(subscription)
        self.subscription_epochs.append((now, pending))

    # ------------------------------------------------------------------
    # Applying actions

    def _apply(self, action: FaultAction) -> None:
        self._obs_actions.inc()
        kind = action.kind
        if kind == "fail_link":
            a, b = action.target  # type: ignore[misc]
            self._fail_link(a, b)
        elif kind == "recover_link":
            a, b = action.target  # type: ignore[misc]
            self._recover_link(a, b)
        elif kind == "fail_broker":
            self._fail_broker(str(action.target))
        elif kind == "recover_broker":
            self._recover_broker(str(action.target))
        elif kind == "leave_broker":
            self._leave_broker(str(action.target))
        elif kind == "join_broker":
            self._join_broker(action)
        self._disturb_in_flight()
        self._obs_brokers_down.set(len(self.down_brokers))
        self._obs_links_down.set(len(self._down_links))
        self._schedule_repair()

    def _fail_link(self, a: str, b: str) -> None:
        if self.topology.node(a).kind.is_client or self.topology.node(b).kind.is_client:
            raise SimulationError("only broker-broker links can fail")
        if self.topology.has_link(a, b):
            link = self.topology.remove_link(a, b)
        else:
            # The link may already be absent because an endpoint broker is
            # down and holds it in its island; failing it independently moves
            # ownership here so broker recovery does not resurrect it.
            link = self._pop_island_link(a, b)
            if link is None:
                raise SimulationError(f"no link between {a!r} and {b!r} to fail")
        self._down_links[link.key()] = link

    def _pop_island_link(self, a: str, b: str) -> Optional[Link]:
        key = (a, b) if a <= b else (b, a)
        for island in self._islands.values():
            for index, link in enumerate(island):
                if link.key() == key:
                    del island[index]
                    return link
        return None

    def _recover_link(self, a: str, b: str) -> None:
        key = (a, b) if a <= b else (b, a)
        link = self._down_links.pop(key, None)
        if link is None:
            raise SimulationError(f"link {a!r}-{b!r} is not down")
        if not (self.is_broker_down(a) or self.is_broker_down(b)):
            self.topology.add_link(a, b, latency_ms=link.latency_ms)
        else:
            # An endpoint is itself down; the link comes back with it.
            endpoint = a if self.is_broker_down(a) else b
            self._islands.setdefault(endpoint, []).append(link)

    def _fail_broker(self, broker: str) -> None:
        if self.is_broker_down(broker):
            raise SimulationError(f"broker {broker!r} is already down")
        island = self._islands.setdefault(broker, [])
        for neighbor in list(self.topology.broker_neighbors(broker)):
            island.append(self.topology.remove_link(broker, neighbor))
        self.down_brokers.add(broker)
        sim_broker = self.network.brokers[broker]
        for message in sim_broker.queue:
            self._obs_swept.inc()
            self._bump(message.event.event_id, -1)
            entry = self._entries.get(message.message_id)
            if entry is not None:
                self._park(entry)
        sim_broker.queue.clear()

    def _recover_broker(self, broker: str) -> None:
        if broker not in self.down_brokers:
            raise SimulationError(f"broker {broker!r} is not down")
        self.down_brokers.discard(broker)
        for link in self._islands.pop(broker, []):
            other = link.other(broker)
            if self.is_broker_down(other):
                # The far endpoint is still down; it owns the link now.
                self._islands.setdefault(other, []).append(link)
            elif other in self.topology and not self.topology.has_link(broker, other):
                self.topology.add_link(broker, other, latency_ms=link.latency_ms)

    def _leave_broker(self, broker: str) -> None:
        """A graceful, permanent departure: same cut as a failure, but the
        broker never recovers and the checker stops expecting deliveries to
        its clients."""
        if self.is_broker_down(broker):
            raise SimulationError(f"broker {broker!r} is already down")
        for publisher in self.topology.publishers():
            if self.topology.broker_of(publisher) == broker:
                raise SimulationError(f"{broker!r} hosts a publisher and cannot leave")
        self._fail_broker(broker)
        self.down_brokers.discard(broker)
        self.left_brokers.add(broker)
        self._islands.pop(broker, None)

    def _join_broker(self, action: FaultAction) -> None:
        from repro.sim.brokers import SimBroker

        broker = str(action.target)
        if broker in self.topology:
            raise SimulationError(f"{broker!r} is already in the topology")
        attach_to = action.attach_to or ""
        if attach_to not in self.topology or self.is_broker_down(attach_to):
            raise SimulationError(f"cannot attach {broker!r} to {attach_to!r}")
        self.topology.add_broker(broker)
        self.topology.add_link(broker, attach_to, latency_ms=action.latency_ms)
        for client in action.clients:
            self.topology.add_client(client, broker)
        self.network.brokers[broker] = SimBroker(
            self.network.simulator,
            broker,
            self.protocol,
            self.network.cost_model,
            self.network,
            batch_size=self.network.batch_size,
        )

    # ------------------------------------------------------------------
    # Repair

    def _schedule_repair(self) -> None:
        self._pending_repairs += 1
        self.network.simulator.schedule(ms_to_ticks(self.repair_delay_ms), self._run_repair)

    def _run_repair(self) -> None:
        self._pending_repairs -= 1
        self._disturb_in_flight()
        repair = self.protocol.context.repair_topology()
        self._obs_repairs.inc()
        for root in repair.tree_changes:
            self._tree_gen[root] = self._tree_gen.get(root, 0) + 1
        changed_brokers = self.protocol.on_topology_repaired(repair)
        old_uncovered = self._uncovered
        self._refresh_uncovered()
        self._offline_sweep_in_flight(old_uncovered)
        self._replay_moved_subscribers(repair)
        if self.annotation_lag_ms > 0 and changed_brokers:
            for broker in changed_brokers:
                self.protocol.set_stale(broker, True)
                self._stale_brokers.add(broker)
                self._obs_stale_windows.inc()
            self.network.simulator.schedule(
                ms_to_ticks(self.annotation_lag_ms),
                (lambda brokers=tuple(changed_brokers): self._clear_stale(brokers)),
            )
        self._drain_pending()
        self._drain_offline()
        self._drain_deferred_subscriptions()

    def _clear_stale(self, brokers: Tuple[str, ...]) -> None:
        for broker in brokers:
            self.protocol.set_stale(broker, False)
            self._stale_brokers.discard(broker)
        self._drain_deferred_subscriptions()

    def _refresh_uncovered(self) -> None:
        subscribers = frozenset(self.topology.subscribers())
        trees = self.protocol.context.spanning_trees
        self._uncovered = {}
        for root, tree in trees.items():
            missing = subscribers - tree.covered
            if missing:
                self._uncovered[root] = missing

    def _offline_sweep_in_flight(self, old_uncovered: Dict[str, FrozenSet[str]]) -> None:
        """Close the in-flight gap: an event published before a failure but
        still traveling when the repair lands will route with the repaired
        masks, which no longer cover the cut-off subscribers — and it was
        published too early for the publish-time offline logging.  Log every
        such event for the subscribers that just became uncovered."""
        newly: Dict[str, FrozenSet[str]] = {}
        for root, missing in self._uncovered.items():
            fresh = missing - old_uncovered.get(root, frozenset())
            if fresh:
                newly[root] = fresh
        if not newly:
            return
        for event_id in list(self._outstanding):
            record = self.events.get(event_id)
            if record is None or not record.entered:
                continue
            fresh = newly.get(record.root)
            if not fresh:
                continue
            message = SimMessage(
                record.event, record.root, publish_time_ticks=record.publish_ticks
            )
            for client in fresh:
                self._offline_append(client, message)

    def _replay_moved_subscribers(self, repair) -> None:
        """Close the re-parenting gap: a copy routed under the pre-repair
        tree can arrive at a broker that is no longer the subscriber's
        ancestor and die there, even though the subscriber stayed covered
        (it just hangs off a different parent now).  Every in-flight event
        is re-injected at its root restricted to the subscribers whose tree
        position changed; duplicates this causes are what the *disturbed*
        set exists for."""
        if not repair.tree_changes or not self._outstanding:
            return
        subscribers = frozenset(self.topology.subscribers())
        trees = self.protocol.context.spanning_trees
        moved_by_root: Dict[str, FrozenSet[str]] = {}
        for root, changed in repair.tree_changes.items():
            tree = trees.get(root)
            if tree is None:
                continue
            moved = frozenset(
                client
                for client in changed
                if client in subscribers and client in tree.parent
            )
            if moved:
                moved_by_root[root] = moved
        if not moved_by_root:
            return
        for event_id in list(self._outstanding):
            record = self.events.get(event_id)
            if record is None or not record.entered:
                continue
            moved = moved_by_root.get(record.root)
            if not moved:
                continue
            if record.root not in self.topology or self.is_broker_down(record.root):
                continue
            message = SimMessage(
                record.event, record.root, publish_time_ticks=record.publish_ticks
            )
            self._obs_replayed.inc()
            self._inject(record.root, message, replay_for=moved, hop=0)

    # ------------------------------------------------------------------
    # Logs, parking and replay

    def _link_key(self, a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def _log(
        self,
        log_key: Tuple[str, str],
        message: SimMessage,
        *,
        source: str,
        target: Optional[str],
    ) -> _Entry:
        log = self._logs.get(log_key)
        if log is None:
            log = EventLog(f"{log_key[0]}->{log_key[1]}")
            self._logs[log_key] = log
        seq = log.append(message)
        root = message.root
        entry = _Entry(
            log_key,
            seq,
            message,
            source,
            target,
            self._tree_gen.get(root, 0),
            None,
        )
        self._entries[message.message_id] = entry
        return entry

    def _park(self, entry: _Entry) -> None:
        """A copy became undeliverable: remember it for replay after repair."""
        message = entry.message
        self.disturbed.add(message.event.event_id)
        if self._entries.pop(message.message_id, None) is None:
            return  # already parked or processed
        if (
            entry.target is not None
            and entry.target != entry.source
            and entry.tree_gen == self._tree_gen.get(message.root, 0)
        ):
            tree = self.protocol.context.spanning_trees.get(message.root)
            if tree is not None and entry.source in tree.parent:
                downstream = tree.downstream_via(entry.source, entry.target)
                entry.responsibility = frozenset(
                    node
                    for node in downstream
                    if node in self.topology and self.topology.node(node).kind.is_client
                )
        # else: responsibility stays None = replay against the whole tree.
        self._logs[entry.log_key].ack(entry.seq)
        self._pending.append(entry)

    def _inject(
        self,
        broker: str,
        message: SimMessage,
        *,
        replay_for: Optional[FrozenSet[str]],
        hop: int,
    ) -> None:
        """Re-inject a replayed copy at ``broker`` (logged like any other
        copy, so a second failure re-parks it)."""
        copy = SimMessage(
            message.event,
            message.root,
            publish_time_ticks=message.publish_time_ticks,
            hop=hop,
            replay_for=replay_for,
        )
        self._log(("replay", broker), copy, source=broker, target=broker)
        self._bump(copy.event.event_id, +1)
        self.disturbed.add(copy.event.event_id)
        self.network.brokers[broker].receive(copy)

    def _drain_pending(self) -> None:
        pending, self._pending = self._pending, []
        trees = self.protocol.context.spanning_trees
        still: List[_Entry] = []
        for entry in pending:
            message = entry.message
            root = message.root
            record = self.events.get(message.event.event_id)
            if entry.responsibility is None and entry.target == entry.source:
                # Publisher-side or injected copy: the whole tree is owed.
                if self.is_broker_down(root) or root not in self.topology:
                    still.append(entry)
                    continue
                self._obs_pub_replayed.inc()
                if record is not None:
                    record.entered = True
                self._inject(root, message, replay_for=None, hop=message.hop)
                continue
            tree = trees.get(root)
            if entry.responsibility is None:
                clients = frozenset(
                    node for node in (tree.covered if tree else frozenset())
                    if self.topology.node(node).kind.is_client
                )
            else:
                clients = entry.responsibility
            covered = frozenset(
                client for client in clients if tree is not None and client in tree.parent
            )
            for client in clients - covered:
                if self.topology.node(client).kind is NodeKind.SUBSCRIBER:
                    self._offline_append(client, message)
            if not covered:
                continue
            # Replay from the holder only while it is still an ancestor of
            # everything owed (repair may have re-parented the subtree away
            # from it); otherwise from the root, which always is.
            inject_at = entry.source
            if (
                inject_at not in self.topology
                or self.is_broker_down(inject_at)
                or tree is None
                or inject_at not in tree.parent
                or any(
                    client != inject_at and not tree.is_downstream(client, inject_at)
                    for client in covered
                )
            ):
                inject_at = root
            if self.is_broker_down(inject_at) or inject_at not in self.topology:
                still.append(entry)
                continue
            self._obs_replayed.inc()
            self._inject(inject_at, message, replay_for=covered, hop=message.hop)
        self._pending.extend(still)

    def _offline_append(self, client: str, message: SimMessage) -> None:
        log = self._offline_logs.get(client)
        if log is None:
            log = EventLog(client)
            self._offline_logs[client] = log
            self._offline_messages[client] = {}
        seq = log.append(message.event.event_id)
        self._offline_messages[client][seq] = message
        self._obs_offline_logged.inc()
        self.disturbed.add(message.event.event_id)

    def _offline_log_uncovered(self, message: SimMessage) -> None:
        """An event entering while some subscribers are cut off goes to
        their offline logs (the paper's reconnect-replay source)."""
        if not self._uncovered:
            return
        for client in self._uncovered.get(message.root, ()):  # post-repair gaps only
            self._offline_append(client, message)

    def _drain_offline(self) -> None:
        trees = self.protocol.context.spanning_trees
        for client, log in self._offline_logs.items():
            backlog = log.entries_after(log.acked)
            if not backlog:
                continue
            broker = self.topology.broker_of(client)
            if self.is_broker_down(broker):
                continue
            messages = self._offline_messages[client]
            only = frozenset((client,))
            for seq, _event_id in backlog:
                message = messages.pop(seq)
                tree = trees.get(message.root)
                if tree is None or client not in tree.parent:
                    messages[seq] = message  # still cut off on this tree
                    continue
                self._obs_offline_replayed.inc()
                self._inject(broker, message, replay_for=only, hop=message.hop)
                log.ack(seq)
            log.collect()

    # ------------------------------------------------------------------
    # Disturbance tracking

    def _bump(self, event_id: int, delta: int) -> None:
        value = self._outstanding.get(event_id, 0) + delta
        if value:
            self._outstanding[event_id] = value
        else:
            self._outstanding.pop(event_id, None)

    def _disturb_in_flight(self) -> None:
        """Any event with copies in the network across a mutation or repair
        may see replay duplicates — exclude it from the ≤1-copy check."""
        self.disturbed.update(self._outstanding)

    def __repr__(self) -> str:
        return (
            f"FaultCoordinator({len(self.plan)} actions, down={sorted(self.down_brokers)}, "
            f"links_down={len(self._down_links)})"
        )


# ----------------------------------------------------------------------
# Invariant checking


class InvariantReport:
    """The two resilience invariants, checked over a finished run.

    ``lost`` — (subscriber, event_id) pairs a live, covered subscriber
    should have received but never did.  ``duplicates`` — (event_id, link,
    count) triples where an *undisturbed* event crossed one link more than
    once.  Both lists must be empty for a run to pass.
    """

    def __init__(
        self,
        lost: List[Tuple[str, int]],
        duplicates: List[Tuple[int, Tuple[str, str], int]],
        events_checked: int,
        expected_deliveries: int,
        copies_checked: int,
        disturbed_events: int,
    ) -> None:
        self.lost = lost
        self.duplicates = duplicates
        self.events_checked = events_checked
        self.expected_deliveries = expected_deliveries
        self.copies_checked = copies_checked
        self.disturbed_events = disturbed_events

    @property
    def ok(self) -> bool:
        return not self.lost and not self.duplicates

    def summary(self) -> str:
        status = "OK" if self.ok else "VIOLATED"
        return (
            f"invariants {status}: {self.events_checked} events, "
            f"{self.expected_deliveries} expected deliveries, {len(self.lost)} lost; "
            f"{self.copies_checked} undisturbed link copies, "
            f"{len(self.duplicates)} duplicated ({self.disturbed_events} events disturbed)"
        )

    def __repr__(self) -> str:
        return f"InvariantReport({self.summary()})"


def check_invariants(result, coordinator: FaultCoordinator) -> InvariantReport:
    """Check *no event lost to a live subscriber* and *≤1 copy per link*.

    A subscriber expects an event iff one of its subscriptions was active
    when the event was published, the event entered the network, and — at
    end state — the subscriber's broker is alive and the subscriber is
    covered by the event's spanning tree (clients cut off at the end of the
    run are owed the events on reconnect, not during this run).
    """
    topology = coordinator.topology
    context = coordinator.protocol.context
    delivered = {
        (record.client, record.event_id)
        for record in result.deliveries
        if record.matched
    }
    lost: List[Tuple[str, int]] = []
    expected_count = 0
    events_checked = 0
    for event_id, record in coordinator.events.items():
        if not record.entered:
            continue
        events_checked += 1
        tree = context.spanning_trees.get(record.root)
        if tree is None:
            continue
        expected: Set[str] = set()
        # Each predicate evaluated directly — the reference semantics,
        # sharing no code with the routing being checked — per subscription
        # epoch, so runtime subscriptions are only expected for events
        # published after they were indexed.
        for activation, subscriptions in coordinator.subscription_epochs:
            if activation > record.publish_ticks:
                continue
            expected.update(
                s.subscriber for s in subscriptions if s.predicate.matches(record.event)
            )
        for subscriber in expected:
            if subscriber not in topology or subscriber not in tree.parent:
                continue
            broker = topology.broker_of(subscriber)
            if coordinator.is_broker_down(broker):
                continue
            expected_count += 1
            if (subscriber, event_id) not in delivered:
                lost.append((subscriber, event_id))
    duplicates: List[Tuple[int, Tuple[str, str], int]] = []
    copies_checked = 0
    for (event_id, link), count in coordinator.link_copies.items():
        if event_id in coordinator.disturbed:
            continue
        copies_checked += count
        if count > 1:
            duplicates.append((event_id, link, count))
    return InvariantReport(
        sorted(lost),
        sorted(duplicates),
        events_checked,
        expected_count,
        copies_checked,
        len(coordinator.disturbed),
    )
