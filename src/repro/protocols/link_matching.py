"""Link matching as a simulator protocol.

The broker step itself is :meth:`repro.core.router.ContentRouter.route_hop`
(annotation, mask refinement and match-once digests); this protocol carries
its result on the virtual clock.  Every broker holds a router over the full
replicated subscription set; the decision for a message is its router's
``route_hop`` result for the message's spanning tree.  The replica exists
once per process, factored or not: the protocol builds it with
:func:`~repro.matching.engines.create_matcher`, inserts every subscription
once, and every router keeps only its own trit annotations of it.

Resilience (see :mod:`repro.sim.faults` and ``docs/resilience.md``):

* After a topology repair, :meth:`on_topology_repaired` rebuilds each
  affected broker's virtual-link table and rebinds its view — discarding
  the annotation keyed on the old positions.  Unaffected brokers keep
  theirs.
* While a broker is marked *stale* (structure repaired, annotations not yet
  rebuilt) it degrades to **flood fallback**: forward to every live
  spanning-tree child and deliver to locally matching subscribers.  Tree
  flooding preserves the ≤1-copy-per-link invariant and loses nothing; it
  merely wastes bandwidth until the annotations catch up.
* Messages carrying a ``replay_for`` restriction (replayed after a failure)
  are routed against a mask narrowed to the failed element's
  responsibilities, so subtrees that already received the event are not
  traversed again.

Match-once forwarding (see ``docs/performance.md``): the publisher's broker
matches once and the in-flight message carries an epoch-tagged
:class:`~repro.matching.digest.MatchDigest`, which every downstream broker
converts straight into its own link mask.  ``route_hop`` decides when a
digest is minted, trusted or dropped; this protocol only tells it that a
broker holding deferred subscriptions, or a protocol with ``use_digests``
off, is not ``trusted``.  Stale brokers flood and replays rematch, so the
fault suite's zero-loss/≤1-copy invariants hold unchanged.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.router import ContentRouter, Hop
from repro.errors import RoutingError
from repro.matching.engines import create_matcher
from repro.matching.predicates import Subscription
from repro.obs import Counter, get_registry
from repro.protocols.base import (
    Decision,
    ProtocolContext,
    RoutingProtocol,
    SimMessage,
    TopologyRepair,
)


class LinkMatchingProtocol(RoutingProtocol):
    """The paper's protocol: hop-by-hop partial matching."""

    name = "link-matching"
    supports_faults = True

    def __init__(self, context: ProtocolContext, *, use_digests: bool = True) -> None:
        super().__init__(context)
        self._obs = get_registry().scope("protocol.link_matching")
        self._obs_handled = self._obs.counter("events_handled")
        self._obs_flood_fallbacks = self._obs.counter("flood_fallbacks")
        self._obs_replays_routed = self._obs.counter("replays_routed")
        self._obs_link_rebuilds = self._obs.counter("link_table_rebuilds")
        # Hop distance -> its (refinement_steps, deliveries) counters, fetched
        # on the first message at that distance (bounded by the diameter).
        self._obs_per_hop: Dict[int, Tuple[Counter, Counter]] = {}
        #: Match-once forwarding toggle; ``False`` restores classic per-hop
        #: rematching everywhere (the benchmark baseline).
        self.use_digests = use_digests
        self._subscriptions: List[Subscription] = list(context.subscriptions)
        self._stale: Set[str] = set()
        # Subscriptions a router could not index yet (subscriber cut off at
        # build time); retried after every repair.
        self._deferred: Dict[str, List[Subscription]] = {}
        # The one subscription replica every router routes on.
        self.replica = create_matcher(context.schema, **context.matcher_options)
        for subscription in self._subscriptions:
            self.replica.insert(subscription)
        self.routers: Dict[str, ContentRouter] = {}
        for broker in context.topology.brokers():
            self.routers[broker] = self._build_router(broker)
        # Routers with deferred subscriptions bumped their epoch fewer times
        # during the build; align the counters (the per-broker deferred check
        # guards the actual set divergence).
        self._sync_epochs(bump=False)

    def _build_router(self, broker: str) -> ContentRouter:
        context = self.context
        router = ContentRouter(
            context.topology,
            broker,
            context.routing_tables[broker],
            context.spanning_trees,
            self.replica,
        )
        for subscription in self._subscriptions:
            try:
                router.add_subscription(subscription)
            except RoutingError:
                # A subscriber currently cut off owns no virtual link at this
                # broker (the replica holds it, lighting no link); retried
                # after the repair that reattaches it.
                self._deferred.setdefault(broker, []).append(subscription)
        return router

    # ------------------------------------------------------------------
    # Fault hooks

    def on_topology_repaired(self, repair: TopologyRepair) -> List[str]:
        """Rebuild virtual-link tables for affected brokers only.

        Returns the brokers whose layout actually changed (view
        rebound) — the fault coordinator holds those in a stale
        window with flood fallback until their annotations are rebuilt.
        """
        context = self.context
        for broker in repair.joined_brokers:
            old = self.routers.get(broker)
            if old is not None:
                old.close()
            self.routers[broker] = self._build_router(broker)
        if not repair.changed:
            return list(repair.joined_brokers)
        changed_brokers: List[str] = list(repair.joined_brokers)
        touched = set(repair.routing_changes)
        if repair.tree_changes:
            # A tree change can move downstream signatures at any broker.
            touched.update(self.routers)
        for broker in sorted(touched):
            if broker in repair.joined_brokers:
                continue
            router = self.routers.get(broker)
            if router is None:
                continue
            if router.rebuild_links(
                context.routing_tables[broker], context.spanning_trees
            ):
                self._obs_link_rebuilds.inc()
                changed_brokers.append(broker)
        # Subscriptions whose subscribers were cut off when a router was
        # built become indexable once the repair reattaches them.
        for broker, pending in list(self._deferred.items()):
            router = self.routers.get(broker)
            if router is None:
                del self._deferred[broker]
                continue
            still_deferred: List[Subscription] = []
            for subscription in pending:
                try:
                    router.add_subscription(subscription)
                except RoutingError:
                    still_deferred.append(subscription)
            if still_deferred:
                self._deferred[broker] = still_deferred
            else:
                del self._deferred[broker]
        # Rebuilds and deferred retries moved individual routers' epochs by
        # different amounts; re-align past every in-flight digest so a
        # pre-repair digest can never be mistaken for current.
        self._sync_epochs(bump=True)
        return changed_brokers

    def _sync_epochs(self, *, bump: bool) -> None:
        """Bring every router's subscription-set epoch to one common value
        (the brokers hold replicas of one set); with ``bump``, move strictly
        past every existing value so older digests are invalidated."""
        if not self.routers:
            return
        epoch = max(router.subscription_epoch for router in self.routers.values())
        if bump:
            epoch += 1
        for router in self.routers.values():
            router.sync_epoch(epoch)

    def set_stale(self, broker: str, stale: bool) -> None:
        if stale:
            self._stale.add(broker)
        else:
            self._stale.discard(broker)

    def add_subscription(self, subscription: Subscription) -> None:
        """Insert a subscription into the replica, once (a duplicate raises
        here), and tell every broker's router at runtime."""
        self.replica.insert(subscription)
        self._subscriptions.append(subscription)
        for broker, router in self.routers.items():
            try:
                router.add_subscription(subscription)
            except RoutingError:
                self._deferred.setdefault(broker, []).append(subscription)
        # Deferred routers didn't bump; keep the counters in lockstep (their
        # set divergence is caught by the deferred check and the digest
        # checksum, not the counter).
        self._sync_epochs(bump=False)

    # ------------------------------------------------------------------
    # Decisions

    def handle(self, broker: str, message: SimMessage) -> Decision:
        """One message's :meth:`_decide`, without a group (the simulator's
        hot path)."""
        if broker in self._stale:
            return self._flood(broker, (message,))[0]
        (hop,) = self.routers[broker].route_hop(
            (message.event,),
            message.root,
            (message.digest,),
            trusted=self.use_digests and broker not in self._deferred,
            restrict_to=message.replay_for,
        )
        return self._decision_for(message, hop)

    def handle_batch(self, broker: str, messages: Sequence[SimMessage]) -> List[Decision]:
        """Decision ``i`` is exactly ``handle(broker, messages[i])``; the
        batch reaches the router's batch kernels (see :meth:`_decide`)."""
        return self._decide(broker, messages)

    def _decide(self, broker: str, messages: Sequence[SimMessage]) -> List[Decision]:
        """One :meth:`~repro.core.router.ContentRouter.route_hop` per
        spanning-tree root and replay restriction (the initialization mask
        depends on both), or the flood fallback at a stale broker."""
        if broker in self._stale:
            return self._flood(broker, messages)
        router = self.routers[broker]
        trusted = self.use_digests and broker not in self._deferred
        groups: Dict[Tuple[str, Optional[FrozenSet[str]]], List[int]] = {}
        for i, message in enumerate(messages):
            groups.setdefault((message.root, message.replay_for), []).append(i)
        decisions: List[Decision] = [None] * len(messages)  # type: ignore[list-item]
        for (root, replay_for), indices in groups.items():
            events = [messages[i].event for i in indices]
            digests = [messages[i].digest for i in indices]
            hops = router.route_hop(events, root, digests, trusted=trusted, restrict_to=replay_for)
            for i, hop in zip(indices, hops):
                decisions[i] = self._decision_for(messages[i], hop)
        return decisions

    def _flood(self, broker: str, messages: Sequence[SimMessage]) -> List[Decision]:
        """Graceful degradation while annotations are stale: flood the
        (already repaired) spanning tree, and match in one batch pass only
        for local delivery (narrowed by a message's ``replay_for``).  Tree
        flooding keeps ≤1 copy per link and reaches every live subscriber;
        only bandwidth is wasted."""
        router = self.routers[broker]
        self._obs_handled.inc(len(messages))
        self._obs_flood_fallbacks.inc(len(messages))
        local_clients = set(self.context.topology.clients_of(broker))
        locals_ = router.match_locally_batch([m.event for m in messages])
        children_of_root: Dict[str, List[str]] = {}
        decisions: List[Decision] = []
        for message, local in zip(messages, locals_):
            deliveries = sorted(
                subscriber
                for subscriber in local.subscribers
                if subscriber in local_clients
                and (message.replay_for is None or subscriber in message.replay_for)
            )
            children = children_of_root.get(message.root)
            if children is None:
                children = self.context.tree_children(broker, message.root)
                children_of_root[message.root] = children
            sends = [(child, message.forwarded()) for child in children]
            steps = local.steps
            decisions.append(Decision(sends=sends, deliveries=deliveries, matching_steps=steps))
        return decisions

    def _decision_for(self, message: SimMessage, hop: Hop) -> Decision:
        """Translate a ``route_hop`` outcome into a protocol decision whose
        forwards carry its digest (raising a refusal's :class:`RoutingError`)."""
        decision, digest = hop
        if isinstance(decision, RoutingError):
            raise decision
        if message.replay_for is not None:
            self._obs_replays_routed.inc()
        self._obs_handled.inc()
        # Per-hop refinement accounting (Chart 2's quantity, as seen by the
        # simulator): one labeled counter pair per hop distance.
        per_hop = self._obs_per_hop.get(message.hop)
        if per_hop is None:
            hop = str(message.hop)
            per_hop = self._obs_per_hop[message.hop] = (
                self._obs.counter("refinement_steps", hop=hop),
                self._obs.counter("deliveries", hop=hop),
            )
        per_hop[0].inc(decision.steps)
        per_hop[1].inc(len(decision.deliver_to))
        sends = []
        for neighbor in decision.forward_to:
            forward = message.forwarded()
            forward.digest = digest
            sends.append((neighbor, forward))
        return Decision(sends=sends, deliveries=decision.deliver_to, matching_steps=decision.steps)
