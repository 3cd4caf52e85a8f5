"""A broker's content router: the PST + annotations + masks + link matching.

Per the paper, "each broker in the network has a copy of all the
subscriptions, organized into a PST" (Section 3.1) — the *same* PST at every
broker; only the per-link trit annotations differ.  A :class:`ContentRouter`
is one broker's state:

* the subscription replica it routes on (built by
  :func:`~repro.matching.engines.create_matcher`, on every configuration).
  Whatever builds several routers in one process (the simulator's
  protocols, the fabric) builds the replica once and hands it to each —
  one replica per process; :class:`~repro.broker.node.BrokerNode` builds a
  private one (brokers there are separate processes in principle).  The
  replica's owner inserts and removes; the router is only told,
* its :class:`VirtualLinkTable` (virtual links + one initialization mask per
  spanning tree),
* its view of the replica (:func:`~repro.matching.engines.view_of`): this
  broker's trit-vector annotations, which the replica keeps current,
* :meth:`route` — run the Section 3.3 refinement for an event arriving on a
  given spanning tree and return the neighbors to forward to.

Routers do not move messages themselves; the fabric
(:class:`repro.core.fabric.ContentRoutedNetwork`) and the simulator drive
them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.errors import RoutingError, SubscriptionError
from repro.core.masks import VirtualLinkTable
from repro.core.trits import N, Y, TritVector
from repro.matching.digest import MatchDigest, mix_subscription_id
from repro.matching.events import Event
from repro.matching.compile import MatchResult
from repro.matching.predicates import Subscription
from repro.network.paths import RoutingTable
from repro.obs import get_registry
from repro.network.spanning import SpanningTree
from repro.network.topology import Topology

if TYPE_CHECKING:
    from repro.matching.engines import Replica


class RouteDecision:
    """What a broker decided for one event: neighbors to send to, split into
    next-hop brokers and locally attached clients, plus the matching steps
    spent deciding.

    ``yes_bits`` is the final mask, packed (it has no Maybe), and ``mask``
    the same as a :class:`TritVector`.  Both are a **snapshot**: their
    positions denote the virtual links of the router's layout *at decision
    time*, and their refinement reflects the subscription set at decision
    time.  Any churn (add/remove) or link rebuild after the decision can
    silently change what the same bits mean, so the decision carries the
    router's ``subscription_epoch`` it was made under; callers holding a
    decision across churn must check it with :meth:`assert_current` before
    reusing the mask.
    """

    __slots__ = (
        "broker", "forward_to", "deliver_to", "steps", "yes_bits", "num_links", "epoch"
    )

    def __init__(
        self,
        broker: str,
        forward_to: List[str],
        deliver_to: List[str],
        steps: int,
        yes_bits: int,
        num_links: int,
        epoch: int = 0,
    ) -> None:
        self.broker = broker
        self.forward_to = forward_to
        self.deliver_to = deliver_to
        self.steps = steps
        self.yes_bits = yes_bits
        self.num_links = num_links
        self.epoch = epoch

    @property
    def mask(self) -> TritVector:
        """The final mask as the paper's trit vector (unpacked on demand)."""
        return TritVector(Y if self.yes_bits >> i & 1 else N for i in range(self.num_links))

    def assert_current(self, subscription_epoch: int) -> None:
        """Guard against cross-churn reuse of the mask snapshot: raises
        :class:`RoutingError` when the router's epoch moved on since this
        decision was stamped."""
        if self.epoch != subscription_epoch:
            raise RoutingError(
                f"stale RouteDecision: mask snapshot from epoch {self.epoch}, "
                f"router is at epoch {subscription_epoch} — re-route the event"
            )

    def __repr__(self) -> str:
        return (
            f"RouteDecision({self.broker!r} -> brokers {self.forward_to!r}, "
            f"clients {self.deliver_to!r}, {self.steps} steps, "
            f"epoch {self.epoch})"
        )


class ContentRouter:
    """Per-broker link-matching state (see module docstring)."""

    def __init__(
        self,
        topology: Topology,
        broker: str,
        routing_table: RoutingTable,
        spanning_trees: Mapping[str, SpanningTree],
        replica: "Replica",
    ) -> None:
        # Imported here rather than at module scope: repro.matching.engines
        # imports repro.core submodules, so a module-level import would
        # cycle when repro.matching.engines is the entry point.
        from repro.matching.engines import view_of

        self.topology = topology
        self.broker = broker
        self.replica = replica
        self.schema = replica.schema
        # Declared domains are a *contract*: annotation treats them as the
        # exhaustive value universe (that is what lets a covered level
        # promote to Yes, and what makes range annotations precise), so
        # routed events must honor them — route() enforces it.
        self.domains: Dict[str, frozenset] = dict(replica.domains)
        self._domain_checks = [
            (self.schema.position_of(name), name, domain)
            for name, domain in self.domains.items()
        ]
        self.links = VirtualLinkTable(topology, broker, routing_table, spanning_trees)
        self._engine = view_of(replica)
        self._engine.bind_links(self.links.num_links, self._link_of_subscriber)
        # Subscription-set epoch: a monotonic version counter over this
        # router's subscription set and link layout, plus an order-independent
        # checksum of the registered subscription ids.  Together they tag
        # match digests (see route_digest) so a consumer can detect that the
        # minting set is not its own and fall back to full matching.
        self.subscription_epoch = 0
        self._subscription_checksum = 0
        # Observability (no-ops unless the global registry is enabled): route
        # invocations and PST node visits (= matching steps) per broker.
        registry = get_registry()
        self._obs_routes = registry.counter("router.route_calls", broker=broker)
        self._obs_steps = registry.counter("router.pst_node_visits", broker=broker)
        self._obs_forwards = registry.counter("router.forwards", broker=broker)
        self._obs_deliveries = registry.counter("router.local_deliveries", broker=broker)
        self._obs_epoch = registry.gauge("router.subscription_epoch", broker=broker)

    def close(self) -> None:
        """Stop viewing the replica (a router being replaced): it no
        longer keeps this router's annotation current."""
        self._engine.release()

    # ------------------------------------------------------------------
    # Subscription maintenance

    def add_subscription(self, subscription: Subscription) -> None:
        """Register a subscription its owner has inserted into the replica
        (its ``subscriber`` must be a client this broker reaches).

        Fails closed, before the epoch moves: :class:`RoutingError` for an
        unknown subscriber, :class:`SubscriptionError` when the replica
        lacks the subscription.
        """
        self.links.position_of(subscription.subscriber)
        if subscription.subscription_id not in self.replica:
            raise SubscriptionError(
                f"subscription #{subscription.subscription_id} is not in the "
                f"replica — its owner must insert it first"
            )
        self._bump_epoch(subscription.subscription_id)

    def remove_subscription(self, subscription_id: int) -> None:
        """Unregister a subscription its owner has removed from the replica
        (:class:`SubscriptionError`, epoch unmoved, while the replica still
        holds it)."""
        if subscription_id in self.replica:
            raise SubscriptionError(
                f"subscription #{subscription_id} is still in the replica — "
                f"its owner must remove it first"
            )
        self._bump_epoch(subscription_id)

    def _bump_epoch(self, subscription_id: Optional[int] = None) -> None:
        self.subscription_epoch += 1
        if subscription_id is not None:
            # XOR of mixed ids: add-then-remove restores the old checksum,
            # and two routers agree iff they folded the same id multiset.
            self._subscription_checksum ^= mix_subscription_id(subscription_id)
        self._obs_epoch.set(self.subscription_epoch)

    def sync_epoch(self, epoch: int) -> None:
        """Fast-forward the epoch counter to a protocol-chosen value.

        :class:`~repro.protocols.link_matching.LinkMatchingProtocol` keeps
        all brokers' epoch counters in lockstep (they hold replicas of one
        subscription set) by syncing them after every protocol-level
        mutation; monotonic, so an in-flight digest minted before the sync
        can never be mistaken for current.
        """
        if epoch > self.subscription_epoch:
            self.subscription_epoch = epoch
            self._obs_epoch.set(epoch)

    @property
    def subscription_count(self) -> int:
        """O(1): polled by ``stats()``, ``repr`` and every flood-wait, so it
        must not list the subscriptions to count them."""
        return len(self.replica)

    def _link_of_subscriber(self, subscription: Subscription) -> int:
        try:
            return self.links.position_of(subscription.subscriber)
        except RoutingError:
            # Cut off by a failure: annotation layers treat a negative
            # position as "contributes no link" until a repair re-adds it.
            return -1

    # ------------------------------------------------------------------
    # Topology repair

    def rebuild_links(
        self,
        routing_table: RoutingTable,
        spanning_trees: Mapping[str, SpanningTree],
    ) -> bool:
        """Re-derive virtual links and masks after a topology repair.

        Returns ``True`` when the layout changed.  In that case the view's
        annotation — keyed on link positions and packed mask bits — is
        invalid, so the view is rebound (and annotated in full at its next
        route).  A stale annotation here is not a perf bug but a
        *correctness* bug: after a repair the same packed mask bits can
        denote different virtual links, so it would route to the
        pre-failure destinations.  When the layout is unchanged (a failed
        lateral link, say) nothing is rebound — the surgical half of the
        repair.
        """
        changed = self.links.rebuild(routing_table, spanning_trees)
        if not changed:
            return False
        self._engine.bind_links(self.links.num_links, self._link_of_subscriber)
        # The layout changed: the same mask bits now denote different
        # links, so digests minted (and decisions stamped) before the
        # rebuild must not be trusted against this router anymore.
        self._bump_epoch()
        return True

    # ------------------------------------------------------------------
    # Routing

    def route(
        self,
        event: Event,
        tree_root: str,
        *,
        restrict_to: Optional[FrozenSet[str]] = None,
    ) -> RouteDecision:
        """Run link matching for an event traveling on the spanning tree
        rooted at ``tree_root`` and decide this broker's sends.

        ``restrict_to`` narrows the initialization mask to virtual links
        carrying at least one of the given destinations — the replay path
        for recovered messages, which must not re-traverse subtrees that
        already received the event.

        Raises :class:`RoutingError` if the event violates a declared
        attribute domain — annotations assume domains are exhaustive, so an
        out-of-domain value could be routed unsoundly.
        """
        self._check_domains(event)
        maybe_bits = self.links.initialization_bits(tree_root)
        if restrict_to is not None:
            maybe_bits = self.links.restrict_mask(maybe_bits, restrict_to)
        return self._decision_for(*self._engine.match_links(event, 0, maybe_bits))

    def route_batch(self, events: Sequence[Event], tree_root: str) -> List[RouteDecision]:
        """Route a batch of events traveling on the same spanning tree.

        Decision ``i`` is exactly ``route(events[i], tree_root)``; the batch
        entry point exists so the mask is derived once and the view's
        :meth:`~repro.matching.base.MatcherEngine.match_links_batch` sees
        the whole batch.
        """
        if not events:
            return []
        for event in events:
            self._check_domains(event)
        maybe_bits = self.links.initialization_bits(tree_root)
        finals = self._engine.match_links_batch(events, 0, maybe_bits)
        return [self._decision_for(final_yes, steps) for final_yes, steps in finals]

    def _decision_for(self, final_yes: int, steps: int) -> RouteDecision:
        forward_to, deliver_to = self.links.split(final_yes)
        self._obs_routes.inc()
        self._obs_steps.inc(steps)
        self._obs_forwards.inc(len(forward_to))
        self._obs_deliveries.inc(len(deliver_to))
        return RouteDecision(
            self.broker,
            forward_to,
            deliver_to,
            steps,
            final_yes,
            self.links.num_links,
            self.subscription_epoch,
        )

    # ------------------------------------------------------------------
    # Match-once forwarding (digest minting and consumption)

    @property
    def supports_digests(self) -> bool:
        """Whether this router can mint and consume match digests.

        The factored matcher splits subscriptions across sub-trees before
        any engine sees them and has no projection surface; factored
        routers route every message the classic way.
        """
        return self._engine.supports_digests

    def route_digest(
        self, event: Event, tree_root: str
    ) -> Tuple[RouteDecision, Optional[MatchDigest]]:
        """Route like :meth:`route` *and* mint a :class:`MatchDigest`.

        Runs the full (non-trit) match once, takes the sorted matched
        subscription ids as the digest, and derives this broker's own mask
        by projecting those ids through the engine's leaf→link-bits table —
        the same projection every downstream hop will run, so the origin's
        decision and the consumers' decisions come from one computation.
        Falls back to plain :meth:`route` (returning no digest) on the
        factored path.
        """
        if not self.supports_digests:
            return self.route(event, tree_root), None
        self._check_domains(event)
        local = self._engine.match(event)
        ids = sorted(s.subscription_id for s in local.subscriptions)
        return self._project(ids, tree_root, local.steps), self._mint(ids)

    def route_digest_batch(
        self, events: Sequence[Event], tree_root: str
    ) -> List[Tuple[RouteDecision, Optional[MatchDigest]]]:
        """Batch form of :meth:`route_digest` (same per-event results); the
        full match rides the engine's batch kernel."""
        if not events:
            return []
        if not self.supports_digests:
            return [(decision, None) for decision in self.route_batch(events, tree_root)]
        for event in events:
            self._check_domains(event)
        out: List[Tuple[RouteDecision, Optional[MatchDigest]]] = []
        for local in self._engine.match_batch(events):
            ids = sorted(s.subscription_id for s in local.subscriptions)
            out.append((self._project(ids, tree_root, local.steps), self._mint(ids)))
        return out

    def route_with_digest(
        self, event: Event, tree_root: str, digest: MatchDigest
    ) -> RouteDecision:
        """Convert an in-flight digest straight into this broker's link mask
        — O(|matched|) ORs instead of a refinement descent.

        Raises :class:`RoutingError` when the digest cannot be trusted
        here: minted under a different epoch or subscription-set checksum,
        naming ids this broker does not hold, or on a factored router.
        Callers fall back to full matching.
        """
        self._check_domains(event)
        if digest.epoch != self.subscription_epoch or (
            digest.checksum != self._subscription_checksum
        ):
            raise RoutingError(
                f"match digest epoch {digest.epoch} does not match router "
                f"epoch {self.subscription_epoch} at {self.broker!r} — "
                f"subscription sets may have diverged"
            )
        return self._project(digest.ids, tree_root, 0)

    def _mint(self, ids: Sequence[int]) -> MatchDigest:
        return MatchDigest(self.subscription_epoch, self._subscription_checksum, ids)

    def _project(self, ids: Sequence[int], tree_root: str, base_steps: int) -> RouteDecision:
        final_yes, steps = self._engine.project_links(
            ids, 0, self.links.initialization_bits(tree_root)
        )
        return self._decision_for(final_yes, base_steps + steps)

    def _check_domains(self, event: Event) -> None:
        if not self._domain_checks:
            return
        values = event.as_tuple()
        for position, name, domain in self._domain_checks:
            value = values[position]
            if value not in domain:
                raise RoutingError(
                    f"event value {value!r} for attribute {name!r} is outside "
                    f"the declared domain — routed events must honor declared "
                    f"domains (they are treated as exhaustive)"
                )

    def match_locally(self, event: Event) -> MatchResult:
        """Full (non-trit) matching against the broker's subscription copy —
        the centralized algorithm of Section 2, used by the match-first and
        flooding baselines and by Chart 2's "centralized" line."""
        return self._engine.match(event)

    def match_locally_batch(self, events: Sequence[Event]) -> List[MatchResult]:
        """Batch form of :meth:`match_locally` (same per-event results)."""
        return self._engine.match_batch(events)

    def __repr__(self) -> str:
        return (
            f"ContentRouter({self.broker!r}, {self.subscription_count} subscriptions, "
            f"{self.links.num_links} virtual links)"
        )
