"""A broker's content router: the PST + annotations + masks + link matching.

Per the paper, "each broker in the network has a copy of all the
subscriptions, organized into a PST" (Section 3.1) — the *same* PST at every
broker; only the per-link trit annotations differ.  A :class:`ContentRouter`
is one broker's state:

* the broker's matcher (a :class:`~repro.matching.base.MatcherEngine` — tree
  or compiled, selected by the ``engine`` parameter — or a
  :class:`FactoredMatcher` when factoring is enabled).  Whatever builds
  several factored routers in one process (the simulator's protocols, the
  fabric) builds the :class:`FactoredMatcher` once and hands it to each as
  ``matcher`` — one subscription replica per process; a router given none
  builds a private one (:class:`~repro.broker.node.BrokerNode`: brokers
  there are separate processes in principle),
* its :class:`VirtualLinkTable` (virtual links + one initialization mask per
  spanning tree),
* the trit-vector annotations of the matcher's tree(s) — maintained
  incrementally inside the engine on the non-factored path; on the factored
  path one :meth:`~CompiledProgram.annotated_view` per sub-tree program
  the matcher keeps, re-taken only where a change touched,
* :meth:`route` — run the Section 3.3 refinement for an event arriving on a
  given spanning tree and return the neighbors to forward to.

Routers do not move messages themselves; the fabric
(:class:`repro.core.fabric.ContentRoutedNetwork`) and the simulator drive
them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import RoutingError, SubscriptionError
from repro.core.annotation import TreeAnnotation
from repro.core.link_matcher import LinkMatcher
from repro.core.masks import VirtualLinkTable
from repro.core.trits import N, Y, TritVector
from repro.matching.base import MatcherEngine
from repro.matching.compile import CompiledProgram
from repro.matching.digest import MatchDigest, mix_subscription_id
from repro.matching.events import Event
from repro.matching.optimizations import FactoredMatcher
from repro.matching.pst import MatchResult
from repro.matching.predicates import Subscription
from repro.matching.schema import AttributeValue, EventSchema
from repro.network.paths import RoutingTable
from repro.obs import get_registry
from repro.network.spanning import SpanningTree
from repro.network.topology import Topology


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


def factored_matcher_for(
    schema: EventSchema,
    *,
    attribute_order: Optional[Sequence[str]] = None,
    domains: Optional[Mapping[str, Sequence[AttributeValue]]] = None,
    factoring_attributes: Optional[Sequence[str]] = None,
    engine: str = "compiled",
) -> Optional[FactoredMatcher]:
    """The :class:`FactoredMatcher` a router with this configuration routes
    on, or ``None`` when the configuration is engine-backed.  Builders of
    several routers over one subscription set call this once and pass the
    result to every :class:`ContentRouter` as ``matcher``."""
    if not factoring_attributes:
        return None
    if domains is None:
        raise RoutingError("factoring requires finite attribute domains")
    return FactoredMatcher(
        schema,
        factoring_attributes,
        domains,
        residual_order=(
            [n for n in attribute_order if n not in factoring_attributes]
            if attribute_order is not None
            else None
        ),
        engine=engine,
    )


class ContentRouter:
    """Per-broker link-matching state (see module docstring)."""

    def __init__(
        self,
        topology: Topology,
        broker: str,
        routing_table: RoutingTable,
        spanning_trees: Mapping[str, SpanningTree],
        schema: EventSchema,
        *,
        attribute_order: Optional[Sequence[str]] = None,
        domains: Optional[Mapping[str, Sequence[AttributeValue]]] = None,
        factoring_attributes: Optional[Sequence[str]] = None,
        engine: str = "compiled",
        matcher: Optional[FactoredMatcher] = None,
    ) -> None:
        self.topology = topology
        self.broker = broker
        self.schema = schema
        self.engine = engine
        # Declared domains are a *contract*: annotation treats them as the
        # exhaustive value universe (that is what lets a covered level
        # promote to Yes, and what makes range annotations precise), so
        # routed events must honor them — route() enforces it.
        self.domains: Dict[str, frozenset] = (
            {name: frozenset(values) for name, values in domains.items()}
            if domains
            else {}
        )
        self._domain_checks = [
            (schema.position_of(name), name, domain) for name, domain in self.domains.items()
        ]
        self.links = VirtualLinkTable(topology, broker, routing_table, spanning_trees)
        # A shared matcher is mutated by its builder; this router is only told.
        self._owns_matcher = matcher is None
        if matcher is None:
            matcher = factored_matcher_for(
                schema,
                attribute_order=attribute_order,
                domains=domains,
                factoring_attributes=factoring_attributes,
                engine=engine,
            )
        elif matcher.engine != engine or matcher.schema != schema:
            raise RoutingError("the shared matcher was built for another engine or schema")
        self._factored: Optional[FactoredMatcher] = matcher
        self._engine: Optional[MatcherEngine] = None
        if matcher is None:
            # Imported here rather than at module scope: repro.matching.engines
            # imports repro.core submodules, so a module-level import would
            # cycle when repro.matching.engines is the entry point.
            from repro.matching.engines import create_engine

            self._engine = create_engine(
                engine, schema, attribute_order=attribute_order, domains=domains
            )
            self._engine.bind_links(self.links.num_links, self._link_of_subscriber)
        # Factored path: factoring key -> (matcher's version of the sub-tree,
        # its refiner: an annotated view of the matcher's program (compiled)
        # or a LinkMatcher (tree)), current iff the version still is the
        # matcher's.  The non-factored path annotates inside the engine.
        self._subtrees: Dict[tuple, Tuple[int, Union[CompiledProgram, LinkMatcher]]] = {}
        self._swept_at = -1  # matcher.mutations at the last sweep
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
        self._obs_refreshes = registry.counter("router.annotation_refreshes", broker=broker)
        self._obs_epoch = registry.gauge("router.subscription_epoch", broker=broker)

    # ------------------------------------------------------------------
    # Subscription maintenance

    @property
    def matcher(self) -> Union[MatcherEngine, FactoredMatcher]:
        """The underlying matcher (useful for inspection and local matching)."""
        return self._factored if self._factored is not None else self._engine

    def add_subscription(self, subscription: Subscription) -> None:
        """Register a subscription (its ``subscriber`` must be a client).

        The non-factored engine keeps its own annotations fresh incrementally
        along the subscription's path; the factored path re-annotates the
        touched sub-trees at the next route.  A router sharing its matcher is
        *told* of an insert its owner already made, and fails closed when
        the matcher lacks it.
        """
        self.links.position_of(subscription.subscriber)  # validates early
        if self._owns_matcher:
            self.matcher.insert(subscription)
        elif subscription.subscription_id not in self._factored:
            raise SubscriptionError(
                f"subscription #{subscription.subscription_id} is not in the "
                f"shared matcher — its owner must insert it first"
            )
        self._bump_epoch(subscription.subscription_id)

    def remove_subscription(self, subscription_id: int) -> Optional[Subscription]:
        """Unregister a subscription and return it (``None`` from a router
        sharing its matcher: the owner removed it already and tells us)."""
        subscription = None
        if self._owns_matcher:
            subscription = self.matcher.remove(subscription_id)
        elif subscription_id in self._factored:
            raise SubscriptionError(
                f"subscription #{subscription_id} is still in the shared "
                f"matcher — its owner must remove it first"
            )
        self._bump_epoch(subscription_id)
        return subscription

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
        if self._factored is not None:
            return len(self._factored)
        return self._engine.subscription_count

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

        Returns ``True`` when the layout changed.  In that case the engine's
        annotation — keyed on link positions and packed mask bits — is
        invalid, so the engine is rebound.  A stale annotation here is not a
        perf bug but a *correctness* bug: after a repair the same packed
        mask bits can denote different virtual links, so it would route to
        the pre-failure destinations.  When the layout is unchanged (a
        failed lateral link, say) nothing is rebound — the surgical half of
        the repair.
        """
        changed = self.links.rebuild(routing_table, spanning_trees)
        if not changed:
            return False
        if self._engine is not None:
            self._engine.bind_links(self.links.num_links, self._link_of_subscriber)
        self._subtrees.clear()  # annotated for the old positions
        self._swept_at = -1
        # The layout changed: the same mask bits now denote different
        # links, so digests minted (and decisions stamped) before the
        # rebuild must not be trusted against this router anymore.
        self._bump_epoch()
        return True

    def _refresh_annotations(self) -> None:
        """Bring the per-sub-tree state up to the matcher's: re-annotate the
        sub-trees whose version moved (all of them after a link rebuild),
        drop the ones that emptied.  Eager — the first route after a change
        pays for every touched sub-tree, none is left for later routes."""
        matcher = self._factored
        assert matcher is not None
        num_links, link_of = self.links.num_links, self._link_of_subscriber
        current = {}
        for key, subtree in matcher.subtrees():
            entry = self._subtrees.get(key)
            version = matcher.version_of(key)
            if entry is None or entry[0] != version:
                if isinstance(subtree, CompiledProgram):
                    refiner = subtree.annotated_view(num_links, link_of)
                else:
                    annotation = TreeAnnotation(num_links, link_of)
                    annotation.annotate(subtree)
                    refiner = LinkMatcher(subtree, annotation)
                entry = (version, refiner)
            current[key] = entry
        self._subtrees = current
        self._swept_at = matcher.mutations
        self._obs_refreshes.inc()

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
        if self._factored is None:
            assert self._engine is not None
            return self._decision_for(*self._engine.match_links(event, 0, maybe_bits))
        if self._factored.mutations != self._swept_at:
            self._refresh_annotations()
        entry = self._subtrees.get(self._factored.key_for_event(event))
        if entry is None:  # no subscription can match these index values
            return self._decision_for(0, 1)
        if self.engine == "compiled":
            return self._decision_for(*entry[1].match_links(event, 0, maybe_bits))
        return self._decision_for(*entry[1].match_bits(event, 0, maybe_bits))

    def route_batch(self, events: Sequence[Event], tree_root: str) -> List[RouteDecision]:
        """Route a batch of events traveling on the same spanning tree.

        Decision ``i`` is exactly ``route(events[i], tree_root)``; the batch
        entry point exists so the mask is derived once and the engine's
        :meth:`~repro.matching.base.MatcherEngine.match_links_batch` (and,
        on the factored path, per-sub-tree grouping) sees the whole batch.
        """
        if not events:
            return []
        for event in events:
            self._check_domains(event)
        maybe_bits = self.links.initialization_bits(tree_root)
        if self._factored is None:
            assert self._engine is not None
            finals = self._engine.match_links_batch(events, 0, maybe_bits)
            return [self._decision_for(final_yes, steps) for final_yes, steps in finals]
        if self._factored.mutations != self._swept_at:
            self._refresh_annotations()
        # An unpopulated key has nothing to refine: one step, no Yes.
        results: List[Tuple[int, int]] = [(0, 1)] * len(events)
        # Group by selected sub-tree so each compiled program refines its
        # events in one batch.
        groups: Dict[tuple, List[int]] = {}
        for i, event in enumerate(events):
            key = self._factored.key_for_event(event)
            if key in self._subtrees:
                groups.setdefault(key, []).append(i)
        compiled = self.engine == "compiled"
        for key, indices in groups.items():
            refiner = self._subtrees[key][1]
            if compiled:
                finals = refiner.match_links_batch(
                    [events[i] for i in indices], 0, maybe_bits
                )
            else:
                finals = [refiner.match_bits(events[i], 0, maybe_bits) for i in indices]
            for i, final in zip(indices, finals):
                results[i] = final
        return [self._decision_for(final_yes, steps) for final_yes, steps in results]

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
        return self._factored is None

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
        if self._factored is not None:
            return self.route(event, tree_root), None
        self._check_domains(event)
        assert self._engine is not None
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
        if self._factored is not None:
            return [(decision, None) for decision in self.route_batch(events, tree_root)]
        for event in events:
            self._check_domains(event)
        assert self._engine is not None
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
        if self._factored is not None:
            raise RoutingError("factored routers cannot consume match digests")
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
        assert self._engine is not None
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
        return self.matcher.match(event)

    def match_locally_batch(self, events: Sequence[Event]) -> List[MatchResult]:
        """Batch form of :meth:`match_locally` (same per-event results)."""
        return self.matcher.match_batch(events)

    def __repr__(self) -> str:
        return (
            f"ContentRouter({self.broker!r}, {self.subscription_count} subscriptions, "
            f"{self.links.num_links} virtual links)"
        )
