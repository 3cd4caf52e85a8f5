"""Online subscription aggregation: covering forest + compressed compilation.

At 10^6+ subscriptions the bottleneck of the compiled matcher shifts from
walking the program to the program's *size*: the record arrays grow with the
number of subscribers even though real workloads register the same few
predicate bodies over and over (Zipf-skewed interests).  This module shrinks
the subscription set *before* compilation, SIENA-style, with two mechanisms
layered between ingest and the compiled engine:

**Canonical deduplication.**  Every incoming predicate is canonicalized with
the exact per-attribute containment algebra of
:mod:`repro.matching.subsumption` — strict integer bounds close
(``x < 4`` ≡ ``x <= 3``) and one-sided ranges normalize to intervals — so
predicates that accept the same events hash identically.  Subscriptions with
an identical canonical body join one *group* carrying a subscriber set; only
the group's **representative** subscription enters the inner engine, so the
``CompiledProgram`` record arrays grow with *distinct* predicates, not
subscribers.

**Incremental covering forest.**  Groups are linked into a forest by the
covering relation (:func:`~repro.matching.subsumption.predicate_subsumes`):
a group whose predicate is covered by another hangs *under* it — only
forest roots have representatives in the inner engine.  Insert and remove
are incremental: a new group descends from the covering root (demoting any
siblings it covers), and removing the last member of a covering parent
promotes its children back to roots.
No rebuild, ever.  Cover relations are found through an attribute-inverted
index (:class:`~repro.matching.covering_index.CoveringIndex`): candidate
predicates come from per-attribute posting lists and only candidates are
verified with ``predicate_subsumes``, so ingest cost tracks the handful of
predicates that *could* be related instead of the whole forest level.
Verification is still bounded (:data:`DEFAULT_COVER_SCAN_LIMIT`): past the
limit new groups simply become roots — covering is a best-effort
*compressor*, so missing a relation costs compression, never correctness.
``use_index=False`` restores the bounded linear sibling scans (the
benchmark baseline).

**Covered program.**  Covering is exact and transitive, so a covered
group matches an event iff its own canonical predicate does: every covered
group's representative lives in a second compiled engine, ``_covered``
(same schema, attribute order, domains and backend as the inner engine),
changed by insert and remove as groups are attached, demoted, promoted and
dissolved.

**Engine-boundary expansion.**  Both engines match over deduplicated
leaves; expansion back to subscriber sets happens here:

* :meth:`AggregatingEngine.match` — the representatives both programs
  match expand to their groups' members.  Steps are the inner program's
  plus the covered program's (attributed to the deduplicated leaves).
* :meth:`AggregatingEngine.match_links` — each refinement runs over
  deduplicated leaves: a representative's leaf annotation is the *union*
  of its members' link bits (the multi-position ``LinkOfSubscriber``
  contract of :meth:`~repro.matching.compile.CompiledProgram.annotate`),
  so each program turns exactly the Maybe links its matching groups owe
  into Yes, and the OR of the two Yes sets is bit-for-bit the
  unaggregated engine's final mask.

Membership changes that leave the forest untouched (a dedup hit, removing
one of several members) refresh the leaf annotation through the owning
engine's ``refresh_links`` path — a path re-annotation, not a rebuild.
Everything downstream — trit annotations, batching, and both kernel
backends — runs unchanged over the compressed programs.

Observability: ``match.aggregation.compression_ratio`` (subscriptions per
compiled leaf), ``match.aggregation.forest_nodes`` (live groups),
``match.aggregation.dedup_hits`` (inserts absorbed without touching the
inner engine), ``match.aggregation.cover_scan_len`` (histogram of
subsumption verifications per attach), and
``match.aggregation.index_candidates`` / ``index_hits`` (index filter volume
and precision).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import SubscriptionError
from repro.core.annotation import LinkOfSubscriber
from repro.matching.base import MatcherEngine
from repro.matching.covering_index import CoveringIndex
from repro.matching.engines import CompiledEngine
from repro.matching.events import Event
from repro.matching.predicates import Predicate, Subscription
from repro.matching.pst import MatchResult
from repro.matching.subsumption import canonical_test, predicate_subsumes
from repro.obs import get_registry

#: Cover searches *verify* at most this many candidate groups per attach
#: (``predicate_subsumes`` calls, across the cover descent and the demotion
#: sweep).  Past the limit a new group becomes a root without looking for
#: (or demoting) further covers — deduplication stays O(1) and exact,
#: covering compression degrades gracefully.  Correctness never depends on
#: the forest shape.
DEFAULT_COVER_SCAN_LIMIT = 512

#: Subscriber identity of the sentinel representatives registered with the
#: compiled engines.  Representatives never reach users: matching expands them
#: to members, ``subscriptions`` lists members only.
REPRESENTATIVE_SUBSCRIBER = "<aggregate>"

#: Histogram buckets for verifications-per-attach: indexed attaches cluster
#: in the first few buckets, linear scans stretch toward the scan limit.
_COVER_SCAN_BOUNDARIES = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


def canonicalize_predicate(predicate: Predicate) -> Predicate:
    """The canonical form under which identical-acceptance predicates unify.

    Per attribute: :func:`~repro.matching.subsumption.canonical_test` —
    strict integer bounds close and one-sided range tests normalize to
    intervals — so ``x < 4`` and ``x <= 3`` over an INTEGER attribute
    produce the *same* test object value, and
    :class:`~repro.matching.predicates.Predicate` hashing makes the group
    lookup a dict probe.  Equality tests and don't-cares are already
    canonical, so a canonical predicate carries only the three test shapes
    :class:`~repro.matching.covering_index.CoveringIndex` indexes.  The
    canonical predicate accepts exactly the same events as the original.
    """
    tests = {}
    changed = False
    for attribute, test in zip(predicate.schema.attributes, predicate.tests):
        if test.is_dont_care:
            continue
        canonical = canonical_test(attribute, test)
        if canonical is not test:
            changed = True
        tests[attribute.name] = canonical
    if not changed:
        return predicate
    return Predicate(predicate.schema, tests)


class _Group:
    """One distinct canonical predicate: its members and forest links.

    ``representative`` is the sentinel subscription registered with the
    inner engine while the group is a root and with the covered engine
    while it is not.
    """

    __slots__ = ("canonical", "representative", "members", "children", "parent")

    def __init__(self, canonical: Predicate, subscription: Subscription) -> None:
        self.canonical = canonical
        self.representative = Subscription(
            canonical,
            REPRESENTATIVE_SUBSCRIBER,
            # Representatives draw from the global id counter like any other
            # subscription (ids must be unique within the compiled engines).
        )
        self.members: Dict[int, Subscription] = {
            subscription.subscription_id: subscription
        }
        self.children: List["_Group"] = []
        self.parent: Optional["_Group"] = None

    def __repr__(self) -> str:
        return (
            f"_Group({self.canonical.describe()!r}, {len(self.members)} members, "
            f"{len(self.children)} children, root={self.parent is None})"
        )


class AggregatingEngine(MatcherEngine):
    """Covering-forest aggregation in front of a :class:`CompiledEngine`.

    Exposes the full :class:`~repro.matching.base.MatcherEngine` surface;
    match sets, brute-force sets, and refined link masks are exactly the
    wrapped engine's *without* aggregation (the property suite in
    ``tests/property/test_prop_aggregation.py`` pins this down).  Step
    counts are attributed to the deduplicated leaves: the inner program's
    count plus the covered program's.

    Construct directly around an engine instance, or through
    :func:`~repro.matching.engines.create_engine` with ``aggregate=True``.
    """

    name = "aggregating"

    def __init__(
        self,
        inner: CompiledEngine,
        *,
        cover_scan_limit: int = DEFAULT_COVER_SCAN_LIMIT,
        use_index: bool = True,
    ) -> None:
        if not isinstance(inner, CompiledEngine):
            raise SubscriptionError(
                f"engine {inner.name!r} cannot refresh leaf link annotations "
                "in place — aggregation requires the compiled engine"
            )
        self.inner = inner
        self.schema = inner.schema
        self.cover_scan_limit = cover_scan_limit
        #: The covered groups' representatives, compiled like the roots'.
        self._covered = CompiledEngine(
            inner.schema,
            attribute_order=inner.program.attribute_order,
            domains=inner.program.domains,
            backend=inner.backend_name,
        )
        #: The attribute-inverted cover-candidate index; ``None`` in linear
        #: (``use_index=False``) mode.
        self._index: Optional[CoveringIndex] = CoveringIndex() if use_index else None
        #: canonical predicate -> group, for every live group.
        self._groups: Dict[Predicate, _Group] = {}
        #: canonical predicate -> group, roots only (insertion-ordered).
        self._roots: Dict[Predicate, _Group] = {}
        #: member subscription_id -> owning group.
        self._group_of: Dict[int, _Group] = {}
        #: representative subscription_id -> group, for every live group.
        self._rep_group: Dict[int, _Group] = {}
        self._link_of: Optional[LinkOfSubscriber] = None
        self.dedup_hits = 0
        self.cover_probes = 0
        self.cover_candidates_total = 0
        registry = get_registry()
        self._obs_dedup = registry.counter("match.aggregation.dedup_hits")
        self._obs_forest_nodes = registry.gauge("match.aggregation.forest_nodes")
        self._obs_compression = registry.gauge("match.aggregation.compression_ratio")
        self._obs_cover_scan = registry.histogram(
            "match.aggregation.cover_scan_len", _COVER_SCAN_BOUNDARIES
        )
        self._obs_index_candidates = registry.counter(
            "match.aggregation.index_candidates"
        )
        self._obs_index_hits = registry.counter("match.aggregation.index_hits")

    # ------------------------------------------------------------------
    # Introspection

    @property
    def subscriptions(self) -> List[Subscription]:
        """The registered *member* subscriptions (representatives excluded)."""
        return [
            member
            for group in self._groups.values()
            for member in group.members.values()
        ]

    @property
    def subscription_count(self) -> int:
        return len(self._group_of)

    @property
    def forest_nodes(self) -> int:
        """Live groups (distinct canonical predicates)."""
        return len(self._groups)

    @property
    def root_count(self) -> int:
        """Groups compiled into the inner engine (distinct leaves)."""
        return len(self._roots)

    @property
    def compression_ratio(self) -> float:
        """Registered subscriptions per compiled leaf (>= 1.0)."""
        return len(self._group_of) / max(1, len(self._roots))

    @property
    def mean_cover_candidates(self) -> float:
        """Mean subsumption verifications per cover search (attach)."""
        return self.cover_candidates_total / max(1, self.cover_probes)

    def group_of(self, subscription_id: int) -> Tuple[Predicate, int, bool]:
        """(canonical predicate, member count, is_root) for a registration —
        introspection for tests and diagnostics."""
        group = self._group_of.get(subscription_id)
        if group is None:
            raise SubscriptionError(f"unknown subscription id {subscription_id}")
        return group.canonical, len(group.members), group.parent is None

    def match_brute_force(self, event: Event) -> List[Subscription]:
        """Reference semantics: evaluate every member predicate directly."""
        return [
            member
            for group in self._groups.values()
            for member in group.members.values()
            if member.predicate.matches(event)
        ]

    # ------------------------------------------------------------------
    # Churn (incremental — no forest rebuild)

    def insert(self, subscription: Subscription) -> None:
        subscription_id = subscription.subscription_id
        if subscription_id in self._group_of:
            raise SubscriptionError(
                f"subscription #{subscription_id} is already registered"
            )
        if not subscription.predicate.is_satisfiable:
            # Mirror the tree's refusal exactly — aggregation must not
            # silently absorb what the unaggregated engine rejects.
            raise SubscriptionError(
                f"refusing to register unsatisfiable predicate "
                f"{subscription.predicate.describe()!r}"
            )
        canonical = canonicalize_predicate(subscription.predicate)
        group = self._groups.get(canonical)
        if group is not None:
            # Dedup hit: the compiled arrays do not move at all.
            group.members[subscription_id] = subscription
            self._group_of[subscription_id] = group
            self.dedup_hits += 1
            self._obs_dedup.inc()
            self._membership_changed(group)
        else:
            group = _Group(canonical, subscription)
            self._groups[canonical] = group
            self._group_of[subscription_id] = group
            self._attach(group)
        self._link_projection_insert(subscription)
        self._update_gauges()

    def remove(self, subscription_id: int) -> Subscription:
        group = self._group_of.pop(subscription_id, None)
        if group is None:
            raise SubscriptionError(f"unknown subscription id {subscription_id}")
        subscription = group.members.pop(subscription_id)
        if group.members:
            # The group survives; only its link union may have shrunk.
            self._membership_changed(group)
        else:
            self._dissolve(group)
        self._link_projection_remove(subscription_id)
        self._update_gauges()
        return subscription

    def _attach(self, group: _Group) -> None:
        """Place a fresh group in the forest: descend from a covering root,
        demote any siblings the new predicate covers, and register the
        representative with the inner engine if the group lands at a root,
        with the covered engine otherwise."""
        if self._index is not None:
            self._attach_indexed(group)
            self._index.add(group, group.canonical)
        else:
            self._attach_linear(group)

    def _attach_indexed(self, group: _Group) -> None:
        """Index-driven attach: candidate groups come from the covering
        index's posting lists; only candidates are verified with
        ``predicate_subsumes``, all under one shared verification budget
        (:attr:`cover_scan_limit`).

        The verified cover set is ancestor-closed whenever the index
        surfaced the ancestors (covering is transitive), so walking it by
        ``parent`` pointer reproduces the linear level-by-level descent;
        a cover the filter misses only costs compression.
        """
        canonical = group.canonical
        budget = self.cover_scan_limit
        verified = 0
        candidates = self._index.cover_candidates(canonical)
        self._obs_index_candidates.inc(len(candidates))
        covers_found: List[_Group] = []
        for candidate in candidates:
            if verified >= budget:
                break
            verified += 1
            if predicate_subsumes(candidate.canonical, canonical):
                covers_found.append(candidate)
        self._obs_index_hits.inc(len(covers_found))
        parent: Optional[_Group] = None
        while True:
            deeper = next(
                (cover for cover in covers_found if cover.parent is parent), None
            )
            if deeper is None:
                break
            parent = deeper
        demoted: List[_Group] = []
        covered = self._index.covered_candidates(canonical, limit=budget - verified)
        if covered is None:
            # Universal probe: every group is covered — scan the actual
            # sibling level like the linear path would.
            covered = list(
                self._roots.values() if parent is None else parent.children
            )
        else:
            self._obs_index_candidates.inc(len(covered))
        hits = 0
        for candidate in covered:
            if verified >= budget:
                break
            if candidate is group or candidate.parent is not parent:
                continue
            verified += 1
            if predicate_subsumes(canonical, candidate.canonical):
                demoted.append(candidate)
                hits += 1
        self._obs_index_hits.inc(hits)
        self._record_cover_scan(verified)
        self._place(group, parent, demoted)

    def _attach_linear(self, group: _Group) -> None:
        """The bounded linear sibling scans (``use_index=False``): descend
        level by level, testing every sibling until the scan limit."""
        verified = 0
        parent: Optional[_Group] = None
        siblings: Union[Dict[Predicate, _Group], List[_Group]] = self._roots
        while True:
            cover, scanned = self._covering_in(
                siblings.values() if parent is None else siblings, group
            )
            verified += scanned
            if cover is None:
                break
            parent = cover
            siblings = parent.children
        demoted, scanned = self._covered_in(
            siblings.values() if parent is None else siblings, group
        )
        verified += scanned
        self._record_cover_scan(verified)
        self._place(group, parent, demoted)

    def _covering_in(
        self, groups: Iterable[_Group], group: _Group
    ) -> Tuple[Optional[_Group], int]:
        """A group among ``groups`` covering ``group``, plus groups scanned
        (bounded by :attr:`cover_scan_limit`)."""
        canonical = group.canonical
        scanned = 0
        for candidate in groups:
            if scanned >= self.cover_scan_limit:
                break
            if candidate is group:
                continue
            scanned += 1
            if predicate_subsumes(candidate.canonical, canonical):
                return candidate, scanned
        return None, scanned

    def _covered_in(
        self, groups: Iterable[_Group], group: _Group
    ) -> Tuple[List[_Group], int]:
        """Groups among ``groups`` that ``group`` covers, plus groups
        scanned (bounded by :attr:`cover_scan_limit`)."""
        canonical = group.canonical
        covered: List[_Group] = []
        scanned = 0
        for candidate in groups:
            if scanned >= self.cover_scan_limit:
                break
            if candidate is group:
                continue
            scanned += 1
            if predicate_subsumes(canonical, candidate.canonical):
                covered.append(candidate)
        return covered, scanned

    def _record_cover_scan(self, verified: int) -> None:
        self.cover_probes += 1
        self.cover_candidates_total += verified
        self._obs_cover_scan.observe(verified)

    def _place(
        self, group: _Group, parent: Optional[_Group], demoted: List[_Group]
    ) -> None:
        """Wire ``group`` under ``parent`` (root when ``None``), pulling the
        ``demoted`` former siblings under it, and register representatives
        with the engine their new position calls for."""
        for sibling in demoted:
            if parent is None:
                del self._roots[sibling.canonical]
                self.inner.remove(sibling.representative.subscription_id)
                self._covered.insert(sibling.representative)
            else:
                parent.children.remove(sibling)
            sibling.parent = group
            group.children.append(sibling)
        group.parent = parent
        self._rep_group[group.representative.subscription_id] = group
        if parent is None:
            self._roots[group.canonical] = group
            self.inner.insert(group.representative)
        else:
            parent.children.append(group)
            self._covered.insert(group.representative)

    def _dissolve(self, group: _Group) -> None:
        """Remove an emptied group, promoting or reparenting its children."""
        del self._groups[group.canonical]
        if self._index is not None:
            self._index.remove(group)
        representative_id = group.representative.subscription_id
        del self._rep_group[representative_id]
        parent = group.parent
        if parent is None:
            del self._roots[group.canonical]
            self.inner.remove(representative_id)
            # Children lose their covering parent: each becomes a root (its
            # subtree stays intact — covering within the subtree still holds).
            for child in group.children:
                child.parent = None
                self._roots[child.canonical] = child
                self._covered.remove(child.representative.subscription_id)
                self.inner.insert(child.representative)
        else:
            # A covered group's children are covered by the grandparent too
            # (covering is transitive), so they reattach one level up.
            self._covered.remove(representative_id)
            parent.children.remove(group)
            for child in group.children:
                child.parent = parent
                parent.children.append(child)
        group.children = []

    def _membership_changed(self, group: _Group) -> None:
        """After a membership-only change: refresh the compiled leaf's link
        union in place, in whichever engine holds the representative.  Only
        bound links have annotations to go stale."""
        if self._link_of is None:
            return
        engine = self.inner if group.parent is None else self._covered
        engine.refresh_links(group.representative)

    def _update_gauges(self) -> None:
        self._obs_forest_nodes.set(len(self._groups))
        self._obs_compression.set(self.compression_ratio)

    # ------------------------------------------------------------------
    # Matching (expansion at the engine boundary)

    def _expand(self, roots: MatchResult, covered: MatchResult) -> MatchResult:
        """The representatives both programs matched, expanded to their
        groups' members; steps are the two programs' summed."""
        rep_group = self._rep_group
        matched: List[Subscription] = []
        for representative in roots.subscriptions + covered.subscriptions:
            matched.extend(rep_group[representative.subscription_id].members.values())
        return MatchResult(matched, roots.steps + covered.steps)

    def match(self, event: Event) -> MatchResult:
        return self._expand(self.inner.match(event), self._covered.match(event))

    def match_batch(self, events: Sequence[Event]) -> List[MatchResult]:
        return [
            self._expand(roots, covered)
            for roots, covered in zip(
                self.inner.match_batch(events), self._covered.match_batch(events)
            )
        ]

    # ------------------------------------------------------------------
    # Link matching (masks over the deduplicated leaves)

    def bind_links(self, num_links: int, link_of_subscriber: LinkOfSubscriber) -> None:
        self._link_of = link_of_subscriber
        self._invalidate_link_projection()
        self.inner.bind_links(num_links, self._links_of_representative)
        self._covered.bind_links(num_links, self._links_of_representative)

    def _projection_link_of(self) -> Optional[LinkOfSubscriber]:
        """Digest projection maps *member* subscription ids (the globally
        stable identity digests carry) through the outer link mapping — the
        inner binding only knows per-broker representative ids, which are
        not stable across brokers."""
        return self._link_of

    def _links_of_representative(
        self, representative: Subscription
    ) -> Union[int, Tuple[int, ...]]:
        """The multi-position ``LinkOfSubscriber`` handed to both engines: a
        deduplicated leaf lights the union of its members' links
        (unreachable members contribute nothing)."""
        group = self._rep_group.get(representative.subscription_id)
        if group is None or self._link_of is None:
            return -1
        positions = set()
        for member in group.members.values():
            position = self._link_of(member)
            if position >= 0:
                positions.add(position)
        return tuple(sorted(positions))

    # Each refinement turns exactly the Maybe links its groups owe into Yes,
    # so the union of both Yes sets is the unaggregated final mask.

    def match_links(
        self, event: Event, yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        roots_yes, roots_steps = self.inner.match_links(event, yes_bits, maybe_bits)
        covered_yes, covered_steps = self._covered.match_links(event, yes_bits, maybe_bits)
        return roots_yes | covered_yes, roots_steps + covered_steps

    def match_links_batch(
        self, events: Sequence[Event], yes_bits: int, maybe_bits: int
    ) -> List[Tuple[int, int]]:
        return [
            (roots_yes | covered_yes, roots_steps + covered_steps)
            for (roots_yes, roots_steps), (covered_yes, covered_steps) in zip(
                self.inner.match_links_batch(events, yes_bits, maybe_bits),
                self._covered.match_links_batch(events, yes_bits, maybe_bits),
            )
        ]

    def __repr__(self) -> str:
        return (
            f"AggregatingEngine({len(self._group_of)} subscriptions -> "
            f"{len(self._roots)} compiled leaves, {len(self._groups)} groups, "
            f"inner={self.inner!r})"
        )
