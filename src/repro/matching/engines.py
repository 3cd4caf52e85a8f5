"""The subscription replica and the per-router engines that view it.

Section 3.1 gives every broker *the same* PST; only the per-link trit
annotations differ.  So two things are kept apart:

* **the replica** — the subscription structure, held once per process and
  built by :func:`create_matcher`: a
  :class:`~repro.matching.compile.CompiledProgram` (``engine="compiled"``),
  a :class:`~repro.matching.pst.ParallelSearchTree` (``engine="tree"``), or
  a :class:`~repro.matching.optimizations.FactoredMatcher` of either
  (``factoring_attributes``).  Only its owner inserts and removes;
* **a view** — one router's engine over the replica (:func:`view_of`):
  matching is the replica's, link matching runs on the view's own
  annotation.  The replica keeps every view it handed out live,
  re-annotating only the changed path on insert and remove, and lazily: a
  view is annotated in full at its first link match after a
  :meth:`~repro.matching.base.MatcherEngine.bind_links`, and pays nothing
  before.

The views:

* :class:`TreeEngine` — a :class:`~repro.core.annotation.TreeAnnotation`
  and a :class:`~repro.core.link_matcher.LinkMatcher` over a shared PST;
* :class:`CompiledEngine` — packed annotation columns over a shared
  :class:`~repro.matching.compile.CompiledProgram`, matched through its
  array kernels;
* :class:`FactoredEngine` — one view of each sub-tree of a factored
  replica that an event has selected.

Both engines produce identical match sets, identical step counts, and
identical refined link masks (the equivalence property test in
``tests/property/test_prop_engine_equivalence.py`` pins this down); the
compiled engine is simply faster per event, while the tree engine is the
easier one to read next to the paper and the oracle every equivalence suite
compares against.  The project default is ``"compiled"``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import RoutingError, SubscriptionError
from repro.core.annotation import LinkOfSubscriber, TreeAnnotation
from repro.core.link_matcher import LinkMatcher
from repro.matching.base import MatcherEngine
from repro.obs import get_registry
from repro.matching.compile import CompiledProgram
from repro.matching.events import Event
from repro.matching.optimizations import FactoredMatcher
from repro.matching.pst import MatchResult, ParallelSearchTree
from repro.matching.predicates import Subscription
from repro.matching.schema import AttributeValue, EventSchema

#: Valid engine names, in preference order.
ENGINE_NAMES = ("compiled", "tree")

#: The engine used when callers do not choose one.
DEFAULT_ENGINE = "compiled"

#: Bucket boundaries of the ``engine.match_batch.size`` histogram.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: What :func:`create_matcher` builds: the subscription replica.
Replica = Union[CompiledProgram, ParallelSearchTree, FactoredMatcher]


class _EngineBase(MatcherEngine):
    """What both whole-tree engines share: the replica they view (the tree
    engine's PST, the compiled engine's program), the link binding and the
    instruments."""

    def __init__(self, replica: Union[ParallelSearchTree, CompiledProgram]) -> None:
        self.schema = replica.schema
        self._replica = replica
        self.num_links: Optional[int] = None
        self.link_of_subscriber: Optional[LinkOfSubscriber] = None
        # Instruments come from the global registry (no-ops unless an entry
        # point enabled it before construction); fetched once here so the
        # per-match cost is a method call, not a registry lookup.
        registry = get_registry()
        self._obs_matches = registry.counter("engine.matches", engine=self.name)
        self._obs_match_steps = registry.counter("engine.match_steps", engine=self.name)
        self._obs_link_matches = registry.counter("engine.link_matches", engine=self.name)
        self._obs_link_match_steps = registry.counter(
            "engine.link_match_steps", engine=self.name
        )
        self._obs_batch_size = registry.histogram(
            "engine.match_batch.size", BATCH_SIZE_BUCKETS, engine=self.name
        )
        self._obs_rebuilds = registry.counter("engine.annotation_rebuilds", engine=self.name)
        self._obs_project_links = registry.counter(
            "engine.project_links_calls", engine=self.name
        )
        replica.views.append(self)

    def insert(self, subscription: Subscription) -> None:
        self._replica.insert(subscription)

    def remove(self, subscription_id: int) -> Subscription:
        return self._replica.remove(subscription_id)

    def release(self) -> None:
        self._replica.views.remove(self)

    @property
    def subscriptions(self) -> List[Subscription]:
        return self._replica.subscriptions

    @property
    def subscription_count(self) -> int:
        return len(self._replica)

    def match_brute_force(self, event: Event) -> List[Subscription]:
        """Reference semantics: evaluate every predicate directly."""
        return self._replica.match_brute_force(event)

    def match_batch(self, events: Sequence[Event]) -> List[MatchResult]:
        self._obs_batch_size.observe(len(events))
        return super().match_batch(events)

    def bind_links(self, num_links: int, link_of_subscriber: LinkOfSubscriber) -> None:
        if num_links < 0:
            raise RoutingError("num_links must be >= 0")
        self.num_links = num_links
        self.link_of_subscriber = link_of_subscriber

    def _require_links(self, mask_bits: int = 0) -> int:
        """The bound link count; ``mask_bits`` (a packed mask's Yes | Maybe)
        must not reach past it."""
        if self.num_links is None:
            raise RoutingError(
                f"{type(self).__name__}.match_links() requires a prior bind_links()"
            )
        if mask_bits >> self.num_links:
            raise ValueError(
                f"packed mask has bits beyond the {self.num_links} bound links"
            )
        return self.num_links

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.subscription_count} subscriptions)"


class TreeEngine(_EngineBase):
    """A view of a shared :class:`ParallelSearchTree` — the oracle every
    equivalence suite holds the compiled engine against.

    Annotations are computed on the first :meth:`match_links` and patched
    along the changed path on every insert and remove the tree makes."""

    name = "tree"

    def __init__(self, tree: ParallelSearchTree) -> None:
        super().__init__(tree)
        self.tree = tree
        self._annotation: Optional[TreeAnnotation] = None
        self._link_matcher: Optional[LinkMatcher] = None
        #: ``subscription_id -> packed link bits`` for digest projection,
        #: built on the first digest and kept current entry by entry;
        #: ``None`` means not built.
        self._link_projection: Optional[Dict[int, int]] = None

    def path_changed(self, subscription: Subscription) -> None:
        """The tree inserted or removed ``subscription``: re-annotate its
        path and update its projection entry (when built)."""
        if self._annotation is not None:
            self._annotation.update_path(self.tree, subscription.predicate)
        if self._link_projection is not None:
            subscription_id = subscription.subscription_id
            if subscription_id in self.tree:
                self._link_projection[subscription_id] = self._link_bits(subscription)
            else:
                self._link_projection.pop(subscription_id, None)

    def match(self, event: Event) -> MatchResult:
        result = self.tree.match(event)
        self._obs_matches.inc()
        self._obs_match_steps.inc(result.steps)
        return result

    def bind_links(self, num_links: int, link_of_subscriber: LinkOfSubscriber) -> None:
        super().bind_links(num_links, link_of_subscriber)
        self._annotation = None
        self._link_matcher = None
        self._invalidate_link_projection()

    def annotate(self) -> None:
        """Annotate the tree in full for the bound links, unless done since
        the last :meth:`bind_links`."""
        if self._link_matcher is None:
            self._require_links()
            assert self.num_links is not None and self.link_of_subscriber is not None
            self._annotation = TreeAnnotation(self.num_links, self.link_of_subscriber)
            self._annotation.annotate(self.tree)
            self._link_matcher = LinkMatcher(self.tree, self._annotation)
            self._obs_rebuilds.inc()

    def match_links(
        self, event: Event, yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        self._require_links(yes_bits | maybe_bits)
        self.annotate()
        final_yes, steps = self._link_matcher.match_bits(event, yes_bits, maybe_bits)
        self._obs_link_matches.inc()
        self._obs_link_match_steps.inc(steps)
        return final_yes, steps

    # Digest projection: one OR per matched subscription from a per-id table.

    def _link_bits(self, subscription: Subscription) -> int:
        """The packed link bit of one subscription (a negative position
        means unreachable and lights nothing)."""
        position = self.link_of_subscriber(subscription)
        return 1 << position if position >= 0 else 0

    def _invalidate_link_projection(self) -> None:
        self._link_projection = None

    def _link_projection_table(self) -> Dict[int, int]:
        table = self._link_projection
        if table is None:
            if self.link_of_subscriber is None:
                raise RoutingError("TreeEngine.project_links() requires a prior bind_links()")
            table = self._link_projection = {
                subscription.subscription_id: self._link_bits(subscription)
                for subscription in self.tree.subscriptions
            }
        return table

    def project_links(
        self, subscription_ids: Sequence[int], yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        """One OR per matched subscription over the per-id link-bits table
        (see :meth:`MatcherEngine.project_links`)."""
        table = self._link_projection_table()
        bits = 0
        steps = 0
        for subscription_id in subscription_ids:
            entry = table.get(subscription_id)
            if entry is None:
                raise RoutingError(
                    f"digest names subscription #{subscription_id}, which this "
                    f"engine does not hold — subscription sets have diverged"
                )
            bits |= entry
            steps += 1
        self._obs_project_links.inc()
        return yes_bits | (maybe_bits & bits), steps


class CompiledEngine(_EngineBase):
    """A view of a shared :class:`CompiledProgram`: this router's packed
    annotation columns, which the program keeps current on every insert and
    remove, and the program's array kernels run over them."""

    name = "compiled"

    def __init__(self, program: CompiledProgram) -> None:
        super().__init__(program)
        self.program = program
        #: This view's packed annotation of every program slot; ``None``
        #: until the first link match after a (re)bind.
        self.ann_yes: Optional[List[int]] = None
        self.ann_maybe: Optional[List[int]] = None

    def match(self, event: Event) -> MatchResult:
        result = self.program.match(event)
        self._obs_matches.inc()
        self._obs_match_steps.inc(result.steps)
        return result

    def match_batch(self, events: Sequence[Event]) -> List[MatchResult]:
        self._obs_batch_size.observe(len(events))
        results = self.program.match_batch(events)
        self._obs_matches.inc(len(results))
        self._obs_match_steps.inc(sum(result.steps for result in results))
        return results

    def bind_links(self, num_links: int, link_of_subscriber: LinkOfSubscriber) -> None:
        super().bind_links(num_links, link_of_subscriber)
        self.ann_yes = self.ann_maybe = None

    def annotate(self) -> None:
        """Annotate the program in full for the bound links, unless done
        since the last :meth:`bind_links`."""
        if self.ann_yes is None:
            self._require_links()
            self.program.annotate(self)
            self._obs_rebuilds.inc()

    def match_links(
        self, event: Event, yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        self._require_links(yes_bits | maybe_bits)
        self.annotate()
        result = self.program.match_links(self, event, yes_bits, maybe_bits)
        self._obs_link_matches.inc()
        self._obs_link_match_steps.inc(result[1])
        return result

    def match_links_batch(
        self, events: Sequence[Event], yes_bits: int, maybe_bits: int
    ) -> List[Tuple[int, int]]:
        self._require_links(yes_bits | maybe_bits)
        self.annotate()
        results = self.program.match_links_batch(self, events, yes_bits, maybe_bits)
        self._obs_link_matches.inc(len(results))
        self._obs_link_match_steps.inc(sum(steps for _final, steps in results))
        return results

    def project_links(
        self, subscription_ids: Sequence[int], yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        """Digest projection over this view's packed leaf annotations (one
        OR per matched leaf) — see :meth:`CompiledProgram.project_links` for
        the exactness argument."""
        self.annotate()
        result = self.program.project_links(self, subscription_ids, yes_bits, maybe_bits)
        self._obs_project_links.inc()
        return result


class FactoredEngine(MatcherEngine):
    """A view of a shared :class:`FactoredMatcher`: one view of each of its
    sub-trees — of every populated one at the first link match after a
    (re)bind, of one populated later at the first event that selects it —
    dropped when the sub-tree empties or the links are rebound.

    An event whose index key has no sub-tree refines to nothing in one
    step, the index lookup.  The sub-trees split subscriptions before any
    engine sees them, so there is no projection surface: a factored view
    neither mints nor consumes match digests."""

    supports_digests = False

    def __init__(self, matcher: FactoredMatcher) -> None:
        self.matcher = matcher
        self.schema = matcher.schema
        self.name = f"factored-{matcher.engine}"
        self.num_links: Optional[int] = None
        self.link_of_subscriber: Optional[LinkOfSubscriber] = None
        self._views: Dict[Tuple[AttributeValue, ...], MatcherEngine] = {}
        self._annotated = False
        matcher.views.append(self)

    def insert(self, subscription: Subscription) -> None:
        self.matcher.insert(subscription)

    def remove(self, subscription_id: int) -> Subscription:
        return self.matcher.remove(subscription_id)

    @property
    def subscriptions(self) -> List[Subscription]:
        return self.matcher.subscriptions

    @property
    def subscription_count(self) -> int:
        return len(self.matcher)

    def match(self, event: Event) -> MatchResult:
        return self.matcher.match(event)

    def bind_links(self, num_links: int, link_of_subscriber: LinkOfSubscriber) -> None:
        self._drop_views()
        self._annotated = False
        self.num_links = num_links
        self.link_of_subscriber = link_of_subscriber

    def annotate(self) -> None:
        """View and annotate every populated sub-tree, unless done since the
        last :meth:`bind_links`."""
        if not self._annotated:
            for key in [key for key, _subtree in self.matcher.subtrees()]:
                self._view_for(key).annotate()
            self._annotated = True

    def drop(self, key: Tuple[AttributeValue, ...]) -> None:
        """Forget the view of sub-tree ``key`` (it emptied, or the links
        moved)."""
        view = self._views.pop(key, None)
        if view is not None:
            view.release()

    def release(self) -> None:
        self._drop_views()
        self.matcher.views.remove(self)

    def _drop_views(self) -> None:
        for key in list(self._views):
            self.drop(key)

    def _view_for(self, key: Tuple[AttributeValue, ...]) -> Optional[MatcherEngine]:
        view = self._views.get(key)
        if view is None:
            subtree = self.matcher.subtree(key)
            if subtree is None:
                return None
            view = self._views[key] = view_of(subtree)
            if self.num_links is not None:
                view.bind_links(self.num_links, self.link_of_subscriber)
        return view

    def match_links(
        self, event: Event, yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        self.annotate()
        view = self._view_for(self.matcher.key_for_event(event))
        if view is None:
            return 0, 1
        return view.match_links(event, yes_bits, maybe_bits)

    def match_links_batch(
        self, events: Sequence[Event], yes_bits: int, maybe_bits: int
    ) -> List[Tuple[int, int]]:
        """Per event exactly :meth:`match_links`; the events of one sub-tree
        refine in one batch."""
        self.annotate()
        results: List[Tuple[int, int]] = [(0, 1)] * len(events)
        groups: Dict[Tuple[AttributeValue, ...], List[int]] = {}
        key_for_event = self.matcher.key_for_event
        for i, event in enumerate(events):
            groups.setdefault(key_for_event(event), []).append(i)
        for key, indices in groups.items():
            view = self._view_for(key)
            if view is None:
                continue
            finals = view.match_links_batch([events[i] for i in indices], yes_bits, maybe_bits)
            for i, final in zip(indices, finals):
                results[i] = final
        return results

    def project_links(
        self, subscription_ids: Sequence[int], yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        raise RoutingError("factored routers cannot consume match digests")

    def __repr__(self) -> str:
        return f"FactoredEngine({len(self.matcher)} subscriptions, {len(self._views)} views)"


_VIEWS: Dict[type, Any] = {
    CompiledProgram: CompiledEngine,
    ParallelSearchTree: TreeEngine,
    FactoredMatcher: FactoredEngine,
}


def view_of(replica: Replica) -> MatcherEngine:
    """A new view of ``replica``, registered in its ``views`` until
    :meth:`~repro.matching.base.MatcherEngine.release`; links unbound."""
    return _VIEWS[type(replica)](replica)


def create_matcher(
    schema: EventSchema,
    *,
    engine: str = DEFAULT_ENGINE,
    attribute_order: Optional[Sequence[str]] = None,
    domains: Optional[Mapping[str, Sequence[AttributeValue]]] = None,
    factoring_attributes: Optional[Sequence[str]] = None,
) -> Replica:
    """The subscription replica for one configuration — the one structure
    every router built over it views (see the module docstring)."""
    if engine not in ENGINE_NAMES:
        raise SubscriptionError(
            f"unknown matcher engine {engine!r} — expected one of {ENGINE_NAMES}"
        )
    if factoring_attributes:
        if domains is None:
            raise SubscriptionError("factoring requires finite attribute domains")
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
    structure = CompiledProgram if engine == "compiled" else ParallelSearchTree
    return structure(schema, attribute_order=attribute_order, domains=domains)
