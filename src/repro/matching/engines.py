"""The two interchangeable matcher engines behind :class:`MatcherEngine`.

* :class:`TreeEngine` wraps the object-graph implementations — a
  :class:`~repro.matching.pst.ParallelSearchTree` matched directly, with
  :class:`~repro.core.annotation.TreeAnnotation` +
  :class:`~repro.core.link_matcher.LinkMatcher` for link matching.
* :class:`CompiledEngine` keeps the tree only as a
  :class:`~repro.matching.compile.CompiledProgram` — flat records that
  :meth:`~repro.matching.compile.CompiledProgram.insert` and
  :meth:`~repro.matching.compile.CompiledProgram.remove` change directly —
  and matches through the array kernels.

Both engines produce identical match sets, identical step counts, and
identical refined link masks (the equivalence property test in
``tests/property/test_prop_engine_equivalence.py`` pins this down); the
compiled engine is simply faster per event, while the tree engine is the
easier one to read next to the paper and the oracle every equivalence suite
compares against.  Consumers pick by name through :func:`create_engine`;
the project default is ``"compiled"``.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import RoutingError, SubscriptionError
from repro.core.annotation import LinkOfSubscriber, TreeAnnotation
from repro.core.link_matcher import LinkMatcher
from repro.matching.base import MatcherEngine
from repro.obs import get_registry
from repro.matching.compile import CompiledProgram
from repro.matching.events import Event
from repro.matching.pst import MatchResult, ParallelSearchTree
from repro.matching.predicates import Subscription
from repro.matching.schema import AttributeValue, EventSchema

#: Valid engine names, in preference order.
ENGINE_NAMES = ("compiled", "tree")

#: The engine used when callers do not choose one.
DEFAULT_ENGINE = "compiled"

#: Bucket boundaries of the ``engine.match_batch.size`` histogram.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class _EngineBase(MatcherEngine):
    """What both engines share: the link binding, the instruments, and the
    subscription surface of the replica they keep (``_replica``: the tree
    engine's PST, the compiled engine's program)."""

    _replica: Union[ParallelSearchTree, CompiledProgram]

    def __init__(self, schema: EventSchema) -> None:
        self.schema = schema
        self._num_links: Optional[int] = None
        self._link_of_subscriber: Optional[LinkOfSubscriber] = None
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

    def _require_links(self, mask_bits: int = 0) -> int:
        """The bound link count; ``mask_bits`` (a packed mask's Yes | Maybe)
        must not reach past it."""
        if self._num_links is None:
            raise RoutingError(
                f"{type(self).__name__}.match_links() requires a prior bind_links()"
            )
        if mask_bits >> self._num_links:
            raise ValueError(
                f"packed mask has bits beyond the {self._num_links} bound links"
            )
        return self._num_links

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.subscription_count} subscriptions)"


class TreeEngine(_EngineBase):
    """The object-graph matcher behind the engine interface — the oracle
    every equivalence suite holds the compiled engine against.

    Annotations are computed on first :meth:`match_links` and patched
    incrementally along the changed path on insert/remove (the behavior the
    router previously implemented inline)."""

    name = "tree"

    def __init__(
        self,
        schema: EventSchema,
        *,
        attribute_order: Optional[Sequence[str]] = None,
        domains: Optional[Mapping[str, Sequence[AttributeValue]]] = None,
    ) -> None:
        super().__init__(schema)
        self.tree = self._replica = ParallelSearchTree(
            schema, attribute_order=attribute_order, domains=domains
        )
        self._annotation: Optional[TreeAnnotation] = None
        self._link_matcher: Optional[LinkMatcher] = None

    def insert(self, subscription: Subscription) -> None:
        self.tree.insert(subscription)
        self._patch_annotation(subscription)
        self._link_projection_insert(subscription)

    def remove(self, subscription_id: int) -> Subscription:
        subscription = self.tree.remove(subscription_id)
        self._patch_annotation(subscription)
        self._link_projection_remove(subscription_id)
        return subscription

    def _patch_annotation(self, subscription: Subscription) -> None:
        if self._annotation is not None:
            self._annotation.update_path(self.tree, subscription.predicate)

    def match(self, event: Event) -> MatchResult:
        result = self.tree.match(event)
        self._obs_matches.inc()
        self._obs_match_steps.inc(result.steps)
        return result

    def bind_links(
        self, num_links: int, link_of_subscriber: LinkOfSubscriber
    ) -> None:
        self._num_links = num_links
        self._link_of_subscriber = link_of_subscriber
        self._annotation = None
        self._link_matcher = None
        self._invalidate_link_projection()

    def match_links(
        self, event: Event, yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        self._require_links(yes_bits | maybe_bits)
        if self._annotation is None:
            assert self._num_links is not None
            assert self._link_of_subscriber is not None
            self._annotation = TreeAnnotation(self._num_links, self._link_of_subscriber)
            self._annotation.annotate(self.tree)
            self._link_matcher = LinkMatcher(self.tree, self._annotation)
            get_registry().counter("engine.annotation_rebuilds", engine=self.name).inc()
        assert self._link_matcher is not None
        final_yes, steps = self._link_matcher.match_bits(event, yes_bits, maybe_bits)
        self._obs_link_matches.inc()
        self._obs_link_match_steps.inc(steps)
        return final_yes, steps


class CompiledEngine(_EngineBase):
    """The array-kernel matcher: one :class:`CompiledProgram`, changed in
    place by every insert and remove; annotations are packed bitmasks
    attached to the same program."""

    name = "compiled"

    def __init__(
        self,
        schema: EventSchema,
        *,
        attribute_order: Optional[Sequence[str]] = None,
        domains: Optional[Mapping[str, Sequence[AttributeValue]]] = None,
    ) -> None:
        super().__init__(schema)
        self.program = self._replica = CompiledProgram(
            schema, attribute_order=attribute_order, domains=domains
        )
        self._annotation_dirty = False

    def insert(self, subscription: Subscription) -> None:
        self.program.insert(subscription)

    def remove(self, subscription_id: int) -> Subscription:
        return self.program.remove(subscription_id)

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

    def bind_links(
        self, num_links: int, link_of_subscriber: LinkOfSubscriber
    ) -> None:
        self._num_links = num_links
        self._link_of_subscriber = link_of_subscriber
        self._annotation_dirty = True

    def _annotated_program(self, num_links: int) -> CompiledProgram:
        program = self.program
        if self._annotation_dirty or not program.annotated:
            assert self._link_of_subscriber is not None
            program.annotate(num_links, self._link_of_subscriber)
            self._annotation_dirty = False
            get_registry().counter("engine.annotation_rebuilds", engine=self.name).inc()
        return program

    def match_links(
        self, event: Event, yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        program = self._annotated_program(self._require_links(yes_bits | maybe_bits))
        result = program.match_links(event, yes_bits, maybe_bits)
        self._obs_link_matches.inc()
        self._obs_link_match_steps.inc(result[1])
        return result

    def match_links_batch(
        self, events: Sequence[Event], yes_bits: int, maybe_bits: int
    ) -> List[Tuple[int, int]]:
        program = self._annotated_program(self._require_links(yes_bits | maybe_bits))
        results = program.match_links_batch(events, yes_bits, maybe_bits)
        self._obs_link_matches.inc(len(results))
        self._obs_link_match_steps.inc(sum(steps for _final, steps in results))
        return results

    def project_links(
        self, subscription_ids: Sequence[int], yes_bits: int, maybe_bits: int
    ) -> "tuple[int, int]":
        """Digest projection over the compiled program's packed leaf
        annotations (one OR per matched leaf) — see
        :meth:`CompiledProgram.project_links` for the exactness argument."""
        num_links = self._require_links()
        program = self._annotated_program(num_links)
        result = program.project_links(subscription_ids, yes_bits, maybe_bits)
        self._project_links_counter().inc()
        return result


def create_engine(
    engine: str,
    schema: EventSchema,
    *,
    attribute_order: Optional[Sequence[str]] = None,
    domains: Optional[Mapping[str, Sequence[AttributeValue]]] = None,
) -> MatcherEngine:
    """Instantiate an engine by name (``"compiled"``, ``"tree"``)."""
    if engine == "compiled":
        return CompiledEngine(schema, attribute_order=attribute_order, domains=domains)
    if engine == "tree":
        return TreeEngine(schema, attribute_order=attribute_order, domains=domains)
    raise SubscriptionError(
        f"unknown matcher engine {engine!r} — expected one of {ENGINE_NAMES}"
    )
