"""The informal matcher interface shared by all matching engines.

:class:`~repro.matching.compile.CompiledProgram`,
:class:`~repro.matching.optimizations.FactoredMatcher` and
:class:`~repro.matching.optimizations.SearchDag` all expose the same
surface; components that only *consume* a matcher (the broker engine, the
simulator's protocols, the benchmarks) type against this ABC.  Python duck
typing would suffice, but the ABC documents the contract and gives a single
place to explain the semantics.
"""

from __future__ import annotations

import abc
from typing import Callable, List, Sequence, Tuple

from repro.matching.compile import MatchResult
from repro.matching.events import Event
from repro.matching.predicates import Subscription

#: Maps a subscription to the broker-local (virtual) link position through
#: which its subscriber is best reached.  A negative position means the
#: subscriber is currently unreachable (cut off by a failure): the
#: subscription contributes no link, so no annotation bit lights for it.
LinkOfSubscriber = Callable[[Subscription], int]


class Matcher(abc.ABC):
    """Anything that can match events against a mutable set of subscriptions.

    Contract:

    * :meth:`match` returns exactly the subscriptions whose predicates are
      satisfied by the event (same set as evaluating every predicate
      directly), plus the number of matching steps taken;
    * :meth:`insert` / :meth:`remove` update the set, addressed by
      ``subscription_id``;
    * ``subscriptions`` lists the currently registered subscriptions.
    """

    @abc.abstractmethod
    def insert(self, subscription: Subscription) -> None:
        """Register a subscription."""

    @abc.abstractmethod
    def remove(self, subscription_id: int) -> Subscription:
        """Unregister and return the subscription with the given id."""

    @abc.abstractmethod
    def match(self, event: Event) -> MatchResult:
        """Find all satisfied subscriptions."""

    def match_batch(self, events: Sequence[Event]) -> List[MatchResult]:
        """Match a batch of events.

        Result ``i`` is exactly ``match(events[i])`` — same match set, same
        step count.  This base fallback loops (the factored matcher and its
        views use it); ``CompiledEngine`` overrides it to check the batch
        once and walk its program per event.
        """
        return [self.match(event) for event in events]

    @property
    @abc.abstractmethod
    def subscriptions(self) -> List[Subscription]:
        """The registered subscriptions (order unspecified)."""


class MatcherEngine(Matcher):
    """One router's view of a subscription replica: the replica's matching
    plus the Section 3.3 link-matching refinement on the view's own trit
    annotation — the full per-broker matching surface.

    The implementations are in :mod:`repro.matching.engines`
    (``CompiledEngine``, ``FactoredEngine``), one per replica type, obtained
    with :func:`repro.matching.engines.view_of`.  ``insert`` / ``remove`` go
    to the replica, which keeps every view's annotation current.

    Link matching is optional state: :meth:`bind_links` declares the
    broker's virtual-link geometry; :meth:`match_links` then refines an
    initialization mask for an event.

    Masks cross this interface packed, as the routing path carries them:
    ``(yes_bits, maybe_bits)`` in, ``(final_yes_bits, steps)`` out (the
    final mask has no Maybe, so its Yes bits are all of it) — the encoding
    of :mod:`repro.core.trits`.
    """

    #: The engine's registry name ("compiled" / "factored").
    name: str = "abstract"

    #: Whether :meth:`project_links` can serve match digests.
    supports_digests: bool = True

    @abc.abstractmethod
    def bind_links(
        self, num_links: int, link_of_subscriber: LinkOfSubscriber
    ) -> None:
        """Declare the number of (virtual) links and the subscription-to-link
        mapping; the annotation is rebuilt in full at the next link match."""

    @abc.abstractmethod
    def annotate(self) -> None:
        """Annotate in full for the bound links, unless done since the last
        :meth:`bind_links` — what the first link match does.  From then on
        the replica keeps the annotation current along every change."""

    @abc.abstractmethod
    def match_links(
        self, event: Event, yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        """Run the Section 3.3 refinement search on a packed initialization
        mask; returns ``(final_yes_bits, steps)``.  Requires a prior
        :meth:`bind_links`."""

    @abc.abstractmethod
    def match_links_batch(
        self, events: Sequence[Event], yes_bits: int, maybe_bits: int
    ) -> List[Tuple[int, int]]:
        """Refine one shared initialization mask for a batch of events.

        Result ``i`` is exactly ``match_links(events[i], yes_bits,
        maybe_bits)``; the batch is checked once.
        """

    @abc.abstractmethod
    def project_links(
        self, subscription_ids: Sequence[int], yes_bits: int, maybe_bits: int
    ) -> Tuple[int, int]:
        """Refine a packed initialization mask from a match digest instead
        of a refinement descent.

        ``subscription_ids`` is the digest's matched set; the result
        ``(final_yes_bits, steps)`` is bit-identical to
        :meth:`match_links`'s fully refined mask *for the same subscription
        set*: a link ends up Yes iff it started Yes, or started Maybe and
        carries at least one matched subscription — exactly the refinement
        search's fixpoint.  Raises :class:`RoutingError` for ids this engine
        does not hold (the caller must fall back to full matching; the sets
        have diverged).
        """

    @abc.abstractmethod
    def release(self) -> None:
        """Leave the replica's ``views``: it stops keeping this view live."""
