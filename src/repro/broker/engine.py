"""The matching engine of a prototype broker (Figure 7).

"The matching engine, which implements one of the matching algorithms
described earlier, consists of a subscription manager, and an event parser.
A subscription manager receives a subscription from a client, parses the
subscription expression, and adds the subscription to the matching tree.
An event parser first parses a received event, then un-marshals it according
to the pre-defined event schema."

:class:`MatchingEngine` bundles exactly those two roles around a view of
one subscription replica (:func:`~repro.matching.engines.create_matcher`:
one compiled program, or a factored set of them on request).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Union

from repro.broker.codec import decode_event, encode_event
from repro.matching.engines import create_matcher, view_of
from repro.matching.events import Event
from repro.matching.parser import parse_predicate
from repro.matching.predicates import Predicate, Subscription
from repro.matching.compile import MatchResult
from repro.matching.schema import AttributeValue, EventSchema


class MatchingEngine:
    """Subscription manager + event parser over one information space.

    The replica is a :class:`~repro.matching.compile.CompiledProgram`, or
    with ``factoring_attributes`` a
    :class:`~repro.matching.optimizations.FactoredMatcher` of them.
    ``matcher`` is a view of it."""

    def __init__(
        self,
        schema: EventSchema,
        *,
        attribute_order: Optional[Sequence[str]] = None,
        domains: Optional[Mapping[str, Sequence[AttributeValue]]] = None,
        factoring_attributes: Optional[Sequence[str]] = None,
    ) -> None:
        self.schema = schema
        self.matcher = view_of(
            create_matcher(
                schema,
                attribute_order=attribute_order,
                domains=domains,
                factoring_attributes=factoring_attributes,
            )
        )

    # ------------------------------------------------------------------
    # Subscription manager

    def add_subscription(
        self,
        subscriber: str,
        predicate: Union[Predicate, str],
        *,
        subscription_id: Optional[int] = None,
    ) -> Subscription:
        """Parse (when given an expression string) and register a
        subscription; returns the stored :class:`Subscription`."""
        if isinstance(predicate, str):
            predicate = parse_predicate(self.schema, predicate)
        subscription = Subscription(predicate, subscriber, subscription_id=subscription_id)
        self.matcher.insert(subscription)
        return subscription

    def remove_subscription(self, subscription_id: int) -> Subscription:
        return self.matcher.remove(subscription_id)

    @property
    def subscriptions(self) -> List[Subscription]:
        return self.matcher.subscriptions

    @property
    def subscription_count(self) -> int:
        """O(1): the matcher's own tally, not a listing to count."""
        return self.matcher.subscription_count

    # ------------------------------------------------------------------
    # Event parser + matching

    def parse_event(self, data: bytes, *, publisher: str = "") -> Event:
        """Unmarshal a wire event against the information space's schema."""
        return decode_event(self.schema, data, publisher=publisher)

    def encode_event(self, event: Event) -> bytes:
        return encode_event(event)

    def match(self, event: Event) -> MatchResult:
        """Match an (already unmarshalled) event; returns subscriptions+steps."""
        return self.matcher.match(event)

    def match_data(self, data: bytes, *, publisher: str = "") -> MatchResult:
        """Parse-then-match in one call, as the broker's hot path does."""
        return self.match(self.parse_event(data, publisher=publisher))

    def match_batch(self, events: Sequence[Event]) -> List[MatchResult]:
        """Match a batch of events through the matcher's batch kernel.

        Result ``i`` is exactly ``match(events[i])``.
        """
        return self.matcher.match_batch(events)

    def match_data_batch(
        self, blobs: Sequence[bytes], *, publisher: str = ""
    ) -> List[MatchResult]:
        """Parse-then-match a batch of wire events in one call."""
        return self.match_batch(
            [self.parse_event(data, publisher=publisher) for data in blobs]
        )

    def __repr__(self) -> str:
        return f"MatchingEngine({self.subscription_count} subscriptions)"
