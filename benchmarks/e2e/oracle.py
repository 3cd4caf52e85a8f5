"""The correctness oracle: who must receive which event, independently of
every matcher, router and cache under test.

:class:`SubscriptionTable` is the harness's own table of live subscriptions,
kept in step with whatever the workload subscribes and unsubscribes.  It
answers "which clients must receive this event" exactly, for every event of
a run.  Evaluating ``Predicate.matches`` for every (subscription, event)
pair would cost minutes at 25 000 subscriptions, so the table evaluates each
attribute test once per domain value when a subscription is added
(``AttributeTest.evaluate`` — the reference semantics) and keeps, per
(attribute, value), the set of subscriptions that accept it as one Python
integer used as a bit set; an event's matches are the AND of ten such
integers.  :meth:`SubscriptionTable.cross_check` ties that back to
brute-force ``Predicate.matches`` on a sample of events in every repetition.

:func:`check_sequences` compares, per client, the in-order list of events it
had to receive with the list it did receive and counts missing, spurious,
duplicate and out-of-order deliveries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Mapping, Sequence, Tuple

from repro.matching.events import Event
from repro.matching.predicates import Predicate
from repro.matching.schema import EventSchema

#: How many (client, event) pairs a failure report names.
MAX_EXAMPLES = 10


class OracleError(AssertionError):
    """The bit-set evaluation disagreed with brute-force ``Predicate.matches``."""


class SubscriptionTable:
    """Live subscriptions and exact matching over finite attribute domains."""

    def __init__(
        self,
        schema: EventSchema,
        domains: Mapping[str, Sequence[Any]],
        clients: Sequence[str],
    ) -> None:
        self.schema = schema
        self._domains = [tuple(domains[name]) for name in schema.names]
        # Per attribute position: value -> bit set of subscriptions whose
        # test accepts it, and the bit set of subscriptions with no test.
        self._accepts: List[Dict[Any, int]] = [
            {value: 0 for value in domain} for domain in self._domains
        ]
        self._dont_care = [0] * len(self._domains)
        self._owned: Dict[str, int] = {client: 0 for client in clients}
        self._live: Dict[Hashable, Tuple[int, str, Predicate]] = {}
        self._free_slots: List[int] = []
        self._next_slot = 0

    def __len__(self) -> int:
        return len(self._live)

    def add(self, key: Hashable, client: str, predicate: Predicate) -> None:
        if key in self._live:
            raise KeyError(f"subscription {key!r} is already live")
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = self._next_slot
            self._next_slot += 1
        bit = 1 << slot
        for position, test in enumerate(predicate.tests):
            if test.is_dont_care:
                self._dont_care[position] |= bit
                continue
            accepts = self._accepts[position]
            for value in self._domains[position]:
                if test.evaluate(value):
                    accepts[value] |= bit
        self._owned[client] |= bit
        self._live[key] = (slot, client, predicate)

    def remove(self, key: Hashable) -> None:
        slot, client, _predicate = self._live.pop(key)
        keep = ~(1 << slot)
        for position, accepts in enumerate(self._accepts):
            self._dont_care[position] &= keep
            for value in accepts:
                accepts[value] &= keep
        self._owned[client] &= keep
        self._free_slots.append(slot)

    def matching_clients(self, event: Event) -> List[str]:
        """The clients holding at least one subscription that matches."""
        matched = -1  # all ones
        for position, value in enumerate(event.as_tuple()):
            matched &= self._accepts[position][value] | self._dont_care[position]
            if not matched:
                return []
        return [client for client, owned in self._owned.items() if matched & owned]

    def brute_force_clients(self, event: Event) -> List[str]:
        """The same answer from ``Predicate.matches`` over every live
        subscription — the reference the bit sets are checked against."""
        matched = {
            client for _slot, client, predicate in self._live.values() if predicate.matches(event)
        }
        return [client for client in self._owned if client in matched]

    def cross_check(self, events: Sequence[Event], budget: int = 20_000) -> int:
        """Compare both evaluations on as many of ``events`` (evenly spaced)
        as ``budget`` predicate evaluations allow; returns how many."""
        count = max(1, min(len(events), budget // max(1, len(self._live))))
        stride = max(1, len(events) // count)
        checked = 0
        for event in events[::stride][:count]:
            fast, slow = self.matching_clients(event), self.brute_force_clients(event)
            if fast != slow:
                raise OracleError(f"oracle disagrees with Predicate.matches on {event!r}")
            checked += 1
        return checked


@dataclass
class Failures:
    """Delivery failures of one or more repetitions, against the oracle."""

    expected: int = 0
    missing: int = 0
    spurious: int = 0
    duplicate: int = 0
    out_of_order: int = 0
    #: The first few offending (receiver, event) pairs.
    examples: List[Tuple[str, str, str]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.missing + self.spurious + self.duplicate + self.out_of_order

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.expected if self.expected else float(self.failed > 0)

    def merge(self, other: "Failures") -> None:
        self.expected += other.expected
        self.missing += other.missing
        self.spurious += other.spurious
        self.duplicate += other.duplicate
        self.out_of_order += other.out_of_order
        self.examples = (self.examples + other.examples)[:MAX_EXAMPLES]

    def _note(self, kind: str, receiver: Hashable, item: Any) -> None:
        if len(self.examples) < MAX_EXAMPLES:
            self.examples.append((kind, str(receiver), str(item)))


def check_sequences(
    expected: Mapping[Hashable, Sequence[Hashable]],
    received: Mapping[Hashable, Sequence[Hashable]],
) -> Failures:
    """Compare per-receiver in-order lists of (hashable) event identities.

    An event due but absent is *missing* (an event that arrived too late to
    be seen counts as missing too); one that was never due is *spurious*;
    surplus copies of a due event are *duplicates*; and once those are set
    aside, every position where the two orders differ is *out of order*.
    """
    failures = Failures()
    for receiver in list(expected) + [r for r in received if r not in expected]:
        due = list(expected.get(receiver, ()))
        got = list(received.get(receiver, ()))
        failures.expected += len(due)
        if due == got:
            continue
        due_count, got_count = Counter(due), Counter(got)
        for item, count in (due_count - got_count).items():
            failures.missing += count
            failures._note("missing", receiver, item)
        for item, count in (got_count - due_count).items():
            if item in due_count:
                failures.duplicate += count
                failures._note("duplicate", receiver, item)
            else:
                failures.spurious += count
                failures._note("spurious", receiver, item)
        common = due_count & got_count
        for due_item, got_item in zip(_keep(due, common), _keep(got, common)):
            if due_item != got_item:
                failures.out_of_order += 1
                failures._note("out-of-order", receiver, got_item)
    return failures


def _keep(items: Sequence[Hashable], allowance: Mapping[Hashable, int]) -> List[Hashable]:
    """``items`` in order, keeping at most ``allowance[item]`` of each."""
    left = dict(allowance)
    kept = []
    for item in items:
        if left.get(item, 0) > 0:
            left[item] -= 1
            kept.append(item)
    return kept
