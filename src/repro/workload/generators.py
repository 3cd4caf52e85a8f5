"""Random subscription and event generators (Section 4.1).

*Subscriptions* constrain each attribute with the spec's geometric non-``*``
probability; constrained values are drawn from a Zipf distribution.
Locality of interest is modeled as in the paper: "subscribers within each
subtree of the broker topology have similar distributions of interested
values whereas subscriptions across from the other two subtrees have
different distributions" — each region uses a rotated copy of the global
value ranking, so region peers share hot values and regions disagree.

*Events* draw every attribute from a Zipf distribution; by default from the
publisher's regional ranking (events about locally hot values), with a knob
to use the global ranking instead.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.matching.events import Event
from repro.matching.predicates import EqualityTest, Predicate, Subscription
from repro.workload.distributions import ZipfSampler, rotated
from repro.workload.spec import WorkloadSpec

#: Maps a client name to its locality region index.
RegionOf = Callable[[str], int]


def figure6_region_of(client: str) -> int:
    """Region extractor for the Figure 6 naming scheme: the intercontinental
    subtree index (``S.T2.L01.03`` → region 2, ``P1`` on tree 0's broker → 0).

    Falls back to region 0 for names without a ``T<digit>`` component.
    """
    for part in client.split("."):
        if len(part) >= 2 and part[0] == "T" and part[1].isdigit():
            return int(part[1])
    return 0


class SubscriptionGenerator:
    """Generates random subscriptions per the workload spec."""

    def __init__(
        self,
        spec: WorkloadSpec,
        *,
        seed: int = 0,
        region_of: Optional[RegionOf] = None,
        duplicate_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= duplicate_rate < 1.0:
            raise SimulationError(
                f"duplicate_rate must be in [0, 1), got {duplicate_rate}"
            )
        self.spec = spec
        self.schema = spec.schema()
        self.rng = random.Random(seed)
        self._region_of = region_of if region_of is not None else (lambda _client: 0)
        self._samplers: Dict[int, ZipfSampler] = {}
        #: With probability ``duplicate_rate`` a predicate is re-drawn from
        #: the previously generated pool instead of sampled fresh — models
        #: many subscribers registering the *same* popular predicate body.
        self.duplicate_rate = duplicate_rate
        self._predicate_pool: List[Predicate] = []

    def _sampler_for_region(self, region: int) -> ZipfSampler:
        region %= max(1, self.spec.locality_regions)
        sampler = self._samplers.get(region)
        if sampler is None:
            shift = (region * self.spec.values_per_attribute) // max(
                1, self.spec.locality_regions
            )
            sampler = ZipfSampler(
                rotated(self.spec.values, shift), self.spec.zipf_exponent
            )
            self._samplers[region] = sampler
        return sampler

    def predicate_for(self, subscriber: str) -> Predicate:
        """One random predicate using the subscriber's regional ranking.

        Constrained attributes get equality tests, or — with the spec's
        ``range_probability`` — a one-sided range test against a sampled
        bound (half-open in a uniformly chosen direction).  With the
        generator's ``duplicate_rate``, a previously generated predicate is
        reused instead (Zipf-weighted toward early, popular bodies).
        """
        from repro.matching.predicates import RangeOp, RangeTest

        if self._predicate_pool and self.rng.random() < self.duplicate_rate:
            # Favor early pool entries ~1/rank: popular bodies accumulate
            # registrations the way hot content accumulates subscribers.
            pool_size = len(self._predicate_pool)
            rank = min(int(pool_size ** self.rng.random()), pool_size - 1)
            return self._predicate_pool[rank]
        sampler = self._sampler_for_region(self._region_of(subscriber))
        tests = {}
        for index, name in enumerate(self.spec.attribute_names):
            if self.rng.random() >= self.spec.non_star_probability(index):
                continue
            if self.rng.random() < self.spec.range_probability:
                op = self.rng.choice(
                    (RangeOp.LT, RangeOp.LE, RangeOp.GT, RangeOp.GE)
                )
                tests[name] = RangeTest(op, sampler.sample(self.rng))
            else:
                tests[name] = EqualityTest(sampler.sample(self.rng))
        predicate = Predicate(self.schema, tests)
        if self.duplicate_rate > 0.0:
            self._predicate_pool.append(predicate)
        return predicate

    def subscription_for(self, subscriber: str) -> Subscription:
        return Subscription(self.predicate_for(subscriber), subscriber)

    def subscriptions_for(
        self, subscribers: Sequence[str], total: int
    ) -> List[Subscription]:
        """``total`` subscriptions spread round-robin over ``subscribers``
        (the paper's clients hold "potentially multiple subscriptions")."""
        if not subscribers:
            raise SimulationError("no subscribers to generate subscriptions for")
        return [
            self.subscription_for(subscribers[i % len(subscribers)])
            for i in range(total)
        ]


class EventGenerator:
    """Generates random events per the workload spec."""

    def __init__(
        self,
        spec: WorkloadSpec,
        *,
        seed: int = 0,
        region_of: Optional[RegionOf] = None,
        regional_events: bool = True,
    ) -> None:
        self.spec = spec
        self.schema = spec.schema()
        self.rng = random.Random(seed)
        self._region_of = region_of if region_of is not None else (lambda _client: 0)
        self.regional_events = regional_events
        self._samplers: Dict[int, ZipfSampler] = {}

    def _sampler_for(self, publisher: Optional[str]) -> ZipfSampler:
        region = (
            self._region_of(publisher)
            if (self.regional_events and publisher is not None)
            else 0
        )
        region %= max(1, self.spec.locality_regions)
        sampler = self._samplers.get(region)
        if sampler is None:
            shift = (region * self.spec.values_per_attribute) // max(
                1, self.spec.locality_regions
            )
            sampler = ZipfSampler(
                rotated(self.spec.values, shift), self.spec.zipf_exponent
            )
            self._samplers[region] = sampler
        return sampler

    def event_for(
        self, publisher: Optional[str] = None, rng: Optional[random.Random] = None
    ) -> Event:
        """One random event; ``rng`` overrides the generator's stream (the
        simulator gives each publisher process its own)."""
        rng = rng if rng is not None else self.rng
        sampler = self._sampler_for(publisher)
        values = tuple([sampler.sample(rng) for _ in range(self.spec.num_attributes)])
        return Event.from_tuple(self.schema, values, publisher=publisher)

    def factory_for(self, publisher: str) -> Callable[[random.Random], Event]:
        """An :data:`~repro.sim.clients.EventFactory` bound to ``publisher``."""
        return lambda rng: self.event_for(publisher, rng)


def measure_selectivity(
    subscriptions: Sequence[Subscription],
    events: Sequence[Event],
) -> float:
    """Average fraction of subscriptions matched per event (the paper quotes
    ~0.1% for Chart 1's parameters and ~1.3% for Chart 2's)."""
    if not subscriptions or not events:
        return 0.0
    matched = sum(
        1
        for event in events
        for subscription in subscriptions
        if subscription.predicate.matches(event)
    )
    return matched / (len(subscriptions) * len(events))
