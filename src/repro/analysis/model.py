"""Analytical model of PST matching cost.

The paper's Section 2 closes with: "In the companion paper, we have
analytically shown that the cost of matching using the above algorithm
increases less than linearly as the number of subscriptions increase."
This module derives that result for this library's PST and the Section 4.1
workload model, so the claim can be *checked* against the implementation
(see ``tests/integration/test_analysis_model.py``).

Model
-----
Fix an event ``e``.  A depth-``j`` PST node corresponds to a *prefix
pattern*: for each of the first ``j`` attributes, either a ``*`` or an
equality test on some value.  The search visits the node iff the pattern is
*compatible* with ``e`` (every equality tests exactly ``e``'s value) and at
least one of the ``S`` independent random subscriptions carries that prefix.

For a pattern ``π`` constraining the subset ``C ⊆ {1..j}``::

    P(π) = Π_{k∈C} p_k · m_k  ·  Π_{k∉C} (1 − p_k)

where ``p_k`` is the workload's non-``*`` probability for attribute ``k``
and ``m_k`` the probability an independently drawn subscription value equals
the event's value (for two draws from the same distribution this is the
collision probability; exact for uniform values, a mean-field approximation
for Zipf).  Since subscriptions are independent, the expected number of
*distinct* compatible prefixes of length ``j`` is exactly::

    E[V_j] = Σ_{C⊆{1..j}} (1 − (1 − P(C))^S)

and a tree with a node on every level visits ``1 + Σ_{j=1..N} E[V_j]``
nodes (the root plus one node per visited prefix; leaves are the ``j = N``
terms).  Every inner term saturates at 1 as ``S`` grows — which *is* the
sublinearity: the tree keeps sharing prefixes, so doubling the
subscriptions far less than doubles the visited nodes.

The PST never keeps a node whose only child is its ``*``-child (trivial-test
elimination, Section 2.1): the node of prefix ``π`` (length ``j < N``) is
spliced out when some subscription carries ``π`` followed by ``*`` and none
carries ``π`` followed by a test.  With ``P = P(π)`` and ``p`` the non-``*``
probability of attribute ``j + 1``, that has probability
``(1 − P·p)^S − (1 − P)^S``, and the expected steps subtract it over every
compatible prefix, the empty one (the root) included.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import SimulationError
from repro.workload.distributions import ZipfSampler
from repro.workload.spec import WorkloadSpec


@dataclass(frozen=True)
class MatchingCostModel:
    """Closed-form expectations for PST matching under a workload spec.

    The model describes the unfactored PST, whose trivial tests are always
    eliminated; factoring and delayed branching only reduce the measured
    numbers.
    """

    spec: WorkloadSpec
    num_subscriptions: int

    def __post_init__(self) -> None:
        if self.num_subscriptions < 0:
            raise SimulationError("num_subscriptions must be >= 0")

    # ------------------------------------------------------------------

    @property
    def match_probability_per_position(self) -> float:
        """P(an independently drawn subscription value equals the event's)
        — the collision probability of the value distribution."""
        sampler = ZipfSampler(self.spec.values, self.spec.zipf_exponent)
        return sampler.collision_probability

    def non_star_probabilities(self) -> List[float]:
        return [
            self.spec.non_star_probability(k)
            for k in range(self.spec.num_attributes)
        ]

    def pattern_probability(self, constrained: Sequence[bool]) -> float:
        """P that one random subscription's prefix matches the given
        constrained/unconstrained pattern *and* is compatible with a fixed
        event."""
        match = self.match_probability_per_position
        probability = 1.0
        for k, is_constrained in enumerate(constrained):
            p_k = self.spec.non_star_probability(k)
            probability *= p_k * match if is_constrained else (1.0 - p_k)
        return probability

    def expected_visited_prefixes(self, level: int) -> float:
        """E[distinct compatible prefixes of length ``level``] over the
        random subscription set (exact for independent subscriptions)."""
        if not 1 <= level <= self.spec.num_attributes:
            raise SimulationError(f"level must be in [1, {self.spec.num_attributes}]")
        total = 0.0
        for constrained in itertools.product((False, True), repeat=level):
            probability = self.pattern_probability(constrained)
            total += 1.0 - (1.0 - probability) ** self.num_subscriptions
        return total

    def expected_steps(self) -> float:
        """Expected matching steps per event: the root plus the visited
        nodes at every level, less the visited nodes elimination splices."""
        levels, count = self.spec.num_attributes, self.num_subscriptions
        steps = 1.0 + sum(self.expected_visited_prefixes(j) for j in range(1, levels + 1))
        for level in range(levels):
            p_next = self.spec.non_star_probability(level)
            for constrained in itertools.product((False, True), repeat=level):
                probability = self.pattern_probability(constrained)
                steps -= (1.0 - probability * p_next) ** count - (1.0 - probability) ** count
        return steps

    def expected_matches(self) -> float:
        """Expected number of subscriptions matched per event."""
        match = self.match_probability_per_position
        per_subscription = 1.0
        for p_k in self.non_star_probabilities():
            per_subscription *= 1.0 - p_k * (1.0 - match)
        return self.num_subscriptions * per_subscription

    def expected_selectivity(self) -> float:
        """Expected fraction of subscriptions matched per event (the paper
        quotes ~0.1% for Chart 1's parameters)."""
        if self.num_subscriptions == 0:
            return 0.0
        return self.expected_matches() / self.num_subscriptions

    # ------------------------------------------------------------------

    def sublinearity_ratio(self, factor: int = 2) -> float:
        """``steps(factor·S) / (factor · steps(S))`` — strictly below 1 is
        the companion paper's sublinearity claim."""
        if factor < 2:
            raise SimulationError("factor must be >= 2")
        bigger = MatchingCostModel(self.spec, self.num_subscriptions * factor)
        smaller_steps = self.expected_steps()
        if smaller_steps == 0:
            return 0.0
        return bigger.expected_steps() / (factor * smaller_steps)

    def steps_table(self, subscription_counts: Sequence[int]) -> List[Tuple[int, float]]:
        """Model predictions across a sweep, for comparison tables."""
        return [
            (count, MatchingCostModel(self.spec, count).expected_steps())
            for count in subscription_counts
        ]

    def __repr__(self) -> str:
        return (
            f"MatchingCostModel({self.num_subscriptions} subscriptions, "
            f"{self.spec.num_attributes} attributes x "
            f"{self.spec.values_per_attribute} values)"
        )


def measure_workload_redundancy(
    spec: WorkloadSpec, num_subscriptions: int, *, seed: int = 0, subscribers: int = 10
) -> float:
    """Fraction of randomly generated subscriptions that are routing-
    redundant (covered by another subscription of the same subscriber, per
    :mod:`repro.matching.subsumption`).

    High values mean SIENA-style covering optimizations would pay off on the
    workload; the paper's selective workloads produce almost no redundancy,
    one more reason full per-broker matching is the right design there.
    """
    from repro.matching.subsumption import redundant_subscriptions
    from repro.workload.generators import SubscriptionGenerator

    if num_subscriptions <= 0:
        return 0.0
    generator = SubscriptionGenerator(spec, seed=seed)
    names = [f"client{i:03d}" for i in range(max(1, subscribers))]
    subscriptions = generator.subscriptions_for(names, num_subscriptions)
    return len(redundant_subscriptions(subscriptions)) / num_subscriptions
