"""The companion paper's analytical claim, checked against this PST.

"We have analytically shown that the cost of matching using the above
algorithm increases less than linearly as the number of subscriptions
increase."  The :class:`~repro.analysis.MatchingCostModel` derives expected
steps/matches in closed form; here it is validated against the measured
implementation (uniform values, where the model is exact in expectation)
and used to certify sublinearity.
"""

from __future__ import annotations

import pytest

from repro.analysis import MatchingCostModel
from repro.errors import SimulationError
from repro.matching import CompiledProgram
from repro.workload import CHART1_SPEC, EventGenerator, SubscriptionGenerator, WorkloadSpec

UNIFORM_SPEC = WorkloadSpec(
    num_attributes=8,
    values_per_attribute=4,
    factoring_levels=0,
    zipf_exponent=0.0,
    locality_regions=1,
)


def measure(spec: WorkloadSpec, num_subscriptions: int, num_events: int = 300, seed: int = 5):
    generator = SubscriptionGenerator(spec, seed=seed)
    tree = CompiledProgram(spec.schema())
    for subscription in generator.subscriptions_for(["c"], num_subscriptions):
        tree.insert(subscription)
    events = EventGenerator(spec, seed=seed + 1)
    sample = [events.event_for() for _ in range(num_events)]
    steps = sum(tree.match(e).steps for e in sample) / len(sample)
    matches = sum(len(tree.match(e).subscriptions) for e in sample) / len(sample)
    return steps, matches


class TestModelAccuracy:
    @pytest.mark.parametrize("num_subscriptions", [200, 1000, 4000])
    def test_expected_steps_tracks_measurement(self, num_subscriptions):
        model = MatchingCostModel(UNIFORM_SPEC, num_subscriptions)
        measured_steps, _ = measure(UNIFORM_SPEC, num_subscriptions)
        assert model.expected_steps() == pytest.approx(measured_steps, rel=0.20)

    @pytest.mark.parametrize("num_subscriptions", [200, 1000, 4000])
    def test_expected_matches_tracks_measurement(self, num_subscriptions):
        model = MatchingCostModel(UNIFORM_SPEC, num_subscriptions)
        _, measured_matches = measure(UNIFORM_SPEC, num_subscriptions)
        assert model.expected_matches() == pytest.approx(measured_matches, rel=0.25)

    def test_chart1_selectivity_prediction(self):
        """The paper says Chart 1's parameters make events match ~0.1% of
        subscriptions; the closed form lands in that ballpark (the paper's
        locality mechanism, which we do not model analytically, pushes the
        simulated number further down)."""
        model = MatchingCostModel(CHART1_SPEC, 1000)
        assert 0.0005 < model.expected_selectivity() < 0.02


class TestSublinearity:
    @pytest.mark.parametrize("spec", [UNIFORM_SPEC, CHART1_SPEC], ids=["uniform", "chart1"])
    @pytest.mark.parametrize("num_subscriptions", [500, 2000, 8000])
    def test_doubling_subscriptions_less_than_doubles_steps(self, spec, num_subscriptions):
        model = MatchingCostModel(spec, num_subscriptions)
        assert model.sublinearity_ratio(2) < 0.95

    def test_ratio_improves_with_scale(self):
        """Sharing grows with the tree: the sublinearity ratio falls as the
        subscription count rises."""
        small = MatchingCostModel(UNIFORM_SPEC, 200).sublinearity_ratio()
        large = MatchingCostModel(UNIFORM_SPEC, 20_000).sublinearity_ratio()
        assert large < small

    def test_steps_table_monotone_but_concave(self):
        model = MatchingCostModel(UNIFORM_SPEC, 1)
        table = model.steps_table([100, 200, 400, 800])
        steps = [value for _count, value in table]
        assert steps == sorted(steps)
        increments = [b - a for a, b in zip(steps, steps[1:])]
        # Each doubling buys less than the previous one bought.
        assert increments[1] < increments[0] * 2
        assert increments[2] < increments[1] * 2


class TestValidation:
    def test_negative_subscriptions_rejected(self):
        with pytest.raises(SimulationError):
            MatchingCostModel(UNIFORM_SPEC, -1)

    def test_level_bounds(self):
        model = MatchingCostModel(UNIFORM_SPEC, 10)
        with pytest.raises(SimulationError):
            model.expected_visited_prefixes(0)
        with pytest.raises(SimulationError):
            model.expected_visited_prefixes(UNIFORM_SPEC.num_attributes + 1)

    def test_factor_bounds(self):
        with pytest.raises(SimulationError):
            MatchingCostModel(UNIFORM_SPEC, 10).sublinearity_ratio(1)

    def test_zero_subscriptions(self):
        model = MatchingCostModel(UNIFORM_SPEC, 0)
        assert model.expected_steps() == 1.0  # just the root
        assert model.expected_matches() == 0.0
        assert model.expected_selectivity() == 0.0
