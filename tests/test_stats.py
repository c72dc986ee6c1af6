import math

import numpy as np
import pytest

from poltrack.stats import (
    EstimatorScenario,
    delta_qber,
    delta_table,
    detection_probs,
    required_sample_size,
    scenario_for_qber,
)

from conftest import monte_carlo_sigma, qber_true, stokes_from_projection_angle
from per_pulse_oracle import H, projection_probability


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


class TestQberTrue:
    @pytest.mark.parametrize(
        "theta,expected", [(0.0, 0.0), (math.pi / 2, 1.0), (math.pi / 4, 0.5)]
    )
    def test_reference_points(self, theta, expected):
        assert qber_true(theta) == pytest.approx(expected)

    def test_consistent_with_projection_probability(self):
        # the wrong-port rate of the analyzed state equals one minus its
        # projection onto the H analyzer, for any retardation
        for theta in np.linspace(0.0, math.pi / 2, 25):
            for phi in (0.0, 0.7, 2.1):
                s = stokes_from_projection_angle(float(theta), phi)
                assert qber_true(float(theta)) == pytest.approx(
                    1.0 - projection_probability(s, H), abs=1e-12
                )


class TestDetectionProbs:
    def test_aligned_sends_nothing_to_wrong_port(self):
        p1, p2 = detection_probs(EstimatorScenario(0.0, 0.1, 0.1, 1000))
        assert p1 == 0.0
        assert p2 == pytest.approx(1.0 - math.exp(-0.01))

    def test_one_percent_reference_point(self):
        scn = scenario_for_qber(0.01, 0.1, 0.1, 2500)
        p1, p2 = detection_probs(scn)
        assert p1 == pytest.approx(1.000e-4, rel=1e-3)
        assert p2 == pytest.approx(9.851e-3, rel=1e-3)

    def test_vanishing_efficiency(self):
        p1, p2 = detection_probs(EstimatorScenario(0.3, 0.1, 1e-12, 1000))
        assert p1 == pytest.approx(0.0, abs=1e-12)
        assert p2 == pytest.approx(0.0, abs=1e-12)

    def test_bounded_and_monotone_in_fractions(self):
        cap = 1.0 - math.exp(-0.1 * 0.1)
        p1s, p2s = [], []
        for theta in np.linspace(0.0, math.pi / 2, 40):
            p1, p2 = detection_probs(EstimatorScenario(float(theta), 0.1, 0.1, 100))
            assert 0.0 <= p1 <= cap + 1e-15
            assert 0.0 <= p2 <= cap + 1e-15
            p1s.append(p1)
            p2s.append(p2)
        assert all(b >= a for a, b in zip(p1s, p1s[1:]))
        assert all(b <= a for a, b in zip(p2s, p2s[1:]))


class TestDeltaQber:
    def test_reference_cell_one_percent_2500(self):
        # about 0.6% estimation error with 2500 revealed bits at 1% error rate
        scn = scenario_for_qber(0.01, 0.1, 0.1, 2500)
        assert delta_qber(scn) == pytest.approx(0.0060, rel=0.03)

    def test_two_percent_matches_small_p_reduction(self):
        scn = scenario_for_qber(0.02, 0.1, 0.1, 2500)
        reduced = 3.0 * math.sqrt(0.02 * 0.98 / 2500)
        assert delta_qber(scn) == pytest.approx(reduced, rel=0.01)
        assert reduced == pytest.approx(0.0084, rel=0.01)

    def test_quadrupling_b_halves_delta(self):
        scn = scenario_for_qber(0.01, 0.1, 0.1, 2500)
        big = scenario_for_qber(0.01, 0.1, 0.1, 10_000)
        assert delta_qber(big) == pytest.approx(delta_qber(scn) / 2.0, rel=1e-12)

    def test_small_p_reduction_band(self):
        # for eta*mu <= 0.01 the exact form sits within 1% of
        # 3*sqrt(q(1-q)/B)
        for q in (0.005, 0.01, 0.05, 0.1, 0.3):
            for eta, mu in ((0.01, 1.0), (0.1, 0.1), (0.001, 0.1)):
                scn = scenario_for_qber(q, mu, eta, 2500)
                ratio = delta_qber(scn) / (3.0 * math.sqrt(q * (1 - q) / 2500))
                assert 0.99 <= ratio <= 1.01

    def test_degenerate_scenario_rejected(self):
        scn = EstimatorScenario(0.0, 1e-300, 1e-300, 100)
        with pytest.raises(ValueError):
            delta_qber(scn)


class TestRequiredSampleSize:
    def test_reference_inversion(self):
        theta = math.asin(math.sqrt(0.01))
        b = required_sample_size(0.006, theta, 0.1, 0.1)
        assert abs(b - 2486) <= 2
        assert b <= 2500
        # returned size meets the target, one fewer does not
        assert delta_qber(EstimatorScenario(theta, 0.1, 0.1, b)) <= 0.006
        assert delta_qber(EstimatorScenario(theta, 0.1, 0.1, b - 1)) > 0.006

    def test_loose_target_returns_one(self):
        assert required_sample_size(1.0, 0.3, 0.1, 0.1) == 1

    def test_halving_target_quadruples_b(self):
        theta = math.asin(math.sqrt(0.02))
        b1 = required_sample_size(0.004, theta, 0.1, 0.1)
        b2 = required_sample_size(0.002, theta, 0.1, 0.1)
        assert abs(b2 - 4 * b1) <= 4


class TestMonteCarloSigma:
    def test_zero_qber_has_zero_spread(self):
        scn = scenario_for_qber(0.0, 0.1, 0.1, 2500)
        assert monte_carlo_sigma(scn, 1000, rng_for(1)) == 0.0

    def test_one_percent_2500_reference(self):
        scn = scenario_for_qber(0.01, 0.1, 0.1, 2500)
        sigma = monte_carlo_sigma(scn, 100_000, rng_for(2))
        assert sigma == pytest.approx(0.00199, rel=0.02)
        assert 3.0 * sigma == pytest.approx(delta_qber(scn), rel=0.03)

    def test_inverse_sqrt_b_scaling(self):
        sigmas = {}
        for b in (625, 2500, 10_000):
            scn = scenario_for_qber(0.01, 0.1, 0.1, b)
            sigmas[b] = monte_carlo_sigma(scn, 100_000, rng_for(3))
        assert sigmas[625] / sigmas[2500] == pytest.approx(2.0, rel=0.05)
        assert sigmas[2500] / sigmas[10_000] == pytest.approx(2.0, rel=0.05)

    def test_agrees_with_closed_form_across_regime(self):
        for q in (0.005, 0.01, 0.03, 0.1):
            for b in (500, 2500, 10_000):
                scn = scenario_for_qber(q, 0.1, 0.1, b)
                sigma = monte_carlo_sigma(scn, 100_000, rng_for(int(q * 1e4) * 100 + b))
                assert 3.0 * sigma == pytest.approx(delta_qber(scn), rel=0.03)

    def test_requires_enough_trials(self):
        with pytest.raises(ValueError):
            monte_carlo_sigma(scenario_for_qber(0.01, 0.1, 0.1, 100), 10, rng_for(4))


class TestDeltaTable:
    def test_reference_cell(self):
        cells = delta_table([0.01], [2500], 0.1, 0.1)
        assert cells[0, 0] == pytest.approx(0.0060, rel=0.03)

    def test_rows_decrease_with_b(self):
        cells = delta_table([0.01, 0.02, 0.03], [250, 1000, 5000, 20_000], 0.1, 0.1)
        for j in range(cells.shape[1]):
            col = cells[:, j]
            assert all(b < a for a, b in zip(col, col[1:]))

    def test_columns_increase_with_qber(self):
        cells = delta_table([0.01, 0.02, 0.03, 0.1, 0.3], [2500], 0.1, 0.1)
        row = cells[0]
        assert all(b > a for a, b in zip(row, row[1:]))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            delta_table([], [2500], 0.1, 0.1)


class TestScenarioValidation:
    def test_invariants(self):
        with pytest.raises(ValueError):
            EstimatorScenario(-0.1, 0.1, 0.1, 100)
        with pytest.raises(ValueError):
            EstimatorScenario(0.1, 0.0, 0.1, 100)
        with pytest.raises(ValueError):
            EstimatorScenario(0.1, 0.1, 1.2, 100)
        with pytest.raises(ValueError):
            EstimatorScenario(0.1, 0.1, 0.1, 0)

    @pytest.mark.parametrize("mu", [0.0, -0.1, math.inf, math.nan])
    def test_mu_must_be_positive_and_finite(self, mu):
        with pytest.raises(ValueError, match="^mu must be positive and finite$"):
            EstimatorScenario(0.1, mu, 0.1, 100)
        with pytest.raises(ValueError, match="^mu must be positive and finite$"):
            delta_table([0.01, 0.0], [100], mu, 0.1)
        with pytest.raises(ValueError, match="^mu must be positive and finite$"):
            required_sample_size(0.01, 0.1, mu, 0.1)
