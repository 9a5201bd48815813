import json
import math

import numpy as np
import pytest

from dgdlab import bounds, costs
from dgdlab.errors import RadiusUndefinedError
from dgdlab.lifted import ThresholdResult


class TestClassicalBound:
    def test_known_values(self):
        assert bounds.classical_gd_bound(1.0, 10.0) == pytest.approx(2.0 / 11.0)
        assert bounds.classical_gd_bound(1.0, 1.0) == pytest.approx(1.0)
        assert bounds.classical_gd_bound(0.5, 2.0) == pytest.approx(0.8)

    def test_rejects_mu_above_smoothness(self):
        with pytest.raises(ValueError):
            bounds.classical_gd_bound(2.0, 1.0)
        with pytest.raises(ValueError):
            bounds.classical_gd_bound(-1.0, 1.0)


class TestLambdaMinBound:
    def test_quarter_matrix_value(self):
        # lambda_min = 0.25 with smoothness 7.2615
        assert bounds.lambda_min_bound(0.25, 7.2615) == pytest.approx(0.1721, abs=1e-3)

    def test_skewed_matrix_value(self):
        assert bounds.lambda_min_bound(-0.1, 10.0) == pytest.approx(0.09)

    def test_complete_mixing_limit(self):
        assert bounds.lambda_min_bound(1.0, 4.0) == pytest.approx(0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bounds.lambda_min_bound(-1.0, 1.0)
        with pytest.raises(ValueError):
            bounds.lambda_min_bound(0.5, 0.0)


class TestSpectralGapBound:
    def test_reference_value(self):
        assert bounds.spectral_gap_bound(1.0, 10.0, 0.1) == pytest.approx(0.0075)

    def test_vanishing_gap(self):
        assert bounds.spectral_gap_bound(1.0, 10.0, 1.0 - 1e-12) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_case(self):
        # eta = 0.5, so 0.5 * 0.5 / (1 * 1.5)
        assert bounds.spectral_gap_bound(1.0, 1.0, 0.5) == pytest.approx(1.0 / 6.0)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            bounds.spectral_gap_bound(1.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            bounds.spectral_gap_bound(1.0, 10.0, 1.0)


class TestOrdering:
    def test_gap_bound_below_floor_bound_in_proven_region(self):
        """gap bound < floor bound whenever lambda_min >= -(1 + beta)/2."""
        rng = np.random.default_rng(47)
        counterexamples = []
        for _ in range(1000):
            mu = float(rng.uniform(0.01, 5.0))
            smooth = mu * float(rng.uniform(1.0, 50.0))
            beta = float(rng.uniform(0.001, 0.999))
            lam = float(rng.uniform(-0.999, min(beta, 0.999)))
            gap = bounds.spectral_gap_bound(mu, smooth, beta)
            floor = bounds.lambda_min_bound(lam, smooth)
            if lam >= -(1.0 + beta) / 2.0:
                assert gap < floor, (mu, smooth, beta, lam, gap, floor)
            elif not gap < floor:
                counterexamples.append((mu, smooth, beta, lam))
        # deep-negative lambda_min can flip the ordering; record, don't assert
        if counterexamples:
            print(f"ordering flipped on {len(counterexamples)} of 1000 draws, e.g. "
                  f"{counterexamples[0]}")

    def test_classical_vs_floor_comparison_logged(self):
        crossings = 0
        for lam in np.linspace(-0.9, 1.0, 20):
            classical = bounds.classical_gd_bound(1.0, 10.0)
            floor = bounds.lambda_min_bound(float(lam), 10.0)
            if classical < floor:
                crossings += 1
        print(f"classical bound below floor bound on {crossings} of 20 grid points")


class TestTrajectoryRadius:
    def _instance(self, seed=3):
        return costs.random_ensemble(3, 2, 5.0, seed=seed)

    def test_zero_at_consensus_optimum(self, mix_quarter):
        ens = costs.epsilon_example(10.0, 1.0, 0.0)  # grad-heterogeneity D = 0
        x_star = ens.aggregate_minimizer()
        x0 = np.tile(x_star, 3)
        alpha0 = 0.5 * bounds.spectral_gap_bound(ens.aggregate_mu(), ens.smoothness_constant(), 0.25)
        assert bounds.trajectory_radius(ens, mix_quarter, x0, alpha0) == pytest.approx(0.0, abs=1e-12)

    def test_unit_offset_at_consensus(self, mix_quarter):
        ens = costs.epsilon_example(10.0, 1.0, 0.0)
        x_star = ens.aggregate_minimizer()
        v = np.array([1.0, 0.0])
        x0 = np.tile(x_star + v, 3)
        alpha0 = 0.5 * bounds.spectral_gap_bound(ens.aggregate_mu(), ens.smoothness_constant(), 0.25)
        assert bounds.trajectory_radius(ens, mix_quarter, x0, alpha0) == pytest.approx(1.0)

    def test_matches_independent_term_evaluation(self, mix_quarter):
        ens = self._instance()
        mu, smooth = ens.aggregate_mu(), ens.smoothness_constant()
        beta = mix_quarter.spectral.beta
        gap_bound = bounds.spectral_gap_bound(mu, smooth, beta)
        alpha0 = 0.5 * gap_bound
        rng = np.random.default_rng(8)
        x0 = rng.normal(size=6)

        # recompute the three terms independently
        eta = mu * smooth / (mu + smooth)
        x_star = ens.aggregate_minimizer()
        blocks = x0.reshape(3, 2)
        xbar = blocks.mean(axis=0)
        t1 = np.linalg.norm(xbar - x_star)
        t2 = (smooth / eta) * np.linalg.norm(blocks - xbar)
        d = max(np.linalg.norm(a @ x_star + b) for a, b in zip(ens.curvatures, ens.linear_terms))
        t3 = math.sqrt(3) * d * alpha0 / (eta * (1 - beta) / smooth - (eta + smooth) * alpha0)
        expected = max(t1, t2, t3)

        assert bounds.trajectory_radius(ens, mix_quarter, x0, alpha0) == pytest.approx(expected)

    def test_undefined_at_gap_bound(self, mix_quarter):
        ens = self._instance()
        gb = bounds.spectral_gap_bound(ens.aggregate_mu(), ens.smoothness_constant(), 0.25)
        with pytest.raises(RadiusUndefinedError):
            bounds.trajectory_radius(ens, mix_quarter, np.zeros(6), gb)
        with pytest.raises(RadiusUndefinedError):
            bounds.trajectory_radius(ens, mix_quarter, np.zeros(6), 2.0 * gb)

    @pytest.mark.parametrize("alpha0", [math.nan, 0.0, -1e-3])
    def test_rejects_an_alpha0_that_is_not_positive(self, mix_quarter, alpha0):
        # README's seed 5 with x0 = 1: a nan alpha0 makes the drive term nan,
        # which Python's max drops, leaving the finite 1.1868 of the other terms
        ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        with pytest.raises(ValueError, match="alpha0 must be positive"):
            bounds.trajectory_radius(ens, mix_quarter, np.ones(6), alpha0)

    def test_third_term_grows_toward_gap_bound(self, mix_quarter):
        ens = self._instance(seed=11)
        gb = bounds.spectral_gap_bound(ens.aggregate_mu(), ens.smoothness_constant(), 0.25)
        rng = np.random.default_rng(4)
        x0 = 0.01 * rng.normal(size=6)
        values = [
            bounds.trajectory_radius(ens, mix_quarter, x0, frac * gb)
            for frac in (0.5, 0.8, 0.95, 0.99, 0.999)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestStepsizeBounds:
    def test_each_bound_is_its_formulas(self):
        assert bounds.stepsize_bounds(0.25, 0.5, 10.0, 1.0) == (
            bounds.classical_gd_bound(1.0, 10.0),
            bounds.lambda_min_bound(0.25, 10.0),
            bounds.harmonic_rate(1.0, 10.0),
            bounds.spectral_gap_bound(1.0, 10.0, 0.5),
        )

    @pytest.mark.parametrize("mu", [0.0, -1.0, 11.0])
    def test_mu_outside_0_to_l_leaves_only_alpha_l(self, mu):
        alpha_gd, alpha_l, eta, alpha_s = bounds.stepsize_bounds(0.25, 0.5, 10.0, mu)
        assert math.isnan(alpha_gd) and math.isnan(eta) and alpha_s is None
        assert alpha_l == bounds.lambda_min_bound(0.25, 10.0)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_beta_outside_0_to_1_leaves_no_gap_bound(self, beta):
        alpha_gd, _, eta, alpha_s = bounds.stepsize_bounds(0.25, beta, 10.0, 1.0)
        assert alpha_s is None
        assert (alpha_gd, eta) == (bounds.classical_gd_bound(1.0, 10.0), bounds.harmonic_rate(1.0, 10.0))


class TestBoundReport:
    def test_report_fields_and_json(self, mix_quarter):
        ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        report = bounds.build_report(ens, mix_quarter)
        data = json.loads(report.to_json())
        for key in ("alpha_gd", "alpha_L", "alpha_S", "alpha_A", "alpha_main",
                    "eta", "radius_R", "alpha_A_provenance"):
            assert key in data
        assert data["alpha_A_provenance"]["method"] == "schur"
        assert data["alpha_main"] == pytest.approx(
            min(data["alpha_L"], data["alpha_A"])
        )
        assert data["eta"] < min(ens.aggregate_mu(), ens.smoothness_constant())
        assert data["alpha_S"] < data["alpha_L"]

    def test_infinite_threshold_serializes(self, mix_single):
        ens = costs.QuadraticEnsemble(np.eye(2)[None], np.zeros((1, 2)))
        report = bounds.build_report(ens, mix_single)
        data = json.loads(report.to_json())
        assert data["alpha_A"] == "inf"
        assert data["alpha_main"] == pytest.approx(data["alpha_L"])

    def test_underflowing_gap_bound_leaves_no_radius(self, mix_quarter):
        # mu = 5e-324 against L = 1e12: the gap bound underflows to 0, so there
        # is no positive alpha0 to take the radius at
        ens = costs.epsilon_example(1e12, 5e-324, 10.0)
        threshold = ThresholdResult(alpha=1.0, method="schur")
        report = bounds.build_report(ens, mix_quarter, threshold=threshold)
        assert report.alpha_S == 0.0
        assert report.radius_R is None
