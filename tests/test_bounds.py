import json
import math

import numpy as np
import pytest

from dgdlab import bounds, costs
from dgdlab.errors import RadiusUndefinedError
from dgdlab.lifted import LiftedObjective


def _gap_bound(ens, beta=0.25):
    """alpha_S of `ens` at spectral-gap parameter beta (lambda_min does not enter it)."""
    return bounds.stepsize_bounds(0.25, beta, ens.smoothness_constant(), ens.aggregate_mu())[3]


class TestClassicalBound:
    def test_known_values(self):
        for mu, smooth, expected in [(1.0, 10.0, 2.0 / 11.0), (1.0, 1.0, 1.0), (0.5, 2.0, 0.8)]:
            alpha_gd = bounds.stepsize_bounds(0.25, 0.5, smooth, mu)[0]
            assert alpha_gd == pytest.approx(expected)


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
        assert bounds.stepsize_bounds(0.25, 0.1, 10.0, 1.0)[3] == pytest.approx(0.0075)

    def test_vanishing_gap(self):
        alpha_s = bounds.stepsize_bounds(0.25, 1.0 - 1e-12, 10.0, 1.0)[3]
        assert alpha_s == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_case(self):
        # eta = 0.5, so 0.5 * 0.5 / (1 * 1.5)
        assert bounds.stepsize_bounds(0.25, 0.5, 1.0, 1.0)[3] == pytest.approx(1.0 / 6.0)


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
            _, floor, _, gap = bounds.stepsize_bounds(lam, beta, smooth, mu)
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
            classical, floor, _, _ = bounds.stepsize_bounds(float(lam), 0.5, 10.0, 1.0)
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
        alpha0 = 0.5 * _gap_bound(ens)
        assert bounds.trajectory_radius(ens, mix_quarter, x0, alpha0) == pytest.approx(0.0, abs=1e-12)

    def test_unit_offset_at_consensus(self, mix_quarter):
        ens = costs.epsilon_example(10.0, 1.0, 0.0)
        x_star = ens.aggregate_minimizer()
        v = np.array([1.0, 0.0])
        x0 = np.tile(x_star + v, 3)
        alpha0 = 0.5 * _gap_bound(ens)
        assert bounds.trajectory_radius(ens, mix_quarter, x0, alpha0) == pytest.approx(1.0)

    def test_center_term_is_the_distance_to_x_star(self, mix_quarter):
        # A_k = I_2 and b_k = (1, 0) put x* at (-1, 0) with every gradient 0
        # there (D = 0), so from x0 = 1 kron (2, 0) the radius is the centre
        # term ||xbar - x*|| = 3 exactly (||xbar + x*|| would give 1)
        ens = costs.QuadraticEnsemble(np.tile(np.eye(2), (3, 1, 1)), np.tile([1.0, 0.0], (3, 1)))
        assert ens.aggregate_minimizer().tolist() == [-1.0, 0.0] and ens.grad_bound_D() == 0.0
        alpha0 = 0.5 * _gap_bound(ens)
        x0 = np.tile([2.0, 0.0], 3)
        assert bounds.trajectory_radius(ens, mix_quarter, x0, alpha0) == 3.0

    def test_matches_independent_term_evaluation(self, mix_quarter):
        ens = self._instance()
        mu, smooth = ens.aggregate_mu(), ens.smoothness_constant()
        beta = mix_quarter.spectral.beta
        alpha0 = 0.5 * _gap_bound(ens, beta)
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
        gb = _gap_bound(ens)
        with pytest.raises(RadiusUndefinedError):
            bounds.trajectory_radius(ens, mix_quarter, np.zeros(6), gb)
        with pytest.raises(RadiusUndefinedError):
            bounds.trajectory_radius(ens, mix_quarter, np.zeros(6), 2.0 * gb)

    @pytest.mark.parametrize("x0", [np.ones(4), np.ones((3, 2))], ids=["short", "per-agent"])
    def test_rejects_an_x0_that_is_not_an_nm_vector(self, mix_quarter, x0):
        ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        with pytest.raises(ValueError, match="x0 has shape"):
            bounds.trajectory_radius(ens, mix_quarter, x0, 1e-3)

    @pytest.mark.parametrize("alpha0", [math.nan, 0.0, -1e-3])
    def test_rejects_an_alpha0_that_is_not_positive(self, mix_quarter, alpha0):
        # README's seed 5 with x0 = 1: a nan alpha0 makes the drive term nan,
        # which Python's max drops, leaving the finite 1.1868 of the other terms
        ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        with pytest.raises(ValueError, match="alpha0 must be positive"):
            bounds.trajectory_radius(ens, mix_quarter, np.ones(6), alpha0)

    @pytest.mark.parametrize(
        "low", [0.0, -1.0, -0.25], ids=["zero", "minus-L", "minus-quarter-L"]
    )
    def test_rejects_an_ensemble_whose_aggregate_mu_is_not_positive(self, mix_quarter, low):
        # A_k = diag(1, low): the aggregate's mu is 0, or -L, where mu + L is 0,
        # or -L/4, where eta and the gap bound come out finite and negative
        ens = costs.QuadraticEnsemble(np.tile(np.diag([1.0, low]), (3, 1, 1)), np.zeros((3, 2)))
        assert ens.aggregate_mu() == low
        with pytest.raises(ValueError, match="requires 0 < mu <= L"):
            bounds.trajectory_radius(ens, mix_quarter, np.zeros(6), 1e-3)

    def test_third_term_grows_toward_gap_bound(self, mix_quarter):
        ens = self._instance(seed=11)
        gb = _gap_bound(ens)
        rng = np.random.default_rng(4)
        x0 = 0.01 * rng.normal(size=6)
        values = [
            bounds.trajectory_radius(ens, mix_quarter, x0, frac * gb)
            for frac in (0.5, 0.8, 0.95, 0.99, 0.999)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestStepsizeBounds:
    def test_each_bound_is_its_formulas(self):
        # 2 / (mu + L), (1 + lambda_min) / L, eta = mu L / (mu + L) and
        # eta (1 - beta) / (L (eta + L)) at mu = 1, L = 10, lambda_min 0.25, beta 0.5
        eta = 1.0 * 10.0 / (1.0 + 10.0)
        assert bounds.stepsize_bounds(0.25, 0.5, 10.0, 1.0) == (
            2.0 / (1.0 + 10.0), (1.0 + 0.25) / 10.0, eta, eta * (1.0 - 0.5) / (10.0 * (eta + 10.0))
        )

    @pytest.mark.parametrize(
        ("smooth", "mu", "scale"),
        [(1e200, 1e199, 2.0**-600), (1e-300, 1e-320, 2.0**996)],
        ids=["L-1e200", "L-1e-300"],
    )
    def test_extreme_scales_match_the_rescaled_closed_forms(self, smooth, mu, scale):
        # L and mu times a power of two that brings both to normal floats, the
        # closed forms there, then rescaled: at these (L, mu) the formulas taken
        # in plain floats give inf or nan (L = 1e200), 0 or a division by 0 (L = 1e-300)
        big_l, small_mu = smooth * scale, mu * scale
        eta = small_mu * big_l / (small_mu + big_l)
        assert bounds.stepsize_bounds(0.25, 0.25, smooth, mu) == (
            2.0 / (small_mu + big_l) * scale,
            (1.0 + 0.25) / smooth,
            eta / scale,
            eta * (1.0 - 0.25) / (big_l * (eta + big_l)) * scale,
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
        assert (alpha_gd, eta) == (2.0 / (1.0 + 10.0), 1.0 * 10.0 / (1.0 + 10.0))


class TestBoundReport:
    def test_report_fields_and_json(self, mix_quarter):
        ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        lo, hi = LiftedObjective(ens, mix_quarter).strong_convexity_threshold()
        report = bounds.build_report(ens, mix_quarter, bracket=(lo, hi))
        # alpha_A is the bracket's lower end, and its resolution the width
        assert report.alpha_A == lo and report.threshold_resolution == hi - lo
        data = json.loads(json.dumps(report.to_dict()))
        for key in ("alpha_gd", "alpha_L", "alpha_S", "alpha_A", "alpha_main",
                    "eta", "radius_R", "alpha_A_provenance"):
            assert key in data
        assert data["alpha_A_provenance"] == {"method": "schur", "resolution": hi - lo}
        assert data["alpha_main"] == pytest.approx(
            min(data["alpha_L"], data["alpha_A"])
        )
        assert data["eta"] < min(ens.aggregate_mu(), ens.smoothness_constant())
        assert data["alpha_S"] < data["alpha_L"]

    def test_infinite_threshold_serializes(self, mix_single):
        ens = costs.QuadraticEnsemble(np.eye(2)[None], np.zeros((1, 2)))
        bracket = LiftedObjective(ens, mix_single).strong_convexity_threshold()
        assert bracket == (math.inf, math.inf)
        report = bounds.build_report(ens, mix_single, bracket=bracket)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["alpha_A"] == "inf"
        assert data["alpha_A_provenance"] == {"method": "schur", "resolution": None}
        assert data["alpha_main"] == pytest.approx(data["alpha_L"])

    def test_underflowing_gap_bound_leaves_no_radius(self, mix_quarter):
        # mu = 5e-324 against L = 1e12: the gap bound's true value, about
        # 0.75 mu / L^2 = 4e-348, is past the float range, so it is absent,
        # and there is no positive alpha0 to take the radius at
        ens = costs.epsilon_example(1e12, 5e-324, 10.0)
        report = bounds.build_report(ens, mix_quarter, bracket=(1.0, 1.0 + 2e-9))
        assert report.alpha_S is None
        assert report.radius_R is None

    def test_gap_bound_whose_half_underflows_leaves_no_radius(self, mix_quarter):
        # L = 1, mu = 5e-324: alpha_S is the smallest subnormal, present, but
        # its half rounds to 0, which is no alpha0 to take the radius at
        ens = costs.epsilon_example(1.0, 5e-324, 0.0)
        report = bounds.build_report(ens, mix_quarter, bracket=(math.inf, math.inf))
        assert report.alpha_S == 5e-324 and 0.5 * report.alpha_S == 0.0
        assert report.radius_R is None
