import math

import numpy as np
import pytest

from dgdlab import costs, lifted, topology
from dgdlab.errors import NotInClassError, NotStronglyConvexError


def _objective(ensemble, mix):
    return lifted.LiftedObjective(ensemble, mix)


def _certified_random_objective(seed, mix, epsilon=1.0):
    ens = costs.random_ensemble(3, 2, epsilon, seed=seed)
    if ens.aggregate_mu() <= 0.02:
        return None
    return _objective(ens, mix)


def _bisection_threshold(obj, resolution, scan_cap):
    """Right edge of the certified interval by bisection over certify alone."""
    lo = 1e-2
    assert obj.certify(lo).is_strongly_convex
    if obj.certify(scan_cap).is_strongly_convex:
        return math.inf
    hi = scan_cap
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if obj.certify(mid).is_strongly_convex:
            lo = mid
        else:
            hi = mid
    return lo


class TestHessian:
    def test_single_agent_consensus_vanishes(self, mix_single):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        ens = costs.QuadraticEnsemble([costs.QuadraticCost(a=a, b=np.zeros(2))])
        obj = _objective(ens, mix_single)
        np.testing.assert_allclose(obj.hessian(0.3), 0.3 * a, atol=1e-15)

    def test_zero_costs_leave_consensus_only(self, mix_quarter):
        ens = costs.QuadraticEnsemble(
            [costs.QuadraticCost(a=np.zeros((2, 2)), b=np.zeros(2)) for _ in range(3)]
        )
        obj = _objective(ens, mix_quarter)
        h = obj.hessian(1.0)
        np.testing.assert_allclose(h, obj.consensus_matrix)
        assert abs(np.linalg.eigvalsh(h).min()) <= 1e-12

    def test_planted_family_positive_at_small_alpha(self, mix_skewed):
        obj = _objective(costs.epsilon_example(10.0, 1.0, 0.0), mix_skewed)
        assert np.linalg.eigvalsh(obj.hessian(0.1)).min() > 0

    def test_quadratic_form_identity(self, mix_quarter):
        # G(x) must equal the quadratic form of its own Hessian plus the
        # linear part, for any state
        rng = np.random.default_rng(2)
        ens = costs.random_ensemble(3, 2, 0.5, seed=8)
        obj = _objective(ens, mix_quarter)
        for alpha in (0.05, 0.7):
            h = obj.hessian(alpha)
            lin = (alpha / ens.m) * obj.stacked_linear
            for _ in range(10):
                x = rng.normal(size=6)
                expected = 0.5 * x @ h @ x + lin @ x
                assert obj.value(x, alpha) == pytest.approx(expected, abs=1e-12)

    def test_gradient_matches_hessian_form(self, mix_quarter):
        rng = np.random.default_rng(4)
        ens = costs.random_ensemble(3, 2, 0.5, seed=8)
        obj = _objective(ens, mix_quarter)
        h = obj.hessian(0.3)
        lin = (0.3 / ens.m) * obj.stacked_linear
        x = rng.normal(size=6)
        np.testing.assert_allclose(obj.gradient(x, 0.3), h @ x + lin, atol=1e-13)

    def test_rejects_nonpositive_alpha(self, mix_quarter):
        obj = _objective(costs.epsilon_example(10.0, 1.0, 1.0), mix_quarter)
        with pytest.raises(ValueError):
            obj.hessian(0.0)

    def test_rejects_agent_mismatch(self, mix_quarter):
        ens = costs.QuadraticEnsemble([costs.QuadraticCost(a=np.eye(2), b=np.zeros(2))])
        with pytest.raises(ValueError):
            _objective(ens, mix_quarter)


class TestCertify:
    def test_convex_blocks_certify_everywhere(self, mix_skewed):
        # all blocks convex and the aggregate strongly convex: strongly
        # convex at every sampled stepsize on a wide log grid
        obj = _objective(costs.epsilon_example(10.0, 1.0, 0.0), mix_skewed)
        for alpha in np.logspace(-3, 3, 13):
            cert = obj.certify(float(alpha))
            assert cert.is_strongly_convex
            assert cert.modulus > 0

    def test_flat_consensus_direction_never_certifies(self, mix_quarter):
        ens = costs.QuadraticEnsemble(
            [costs.QuadraticCost(a=np.zeros((2, 2)), b=np.zeros(2)) for _ in range(3)]
        )
        obj = _objective(ens, mix_quarter)
        for alpha in (0.01, 0.1, 1.0, 10.0):
            cert = obj.certify(alpha)
            assert not cert.is_strongly_convex
            assert cert.is_boundary

    def test_indefinite_block_fails_for_large_alpha(self, mix_skewed):
        obj = _objective(costs.epsilon_example(10.0, 1.0, 5.0), mix_skewed)
        assert obj.certify(0.01).is_strongly_convex
        alpha = 0.01
        while obj.certify(alpha).is_strongly_convex:
            alpha *= 2.0
            assert alpha < 1e6
        assert obj.certify(alpha).min_hessian_eig < 0

    def test_certificate_matches_eigen_oracle(self, mix_quarter):
        ens = costs.random_ensemble(3, 2, 1.0, seed=5)
        obj = _objective(ens, mix_quarter)
        for alpha in (0.1, 1.0, 3.0):
            cert = obj.certify(alpha)
            ref = np.linalg.eigvalsh(obj.hessian(alpha)).min()
            assert cert.min_hessian_eig == pytest.approx(ref, abs=1e-10)

    def test_huge_stepsize_not_certified(self, mix_quarter):
        # README's seed-5 instance has its edge at 2.53; at 1e155 the
        # Hessian's Frobenius norm overflows, which once left the eigensolver
        # unrotated and certified the stepsize
        obj = _objective(costs.random_ensemble(3, 2, 1.0, seed=5), mix_quarter)
        for alpha in (1e150, 1e155, 1e200, 1e300):
            cert = obj.certify(alpha)
            assert not cert.is_strongly_convex
            assert cert.min_hessian_eig == pytest.approx(
                np.linalg.eigvalsh(obj.hessian(alpha))[0], rel=1e-9
            )


class TestThreshold:
    def test_single_agent_convex_hits_cap(self, mix_single):
        ens = costs.QuadraticEnsemble([costs.QuadraticCost(a=np.eye(2), b=np.zeros(2))])
        obj = _objective(ens, mix_single)
        th = obj.strong_convexity_threshold(scan_cap=50.0)
        assert math.isinf(th.alpha)
        assert th.capped

    def test_pencil_matches_bisection(self, mix_quarter):
        hits = 0
        for seed in range(12):
            obj = _certified_random_objective(seed, mix_quarter)
            if obj is None:
                continue
            hits += 1
            th = obj.strong_convexity_threshold(scan_cap=100.0)
            ref = _bisection_threshold(obj, resolution=1e-9, scan_cap=100.0)
            if math.isinf(ref):
                assert math.isinf(th.alpha) and th.capped
                continue
            assert abs(th.alpha - ref) <= 1e-8
            lo, hi = th.bracket
            assert th.alpha == lo and th.resolution == hi - lo <= 1e-6
            assert obj.certify(lo).is_strongly_convex
            assert not obj.certify(hi).is_strongly_convex
        assert hits >= 5

    def test_pencil_matches_bisection_on_ring_nm300(self):
        # 50-agent Metropolis ring, n = 6: a 300 x 300 lifted Hessian
        m = 50
        adjacency = np.zeros((m, m))
        for i in range(m):
            adjacency[i, (i + 1) % m] = adjacency[(i + 1) % m, i] = 1.0
        ring = topology.metropolis_weights(adjacency)
        obj = _objective(costs.random_ensemble(m, 6, 1.0, seed=0), ring)
        assert obj.dim == 300
        th = obj.strong_convexity_threshold(scan_cap=100.0)
        ref = _bisection_threshold(obj, resolution=1e-9, scan_cap=100.0)
        assert math.isfinite(ref)
        assert abs(th.alpha - ref) <= 1e-8
        lo, hi = th.bracket
        assert obj.certify(lo).is_strongly_convex
        assert not obj.certify(hi).is_strongly_convex

    def test_finite_threshold_costs_few_certify_calls(self, mix_quarter, monkeypatch):
        calls = []
        certify = lifted.LiftedObjective.certify

        def counted(self, alpha):
            calls.append(alpha)
            return certify(self, alpha)

        monkeypatch.setattr(lifted.LiftedObjective, "certify", counted)
        finite = 0
        for seed in range(12):
            obj = _certified_random_objective(seed, mix_quarter)
            if obj is None:
                continue
            calls.clear()
            th = obj.strong_convexity_threshold()
            if math.isfinite(th.alpha):
                finite += 1
                assert len(calls) <= 4
        assert finite >= 3

    def test_bisection_bracket_is_tight(self, mix_quarter):
        obj = _objective(costs.epsilon_example(10.0, 1.0, 5.0), mix_quarter)
        th = obj.strong_convexity_threshold()
        lo, hi = th.bracket
        assert hi - lo <= 1e-6
        assert obj.certify(lo).is_strongly_convex
        assert not obj.certify(hi).is_strongly_convex

    def test_uncapped_threshold_edge_is_sharp(self, mix_skewed):
        obj = _objective(costs.epsilon_example(10.0, 1.0, 2.0), mix_skewed)
        th = obj.strong_convexity_threshold()
        assert obj.certify(th.alpha).is_strongly_convex
        assert not obj.certify(th.alpha + 1e-6).is_strongly_convex

    def test_not_in_class(self, mix_quarter):
        # aggregate x-curvature (20 - 25)/3 < 0: no stepsize certifies
        obj = _objective(costs.epsilon_example(10.0, 1.0, 25.0), mix_quarter)
        with pytest.raises(NotInClassError):
            obj.strong_convexity_threshold()

    def test_certified_set_is_downward_closed(self, mix_quarter):
        obj = _objective(costs.epsilon_example(10.0, 1.0, 5.0), mix_quarter)
        th = obj.strong_convexity_threshold()
        for frac in (0.9, 0.5, 0.1, 0.01):
            assert obj.certify(frac * th.alpha).is_strongly_convex


class TestScalingMonotonicity:
    def test_modulus_scales_at_least_linearly(self, mix_quarter):
        """Shrinking alpha keeps strong convexity: modulus(beta) >= (beta/alpha) * modulus(alpha)."""
        rng = np.random.default_rng(6)
        checked = 0
        seed = 0
        while checked < 25:
            obj = _certified_random_objective(seed, mix_quarter)
            seed += 1
            if obj is None:
                continue
            th = obj.strong_convexity_threshold(scan_cap=10.0)
            top = 10.0 if math.isinf(th.alpha) else th.alpha
            alpha = float(rng.uniform(0.2, 1.0)) * top
            cert = obj.certify(alpha)
            if not cert.is_strongly_convex:
                continue
            checked += 1
            for _ in range(5):
                beta = float(rng.uniform(0.01, 1.0)) * alpha
                low = obj.certify(beta)
                assert low.is_strongly_convex
                assert low.modulus >= (beta / alpha) * cert.modulus - 1e-9


class TestCertificationImpliesAggregate:
    def test_aggregate_curvature_floor(self, mix_quarter):
        """Certified G at alpha forces the aggregate curvature above modulus/alpha."""
        seed = 0
        checked = 0
        while checked < 20:
            obj = _certified_random_objective(seed, mix_quarter)
            seed += 1
            if obj is None:
                continue
            th = obj.strong_convexity_threshold(scan_cap=10.0)
            top = 10.0 if math.isinf(th.alpha) else th.alpha
            for frac in (0.3, 0.9):
                alpha = frac * top
                cert = obj.certify(alpha)
                if not cert.is_strongly_convex:
                    continue
                checked += 1
                mu_agg = obj.ensemble.aggregate_mu()
                # weak floor asserted; the stronger modulus/alpha floor holds
                # for quadratic forms via consensus states
                assert mu_agg >= cert.modulus / (2 * alpha) - 1e-9
                assert mu_agg >= cert.modulus / alpha - 1e-9


class TestMinimizer:
    def test_zero_linear_terms_give_origin(self, mix_quarter):
        obj = _objective(costs.epsilon_example(10.0, 1.0, 1.0), mix_quarter)
        for alpha in (0.01, 0.3):
            np.testing.assert_allclose(obj.minimizer(alpha), np.zeros(6), atol=1e-14)

    def test_single_agent_matches_cost_minimizer(self, mix_single):
        ens = costs.QuadraticEnsemble([costs.QuadraticCost(a=np.eye(1), b=np.array([2.0]))])
        obj = _objective(ens, mix_single)
        for alpha in (0.1, 1.0, 7.0):
            np.testing.assert_allclose(obj.minimizer(alpha), [-2.0], atol=1e-12)

    def test_gradient_residual(self, mix_quarter):
        for seed in (1, 5, 10):
            obj = _certified_random_objective(seed, mix_quarter)
            if obj is None:
                continue
            th = obj.strong_convexity_threshold(scan_cap=5.0)
            alpha = 0.5 * (5.0 if math.isinf(th.alpha) else th.alpha)
            x = obj.minimizer(alpha)
            assert np.linalg.norm(obj.gradient(x, alpha)) <= 1e-9

    def test_uncertified_alpha_rejected(self, mix_quarter):
        obj = _objective(costs.epsilon_example(10.0, 1.0, 5.0), mix_quarter)
        th = obj.strong_convexity_threshold()
        for _ in range(2):  # the second call hits the cached refusal
            with pytest.raises(NotStronglyConvexError):
                obj.minimizer(2.0 * th.alpha)
        assert obj.certified_minimizer(2.0 * th.alpha) is None

    def test_minimizer_is_cached_read_only(self, mix_quarter):
        obj = _objective(costs.epsilon_example(10.0, 1.0, 5.0), mix_quarter)
        alpha = 0.5 * obj.strong_convexity_threshold().alpha
        x = obj.minimizer(alpha)
        assert obj.minimizer(alpha) is x and obj.certified_minimizer(alpha) is x
        with pytest.raises(ValueError):
            x[0] = 1.0  # the cached minimizer is read-only


class TestMinimizerCurve:
    def test_zero_linear_terms_flatten_curve(self, mix_quarter):
        obj = _objective(costs.epsilon_example(10.0, 1.0, 1.0), mix_quarter)
        curve = lifted.minimizer_curve(obj, [0.05, 0.1, 0.2, 0.4])
        for point in curve.points:
            assert point.norm <= 1e-12
        for segment in curve.segments:
            assert segment.lipschitz_ratio <= 1e-10

    def test_lipschitz_bound_on_convex_instances(self, mix_quarter):
        for seed in (0, 1, 2):
            ens = costs.random_ensemble(3, 2, 4.5, seed=seed)
            obj = _objective(ens, mix_quarter)
            top = 2.0
            curve = lifted.minimizer_curve(obj, list(np.linspace(top / 10, top, 8)))
            mu_top = obj.certify(top).modulus
            for segment in curve.segments:
                bound = (
                    2.0 * top * segment.gradient_bound
                    * (segment.alpha_hi - segment.alpha_lo)
                    / (mu_top * segment.alpha_lo)
                )
                assert segment.distance <= bound + 1e-8

    def test_refinement_shrinks_jumps(self, mix_quarter):
        ens = costs.random_ensemble(3, 2, 4.5, seed=7)
        obj = _objective(ens, mix_quarter)
        jumps = []
        for npts in (5, 9, 17, 33):
            curve = lifted.minimizer_curve(obj, list(np.linspace(0.1, 1.0, npts)))
            jumps.append(max(s.distance for s in curve.segments))
        assert jumps[-1] < jumps[0]
        assert jumps[-1] <= 0.5 * jumps[0] + 1e-12

    def test_names_offending_alpha(self, mix_quarter):
        obj = _objective(costs.epsilon_example(10.0, 1.0, 5.0), mix_quarter)
        th = obj.strong_convexity_threshold()
        bad = 3.0 * th.alpha
        with pytest.raises(NotStronglyConvexError, match=f"{bad:g}"):
            lifted.minimizer_curve(obj, [0.5 * th.alpha, bad])

    def test_minimizer_norm_bound_recorded(self, mix_quarter):
        # diagnostic only: with a certified anchor alpha0, the norm of each
        # minimizer below it compares against 2*alpha0*f(0)/modulus; for
        # indefinite blocks the value of f at 0 need not dominate, so the
        # comparison is printed rather than asserted
        ens = costs.random_ensemble(3, 2, 4.5, seed=3)
        obj = _objective(ens, mix_quarter)
        alpha0 = 1.5
        cert = obj.certify(alpha0)
        assert cert.is_strongly_convex
        f0 = ens.aggregate_value(np.zeros(2))
        allowance = 2.0 * alpha0 * max(f0, 0.0) / cert.modulus
        worst = max(
            np.linalg.norm(obj.minimizer(a)) ** 2
            for a in np.linspace(alpha0 / 10, alpha0, 6)
        )
        print(f"minimizer norm^2 max {worst:.4g} vs anchor allowance {allowance:.4g}")

    def test_segment_gradient_bound_matches_pointwise(self, mix_quarter):
        rng = np.random.default_rng(41)
        obj = _objective(costs.random_ensemble(3, 2, 1.0, seed=5), mix_quarter)
        for samples in (1, 2, 9, 17):
            x_a, x_b = rng.normal(size=6), rng.normal(size=6)
            pointwise = max(
                float(np.linalg.norm(obj.separable_gradient(x_a + s * (x_b - x_a))))
                for s in np.linspace(0.0, 1.0, samples)
            )
            assert obj.segment_gradient_bound(x_a, x_b, samples) == pytest.approx(
                pointwise, rel=1e-14
            )
        with pytest.raises(ValueError):
            obj.segment_gradient_bound(np.zeros(5), np.zeros(6))
