import math
import warnings

import numpy as np
import pytest

from dgdlab import costs, lifted, simulator, topology
from dgdlab.errors import NotInClassError, NotStronglyConvexError
from dgdlab.numerics import solve_spd


def _objective(ensemble, mix):
    return lifted.LiftedObjective(ensemble, mix)


def _certified_random_objective(seed, mix, epsilon=1.0):
    ens = costs.random_ensemble(3, 2, epsilon, seed=seed)
    if ens.aggregate_mu() <= 0.02:
        return None
    return _objective(ens, mix)


def _bisection_threshold(obj, resolution, top):
    """Right edge of the certified interval by bisection over certify alone,
    searched up to `top`: inf where `top` itself certifies."""
    lo = 1e-2
    assert obj.certify(lo).is_strongly_convex
    if obj.certify(top).is_strongly_convex:
        return math.inf
    hi = top
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
        ens = costs.QuadraticEnsemble(a[None], np.zeros((1, 2)))
        obj = _objective(ens, mix_single)
        np.testing.assert_allclose(obj.hessian(0.3), 0.3 * a, atol=1e-15)

    def test_zero_costs_leave_consensus_only(self, mix_quarter):
        ens = costs.QuadraticEnsemble(np.zeros((3, 2, 2)), np.zeros((3, 2)))
        obj = _objective(ens, mix_quarter)
        h = obj.hessian(1.0)
        np.testing.assert_allclose(h, np.kron(np.eye(3) - mix_quarter.w, np.eye(2)))
        assert abs(np.linalg.eigvalsh(h).min()) <= 1e-12

    def test_planted_family_positive_at_small_alpha(self, mix_skewed):
        obj = _objective(costs.epsilon_example(10.0, 1.0, 0.0), mix_skewed)
        assert np.linalg.eigvalsh(obj.hessian(0.1)).min() > 0

    def test_gradient_matches_hessian_form(self, mix_quarter):
        # grad G_alpha(x) = (alpha/m) (A_k x_k + b_k)_k + ((I - W) kron I_n) x,
        # from the stacks alone, is H(alpha/m) x + (alpha/m) b
        rng = np.random.default_rng(4)
        ens = costs.random_ensemble(3, 2, 0.5, seed=8)
        obj = _objective(ens, mix_quarter)
        h = obj.hessian(0.3)
        lin = (0.3 / ens.m) * ens.linear_terms.reshape(-1)
        x = rng.normal(size=6)
        per_agent = np.einsum("kij,kj->ki", ens.curvatures, x.reshape(3, 2)) + ens.linear_terms
        consensus = np.kron(np.eye(3) - mix_quarter.w, np.eye(2))
        expected = (0.3 / ens.m) * per_agent.reshape(-1) + consensus @ x
        np.testing.assert_allclose(h @ x + lin, expected, atol=1e-13)

    def test_rejects_nonpositive_alpha(self, mix_quarter):
        obj = _objective(costs.epsilon_example(10.0, 1.0, 1.0), mix_quarter)
        with pytest.raises(ValueError):
            obj.hessian(0.0)

    def test_rejects_agent_mismatch(self, mix_quarter):
        ens = costs.QuadraticEnsemble(np.eye(2)[None], np.zeros((1, 2)))
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
        ens = costs.QuadraticEnsemble(np.zeros((3, 2, 2)), np.zeros((3, 2)))
        obj = _objective(ens, mix_quarter)
        for alpha in (0.01, 0.1, 1.0, 10.0):
            cert = obj.certify(alpha)
            assert not cert.is_strongly_convex
            assert abs(cert.min_hessian_eig) <= 1e-10

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
    def test_single_agent_convex_certifies_every_stepsize(self, mix_single):
        ens = costs.QuadraticEnsemble(np.eye(2)[None], np.zeros((1, 2)))
        obj = _objective(ens, mix_single)
        assert obj.strong_convexity_threshold() == (math.inf, math.inf)

    def test_pencil_matches_bisection(self, mix_quarter):
        hits = 0
        for seed in range(12):
            obj = _certified_random_objective(seed, mix_quarter)
            if obj is None:
                continue
            hits += 1
            lo, hi = obj.strong_convexity_threshold()
            ref = _bisection_threshold(obj, resolution=1e-9, top=100.0)
            if math.isinf(ref):
                assert lo >= 100.0
                continue
            assert abs(lo - ref) <= 1e-8
            assert 0 < hi - lo <= 1e-6
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
        assert obj.ensemble.m * obj.ensemble.n == 300
        lo, hi = obj.strong_convexity_threshold()
        ref = _bisection_threshold(obj, resolution=1e-9, top=100.0)
        assert math.isfinite(ref)
        assert abs(lo - ref) <= 1e-8
        assert obj.certify(lo).is_strongly_convex
        assert not obj.certify(hi).is_strongly_convex

    def test_finite_threshold_costs_few_certify_calls(self, mix_quarter, mix_single, monkeypatch):
        # the sign test runs batched over the stack's rows: one Hessian
        # eigensolve per bracket end, and none where the edge is inf
        calls = []
        hessians = lifted.ThresholdStack._hessians

        def counted(self, alphas):
            calls.append(alphas)
            return hessians(self, alphas)

        monkeypatch.setattr(lifted.ThresholdStack, "_hessians", counted)
        finite = 0
        for seed in range(12):
            obj = _certified_random_objective(seed, mix_quarter)
            if obj is None:
                continue
            calls.clear()
            lo, _ = obj.strong_convexity_threshold()
            if math.isfinite(lo):
                finite += 1
                assert len(calls) == 2
        assert finite >= 3
        calls.clear()
        obj = _objective(costs.QuadraticEnsemble(np.eye(2)[None], np.zeros((1, 2))), mix_single)
        assert obj.strong_convexity_threshold() == (math.inf, math.inf)
        assert calls == []

    def test_bisection_bracket_is_tight(self, mix_quarter):
        obj = _objective(costs.epsilon_example(10.0, 1.0, 5.0), mix_quarter)
        lo, hi = obj.strong_convexity_threshold()
        assert hi - lo <= 1e-6
        assert obj.certify(lo).is_strongly_convex
        assert not obj.certify(hi).is_strongly_convex

    def test_uncapped_threshold_edge_is_sharp(self, mix_skewed):
        obj = _objective(costs.epsilon_example(10.0, 1.0, 2.0), mix_skewed)
        lo, _ = obj.strong_convexity_threshold()
        assert obj.certify(lo).is_strongly_convex
        assert not obj.certify(lo + 1e-6).is_strongly_convex

    def test_not_in_class(self, mix_quarter):
        # aggregate x-curvature (20 - 25)/3 < 0: no stepsize certifies
        obj = _objective(costs.epsilon_example(10.0, 1.0, 25.0), mix_quarter)
        with pytest.raises(NotInClassError):
            obj.strong_convexity_threshold()

    def test_certified_set_is_downward_closed(self, mix_quarter):
        obj = _objective(costs.epsilon_example(10.0, 1.0, 5.0), mix_quarter)
        lo, _ = obj.strong_convexity_threshold()
        for frac in (0.9, 0.5, 0.1, 0.01):
            assert obj.certify(frac * lo).is_strongly_convex


BENCH_EPSILONS = [k / 5 for k in range(1, 101)]  # 0.2, ..., 20.0 = 2L: the benchmark's family


def _one_row(objective):
    """The one-row threshold of `objective` as the bracket ends a stack row
    gives: (nan, nan) where it is not in class, (inf, inf) where every
    stepsize certifies."""
    try:
        lo, hi = objective.strong_convexity_threshold()
    except NotInClassError:
        return math.nan, math.nan
    assert type(lo) is type(hi) is float
    assert ((lo, hi) == (math.inf, math.inf)) if lo == math.inf else (0 < lo < hi < math.inf)
    return lo, hi


def _bits(*ends) -> bytes:
    """Float arrays or sequences as one byte string: equal iff bit for bit equal."""
    return b"".join(np.asarray(e, dtype=float).tobytes() for e in ends)


class TestThresholdStack:
    def test_rejects_agent_mismatch(self):
        halves = topology.validate_mixing(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="3 agents but mixing matrix has 2"):
            lifted.ThresholdStack(costs.epsilon_family(10.0, 1.0, [1.0]), halves)

    def test_family_rows_equal_one_row_thresholds(self, mix_quarter):
        epsilons = [0.0, *BENCH_EPSILONS]
        stack = lifted.ThresholdStack(costs.epsilon_family(10.0, 1.0, epsilons), mix_quarter)
        lo, hi = stack.brackets()
        assert lo.shape == hi.shape == (len(epsilons),)
        for eps, a, b in zip(epsilons, lo.tolist(), hi.tolist(), strict=True):
            objective = _objective(costs.epsilon_example(10.0, 1.0, eps), mix_quarter)
            assert _bits(a, b) == _bits(_one_row(objective)), eps
            if math.isfinite(a):
                assert b > objective.certified_interval[1] > a, eps
        # the family covers a row at epsilon = 0, where every stepsize
        # certifies, a blank row at 2L, and confirmed edges in between
        assert lo[0] == hi[0] == math.inf
        assert math.isnan(lo[-1]) and math.isnan(hi[-1])
        assert np.isfinite(lo[1:-1]).all() and np.isfinite(hi[1:-1]).all()

    @pytest.mark.parametrize("block", [3, 8])
    def test_rows_do_not_depend_on_their_block(self, mix_quarter, block):
        # rows on both sides of every block boundary, as sweep-epsilon cuts them
        family = costs.epsilon_family(10.0, 1.0, BENCH_EPSILONS)
        whole = lifted.ThresholdStack(family, mix_quarter).brackets()
        los, his = [], []
        for start in range(0, len(family), block):
            lo, hi = lifted.ThresholdStack(family[start : start + block], mix_quarter).brackets()
            los.append(lo)
            his.append(hi)
        assert _bits(np.concatenate(los), np.concatenate(his)) == _bits(*whole)

    def test_random_rows_equal_one_row_objectives(self, mix_quarter):
        # README-class instances: dense blocks, some aggregates not strongly convex
        ensembles = [costs.random_ensemble(3, 2, 1.0, seed=seed) for seed in range(40)]
        stack = lifted.ThresholdStack(np.stack([e.curvatures for e in ensembles]), mix_quarter)
        lo, hi = stack.brackets()
        assert 0 < np.isnan(lo).sum() < len(ensembles)
        for e, (ensemble, a, b) in enumerate(zip(ensembles, lo.tolist(), hi.tolist(), strict=True)):
            objective = _objective(ensemble, mix_quarter)
            assert _bits(a, b) == _bits(_one_row(objective)), e
            edge_lo, edge = objective.certified_interval
            assert edge_lo == 0.0 and (edge == 0.0) == math.isnan(a), e
            if math.isfinite(a):
                assert a < edge < b, e

    def test_spectral_radii_are_the_iteration_matrix_radius(self, mix_quarter):
        # rho of I - H(alpha/m) = W kron I - (alpha/m) blockdiag(A_k) against
        # np.kron, and a stack's rows at their own stepsizes against lone rows
        ensembles = [costs.random_ensemble(3, 2, 1.0, seed=seed) for seed in range(6)]
        alphas = np.linspace(0.05, 6.0, len(ensembles))
        curvatures = np.stack([e.curvatures for e in ensembles])
        rhos = lifted.ThresholdStack(curvatures, mix_quarter).spectral_radii(alphas)
        assert rhos.shape == (len(ensembles),)
        for ensemble, alpha, rho in zip(ensembles, alphas, rhos.tolist()):
            row = lifted.ThresholdStack(ensemble.curvatures[None], mix_quarter)
            assert row.spectral_radii([alpha]).tolist() == [rho]
            blocks = np.zeros((6, 6))
            for k, a in enumerate(ensemble.curvatures):
                blocks[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = a
            iteration = np.kron(mix_quarter.w, np.eye(2)) - (alpha / 3) * blocks
            assert rho == pytest.approx(max(abs(np.linalg.eigvalsh(iteration))), rel=1e-12)

    def test_spectral_radii_broadcast_rows_against_stepsizes(self, mix_quarter):
        # a one-row stack at no stepsize gives no radius, and a stack at one
        # stepsize gives each row's lone radius, bit for bit
        ensembles = [costs.random_ensemble(3, 2, 1.0, seed=seed) for seed in range(3)]
        rows = [lifted.ThresholdStack(e.curvatures[None], mix_quarter) for e in ensembles]
        assert rows[0].spectral_radii([]).shape == (0,)
        stack = lifted.ThresholdStack(np.stack([e.curvatures for e in ensembles]), mix_quarter)
        rhos = stack.spectral_radii([0.7])
        assert rhos.shape == (3,)
        assert rhos.tolist() == [row.spectral_radii([0.7]).item() for row in rows]

    def test_lifted_objective_is_the_one_row_stack(self, mix_quarter):
        ensemble = costs.random_ensemble(3, 2, 1.0, seed=5)
        objective = _objective(ensemble, mix_quarter)
        row = lifted.ThresholdStack(ensemble.curvatures[None], mix_quarter)
        assert isinstance(objective, lifted.ThresholdStack) and objective.mixing is mix_quarter
        assert _bits(*objective.brackets()) == _bits(*row.brackets())
        assert _bits(objective.spectral_radii([0.3, 1.2])) == _bits(row.spectral_radii([0.3, 1.2]))
        # the objective's own queries, which the benchmark's tracer wraps
        assert {"certify", "strong_convexity_threshold", "minimizer"} <= set(vars(lifted.LiftedObjective))

    def test_holds_only_its_inputs(self, mix_quarter):
        # README's instance: after every query a stack answers, neither object
        # keeps an (nm, nm) array such as (I - W) kron I_n
        ensemble = costs.random_ensemble(3, 2, 1.0, seed=5)
        nm = ensemble.m * ensemble.n

        def held(certifier):
            sizes = {k: v.size for k, v in vars(certifier).items() if isinstance(v, np.ndarray)}
            assert all(size < nm * nm for size in sizes.values()), sizes

        stack = lifted.ThresholdStack(ensemble.curvatures[None], mix_quarter)
        stack.brackets()
        stack.spectral_radii([0.3, 1.2])
        held(stack)
        objective = _objective(ensemble, mix_quarter)
        objective.strong_convexity_threshold()
        objective.brackets()
        objective.spectral_radii([0.3, 1.2])
        held(objective)

    @pytest.mark.parametrize("ring", [False, True], ids=["readme", "ring4"])
    def test_hessians_are_c_plus_t_b_bit_for_bit(self, mix_quarter, ring):
        # H(t) against C + t B built independently: C = np.kron(I - W, I_n)
        # + 0.0 (np.kron's -w_kl * 0.0 is -0.0) and B = blockdiag(A_k), each
        # row at its own stepsize; zeros must carry C + t B's sign too
        m, n = (4, 3) if ring else (3, 2)
        step = np.roll(np.eye(m, dtype=int), 1, axis=1)  # a 4-ring's W has zero weights
        mixing = topology.metropolis_weights(step + step.T) if ring else mix_quarter
        ensembles = [costs.random_ensemble(m, n, 1.0, seed=seed) for seed in (5, 6)]
        alphas = [0.3, 1.7]
        hessians = lifted.ThresholdStack(
            np.stack([e.curvatures for e in ensembles]), mixing
        )._hessians(alphas)
        consensus = np.kron(np.eye(m) - mixing.w, np.eye(n)) + 0.0
        for ensemble, alpha, h in zip(ensembles, alphas, hessians, strict=True):
            blocks = np.zeros((m * n, m * n))
            for k, a in enumerate(ensemble.curvatures):
                blocks[k * n : (k + 1) * n, k * n : (k + 1) * n] = a
            expected = consensus + alpha / m * blocks
            assert np.array_equal(h, expected)
            assert np.array_equal(np.signbit(h), np.signbit(expected))

    def test_empty_stack(self, mix_quarter):
        stack = lifted.ThresholdStack(costs.epsilon_family(10.0, 1.0, []), mix_quarter)
        lo, hi = stack.brackets()
        assert lo.shape == hi.shape == (0,)

    def test_hessian_past_the_float_range_is_not_in_class(self):
        # identical agents with a 2e300 curvature have no edge, but rounding in
        # the Metropolis triangle's eigenbasis places one near 2.7e31, where
        # t A_k overflows: the Hessian's blocks refuse it before an eigensolve
        # reads them, and a minimizer refuses every stepsize whose H(t) they
        # refuse. Below those, the minimizer is 1 kron x*, as for any
        # identical agents: exactly at 1e-301, and to an ulp at 1
        triangle = topology.metropolis_weights(np.ones((3, 3)) - np.eye(3))
        a = np.array([[2e300, 0.5], [0.5, 1.0]])
        ens = costs.QuadraticEnsemble(np.array([a] * 3), np.array([[1.0, -1.0]] * 3))
        objective = _objective(ens, triangle)
        edge = objective.certified_interval[1]
        assert 1e30 < edge < math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            queries = [objective.strong_convexity_threshold, lambda: objective.hessian(1e10)]
            queries += [lambda alpha=alpha: objective.minimizer(alpha)
                        for alpha in (1e10, 0.5 * edge, 0.9 * edge)]
            for query in queries:
                with pytest.raises(NotInClassError, match="a Hessian block t A_k"):
                    query()
            assert np.isfinite(objective.hessian(1.0)).all()
            consensus = np.tile(ens.aggregate_minimizer(), 3)
            assert np.array_equal(objective.minimizer(1e-301), consensus)
            np.testing.assert_array_max_ulp(objective.minimizer(1.0), consensus, maxulp=1)

    def test_unconfirmed_edge_is_not_in_class(self, mix_quarter):
        # curvatures near 1e12 with mu = 1e-12: rounding in W's eigenbasis moves
        # the edge further than the Hessian's smallest eigenvalue can confirm
        objective = _objective(costs.epsilon_example(1e12, 1e-12, 3.5), mix_quarter)
        with pytest.raises(NotInClassError, match="does not confirm the Schur edge"):
            objective.strong_convexity_threshold()


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
            top = min(obj.strong_convexity_threshold()[0], 10.0)
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
            top = min(obj.strong_convexity_threshold()[0], 10.0)
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
        ens = costs.QuadraticEnsemble(np.eye(1)[None], np.array([[2.0]]))
        obj = _objective(ens, mix_single)
        for alpha in (0.1, 1.0, 7.0):
            np.testing.assert_allclose(obj.minimizer(alpha), [-2.0], atol=1e-12)

    def test_gradient_residual(self, mix_quarter):
        for seed in (1, 5, 10):
            obj = _certified_random_objective(seed, mix_quarter)
            if obj is None:
                continue
            alpha = 0.5 * min(obj.strong_convexity_threshold()[0], 5.0)
            x = obj.minimizer(alpha)
            # grad G_alpha(x), from the stacks alone rather than from the Hessian
            ens = obj.ensemble
            per_agent = np.einsum("kij,kj->ki", ens.curvatures, x.reshape(3, 2)) + ens.linear_terms
            consensus = np.kron(np.eye(3) - mix_quarter.w, np.eye(2))
            gradient = (alpha / ens.m) * per_agent.reshape(-1) + consensus @ x
            assert np.linalg.norm(gradient) <= 1e-9

    def test_uncertified_alpha_rejected(self, mix_quarter):
        obj = _objective(costs.epsilon_example(10.0, 1.0, 5.0), mix_quarter)
        alpha_a, _ = obj.strong_convexity_threshold()
        with pytest.raises(NotStronglyConvexError):
            obj.minimizer(2.0 * alpha_a)

    def test_closed_form_matches_spd_solve(self, mix_quarter):
        # README-class instances, up to 0.98 of the edge where H(t) is
        # nearly singular: the Schur basis against one SPD solve per alpha
        checked = 0
        for seed in range(120):
            obj = _certified_random_objective(seed, mix_quarter, epsilon=1.0)
            if obj is None:
                continue
            alpha_a, _ = obj.strong_convexity_threshold()
            top = 0.98 * (alpha_a if math.isfinite(alpha_a) else 10.0)
            alphas = np.geomspace(1e-4, top, 12)
            b = obj.ensemble.linear_terms.reshape(-1)
            for alpha, y in zip(alphas, obj._minimizers(alphas)):
                ref = solve_spd(obj.hessian(alpha), -(alpha / obj.ensemble.m) * b)
                assert np.linalg.norm(y - ref) <= 1e-9 * np.linalg.norm(ref), (seed, alpha)
            checked += 1
        assert checked >= 80

    def test_minimizers_name_first_uncertified_alpha(self, mix_quarter):
        obj = _objective(costs.random_ensemble(3, 2, 1.0, seed=5), mix_quarter)
        _, hi = obj.certified_interval
        np.testing.assert_array_equal(obj._minimizers([0.1, 0.2])[1], obj.minimizer(0.2))
        assert obj._minimizers([]).shape == (0, 6)
        with pytest.raises(NotStronglyConvexError, match=f"alpha={2 * hi:g} "):
            obj._minimizers([0.1, 2 * hi, 3 * hi])
        with pytest.raises(NotStronglyConvexError, match=f"alpha={hi:g} "):
            obj._minimizers([1e-12, hi, 2 * hi])

    def test_minimizer_stays_finite_at_huge_stepsizes(self, mix_quarter):
        # every stepsize certifies here; as alpha grows the minimizer tends to
        # the agents' own minimizers -A_k^(-1) b_k, 1/t - mu_i to -mu_i, and
        # no factor of t overflows on the way
        a = np.array([[[2.0, 0.0], [0.0, 1.0]], [[1.0, 0.3], [0.3, 0.5]], [[3.0, 1.0], [1.0, 2.0]]])
        b = 100.0 * np.array([[1.0, 0.0], [0.5, -1.0], [0.0, 2.0]])
        obj = _objective(costs.QuadraticEnsemble(a, b), mix_quarter)
        assert obj.certified_interval[1] == math.inf
        own = -np.linalg.solve(a, b[:, :, None])[:, :, 0].reshape(-1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for y in obj._minimizers([1e300, 1e307, 1e308]):
                assert np.linalg.norm(y - own) <= 1e-14 * np.linalg.norm(own)

    def test_minimizer_refuses_within_rounding_of_the_edge(self, mix_quarter):
        # one float below the edge, 1/t - mu_i can round to 0 or below, as mu
        # comes from another eigensolve than the edge: there the minimizer
        # refuses, and elsewhere every g_i keeps the sign of -(U^T r)_i
        outcomes = set()
        for seed in range(40):
            obj = _objective(costs.random_ensemble(3, 2, 1.0, seed=seed), mix_quarter)
            hi = obj.certified_interval[1]
            if not 0 < hi < math.inf:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    _, _, g = obj._coordinates([np.nextafter(hi, 0.0)])
                except NotInClassError as exc:
                    assert "within rounding of the edge" in str(exc), seed
                    outcomes.add("refused")
                    continue
            assert np.isfinite(g).all() and np.all(g * obj._basis[3] <= 0), seed
            outcomes.add("resolved")
        assert outcomes == {"refused", "resolved"}


class TestCertifiedInterval:
    def test_membership_equals_certify(self, mix_quarter):
        # README-class seeds: on a wide geometric grid and a relative 1e-8 on
        # each side of alpha_hi, the interval and certify agree, and so does
        # the sign of the smallest Hessian eigenvalue wherever it is decisive
        grid = list(np.geomspace(1e-12, 1e4, 57))
        finite = decisive = 0
        for seed in range(120):
            obj = _objective(costs.random_ensemble(3, 2, 1.0, seed=seed), mix_quarter)
            lo, hi = obj.certified_interval
            alphas = grid
            if math.isfinite(hi) and hi > 0:
                finite += 1
                alphas = grid + [hi * (1 - 1e-8), hi * (1 + 1e-8)]
            for alpha in alphas:
                certified = obj.certify(alpha).is_strongly_convex
                assert (lo < alpha < hi) == certified, (seed, alpha)
                lam = np.linalg.eigvalsh(obj.hessian(alpha))[0]
                if abs(lam) > 1e-9:
                    decisive += 1
                    assert (lam > 0) == certified, (seed, alpha, lam)
        assert finite >= 75 and decisive >= 5000

    def test_left_end_is_zero(self, mix_quarter):
        # H(t) tends to the singular consensus matrix as t goes to 0, but it
        # stays positive definite in class: every small stepsize certifies
        obj = _objective(costs.random_ensemble(3, 2, 1.0, seed=5), mix_quarter)
        lo, hi = obj.certified_interval
        assert lo == 0.0
        assert obj.certify(1e-12).is_strongly_convex
        assert hi > obj.strong_convexity_threshold()[0]

    def test_empty_without_certified_stepsize(self, mix_quarter):
        obj = _objective(costs.epsilon_example(10.0, 1.0, 25.0), mix_quarter)
        assert obj.certified_interval == (0.0, 0.0)
        with pytest.raises(NotStronglyConvexError):
            obj.minimizer(0.01)
        assert obj._minimizers([]).shape == (0, 6)
        assert obj._shift_bounds([]).shape == (0,)


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
def test_non_finite_stepsize_raises_value_error(mix_quarter, alpha):
    ens = costs.random_ensemble(3, 2, 1.0, seed=5)
    obj = _objective(ens, mix_quarter)
    for call in (obj.hessian, obj.certify, obj.minimizer):
        with pytest.raises(ValueError, match="finite and positive"):
            call(alpha)
    with pytest.raises(ValueError, match="finite and positive"):
        simulator.boundedness_oracle(ens, mix_quarter, alpha)
    with pytest.raises(ValueError, match="finite and positive"):  # in a batch too
        simulator.boundedness_verdicts(obj, [0.5, alpha])


def test_near_symmetric_costs_at_large_scale(mix_quarter):
    # README's seed 5 with every A x 100 and one entry off by 5e-13: the
    # asymmetry is stored away at entry, so it is not scaled up by alpha/m
    ens = costs.random_ensemble(3, 2, 1.0, seed=5)
    blocks = ens.curvatures * 100
    blocks[0, 0, 1] += 5e-13
    scaled = costs.QuadraticEnsemble(blocks, ens.linear_terms)
    obj = _objective(scaled, mix_quarter)
    assert obj.strong_convexity_threshold()[0] == pytest.approx(0.0253, rel=1e-3)
    assert not obj.certify(900.0).is_strongly_convex
    assert not simulator.boundedness_oracle(scaled, mix_quarter, 50.0).bounded
    assert np.array_equal(scaled.curvatures, scaled.curvatures.swapaxes(1, 2))


class TestMinimizerCurve:
    """The minimizers y(alpha) along a stepsize grid, from `_minimizers`."""

    def test_zero_linear_terms_flatten_curve(self, mix_quarter):
        obj = _objective(costs.epsilon_example(10.0, 1.0, 1.0), mix_quarter)
        grid = np.array([0.05, 0.1, 0.2, 0.4])
        points = obj._minimizers(grid)
        assert np.all(np.linalg.norm(points, axis=1) <= 1e-12)
        ratios = np.linalg.norm(np.diff(points, axis=0), axis=1) / np.diff(grid)
        assert np.all(ratios <= 1e-10)

    def test_lipschitz_bound_on_convex_instances(self, mix_quarter):
        for seed in (0, 1, 2):
            ens = costs.random_ensemble(3, 2, 4.5, seed=seed)
            obj = _objective(ens, mix_quarter)
            top = 2.0
            grid = np.linspace(top / 10, top, 8)
            points = obj._minimizers(grid)
            mu_top = obj.certify(top).modulus
            for alpha_lo, alpha_hi, x_a, x_b in zip(grid, grid[1:], points, points[1:]):
                # max ||grad F|| over 17 evenly spaced points of the segment,
                # grad F(x) = (1/m) (A_k x_k + b_k)_k from the stacks alone
                gradient_bound = max(
                    np.linalg.norm(
                        np.einsum("kij,kj->ki", ens.curvatures, x.reshape(3, 2))
                        + ens.linear_terms
                    ) / ens.m
                    for x in (x_a + s * (x_b - x_a) for s in np.linspace(0.0, 1.0, 17))
                )
                bound = (
                    2.0 * top * gradient_bound
                    * (alpha_hi - alpha_lo)
                    / (mu_top * alpha_lo)
                )
                assert np.linalg.norm(x_b - x_a) <= bound + 1e-8

    def test_refinement_shrinks_jumps(self, mix_quarter):
        ens = costs.random_ensemble(3, 2, 4.5, seed=7)
        obj = _objective(ens, mix_quarter)
        jumps = []
        for npts in (5, 9, 17, 33):
            points = obj._minimizers(np.linspace(0.1, 1.0, npts))
            jumps.append(np.linalg.norm(np.diff(points, axis=0), axis=1).max())
        assert jumps[-1] < jumps[0]
        assert jumps[-1] <= 0.5 * jumps[0] + 1e-12
