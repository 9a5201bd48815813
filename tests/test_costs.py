import numpy as np
import pytest

from dgdlab import config, costs
from dgdlab.errors import NotStronglyConvexError, NotSymmetricError


class TestCostEntry:
    """Malformed curvatures and linear terms are refused where they enter."""

    def test_huge_symmetric_entries_are_stored_without_overflow(self):
        a = np.array([[1.7e308, -1.7e308], [-1.7e308, 1.0]])
        with np.errstate(over="raise"):
            e = costs.QuadraticEnsemble(a[None], np.zeros((1, 2)))
        np.testing.assert_array_equal(e.curvatures[0], a)

    def test_non_finite_linear_term_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            costs.QuadraticEnsemble(np.eye(2)[None], np.array([[np.inf, 0.0]]))

    def test_stack_of_matrices_rejected(self):
        # each agent's A_k must be one matrix, not a stack of them
        with pytest.raises(NotSymmetricError, match="expected a stack of square matrices"):
            costs.QuadraticEnsemble(np.ones((1, 1, 2, 2)), np.zeros((1, 2)))

    def test_zero_dimension_rejected(self):
        # refused where it enters, not later by L's or mu's empty reduction
        with pytest.raises(ValueError, match=r"shape \(3, 0, 0\): n must be at least 1"):
            costs.QuadraticEnsemble(np.zeros((3, 0, 0)), np.zeros((3, 0)))

    def test_overflowing_curvature_sum_rejected(self):
        big = np.diag([1.7e308, 1.0])
        with pytest.raises(ValueError, match="overflows"):
            costs.QuadraticEnsemble(np.stack([big, big]), np.zeros((2, 2)))

    def test_random_ensemble_size_limit(self):
        # refused before a single entry is drawn
        with pytest.raises(ValueError, match="curvature entries"):
            costs.random_ensemble(1, 10**5, 1.0, seed=0)


class TestStackedValidator:
    """One check of a whole (m, n, n) stack, each agent at its own tolerance."""

    LARGE = np.array([[1e6, 1.0], [1.0 + 1e-7, 1.0]])  # tolerance 1e-12 * 1e6 = 1e-6
    UNIT = np.array([[1.0, 0.5], [0.5 + 1e-7, 1.0]])  # tolerance 1e-12
    DOUBLE = 2.0 * UNIT  # tolerance 2e-12

    def test_asymmetry_judged_at_each_agents_own_scale(self):
        ok = costs.QuadraticEnsemble(np.stack([self.LARGE] * 2), np.zeros((2, 2)))
        assert np.array_equal(ok.curvatures, ok.curvatures.swapaxes(1, 2))
        with pytest.raises(NotSymmetricError) as stacked:
            costs.QuadraticEnsemble(
                np.stack([self.LARGE, self.DOUBLE, self.UNIT]), np.zeros((3, 2))
            )
        # the first failing agent is reported by its index, in the words of its own check
        with pytest.raises(NotSymmetricError) as alone:
            costs.QuadraticEnsemble(self.DOUBLE[None], np.zeros((1, 2)))
        assert str(stacked.value) == str(alone.value) == "matrix is not symmetric within 2e-12"
        assert (stacked.value.member, alone.value.member) == (1, 0)

    def test_stack_stores_what_each_cost_stores(self):
        huge = np.array([[1.7e308, -1.7e308], [-1.7e308, 1.0]])
        near = np.array([[1.0, 0.3], [0.3 + 1e-13, 2.0]])
        stack = np.stack([huge, near, self.LARGE])
        with np.errstate(over="raise"):
            e = costs.QuadraticEnsemble(stack, np.zeros((3, 2)))
        expected = [costs.QuadraticEnsemble(a[None], np.zeros((1, 2))).curvatures[0] for a in stack]
        assert np.array_equal(e.curvatures, np.stack(expected))

    def test_stacks_are_read_only(self):
        e = costs.random_ensemble(3, 2, 1.0, seed=4)
        for stack in (e.curvatures, e.linear_terms, e.aggregate_a):
            assert not stack.flags.writeable

    def test_linear_terms_must_match(self):
        with pytest.raises(ValueError, match="linear terms have shape"):
            costs.QuadraticEnsemble(np.stack([np.eye(2)] * 3), np.zeros((3, 3)))


class TestRandomEnsemble:
    def test_seed_reproducibility(self):
        e1 = costs.random_ensemble(3, 2, 0.5, seed=42)
        e2 = costs.random_ensemble(3, 2, 0.5, seed=42)
        assert np.array_equal(e1.curvatures, e2.curvatures)
        assert np.array_equal(e1.linear_terms, e2.linear_terms)

    def test_different_seeds_differ(self):
        e1 = costs.random_ensemble(3, 2, 0.5, seed=1)
        e2 = costs.random_ensemble(3, 2, 0.5, seed=2)
        assert not np.array_equal(e1.curvatures[0], e2.curvatures[0])

    def test_large_epsilon_forces_positive_definite(self):
        # Gershgorin: diagonal 100 + O(2) dominates off-diagonal <= 2
        e = costs.random_ensemble(4, 2, 100.0, seed=0)
        for a in e.curvatures:
            assert np.linalg.eigvalsh(a).min() > 0

    def test_blocks_symmetric_at_zero_epsilon(self):
        e = costs.random_ensemble(3, 3, 0.0, seed=9)
        for a in e.curvatures:
            np.testing.assert_allclose(a, a.T)

    @pytest.mark.parametrize("m, n", [(1, 1), (8, 1), (3, 2), (50, 6)])
    def test_one_draw_equals_a_draw_per_agent(self, m, n):
        rng = np.random.default_rng(17)
        curvatures, linear = [], []
        for _ in range(m):
            r = rng.uniform(-1.0, 1.0, size=(n, n))
            linear.append(rng.uniform(-1.0, 1.0, size=n))
            curvatures.append(0.5 * np.eye(n) + r + r.T)
        e = costs.random_ensemble(m, n, 0.5, seed=17)
        assert np.array_equal(e.curvatures, np.stack(curvatures))
        assert np.array_equal(e.linear_terms, np.stack(linear))

    def test_stacked_constants_equal_the_per_agent_ones(self):
        for m, n, seed in ((1, 1, 0), (8, 2, 3), (5, 7, 11), (4, 33, 2)):
            e = costs.random_ensemble(m, n, float(n), seed=seed)
            per_agent = list(zip(e.curvatures.copy(), e.linear_terms.copy()))
            smooth = max(float(np.max(np.abs(costs.sym_eigen(a)))) for a, _ in per_agent)
            assert e.smoothness_constant() == smooth
            x_star = e.aggregate_minimizer()
            assert e.grad_bound_D() == max(
                float(np.linalg.norm(a @ x_star + b)) for a, b in per_agent
            )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            costs.random_ensemble(0, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            costs.random_ensemble(2, 2, -1.0, seed=0)


class TestEpsilonExample:
    def test_aggregate_no_concavity(self):
        e = costs.epsilon_example(10.0, 1.0, 0.0)
        np.testing.assert_allclose(e.aggregate_a, np.diag([20.0 / 3.0, 1.0]))
        assert e.aggregate_mu() == pytest.approx(1.0)

    def test_aggregate_with_concavity(self):
        e = costs.epsilon_example(10.0, 1.0, 2.0)
        np.testing.assert_allclose(e.aggregate_a, np.diag([6.0, 1.0]))
        assert e.aggregate_mu() == pytest.approx(1.0)
        assert e.smoothness_constant() == pytest.approx(10.0)

    def test_third_block_psd_at_zero(self):
        e = costs.epsilon_example(10.0, 1.0, 0.0)
        assert np.linalg.eigvalsh(e.curvatures[2]).min() >= 0

    def test_aggregate_mu_formula(self):
        # aggregate curvature is diag((2L - eps)/3, mu)
        for eps in (0.0, 1.0, 5.0, 10.0, 16.9):
            e = costs.epsilon_example(10.0, 1.0, eps)
            expected = min(1.0, (20.0 - eps) / 3.0)
            assert e.aggregate_mu() == pytest.approx(expected, abs=1e-12)

    def test_smoothness_is_ten_below_crossover(self):
        for eps in (0.0, 3.0, 10.0):
            assert costs.epsilon_example(10.0, 1.0, eps).smoothness_constant() == pytest.approx(10.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            costs.epsilon_example(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            costs.epsilon_example(10.0, 1.0, -0.5)


    def test_is_one_row_of_the_family(self):
        epsilons = [0.0, 2.5, 20.0]
        family = costs.epsilon_family(10.0, 1.0, epsilons)
        assert family.shape == (3, costs.EPSILON_EXAMPLE_AGENTS, 2, 2)
        for eps, row in zip(epsilons, family):
            ensemble = costs.epsilon_example(10.0, 1.0, eps)
            np.testing.assert_array_equal(ensemble.curvatures, row)
            np.testing.assert_array_equal(ensemble.linear_terms, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            costs.epsilon_family(10.0, 1.0, [1.0, -0.5])

    @pytest.mark.parametrize("k", [-240, -120, 0, 120, 240])
    def test_family_constants_are_the_instances_own(self, k):
        # the benchmark's 100 epsilons in the units 4^k: each closed-form L and
        # mu is bit for bit the instance's own; from 4^-243 down and 4^241 up
        # (L = 1.2e146) LAPACK rescales matrices before their eigensolves, and
        # some rows differ
        scale = 4.0**k
        big_l, mu = 10.0 * scale, scale
        mismatches = []
        for eps in [j / 5 * scale for j in range(1, 101)]:
            ensemble = costs.epsilon_example(big_l, mu, eps)
            own = ensemble.smoothness_constant(), ensemble.aggregate_mu()
            if costs.epsilon_family_constants(big_l, mu, eps) != own:
                mismatches.append(eps)
        assert mismatches == []


class TestAggregateMinimizer:
    def test_zero_linear_terms(self):
        e = costs.epsilon_example(10.0, 1.0, 1.0)
        np.testing.assert_allclose(e.aggregate_minimizer(), np.zeros(2), atol=1e-14)

    def test_single_agent(self):
        e = costs.QuadraticEnsemble(np.eye(2)[None], np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(e.aggregate_minimizer(), [-1.0, -2.0])

    def test_gradient_residual(self):
        rng = np.random.default_rng(12)
        for seed in range(20):
            e = costs.random_ensemble(3, 2, 5.0, seed=seed)
            x_star = e.aggregate_minimizer()
            assert np.linalg.norm(e.aggregate_a @ x_star + e.linear_terms.mean(axis=0)) <= 1e-9

    def test_rejects_indefinite_aggregate(self):
        e = costs.epsilon_example(10.0, 1.0, 25.0)  # x-curvature (20-25)/3 < 0
        with pytest.raises(NotStronglyConvexError):
            e.aggregate_minimizer()
        with pytest.raises(NotStronglyConvexError):
            e.grad_bound_D()

    def test_tiny_aggregate_has_a_finite_minimizer(self):
        # aggregate mu = 1e-13 > 0 decides that x* exists, whatever the units
        e = costs.epsilon_example(10.0, 1e-13, 0.0)
        assert 0 < e.aggregate_mu() < 1e-12
        assert np.isfinite(e.aggregate_minimizer()).all()
        b = np.array([[1.0, -2.0], [0.5, 3.0], [-1.0, 0.25]])
        e = costs.QuadraticEnsemble(np.repeat(1e-13 * np.eye(2)[None], 3, axis=0), b)
        x_star = e.aggregate_minimizer()
        assert np.isfinite(x_star).all()
        np.testing.assert_allclose(x_star, -b.mean(axis=0) / 1e-13, rtol=1e-15)

    def test_minimizer_is_unchanged_by_a_change_of_units(self):
        # scaling every A_k and b_k by a power of 4 rounds nowhere in the solve
        checked = 0
        for seed in range(10):
            e = costs.random_ensemble(3, 2, 1.0, seed=seed)
            if e.aggregate_mu() <= 0:
                continue
            x_star = e.aggregate_minimizer()
            for k in range(-60, 61):
                scaled = costs.QuadraticEnsemble(
                    4.0**k * e.curvatures, 4.0**k * e.linear_terms
                )
                assert np.array_equal(scaled.aggregate_minimizer(), x_star), (seed, k)
            checked += 1
        assert checked >= 5

    def test_rejects_a_minimizer_that_overflows(self):
        # mu > 0, but a subnormal curvature puts x* past the float range
        e = costs.QuadraticEnsemble(
            np.array([[[1.0, 0.0], [0.0, 1e-310]]]), np.array([[0.0, 1.0]])
        )
        assert e.aggregate_mu() > 0
        with pytest.raises(NotStronglyConvexError, match="numerically singular"):
            e.aggregate_minimizer()

    def test_rejects_an_aggregate_that_lapack_finds_singular(self):
        # 11 * fl(1/11) rounds to 1, so LU meets an exactly zero pivot, while
        # the eigensolve may round the smallest eigenvalue either side of 0
        # (1.4e-17 with OpenBLAS): x* raises either way
        e = costs.QuadraticEnsemble(
            np.array([[[11.0, 1.0], [1.0, 1 / 11]]]), np.array([[1.0, 0.0]])
        )
        with pytest.raises(NotStronglyConvexError):
            e.aggregate_minimizer()


class TestSpectralConstants:
    def test_smoothness_matches_power_iteration(self):
        # oracle: power iteration on A_k^T A_k gives the spectral norm
        rng = np.random.default_rng(21)
        e = costs.random_ensemble(4, 3, 0.7, seed=77)
        norms = []
        for a in e.curvatures:
            v = rng.normal(size=3)
            for _ in range(500):
                v = a @ (a @ v)
                v /= np.linalg.norm(v)
            norms.append(np.linalg.norm(a @ v))
        assert e.smoothness_constant() == pytest.approx(max(norms), rel=1e-8)

    def test_constants_computed_once(self, monkeypatch):
        e = costs.random_ensemble(4, 3, 6.0, seed=77)
        smooth = max(float(np.max(np.abs(costs.sym_eigen(a)))) for a in e.curvatures)
        mu = float(costs.sym_eigen(e.aggregate_a)[0])
        calls, solves = [], []
        real, real_solve = costs.sym_eigen, np.linalg.solve

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return real(a, *args, **kwargs)

        def counting_solve(a, *args, **kwargs):
            solves.append(a.shape)
            return real_solve(a, *args, **kwargs)

        monkeypatch.setattr(costs, "sym_eigen", counting)
        # x* is one LAPACK solve, after the eigensolve behind aggregate_mu
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        for _ in range(3):
            assert e.smoothness_constant() == smooth
        assert calls == [(4, 3, 3)]  # one stacked eigensolve, on the first call only
        for _ in range(3):
            assert e.aggregate_mu() == mu
        x_star = e.aggregate_minimizer()
        assert len(calls) == 2 and solves == [(3, 3)]
        assert e.aggregate_minimizer() is x_star and not x_star.flags.writeable
        e.grad_bound_D()
        e.grad_bound_D()
        assert len(calls) == 2 and len(solves) == 1

    def test_grad_bound_zero_for_identical_optima(self):
        e = costs.epsilon_example(10.0, 1.0, 0.0)
        assert e.grad_bound_D() == pytest.approx(0.0, abs=1e-12)

    def test_grad_bound_positive_with_heterogeneity(self):
        e = costs.random_ensemble(3, 2, 5.0, seed=3)
        assert e.grad_bound_D() > 0


class TestEnsembleFromSpec:
    """The ensemble spec reader, which lives in `config`."""

    def test_random_spec(self):
        spec = {"type": "random", "m": 3, "n": 2, "epsilon": 0.5, "seed": 42}
        e = config.ensemble_from_spec(spec)
        direct = costs.random_ensemble(3, 2, 0.5, seed=42)
        assert np.array_equal(e.curvatures, direct.curvatures)
        assert np.array_equal(e.linear_terms, direct.linear_terms)

    def test_epsilon_example_spec(self):
        e = config.ensemble_from_spec({"type": "epsilon_example", "L": 10, "mu": 1, "epsilon": 2})
        np.testing.assert_allclose(e.aggregate_a, np.diag([6.0, 1.0]))

    def test_explicit_spec(self):
        e = config.ensemble_from_spec(
            {"type": "explicit", "costs": [{"A": [[2.0]], "b": [1.0]}]}
        )
        assert e.m == 1 and e.n == 1
        x, a, b = np.array([1.0]), e.curvatures[0], e.linear_terms[0]
        assert 0.5 * x @ a @ x + b @ x == pytest.approx(2.0)

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            config.ensemble_from_spec({"type": "logistic"})
