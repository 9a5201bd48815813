import numpy as np
import pytest

from dgdlab import costs
from dgdlab.errors import NotStronglyConvexError


def _finite_difference_gradient(cost, x, h=1e-5):
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (cost.value(x + e) - cost.value(x - e)) / (2 * h)
    return grad


class TestQuadraticCost:
    def test_value_identity(self):
        c = costs.QuadraticCost(a=np.eye(2), b=np.zeros(2))
        assert c.value(np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_value_diagonal(self):
        c = costs.QuadraticCost(a=np.diag([10.0, 1.0]), b=np.zeros(2))
        assert c.value(np.array([1.0, 0.0])) == pytest.approx(5.0)

    def test_value_concave_block(self):
        # third agent of the planted family with epsilon=2, mu=1 at (1, 1)
        c = costs.QuadraticCost(a=np.diag([-2.0, 1.0]), b=np.zeros(2))
        assert c.value(np.array([1.0, 1.0])) == pytest.approx(-0.5)

    def test_gradient_identity(self):
        c = costs.QuadraticCost(a=np.eye(3), b=np.zeros(3))
        x = np.array([0.3, -1.0, 2.0])
        np.testing.assert_allclose(c.gradient(x), x)

    def test_gradient_affine(self):
        c = costs.QuadraticCost(a=np.diag([10.0, 1.0]), b=np.array([1.0, -1.0]))
        np.testing.assert_allclose(c.gradient(np.zeros(2)), [1.0, -1.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            dim = int(rng.integers(1, 5))
            a = rng.normal(size=(dim, dim))
            c = costs.QuadraticCost(a=a + a.T, b=rng.normal(size=dim))
            x = rng.normal(size=dim)
            g = c.gradient(x)
            fd = _finite_difference_gradient(c, x)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))

    def test_dimension_mismatch(self):
        c = costs.QuadraticCost(a=np.eye(2), b=np.zeros(2))
        with pytest.raises(ValueError):
            c.value(np.zeros(3))
        with pytest.raises(ValueError):
            c.gradient(np.zeros(3))


class TestRandomEnsemble:
    def test_seed_reproducibility(self):
        e1 = costs.random_ensemble(3, 2, 0.5, seed=42)
        e2 = costs.random_ensemble(3, 2, 0.5, seed=42)
        for c1, c2 in zip(e1.costs, e2.costs):
            assert np.array_equal(c1.a, c2.a)
            assert np.array_equal(c1.b, c2.b)

    def test_different_seeds_differ(self):
        e1 = costs.random_ensemble(3, 2, 0.5, seed=1)
        e2 = costs.random_ensemble(3, 2, 0.5, seed=2)
        assert not np.array_equal(e1.costs[0].a, e2.costs[0].a)

    def test_large_epsilon_forces_positive_definite(self):
        # Gershgorin: diagonal 100 + O(2) dominates off-diagonal <= 2
        e = costs.random_ensemble(4, 2, 100.0, seed=0)
        for c in e.costs:
            assert np.linalg.eigvalsh(c.a).min() > 0

    def test_blocks_symmetric_at_zero_epsilon(self):
        e = costs.random_ensemble(3, 3, 0.0, seed=9)
        for c in e.costs:
            np.testing.assert_allclose(c.a, c.a.T)

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
        assert np.linalg.eigvalsh(e.costs[2].a).min() >= 0

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


class TestAggregateMinimizer:
    def test_zero_linear_terms(self):
        e = costs.epsilon_example(10.0, 1.0, 1.0)
        np.testing.assert_allclose(e.aggregate_minimizer(), np.zeros(2), atol=1e-14)

    def test_single_agent(self):
        e = costs.QuadraticEnsemble([costs.QuadraticCost(a=np.eye(2), b=np.array([1.0, 2.0]))])
        np.testing.assert_allclose(e.aggregate_minimizer(), [-1.0, -2.0])

    def test_gradient_residual(self):
        rng = np.random.default_rng(12)
        for seed in range(20):
            e = costs.random_ensemble(3, 2, 5.0, seed=seed)
            x_star = e.aggregate_minimizer()
            assert np.linalg.norm(e.aggregate_gradient(x_star)) <= 1e-9

    def test_rejects_indefinite_aggregate(self):
        e = costs.epsilon_example(10.0, 1.0, 25.0)  # x-curvature (20-25)/3 < 0
        with pytest.raises(NotStronglyConvexError):
            e.aggregate_minimizer()
        with pytest.raises(NotStronglyConvexError):
            e.grad_bound_D()


class TestSpectralConstants:
    def test_smoothness_matches_power_iteration(self):
        # oracle: power iteration on A_k^T A_k gives the spectral norm
        rng = np.random.default_rng(21)
        e = costs.random_ensemble(4, 3, 0.7, seed=77)
        norms = []
        for c in e.costs:
            v = rng.normal(size=3)
            for _ in range(500):
                v = c.a @ (c.a @ v)
                v /= np.linalg.norm(v)
            norms.append(np.linalg.norm(c.a @ v))
        assert e.smoothness_constant() == pytest.approx(max(norms), rel=1e-8)

    def test_constants_computed_once(self, monkeypatch):
        e = costs.random_ensemble(4, 3, 6.0, seed=77)
        smooth = max(float(np.max(np.abs(costs.sym_eigen(c.a).eigenvalues))) for c in e.costs)
        mu = float(costs.sym_eigen(e.aggregate_a).eigenvalues[0])
        calls = []
        real = costs.sym_eigen

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(costs, "sym_eigen", counting)
        for _ in range(3):
            assert e.smoothness_constant() == smooth
        assert len(calls) == e.m  # one eigensolve per A_k, on the first call only
        for _ in range(3):
            assert e.aggregate_mu() == mu
        e.aggregate_minimizer()
        assert len(calls) == e.m + 1

    def test_grad_bound_zero_for_identical_optima(self):
        e = costs.epsilon_example(10.0, 1.0, 0.0)
        assert e.grad_bound_D() == pytest.approx(0.0, abs=1e-12)

    def test_grad_bound_positive_with_heterogeneity(self):
        e = costs.random_ensemble(3, 2, 5.0, seed=3)
        assert e.grad_bound_D() > 0


class TestEnsembleFromSpec:
    def test_random_spec(self):
        spec = {"type": "random", "m": 3, "n": 2, "epsilon": 0.5, "seed": 42}
        e = costs.ensemble_from_spec(spec)
        direct = costs.random_ensemble(3, 2, 0.5, seed=42)
        assert np.array_equal(e.costs[0].a, direct.costs[0].a)

    def test_epsilon_example_spec(self):
        e = costs.ensemble_from_spec({"type": "epsilon_example", "L": 10, "mu": 1, "epsilon": 2})
        np.testing.assert_allclose(e.aggregate_a, np.diag([6.0, 1.0]))

    def test_explicit_spec(self):
        e = costs.ensemble_from_spec(
            {"type": "explicit", "costs": [{"A": [[2.0]], "b": [1.0]}]}
        )
        assert e.m == 1 and e.n == 1
        assert e.costs[0].value(np.array([1.0])) == pytest.approx(2.0)

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            costs.ensemble_from_spec({"type": "logistic"})
