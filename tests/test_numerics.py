import math
import warnings

import numpy as np
import pytest

import jacobi_oracle as oracle
from dgdlab import numerics
from dgdlab.errors import EigenConvergenceError, NotPositiveDefiniteError, NotSymmetricError

W_QUARTER = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
W_SKEWED = np.array([[0.4, 0.3, 0.3], [0.3, 0.3, 0.4], [0.3, 0.4, 0.3]])


ORACLE_DIMS = (2, 3, 5, 9, 17, 33, 60)


def _random_symmetric(rng, dim):
    a = rng.normal(size=(dim, dim))
    return a + a.T


def _random_spd(rng, dim):
    q = rng.normal(size=(dim, dim))
    return q @ q.T + 0.5 * np.eye(dim)


class TestSymEigen:
    def test_identity(self):
        np.testing.assert_allclose(numerics.sym_eigen(np.eye(3)), [1.0, 1.0, 1.0])

    def test_quarter_mixing_matrix(self):
        w = numerics.sym_eigen(W_QUARTER)
        np.testing.assert_allclose(w, [0.25, 0.25, 1.0], atol=1e-10)

    def test_skewed_mixing_matrix(self):
        # hand oracle: (0, 1, -1) is an eigenvector with value -0.1, the
        # all-ones vector has value 1, and the trace forces the third to 0.1
        v = np.array([0.0, 1.0, -1.0])
        np.testing.assert_allclose(W_SKEWED @ v, -0.1 * v, atol=1e-15)
        w = numerics.sym_eigen(W_SKEWED)
        np.testing.assert_allclose(w, [-0.1, 0.1, 1.0], atol=1e-10)

    def test_ascending_order(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = numerics.sym_eigen(_random_symmetric(rng, 8))
            assert np.all(np.diff(w) >= 0)

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3, 6, 12, 30):
            a = _random_symmetric(rng, dim)
            w, q = numerics.sym_eigen(a, vectors=True)
            err = np.linalg.norm(q @ np.diag(w) @ q.T - a)
            assert err <= 1e-9 * max(1.0, np.linalg.norm(a))
            np.testing.assert_allclose(q.T @ q, np.eye(dim), atol=1e-12)

    def test_matches_lapack(self):
        # independent oracle: numpy's LAPACK-backed eigensolver
        rng = np.random.default_rng(13)
        for dim in (2, 5, 9, 20, 60):
            a = _random_symmetric(rng, dim)
            mine = numerics.sym_eigen(a)
            ref = np.linalg.eigvalsh(a)
            np.testing.assert_allclose(mine, ref, atol=1e-10 * max(1, np.abs(ref).max()))

    def test_trace_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = _random_symmetric(rng, int(rng.integers(1, 12)))
            w = numerics.sym_eigen(a)
            tr = np.trace(a)
            assert abs(w.sum() - tr) <= 1e-9 * max(1.0, abs(tr))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            dim = int(rng.integers(2, 10))
            a = _random_symmetric(rng, dim)
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            w1 = numerics.sym_eigen(a)
            w2 = numerics.sym_eigen(q.T @ a @ q)
            np.testing.assert_allclose(w1, w2, atol=1e-8)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            numerics.sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(NotSymmetricError):
            numerics.sym_eigen(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(NotSymmetricError):
            numerics.sym_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_dim_one(self):
        w, q = numerics.sym_eigen(np.array([[4.0]]), vectors=True)
        np.testing.assert_allclose(w, [4.0])
        np.testing.assert_allclose(q, [[1.0]])

    def test_returns_what_lapack_returns(self):
        # the eigenvalue array of eigvalsh, or eigh's (eigenvalues, eigenvectors)
        a = _random_symmetric(np.random.default_rng(29), 5)
        w = numerics.sym_eigen(a)
        assert type(w) is np.ndarray
        np.testing.assert_array_equal(w, np.linalg.eigvalsh(a))
        pair = numerics.sym_eigen(a, vectors=True)
        assert len(pair) == 2
        for mine, ref in zip(pair, np.linalg.eigh(a)):
            assert type(mine) is np.ndarray
            np.testing.assert_array_equal(mine, ref)


class TestSymEigenStacks:
    """A (..., k, k) stack is solved member by member, with the same contract."""

    @pytest.mark.parametrize("shape", [(5, 6), (2, 3, 16)])
    @pytest.mark.parametrize("vectors", [False, True])
    def test_stack_equals_per_matrix_calls_bit_for_bit(self, shape, vectors):
        *lead, dim = shape
        rng = np.random.default_rng(31)
        stack = np.array([_random_symmetric(rng, dim) for _ in range(np.prod(lead))])
        stack = stack.reshape(*lead, dim, dim)
        # the eigenvalues, then with `vectors` the eigenvectors
        parts = numerics.sym_eigen(stack, vectors=vectors)
        parts = parts if vectors else (parts,)
        assert parts[0].shape == (*lead, dim)
        for index in np.ndindex(*lead):
            alone = numerics.sym_eigen(stack[index], vectors=vectors)
            alone = alone if vectors else (alone,)
            assert len(alone) == len(parts)
            for part, own in zip(parts, alone):
                np.testing.assert_array_equal(part[index], own)

    @pytest.mark.parametrize("entry", [(0, 1, 1e-6), (1, 1, np.nan), (0, 0, np.inf)])
    def test_stack_rejects_one_bad_member(self, entry):
        # one asymmetric or one non-finite member among symmetric ones
        rng = np.random.default_rng(37)
        stack = np.array([_random_symmetric(rng, 4) for _ in range(6)])
        i, j, value = entry
        stack[3, i, j] += value
        for vectors in (False, True):
            with pytest.raises(NotSymmetricError):
                numerics.sym_eigen(stack, vectors=vectors)

    def test_stack_of_non_square_matrices_rejected(self):
        with pytest.raises(NotSymmetricError):
            numerics.sym_eigen(np.ones((3, 2, 4)))


class TestMinEigenvalue:
    def test_zero_matrix(self):
        assert numerics.min_eigenvalue(np.zeros((3, 3))) == 0.0

    def test_diagonal(self):
        assert numerics.min_eigenvalue(np.diag([-3.0, 5.0])) == pytest.approx(-3.0)

    def test_consensus_nullspace(self):
        # rows of W sum to 1, so (I - W) @ ones = 0: smallest eigenvalue is 0
        assert abs(numerics.min_eigenvalue(np.eye(3) - W_QUARTER)) <= 1e-12

    def test_agrees_with_full_spectrum(self):
        rng = np.random.default_rng(23)
        a = _random_symmetric(rng, 7)
        assert numerics.min_eigenvalue(a) == numerics.sym_eigen(a)[0]


class TestSolveSpd:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        np.testing.assert_allclose(numerics.solve_spd(np.eye(3), b), b)

    def test_diagonal(self):
        x = numerics.solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 1.0])

    def test_construct_then_solve(self):
        rng = np.random.default_rng(29)
        for dim in (2, 6, 15, 40, 60):
            q = rng.normal(size=(dim, dim))
            a = q @ q.T + dim * np.eye(dim)
            x = rng.normal(size=dim)
            np.testing.assert_allclose(numerics.solve_spd(a, a @ x), x, atol=1e-8)

    def test_residual_relative(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            dim = int(rng.integers(2, 30))
            q = rng.normal(size=(dim, dim))
            a = q @ q.T + 0.5 * np.eye(dim)
            rhs = rng.normal(size=dim)
            x = numerics.solve_spd(a, rhs)
            assert np.linalg.norm(a @ x - rhs) <= 1e-9 * max(1.0, np.linalg.norm(rhs))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            numerics.solve_spd(np.diag([1.0, -1.0]), np.ones(2))

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            numerics.solve_spd(np.eye(3) - W_QUARTER, np.ones(3))

    def test_rejects_bad_rhs(self):
        with pytest.raises(ValueError):
            numerics.solve_spd(np.eye(3), np.ones(4))

    def test_pivot_tolerance_is_kept(self):
        # LAPACK alone factors this matrix; the 1e-12 pivot floor must not
        a = np.diag([1.0, 1e-13])
        np.linalg.cholesky(a)
        with pytest.raises(NotPositiveDefiniteError, match="column 1"):
            numerics.solve_spd(a, np.ones(2))
        with pytest.raises(NotPositiveDefiniteError):
            numerics.cholesky(a)
        np.testing.assert_allclose(numerics.solve_spd(np.diag([1.0, 1e-11]), np.ones(2)), [1.0, 1e11])


class TestLapackErrors:
    @pytest.mark.parametrize("vectors", [False, True])
    def test_linalg_error_becomes_convergence_error(self, monkeypatch, vectors):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(EigenConvergenceError, match="did not converge"):
            numerics.sym_eigen(np.eye(3), vectors=vectors)
        with pytest.raises(EigenConvergenceError):
            numerics.min_eigenvalue(np.eye(3))

    def test_symmetry_checked_before_lapack(self):
        # eigh reads one triangle only and would accept this matrix silently
        with pytest.raises(NotSymmetricError):
            numerics.sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]), vectors=True)
        with pytest.raises(NotSymmetricError):
            numerics.cholesky(np.array([[4.0, 1.0], [0.0, 4.0]]))


class TestJacobiOracle:
    """Production (LAPACK) against the pure-Python Jacobi/Cholesky oracle."""

    @pytest.mark.parametrize("dim", ORACLE_DIMS)
    def test_eigenvalues_agree(self, dim):
        a = _random_symmetric(np.random.default_rng(100 + dim), dim)
        mine = numerics.sym_eigen(a)
        ref, _ = oracle.jacobi_eigen(a)
        scale = max(1.0, np.abs(ref).max())
        np.testing.assert_allclose(mine, ref, atol=1e-10 * scale)
        # and the oracle is itself right: it agrees with eigvalsh
        np.testing.assert_allclose(ref, np.linalg.eigvalsh(a), atol=1e-10 * scale)

    @pytest.mark.parametrize("dim", (2, 5, 12))
    def test_eigenvectors_span_the_same_spaces(self, dim):
        # distinct eigenvalues almost surely, so each vector is unique up to sign
        a = _random_symmetric(np.random.default_rng(200 + dim), dim)
        _, q = numerics.sym_eigen(a, vectors=True)
        _, ref = oracle.jacobi_eigen(a, vectors=True)
        np.testing.assert_allclose(np.abs(np.sum(q * ref, axis=0)), np.ones(dim), atol=1e-8)

    @pytest.mark.parametrize("dim", ORACLE_DIMS)
    def test_cholesky_and_solve_agree(self, dim):
        rng = np.random.default_rng(300 + dim)
        a = _random_spd(rng, dim)
        rhs = rng.normal(size=dim)
        np.testing.assert_allclose(
            numerics.cholesky(a), oracle.jacobi_cholesky(a), atol=1e-10 * np.abs(a).max()
        )
        x = numerics.solve_spd(a, rhs)
        np.testing.assert_allclose(x, oracle.cholesky_solve(a, rhs), rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(x, np.linalg.solve(a, rhs), rtol=1e-8, atol=1e-10)

    def test_pivot_rule_agrees(self):
        for tiny, rejected in ((1e-13, True), (1e-12, True), (1e-11, False)):
            a = np.diag([2.0, 1.0, tiny])
            for factor in (numerics.cholesky, oracle.jacobi_cholesky):
                if rejected:
                    with pytest.raises(NotPositiveDefiniteError):
                        factor(a)
                else:
                    factor(a)


class TestBinaryUnit:
    @pytest.mark.parametrize(
        "peak, unit",
        [
            (1.0, 1.0), (3.0, 2.0), (0.75, 0.5), (-3.0, 2.0), (2.0**-1074, 2.0**-1074),
            (np.finfo(float).max, 2.0**1023), (0.0, 0.5), (math.inf, 0.5), (math.nan, 0.5),
        ],
    )
    def test_largest_power_of_two_not_above_the_peak(self, peak, unit):
        assert numerics.binary_unit(peak) == unit


class TestNorm:
    @pytest.mark.parametrize("axis", [None, 0, 1, -1])
    def test_is_numpys_norm_where_that_is_finite(self, axis):
        x = np.random.default_rng(4).normal(size=(5, 7))
        assert np.array_equal(numerics.norm(x, axis=axis), np.linalg.norm(x, axis=axis))

    @pytest.mark.parametrize("axis", [None, 1])
    def test_overflowing_squares_scale_exactly(self, axis):
        # rows of ordinary size times 2^900: each norm is the plain one times 2^900
        x = np.random.default_rng(5).normal(size=(4, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = numerics.norm(2.0**900 * x, axis=axis)
        assert np.array_equal(got, 2.0**900 * np.linalg.norm(x, axis=axis))

    def test_rows_that_need_no_rescue_keep_their_bits(self):
        x = np.array([[1.0, 2.0, 3.0], [1e200, -1e200, 1e200], [1e-3, 0.5, 7.0]])
        got = numerics.norm(x, axis=1)
        assert np.array_equal(got[[0, 2]], np.linalg.norm(x[[0, 2]], axis=1))
        assert got[1] == pytest.approx(math.sqrt(3) * 1e200, rel=1e-15)

    def test_past_the_float_range_and_non_finite_entries(self):
        x = np.array([[1.5e308, 1.5e308], [math.inf, 1.0], [math.nan, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = numerics.norm(x, axis=1)
            assert numerics.norm(x[0]) == math.inf
        assert got[0] == got[1] == math.inf and math.isnan(got[2])
