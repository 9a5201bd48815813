"""Independent pure-Python oracle for dgdlab's LAPACK-backed numerics.

A cyclic Jacobi eigensolver and an unpivoted Cholesky factorization with
hand-written triangular solves. They share no code path with
`numpy.linalg`, so agreement between them and `dgdlab.numerics` checks the
production wrappers against a second, independent computation. They are
slow (O(n^2) Python-level rotations per sweep) and meant for test-sized
matrices only.
"""

from __future__ import annotations

import numpy as np

from dgdlab.errors import EigenConvergenceError, NotPositiveDefiniteError
from dgdlab.numerics import CHOLESKY_PIVOT_TOL, check_symmetric

JACOBI_MAX_SWEEPS = 100
JACOBI_OFFDIAG_RTOL = 1e-12


def jacobi_eigen(a: np.ndarray, vectors: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues (ascending) and optional eigenvectors by cyclic Jacobi sweeps.

    Raises EigenConvergenceError if the off-diagonal norm does not fall
    below 1e-12 * ||a||_F within 100 sweeps.
    """
    a = check_symmetric(a)
    n = a.shape[0]
    if n == 1:
        return a[0].copy(), (np.eye(1) if vectors else None)

    work = 0.5 * (a + a.T)  # exact symmetry for the rotation updates
    v = np.eye(n) if vectors else None
    tol = JACOBI_OFFDIAG_RTOL * max(np.linalg.norm(a), np.finfo(float).tiny)

    def _offdiag_norm() -> float:
        off = work.copy()
        np.fill_diagonal(off, 0.0)
        return float(np.linalg.norm(off))

    converged = False
    for _ in range(JACOBI_MAX_SWEEPS):
        if _offdiag_norm() <= tol:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                if abs(apq) <= 1e-300:  # negligible; avoids overflow in theta
                    work[p, q] = 0.0
                    work[q, p] = 0.0
                    continue
                theta = (work[q, q] - work[p, p]) / (2.0 * apq)
                # smaller-angle root; stable against large |theta|
                t = np.sign(theta) if theta != 0 else 1.0
                t = t / (abs(theta) + np.hypot(1.0, theta))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c

                row_p = work[p, :].copy()
                row_q = work[q, :].copy()
                work[p, :] = c * row_p - s * row_q
                work[q, :] = s * row_p + c * row_q
                col_p = work[:, p].copy()
                col_q = work[:, q].copy()
                work[:, p] = c * col_p - s * col_q
                work[:, q] = s * col_p + c * col_q
                work[p, q] = 0.0
                work[q, p] = 0.0
                if v is not None:
                    vp = v[:, p].copy()
                    vq = v[:, q].copy()
                    v[:, p] = c * vp - s * vq
                    v[:, q] = s * vp + c * vq
    if not converged and _offdiag_norm() > tol:
        raise EigenConvergenceError(
            f"Jacobi sweeps did not converge: off-diagonal norm {_offdiag_norm():g} > {tol:g}"
        )

    w = np.diag(work).copy()
    order = np.argsort(w, kind="stable")
    return w[order], (v[:, order] if v is not None else None)


def jacobi_cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, column by column; pivots at or below 1e-12 raise."""
    a = check_symmetric(a)
    n = a.shape[0]
    lower = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - np.dot(lower[j, :j], lower[j, :j])
        if d <= CHOLESKY_PIVOT_TOL:
            raise NotPositiveDefiniteError(
                f"pivot {d:g} at column {j} is below tolerance; matrix is not positive definite"
            )
        lower[j, j] = np.sqrt(d)
        if j + 1 < n:
            lower[j + 1 :, j] = (
                a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]
            ) / lower[j, j]
    return lower


def cholesky_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a @ x = rhs by forward then back substitution on the Cholesky factor."""
    rhs = np.asarray(rhs, dtype=float)
    lower = jacobi_cholesky(a)
    n = lower.shape[0]
    y = np.zeros(n)
    for i in range(n):
        y[i] = (rhs[i] - np.dot(lower[i, :i], y[:i])) / lower[i, i]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - np.dot(lower[i + 1 :, i], x[i + 1 :])) / lower[i, i]
    return x
