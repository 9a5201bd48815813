"""Dense symmetric linear algebra primitives.

Everything downstream (mixing-matrix spectra, curvature constants,
strong-convexity certificates, spectral-radius verdicts) reduces to one
operation on real symmetric matrices: a full eigendecomposition, a thin
wrapper over LAPACK's `eigh`/`eigvalsh` through numpy.linalg. The engine
needs no SPD solve: the aggregate minimizer is one `numpy.linalg.solve`
once the aggregate's smallest eigenvalue is positive. `cholesky` and
`solve_spd` remain public helpers. The wrappers add the package's contract
on top: a symmetry check first, ascending eigenvalues, a Cholesky pivot
floor, and the package's own exception types. `lifted` alone skips the
check (`_eigensolve`): it builds every matrix it solves finite and exactly
symmetric. All arithmetic is 64-bit floating point.

The eigensolver also takes a (..., k, k) stack of matrices, as numpy.linalg
does: every member is checked, and each one's spectrum is bit for bit the
one a call on that matrix alone returns. A family of problems that differ
only in their data is solved in one call instead of one call per member.

Past the float range the package has one scale rule, `binary_unit`
(elementwise on arrays); `norm` and every rescaled evaluation use it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EigenConvergenceError, NotPositiveDefiniteError, NotSymmetricError

SYMMETRY_ATOL = 1e-12
CHOLESKY_PIVOT_TOL = 1e-12


def check_symmetric(a: np.ndarray, atol: float | np.ndarray = SYMMETRY_ATOL) -> np.ndarray:
    """Return `a` as a float64 array after verifying it is square and symmetric.

    `a` is one (k, k) matrix or a (..., k, k) stack of them; every member
    must pass. `atol` is one tolerance for every member or an array of one
    tolerance per member; a failure then reports the first failing member's,
    and that member's index as the error's `member`.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {a.shape}")
    # array methods rather than np.all / np.max: this check runs before every
    # eigensolve, and their wrappers doubled its cost on small matrices
    if not np.isfinite(a).all():
        raise NotSymmetricError("matrix contains non-finite entries")
    asymmetry = abs(a - a.swapaxes(-1, -2))
    if not isinstance(atol, np.ndarray):
        if asymmetry.max(initial=0.0) > atol:
            raise NotSymmetricError(f"matrix is not symmetric within {atol:g}")
        return a
    atol = np.broadcast_to(atol, a.shape[:-2])
    over = np.flatnonzero(asymmetry.max(axis=(-2, -1), initial=0.0) > atol)
    if over.size:
        raise NotSymmetricError(
            f"matrix is not symmetric within {atol.flat[over[0]]:g}", member=int(over[0])
        )
    return a


def sym_eigen(a: np.ndarray, vectors: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix (LAPACK `eigh`/`eigvalsh`).

    Parameters
    ----------
    a : ndarray
        Square symmetric matrix (checked to 1e-12 absolute tolerance), or a
        (..., k, k) stack of them, each checked.
    vectors : bool, optional
        Also return the orthonormal eigenvector columns.

    Returns
    -------
    ndarray or (ndarray, ndarray)
        The eigenvalues ascending, as `eigvalsh` returns them; with
        `vectors`, the pair (eigenvalues, eigenvectors) `eigh` returns, whose
        orthonormal columns Q give Q @ diag(w) @ Q.T = a. For a stack,
        eigenvalues have shape (..., k) and eigenvectors (..., k, k), and
        each member equals a call on that matrix alone.

    Raises
    ------
    NotSymmetricError
        If the input (any member of a stack) is not square/symmetric or
        has a non-finite entry.
    EigenConvergenceError
        If LAPACK reports that the eigensolve did not converge.
    """
    return _eigensolve(check_symmetric(a), vectors)


def _eigensolve(a: np.ndarray, vectors: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """`sym_eigen` without its check, for a finite, exactly symmetric float64 `a`."""
    try:
        return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"symmetric eigensolve did not converge: {exc}") from exc


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(sym_eigen(a)[0])


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive-definite matrix.

    Raises NotPositiveDefiniteError when a pivot L[j, j]**2 falls at or
    below 1e-12, a floor LAPACK itself does not apply.
    """
    a = check_symmetric(a)
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc
    pivots = np.diagonal(lower) ** 2
    low = np.flatnonzero(pivots <= CHOLESKY_PIVOT_TOL)
    if low.size:
        j = int(low[0])
        raise NotPositiveDefiniteError(
            f"pivot {pivots[j]:g} at column {j} is below tolerance; matrix is not positive definite"
        )
    return lower


def solve_spd(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a @ x = rhs for symmetric positive-definite `a`.

    `cholesky` decides positive definiteness; LAPACK's `solve` gives x.
    Raises NotPositiveDefiniteError if `a` is not positive definite and
    ValueError on dimension mismatch.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = cholesky(a).shape[0]
    if rhs.shape != (n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({n},)")
    return np.linalg.solve(a, rhs)


def binary_unit(peak: float | np.ndarray) -> np.float64 | np.ndarray:
    """The largest power of 2 not above |peak|, elementwise, or 0.5 for 0 or a non-finite
    peak: the package's one rescaling unit. Dividing by it is exact, so a value taken
    in it and scaled back has the direct computation's bits wherever those are finite."""
    return np.ldexp(1.0, np.frexp(peak)[1] - 1)


# Below 2^-511 a norm's squares sum below 2^-1022 and have lost bits. At or
# above 2^-485 the last bit of N^2 is at least 2^-1022, so a square that
# underflowed rounded by at most 2^-53 of it.
SQUARES_FLOOR = 2.0**-485


def squares_out_of_range(norms: np.ndarray) -> np.ndarray:
    """Where a norm's squares may have left the float range: it is inf, where
    they overflowed, or below 2^-485 (`SQUARES_FLOOR`), zero included, where
    they underflowed (or nan). `norm` takes such a norm again in a binary
    unit."""
    return ~((norms >= SQUARES_FLOOR) & (norms < math.inf))


def norm(x: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """np.linalg.norm(x, axis=axis), bit for bit wherever its squares stay in
    range; `axis` is None or one axis of an `x` of two or more dimensions.

    A norm whose squares overflow or underflow (`squares_out_of_range`)
    is taken again after dividing by the `binary_unit` of its largest
    |entry|, which is exact, and scaled back: the largest square then lies
    in [1, 4). A norm of zeros stays 0, one past the float range or of
    non-finite entries stays inf or nan, as their unit is 0.5, and none of
    this warns.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=axis)
        if axis is None:
            if squares_out_of_range(norms):
                unit = binary_unit(abs(x).max(initial=0.0))
                norms = np.linalg.norm(x / unit) * unit
            return norms
        redo = squares_out_of_range(norms)
        if redo.any():
            rows = np.moveaxis(x, axis, -1)[redo]
            units = binary_unit(abs(rows).max(axis=-1, initial=0.0))
            norms[redo] = np.linalg.norm(rows / units[:, None], axis=-1) * units
    return norms


def render_float(v: float | None) -> float | str | None:
    """`v` as the JSON and CSV outputs print it: "inf" or "nan" for a
    non-finite float (JSON has no literal for either), otherwise unchanged."""
    if v is None or math.isfinite(v):
        return v
    return "nan" if math.isnan(v) else "inf"
