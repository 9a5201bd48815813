"""Mixing matrices for the agent communication graph.

A valid mixing matrix is symmetric, doubly stochastic, has a strictly
positive diagonal, and corresponds to a connected graph (second-largest
eigenvalue strictly below 1). Validation eigendecomposes W once, and
both the spectral quantities that the stepsize bounds consume (the
smallest eigenvalue and the signed second-largest eigenvalue) and the
scaled eigenbasis that certification reads come from that one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MixingMatrixError
from .numerics import sym_eigen

STOCHASTIC_ATOL = 1e-10
CONNECTIVITY_GAP = 1e-12


@dataclass(frozen=True)
class SpectralSummary:
    """Cached spectral facts about a mixing matrix.

    beta is the SIGNED second-largest eigenvalue (one copy of the leading
    eigenvalue 1 removed), not max(|lambda_2|, |lambda_min|); the magnitude
    variant is kept alongside as beta_abs for diagnostics. For a single
    agent there is no second eigenvalue: beta is reported as 0.0 and
    single_agent is set.
    """

    lambda_min: float
    beta: float
    spectral_gap: float
    beta_abs: float
    single_agent: bool = False


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """A validated doubly stochastic symmetric weight matrix.

    `spectral` and `eigenbasis` come from the one eigendecomposition of W,
    W = Q diag(w) Q^T. `eigenbasis` is Q D^(-1/2): q_1 = 1/sqrt(m) exactly as
    the first column, for w_1 = 1 (which eigh puts last, as the largest), and
    each other column q_j scaled by (1 - w_j)^(-1/2), finite on a connected W.
    """

    m: int
    w: np.ndarray
    spectral: SpectralSummary
    eigenbasis: np.ndarray

    def __post_init__(self):
        self.w.setflags(write=False)
        self.eigenbasis.setflags(write=False)


def validate_mixing(w: np.ndarray) -> MixingMatrix:
    """Validate a candidate mixing matrix and cache its spectral summary.

    Raises MixingMatrixError with a stable ``code`` on the first failed
    check: "non_finite", "not_square", "asymmetric", "negative_weight",
    "row_sum", "col_sum", "zero_diagonal", or "disconnected".
    """
    w = np.asarray(w, dtype=float)
    # array methods rather than np.all / np.max: on a small W their wrappers
    # cost more than the checks
    if not np.isfinite(w).all():
        raise MixingMatrixError("non_finite", "mixing matrix has non-finite entries")
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise MixingMatrixError("not_square", f"expected square matrix, got {w.shape}")
    m = w.shape[0]
    if abs(w - w.T).max(initial=0.0) > 1e-12:
        raise MixingMatrixError("asymmetric", "mixing matrix must be symmetric")
    if w.min() < -STOCHASTIC_ATOL:
        raise MixingMatrixError("negative_weight", "mixing weights must be nonnegative")
    row = abs(w.sum(axis=1) - 1.0).max()
    if row > STOCHASTIC_ATOL:
        raise MixingMatrixError("row_sum", f"row sums deviate from 1 by {row:g}")
    col = abs(w.sum(axis=0) - 1.0).max()
    if col > STOCHASTIC_ATOL:
        raise MixingMatrixError("col_sum", f"column sums deviate from 1 by {col:g}")
    if w.diagonal().min() <= 0.0:
        raise MixingMatrixError("zero_diagonal", "every self-weight w_ii must be positive")
    w = (w + w.T) * 0.5  # exactly symmetric from here on

    values, vectors = sym_eigen(w, vectors=True)
    lam_min = float(values[0])
    if m == 1:
        summary = SpectralSummary(
            lambda_min=lam_min, beta=0.0, spectral_gap=1.0, beta_abs=0.0, single_agent=True
        )
        return MixingMatrix(m=1, w=w, spectral=summary, eigenbasis=np.ones((1, 1)))

    beta = float(values[-2])  # one copy of the leading eigenvalue 1 removed
    if beta >= 1.0 - CONNECTIVITY_GAP:
        raise MixingMatrixError(
            "disconnected", f"second-largest eigenvalue {beta:.15g} >= 1; graph is not connected"
        )
    beta_abs = float(max(abs(beta), abs(lam_min)))
    summary = SpectralSummary(
        lambda_min=lam_min, beta=beta, spectral_gap=1.0 - beta, beta_abs=beta_abs
    )
    basis = np.empty((m, m))  # see MixingMatrix
    basis[:, 0] = m**-0.5
    np.divide(vectors[:, :-1], np.sqrt(1.0 - values[:-1]), out=basis[:, 1:])
    return MixingMatrix(m=m, w=w, spectral=summary, eigenbasis=basis)


def metropolis_weights(adjacency: np.ndarray) -> MixingMatrix:
    """Mixing matrix with Metropolis weights from a 0/1 adjacency matrix.

    Edge weights are 1 / (1 + max(deg_i, deg_j)); the diagonal absorbs the
    remainder of each row. The adjacency must be symmetric, zero on the
    diagonal, and describe a connected graph: the weights of a disconnected
    one keep a second eigenvalue 1, which `validate_mixing` refuses as
    "disconnected".
    """
    adjacency = np.asarray(adjacency)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise MixingMatrixError("not_square", f"adjacency must be square, got {adjacency.shape}")
    if not np.array_equal(adjacency, adjacency.T):
        raise MixingMatrixError("asymmetric", "adjacency must be symmetric")
    if not np.array_equal(adjacency, adjacency.astype(bool).astype(adjacency.dtype)):
        raise MixingMatrixError("negative_weight", "adjacency entries must be 0 or 1")
    if adjacency.diagonal().any():
        raise MixingMatrixError("zero_diagonal", "adjacency must have a zero diagonal")

    deg = adjacency.sum(axis=1)
    w = np.where(adjacency != 0, 1.0 / (1.0 + np.maximum.outer(deg, deg)), 0.0)
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return validate_mixing(w)
