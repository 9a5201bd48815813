"""Mixing matrices for the agent communication graph.

A valid mixing matrix is symmetric, doubly stochastic, has a strictly
positive diagonal, and corresponds to a connected graph (second-largest
eigenvalue strictly below 1). Spectral quantities that the stepsize
bounds consume — the smallest eigenvalue and the signed second-largest
eigenvalue — are computed once at validation time and cached.
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
    """A validated doubly stochastic symmetric weight matrix."""

    m: int
    w: np.ndarray
    spectral: SpectralSummary

    def __post_init__(self):
        self.w.setflags(write=False)


def validate_mixing(w: np.ndarray) -> MixingMatrix:
    """Validate a candidate mixing matrix and cache its spectral summary.

    Raises MixingMatrixError with a stable ``code`` on the first failed
    check: "non_finite", "not_square", "asymmetric", "negative_weight",
    "row_sum", "col_sum", "zero_diagonal", or "disconnected".
    """
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise MixingMatrixError("non_finite", "mixing matrix has non-finite entries")
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise MixingMatrixError("not_square", f"expected square matrix, got {w.shape}")
    m = w.shape[0]
    if np.max(np.abs(w - w.T), initial=0.0) > 1e-12:
        raise MixingMatrixError("asymmetric", "mixing matrix must be symmetric")
    if np.min(w) < -STOCHASTIC_ATOL:
        raise MixingMatrixError("negative_weight", "mixing weights must be nonnegative")
    row = w.sum(axis=1)
    if np.max(np.abs(row - 1.0)) > STOCHASTIC_ATOL:
        raise MixingMatrixError("row_sum", f"row sums deviate from 1 by {np.max(np.abs(row - 1.0)):g}")
    col = w.sum(axis=0)
    if np.max(np.abs(col - 1.0)) > STOCHASTIC_ATOL:
        raise MixingMatrixError("col_sum", f"column sums deviate from 1 by {np.max(np.abs(col - 1.0)):g}")
    if np.min(np.diag(w)) <= 0.0:
        raise MixingMatrixError("zero_diagonal", "every self-weight w_ii must be positive")

    eigs = sym_eigen(w).eigenvalues
    lam_min = float(eigs[0])
    if m == 1:
        summary = SpectralSummary(
            lambda_min=lam_min, beta=0.0, spectral_gap=1.0, beta_abs=0.0, single_agent=True
        )
        return MixingMatrix(m=1, w=w.copy(), spectral=summary)

    beta = float(eigs[-2])  # one copy of the leading eigenvalue 1 removed
    if beta >= 1.0 - CONNECTIVITY_GAP:
        raise MixingMatrixError(
            "disconnected", f"second-largest eigenvalue {beta:.15g} >= 1; graph is not connected"
        )
    beta_abs = float(max(abs(beta), abs(lam_min)))
    summary = SpectralSummary(
        lambda_min=lam_min, beta=beta, spectral_gap=1.0 - beta, beta_abs=beta_abs
    )
    return MixingMatrix(m=m, w=w.copy(), spectral=summary)


def _connected(adjacency: np.ndarray) -> bool:
    m = adjacency.shape[0]
    seen = np.zeros(m, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(adjacency[i])[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())


def metropolis_weights(adjacency: np.ndarray) -> MixingMatrix:
    """Mixing matrix with Metropolis weights from a 0/1 adjacency matrix.

    Edge weights are 1 / (1 + max(deg_i, deg_j)); the diagonal absorbs the
    remainder of each row. The adjacency must be symmetric, zero on the
    diagonal, and describe a connected graph.
    """
    adjacency = np.asarray(adjacency)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise MixingMatrixError("not_square", f"adjacency must be square, got {adjacency.shape}")
    if not np.array_equal(adjacency, adjacency.T):
        raise MixingMatrixError("asymmetric", "adjacency must be symmetric")
    if not np.array_equal(adjacency, adjacency.astype(bool).astype(adjacency.dtype)):
        raise MixingMatrixError("negative_weight", "adjacency entries must be 0 or 1")
    if np.any(np.diag(adjacency) != 0):
        raise MixingMatrixError("zero_diagonal", "adjacency must have a zero diagonal")
    m = adjacency.shape[0]
    if m > 1 and not _connected(adjacency):
        raise MixingMatrixError("disconnected", "adjacency graph is not connected")

    deg = adjacency.sum(axis=1)
    w = np.zeros((m, m), dtype=float)
    for i in range(m):
        for j in range(i + 1, m):
            if adjacency[i, j]:
                w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return validate_mixing(w)


def _spec_matrix(spec: dict, key: str) -> np.ndarray:
    if key not in spec:
        raise MixingMatrixError("malformed_spec", f"mixing spec has no {key!r} key")
    try:
        out = np.asarray(spec[key], dtype=float)
    except (TypeError, ValueError):
        raise MixingMatrixError("malformed_spec", f"{key} is not a numeric matrix") from None
    if not np.all(np.isfinite(out)):
        raise MixingMatrixError("malformed_spec", f"{key} has non-finite entries")
    return out


def mixing_from_spec(spec: dict) -> MixingMatrix:
    """Build a MixingMatrix from its structured-text (JSON) form.

    Accepts {"type": "explicit", "W": [[...]]}, a bare {"W": [[...]]},
    or {"type": "metropolis", "adjacency": [[...]]}. A spec that is not
    an object, lacks its matrix, or holds non-numeric or non-finite
    entries raises MixingMatrixError with code "malformed_spec".
    """
    if not isinstance(spec, dict):
        raise MixingMatrixError("malformed_spec", "mixing spec must be a JSON object")
    kind = spec.get("type", "explicit")
    if kind == "explicit":
        return validate_mixing(_spec_matrix(spec, "W"))
    if kind == "metropolis":
        return metropolis_weights(_spec_matrix(spec, "adjacency"))
    raise MixingMatrixError("malformed_spec", f"unknown mixing spec type {kind!r}")
