"""Independent LAPACK reference for the benchmark's correctness gate.

Everything here goes through numpy and scipy (which wrap LAPACK) and
never through dgdlab's own eigensolver or Cholesky factorization, so the
gate checks the mathematics, not the bits an earlier version produced. A
change to dgdlab's numerics passes as long as its answers stay within the
tolerances below.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

# dgdlab certifies strong convexity when lambda_min(H) > 1e-10.
SC_TOLERANCE = 1e-10
# Stepsizes tried, largest first, for a positive-definite anchor H(t0).
ANCHOR_LADDER = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
# Relative tolerance for spectral quantities (rho, lambda_min, beta, mu, L).
SPECTRAL_RTOL = 1e-9


def close(a: float, b: float, rtol: float = SPECTRAL_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-12)


def lifted_parts(curvatures: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C = (I - W) kron I_n and B = blockdiag(A_k), so that H(t) = C + t B."""
    m, n, _ = curvatures.shape
    return np.kron(np.eye(m) - w, np.eye(n)), sla.block_diag(*curvatures)


def pencil_threshold(curvatures: np.ndarray, w: np.ndarray) -> float | None:
    """Exact right edge alpha_A of the certified stepsize interval.

    With t = alpha/m, pick an anchor t0 where H(t0) = C + t0 B = L L^T is
    positive definite. Then H(t) = L (I + (t - t0) L^-1 B L^-T) L^T stays
    positive definite exactly while t < t0 - 1/nu_min, nu_min being the
    smallest eigenvalue of L^-1 B L^-T. So alpha_A = m (t0 - 1/nu_min).
    Returns None when no stepsize certifies and math.inf when every one does.
    """
    m = curvatures.shape[0]
    c, b = lifted_parts(curvatures, w)
    for alpha0 in ANCHOR_LADDER:
        t0 = alpha0 / m
        anchor = c + t0 * b
        if np.linalg.eigvalsh(anchor)[0] > SC_TOLERANCE:
            break
    else:
        return None
    lower = sla.cholesky(anchor, lower=True)
    left = sla.solve_triangular(lower, b, lower=True)
    pencil = sla.solve_triangular(lower, left.T, lower=True)
    nu_min = np.linalg.eigvalsh(0.5 * (pencil + pencil.T))[0]
    if nu_min >= 0:
        return math.inf
    return m * (t0 - 1.0 / nu_min)


def expected_threshold(curvatures: np.ndarray, w: np.ndarray, scan_cap: float) -> float | None:
    """What a correct threshold search reports: the edge, inf past the scan cap, or None."""
    edge = pencil_threshold(curvatures, w)
    if edge is not None and edge >= scan_cap:
        return math.inf
    return edge


def threshold_problem(got: float | None, expected: float | None, resolution: float) -> str | None:
    """Describe how `got` misses the reference threshold, or return None when it matches."""
    if expected is None or got is None:
        if got is expected:
            return None
        return f"alpha_A {got!r}, reference {expected!r}"
    if math.isinf(expected) or math.isinf(got):
        return None if got == expected else f"alpha_A {got!r}, reference {expected!r}"
    if abs(got - expected) <= resolution + 1e-9 * expected:
        return None
    return f"alpha_A {got!r} is {abs(got - expected):.3g} from the pencil edge {expected!r}"


def mixing_spectrum(w: np.ndarray) -> tuple[float, float]:
    """(lambda_min, beta): the smallest and the signed second-largest eigenvalue of W."""
    eigs = np.linalg.eigvalsh(w)
    return float(eigs[0]), float(eigs[-2])


def smoothness(curvatures: np.ndarray) -> float:
    return float(max(np.max(np.abs(np.linalg.eigvalsh(a))) for a in curvatures))


def aggregate_mu(curvatures: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(curvatures.mean(axis=0))[0])


def lambda_min_bound(lambda_min: float, big_l: float) -> float:
    return (1.0 + lambda_min) / big_l


def spectral_radius(curvatures: np.ndarray, w: np.ndarray, alpha: float) -> float:
    """rho(M_alpha) with M_alpha = W kron I_n - (alpha/m) blockdiag(A_k)."""
    m, n, _ = curvatures.shape
    iteration = np.kron(w, np.eye(n)) - (alpha / m) * sla.block_diag(*curvatures)
    eigs = np.linalg.eigvalsh(iteration)
    return float(max(abs(eigs[0]), abs(eigs[-1])))


def lifted_minimizer(curvatures: np.ndarray, w: np.ndarray, linear: np.ndarray, alpha: float) -> np.ndarray:
    """argmin G_alpha: solves (C + (alpha/m) B) x = -(alpha/m) b."""
    m = curvatures.shape[0]
    c, b = lifted_parts(curvatures, w)
    t = alpha / m
    return np.linalg.solve(c + t * b, -t * linear.reshape(-1))
