"""Local quadratic costs and their aggregate spectral constants.

Each agent k owns f_k(x) = 0.5 x^T A_k x + b_k^T x with symmetric (possibly
indefinite) A_k. An ensemble is two stacked arrays and nothing else, the
(m, n, n) curvatures A_k and the (m, n) linear terms b_k: the symmetry
check, the spectral constants and the gradients at the minimizer each run
once on the stacks, not once per agent. The aggregate cost is
f = (1/m) sum_k f_k. The constants every bound consumes are:

  smoothness_L  — max_k of the spectral norm of A_k (exact, from eigenvalues)
  aggregate_mu  — smallest eigenvalue of (1/m) sum_k A_k
  grad_bound_D  — max_k ||grad f_k(x*)|| at the aggregate minimizer x*

Random ensembles use numpy's seeded PCG64 generator, one draw for every
entry, so that an ensemble is bit-reproducible from (m, n, epsilon, seed)
alone.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import NotStronglyConvexError, NotSymmetricError, ParameterError
from .numerics import SYMMETRY_ATOL, binary_unit, check_symmetric, sym_eigen
from .numerics import solve_spd  # noqa: F401 (unused, but perfbench/test_spans.py looks it up here)


_HALF_MAX = sys.float_info.max / 2
_NO_COSTS = "an ensemble needs at least one cost"


def _symmetric_curvatures(a: np.ndarray) -> np.ndarray:
    """An (m, n, n) stack of curvatures, checked and returned exactly symmetric.

    Each A_k must be symmetric within 1e-12 times its own largest entry. It
    is then stored as the mean of each mirrored pair, so no stepsize scaling
    can blow an asymmetry past a later check; the pair is halved before the
    sum in a block whose entries could overflow it.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 3:
        raise NotSymmetricError(f"expected a stack of square matrices, got shape {a.shape}")
    scale = abs(a).max(axis=(1, 2), initial=0.0)
    a = check_symmetric(a, atol=SYMMETRY_ATOL * scale)
    with np.errstate(over="ignore"):  # a block whose sum overflows is redone below
        out = a + a.swapaxes(1, 2)
    out *= 0.5
    big = scale > _HALF_MAX
    if big.any():
        out[big] = a[big] * 0.5 + a[big].swapaxes(1, 2) * 0.5
    return out


class QuadraticEnsemble:
    """The m local costs as two read-only stacks, plus cached aggregate constants.

    `QuadraticEnsemble(curvatures, linear_terms)` takes the (m, n, n) A_k and
    the (m, n) b_k, m and n at least 1, and checks them in one pass: each A_k
    symmetric at its own scale (a NotSymmetricError's `member` names the
    first that is not), the b_k finite and of matching shape, and the
    aggregate curvature finite.
    """

    def __init__(self, curvatures: np.ndarray, linear_terms: np.ndarray):
        if not len(curvatures):
            raise ValueError(_NO_COSTS)
        curvatures = _symmetric_curvatures(curvatures)
        if not curvatures.shape[1]:  # no entry to take L, mu or x* from
            raise ValueError(f"curvatures have shape {curvatures.shape}: n must be at least 1")
        linear = np.array(linear_terms, dtype=float)
        if linear.shape != curvatures.shape[:2]:
            raise ValueError(
                f"linear terms have shape {linear.shape}, expected {curvatures.shape[:2]}"
            )
        with np.errstate(over="ignore"):
            aggregate = curvatures.mean(axis=0)
        if not np.isfinite(aggregate).all():
            raise ValueError("the curvatures are too large: their sum overflows")
        if not np.isfinite(linear).all():
            raise ValueError("the linear terms b_k have non-finite entries")
        # read-only, so the constants cached below cannot go stale
        for stack in (curvatures, linear, aggregate):
            stack.setflags(write=False)
        self._curvatures, self._linear, self._aggregate_a = curvatures, linear, aggregate
        self._smoothness: float | None = None
        self._mu: float | None = None
        self._minimizer: np.ndarray | None = None
        self._grad_bound: float | None = None

    @property
    def m(self) -> int:
        return self._curvatures.shape[0]

    @property
    def n(self) -> int:
        return self._curvatures.shape[1]

    @property
    def curvatures(self) -> np.ndarray:
        """Stacked (m, n, n) array of the A_k blocks."""
        return self._curvatures

    @property
    def linear_terms(self) -> np.ndarray:
        """Stacked (m, n) array of the b_k vectors."""
        return self._linear

    @property
    def aggregate_a(self) -> np.ndarray:
        return self._aggregate_a

    def smoothness_constant(self) -> float:
        """L = max over agents of the exact spectral norm of A_k (one stacked
        eigensolve, on the first call only)."""
        if self._smoothness is None:
            self._smoothness = float(np.abs(sym_eigen(self._curvatures)).max())
        return self._smoothness

    def aggregate_mu(self) -> float:
        """Smallest eigenvalue of the aggregate curvature (1/m) sum A_k (computed once)."""
        if self._mu is None:
            self._mu = float(sym_eigen(self.aggregate_a)[0])
        return self._mu

    def aggregate_minimizer(self) -> np.ndarray:
        """Minimizer of the aggregate cost (solved once, returned read-only).
        aggregate_mu > 0 decides that it exists; one LAPACK solve gives it,
        and a solve that finds the aggregate singular or a minimizer that
        overflows raises NotStronglyConvexError too."""
        if self._minimizer is None:
            if self.aggregate_mu() <= 0.0:
                raise NotStronglyConvexError(
                    "aggregate cost is not strongly convex; no unique minimizer"
                )
            try:
                x_star = np.linalg.solve(self.aggregate_a, -self._linear.mean(axis=0))
            except np.linalg.LinAlgError:  # LAPACK met an exactly zero pivot
                x_star = np.full(self.n, math.nan)
            if not np.isfinite(x_star).all():
                raise NotStronglyConvexError(
                    "the aggregate curvature is numerically singular: no finite minimizer"
                )
            x_star.setflags(write=False)
            self._minimizer = x_star
        return self._minimizer

    def grad_bound_D(self) -> float:
        """Gradient-heterogeneity constant: max_k ||grad f_k(x*)|| (computed once)."""
        if self._grad_bound is None:
            gradients = self._curvatures @ self.aggregate_minimizer() + self._linear
            # in the largest entry's binary unit, exact, so no square overflows;
            # one dot per row, as np.linalg.norm(axis=1) rounds each differently
            unit = float(binary_unit(abs(gradients).max()))
            gradients /= unit
            self._grad_bound = max(math.sqrt(g @ g) for g in gradients) * unit
        return self._grad_bound


# A random ensemble draws every curvature entry up front: 10^7 entries are
# 80 MB, and its lifted Hessians are larger still.
MAX_RANDOM_ENTRIES = 10**7


def random_ensemble(m: int, n: int, epsilon: float, seed: int) -> QuadraticEnsemble:
    """Seeded random ensemble: A_k = epsilon*I + (R_k + R_k^T), b_k uniform.

    R_k and b_k entries are drawn uniformly from [-1, 1] with numpy's PCG64
    generator in one draw, read agent by agent (R_k first, then b_k): the
    stream of one draw per agent, so a fixed seed gives a bit-identical
    ensemble on any platform.
    """
    for name, size in (("m", m), ("n", n)):
        if size < 1:
            raise ParameterError(name, "m and n must be at least 1")
    if m * n * n > MAX_RANDOM_ENTRIES:
        raise ValueError(
            f"m * n * n = {m * n * n} curvature entries exceed the limit of {MAX_RANDOM_ENTRIES}"
        )
    if epsilon < 0:
        raise ParameterError("epsilon", "epsilon must be nonnegative")
    try:
        rng = np.random.default_rng(seed)
    except ValueError as exc:  # numpy refuses a negative seed
        raise ParameterError("seed", str(exc)) from None
    draws = rng.uniform(-1.0, 1.0, size=(m, n * n + n))
    r = draws[:, : n * n].reshape(m, n, n)
    return QuadraticEnsemble(epsilon * np.eye(n) + r + r.swapaxes(1, 2), draws[:, n * n :])


EPSILON_EXAMPLE_AGENTS = 3  # the agent count of every epsilon_example ensemble


def epsilon_family(big_l: float, mu: float, epsilons) -> np.ndarray:
    """Curvatures of the planted family, one (3, 2, 2) row per epsilon.

    Agents 1 and 2 share diag(L, mu); agent 3 has diag(-epsilon, mu). The
    aggregate stays strongly convex as long as epsilon < 2L, while agent 3
    is non-convex for any epsilon > 0.
    """
    if not mu > 0:
        raise ParameterError("mu", "requires L > mu > 0")
    if not big_l > mu:
        raise ValueError("requires L > mu > 0")
    epsilons = np.asarray(epsilons, dtype=float)
    if (epsilons < 0).any():
        raise ParameterError("epsilon", "epsilon must be nonnegative")
    out = np.zeros((epsilons.size, EPSILON_EXAMPLE_AGENTS, 2, 2))
    out[:, :2, 0, 0] = big_l
    out[:, 2, 0, 0] = -epsilons
    out[:, :, 1, 1] = mu
    return out


def epsilon_family_constants(big_l: float, mu: float, epsilon):
    """L and aggregate mu of the `epsilon_family` row of each epsilon (a float or
    an array), bit for bit as its ensemble computes them at all but tiny scales:
    max(L, epsilon), and the lesser agent sum, 2L - epsilon or 3 mu, over 3 (a
    row whose 2L overflows has curvatures its ensemble refuses)."""
    lesser = np.minimum(2.0 * big_l - np.asarray(epsilon, dtype=float), 3.0 * mu)
    return np.maximum(big_l, epsilon), lesser / EPSILON_EXAMPLE_AGENTS


def epsilon_example(big_l: float, mu: float, epsilon: float) -> QuadraticEnsemble:
    """Three-agent, two-dimensional family with one tunably concave agent:
    the row of `epsilon_family` for `epsilon`, with zero linear terms."""
    (curvatures,) = epsilon_family(big_l, mu, [epsilon])
    return QuadraticEnsemble(curvatures, np.zeros((EPSILON_EXAMPLE_AGENTS, 2)))
