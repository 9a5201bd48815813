"""Local quadratic costs and their aggregate spectral constants.

Each agent k owns f_k(x) = 0.5 x^T A_k x + b_k^T x with symmetric (possibly
indefinite) A_k. An ensemble's state is two stacked arrays, the (m, n, n)
curvatures A_k and the (m, n) linear terms b_k: the symmetry check, the
spectral constants and the gradients at the minimizer each run once on the
stacks, not once per agent, and `QuadraticEnsemble.costs` is a per-agent
view of them. The aggregate cost is f = (1/m) sum_k f_k. The constants
every bound consumes are:

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
from dataclasses import dataclass

import numpy as np

from .errors import (
    NotPositiveDefiniteError,
    NotStronglyConvexError,
    NotSymmetricError,
    ParameterError,
)
from .numerics import SYMMETRY_ATOL, check_symmetric, solve_spd, sym_eigen


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


@dataclass(eq=False)
class QuadraticCost:
    """One agent's cost 0.5 x^T a x + b^T x: the one-row case of an ensemble's stacks."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NotSymmetricError(f"expected a square matrix, got shape {a.shape}")
        (self.a,) = _symmetric_curvatures(a[None])
        self.b = np.asarray(self.b, dtype=float)
        if self.b.shape != (self.a.shape[0],):
            raise ValueError(f"b has shape {self.b.shape}, expected ({self.a.shape[0]},)")

    @classmethod
    def _row(cls, a: np.ndarray, b: np.ndarray) -> QuadraticCost:
        """The cost over one already checked row of an ensemble's stacks."""
        cost = object.__new__(cls)
        cost.a, cost.b = a, b
        return cost

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.dim},)")
        return float(0.5 * x @ self.a @ x + self.b @ x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.dim},)")
        return self.a @ x + self.b


class QuadraticEnsemble:
    """The m local costs as two read-only stacks, plus cached aggregate constants.

    `QuadraticEnsemble(costs)` stacks checked `QuadraticCost`s;
    `QuadraticEnsemble.from_stacks` checks whole stacks in one pass.
    """

    def __init__(self, costs: list[QuadraticCost]):
        costs = list(costs)
        if not costs:
            raise ValueError(_NO_COSTS)
        if any(c.dim != costs[0].dim for c in costs):
            raise ValueError("all costs must share one ambient dimension")
        self._set_stacks(np.stack([c.a for c in costs]), np.stack([c.b for c in costs]))

    @classmethod
    def from_stacks(cls, curvatures: np.ndarray, linear_terms: np.ndarray) -> QuadraticEnsemble:
        """The ensemble of (m, n, n) `curvatures` and (m, n) `linear_terms`,
        each A_k checked and symmetrised as a `QuadraticCost` would be."""
        curvatures = _symmetric_curvatures(curvatures)
        linear = np.array(linear_terms, dtype=float)
        if linear.shape != curvatures.shape[:2]:
            raise ValueError(
                f"linear terms have shape {linear.shape}, expected {curvatures.shape[:2]}"
            )
        ensemble = cls.__new__(cls)
        ensemble._set_stacks(curvatures, linear)
        return ensemble

    def _set_stacks(self, curvatures: np.ndarray, linear: np.ndarray) -> None:
        if not len(curvatures):
            raise ValueError(_NO_COSTS)
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
    def costs(self) -> list[QuadraticCost]:
        """Per-agent views of the stacks, made on each access."""
        return [QuadraticCost._row(a, b) for a, b in zip(self._curvatures, self._linear)]

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

    @property
    def aggregate_b(self) -> np.ndarray:
        return self._linear.mean(axis=0)

    def smoothness_constant(self) -> float:
        """L = max over agents of the exact spectral norm of A_k (one stacked
        eigensolve, on the first call only)."""
        if self._smoothness is None:
            self._smoothness = float(np.abs(sym_eigen(self._curvatures).eigenvalues).max())
        return self._smoothness

    def aggregate_mu(self) -> float:
        """Smallest eigenvalue of the aggregate curvature (1/m) sum A_k (computed once)."""
        if self._mu is None:
            self._mu = float(sym_eigen(self.aggregate_a).eigenvalues[0])
        return self._mu

    def aggregate_minimizer(self) -> np.ndarray:
        """Minimizer of the aggregate cost (solved once, returned read-only);
        requires aggregate_mu > 0 and an aggregate curvature that passes the
        Cholesky pivot floor."""
        if self._minimizer is None:
            if self.aggregate_mu() <= 0.0:
                raise NotStronglyConvexError(
                    "aggregate cost is not strongly convex; no unique minimizer"
                )
            try:
                x_star = solve_spd(self.aggregate_a, -self.aggregate_b)
            except NotPositiveDefiniteError as exc:
                raise NotStronglyConvexError(
                    f"aggregate cost is too weakly convex for a unique minimizer: {exc}"
                ) from exc
            x_star.setflags(write=False)
            self._minimizer = x_star
        return self._minimizer

    def grad_bound_D(self) -> float:
        """Gradient-heterogeneity constant: max_k ||grad f_k(x*)|| (computed once)."""
        if self._grad_bound is None:
            gradients = self._curvatures @ self.aggregate_minimizer() + self._linear
            # one dot per row: np.linalg.norm(axis=1) rounds differently from
            # the norm of each agent's gradient on its own
            self._grad_bound = max(math.sqrt(g @ g) for g in gradients)
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
    return QuadraticEnsemble.from_stacks(
        epsilon * np.eye(n) + r + r.swapaxes(1, 2), draws[:, n * n :]
    )


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


def epsilon_family_constants(big_l: float, mu: float, epsilons) -> tuple[np.ndarray, np.ndarray]:
    """Each `epsilon_family` row's L and aggregate mu, bit for bit as its
    ensemble computes them at all but tiny scales: its largest |entry|,
    max(L, epsilon), and the lesser agent sum, 2L - epsilon or 3 mu, over 3
    (a row whose 2L overflows has curvatures its ensemble refuses)."""
    epsilons = np.asarray(epsilons, dtype=float)
    with np.errstate(over="ignore"):
        sums = np.minimum(2.0 * big_l - epsilons, 3.0 * mu)
    return np.maximum(big_l, epsilons), sums / EPSILON_EXAMPLE_AGENTS


def epsilon_example(big_l: float, mu: float, epsilon: float) -> QuadraticEnsemble:
    """Three-agent, two-dimensional family with one tunably concave agent:
    the row of `epsilon_family` for `epsilon`, with zero linear terms."""
    (curvatures,) = epsilon_family(big_l, mu, [epsilon])
    return QuadraticEnsemble.from_stacks(curvatures, np.zeros((EPSILON_EXAMPLE_AGENTS, 2)))
