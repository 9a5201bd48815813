"""Local quadratic costs and their aggregate spectral constants.

Each agent k owns f_k(x) = 0.5 x^T A_k x + b_k^T x with symmetric (possibly
indefinite) A_k. The aggregate cost is f = (1/m) sum_k f_k. The constants
every bound consumes are:

  smoothness_L  — max_k of the spectral norm of A_k (exact, from eigenvalues)
  aggregate_mu  — smallest eigenvalue of (1/m) sum_k A_k
  grad_bound_D  — max_k ||grad f_k(x*)|| at the aggregate minimizer x*

Random ensembles use numpy's seeded PCG64 generator so that an ensemble is
bit-reproducible from (m, n, epsilon, seed) alone.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import NotPositiveDefiniteError, NotStronglyConvexError, NotSymmetricError
from .numerics import SYMMETRY_ATOL, check_symmetric, solve_spd, sym_eigen


_HALF_MAX = sys.float_info.max / 2


@dataclass(eq=False)
class QuadraticCost:
    """One agent's cost 0.5 x^T a x + b^T x."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        # symmetric within a tolerance relative to the largest entry, then stored
        # exactly so: no stepsize scaling can blow an asymmetry past a later check
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2:  # check_symmetric also takes stacks of matrices
            raise NotSymmetricError(f"expected a square matrix, got shape {a.shape}")
        scale = abs(a).max(initial=0.0)
        a = check_symmetric(a, atol=SYMMETRY_ATOL * scale)
        # the mean of each mirrored pair, halved before the sum where the sum
        # could overflow
        self.a = (a + a.T) * 0.5 if scale <= _HALF_MAX else a * 0.5 + a.T * 0.5
        self.b = np.asarray(self.b, dtype=float)
        if self.b.shape != (self.a.shape[0],):
            raise ValueError(f"b has shape {self.b.shape}, expected ({self.a.shape[0]},)")

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


@dataclass(eq=False)
class QuadraticEnsemble:
    """The m local costs plus cached aggregate constants."""

    costs: list[QuadraticCost]
    _curvatures: np.ndarray = field(init=False, repr=False)
    _smoothness: float | None = field(init=False, repr=False, default=None)
    _mu: float | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if not self.costs:
            raise ValueError("an ensemble needs at least one cost")
        n = self.costs[0].dim
        if any(c.dim != n for c in self.costs):
            raise ValueError("all costs must share one ambient dimension")
        self._curvatures = np.stack([c.a for c in self.costs])
        with np.errstate(over="ignore"):
            aggregate = self._curvatures.mean(axis=0)
        if not np.isfinite(aggregate).all():
            raise ValueError("the curvatures are too large: their sum overflows")
        if not np.isfinite(self.linear_terms).all():
            raise ValueError("the linear terms b_k have non-finite entries")

    @property
    def m(self) -> int:
        return len(self.costs)

    @property
    def n(self) -> int:
        return self.costs[0].dim

    @property
    def curvatures(self) -> np.ndarray:
        """Stacked (m, n, n) array of the A_k blocks."""
        return self._curvatures

    @property
    def linear_terms(self) -> np.ndarray:
        """Stacked (m, n) array of the b_k vectors."""
        return np.stack([c.b for c in self.costs])

    @property
    def aggregate_a(self) -> np.ndarray:
        return self._curvatures.mean(axis=0)

    @property
    def aggregate_b(self) -> np.ndarray:
        return self.linear_terms.mean(axis=0)

    def aggregate_value(self, x: np.ndarray) -> float:
        return sum(c.value(x) for c in self.costs) / self.m

    def aggregate_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.aggregate_a @ np.asarray(x, dtype=float) + self.aggregate_b

    def smoothness_constant(self) -> float:
        """L = max over agents of the exact spectral norm of A_k (computed once)."""
        if self._smoothness is None:
            self._smoothness = max(
                float(np.max(np.abs(sym_eigen(a).eigenvalues))) for a in self._curvatures
            )
        return self._smoothness

    def aggregate_mu(self) -> float:
        """Smallest eigenvalue of the aggregate curvature (1/m) sum A_k (computed once)."""
        if self._mu is None:
            self._mu = float(sym_eigen(self.aggregate_a).eigenvalues[0])
        return self._mu

    def aggregate_minimizer(self) -> np.ndarray:
        """Minimizer of the aggregate cost; requires aggregate_mu > 0 and an
        aggregate curvature that passes the Cholesky pivot floor."""
        if self.aggregate_mu() <= 0.0:
            raise NotStronglyConvexError(
                "aggregate cost is not strongly convex; no unique minimizer"
            )
        try:
            return solve_spd(self.aggregate_a, -self.aggregate_b)
        except NotPositiveDefiniteError as exc:
            raise NotStronglyConvexError(
                f"aggregate cost is too weakly convex for a unique minimizer: {exc}"
            ) from exc

    def grad_bound_D(self) -> float:
        """Gradient-heterogeneity constant: max_k ||grad f_k(x*)||."""
        x_star = self.aggregate_minimizer()
        return max(float(np.linalg.norm(c.gradient(x_star))) for c in self.costs)


# A random ensemble draws every curvature entry up front: 10^7 entries are
# 80 MB, and its lifted Hessians are larger still.
MAX_RANDOM_ENTRIES = 10**7


def random_ensemble(m: int, n: int, epsilon: float, seed: int) -> QuadraticEnsemble:
    """Seeded random ensemble: A_k = epsilon*I + (R_k + R_k^T), b_k uniform.

    R_k and b_k entries are drawn uniformly from [-1, 1] with numpy's PCG64
    generator, agent by agent (R_k first, then b_k), so a fixed seed gives a
    bit-identical ensemble on any platform.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    if m * n * n > MAX_RANDOM_ENTRIES:
        raise ValueError(
            f"m * n * n = {m * n * n} curvature entries exceed the limit of {MAX_RANDOM_ENTRIES}"
        )
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    rng = np.random.default_rng(seed)
    costs = []
    for _ in range(m):
        r = rng.uniform(-1.0, 1.0, size=(n, n))
        b = rng.uniform(-1.0, 1.0, size=n)
        costs.append(QuadraticCost(a=epsilon * np.eye(n) + r + r.T, b=b))
    return QuadraticEnsemble(costs)


EPSILON_EXAMPLE_AGENTS = 3  # the agent count of every epsilon_example ensemble


def epsilon_family(big_l: float, mu: float, epsilons) -> np.ndarray:
    """Curvatures of the planted family, one (3, 2, 2) row per epsilon.

    Agents 1 and 2 share diag(L, mu); agent 3 has diag(-epsilon, mu). The
    aggregate stays strongly convex as long as epsilon < 2L, while agent 3
    is non-convex for any epsilon > 0.
    """
    if not (big_l > mu > 0):
        raise ValueError("requires L > mu > 0")
    epsilons = np.asarray(epsilons, dtype=float)
    if (epsilons < 0).any():
        raise ValueError("epsilon must be nonnegative")
    out = np.zeros((epsilons.size, EPSILON_EXAMPLE_AGENTS, 2, 2))
    out[:, :2, 0, 0] = big_l
    out[:, 2, 0, 0] = -epsilons
    out[:, :, 1, 1] = mu
    return out


def epsilon_example(big_l: float, mu: float, epsilon: float) -> QuadraticEnsemble:
    """Three-agent, two-dimensional family with one tunably concave agent:
    the row of `epsilon_family` for `epsilon`, with zero linear terms."""
    (curvatures,) = epsilon_family(big_l, mu, [epsilon])
    return QuadraticEnsemble([QuadraticCost(a=a, b=np.zeros(2)) for a in curvatures])


def ensemble_from_spec(spec: dict) -> QuadraticEnsemble:
    """Build an ensemble from its structured-text (JSON) form.

    Accepts {"type": "random", "m", "n", "epsilon", "seed"},
    {"type": "epsilon_example", "L", "mu", "epsilon"}, or
    {"type": "explicit", "costs": [{"A": [[...]], "b": [...]}, ...]}.
    """
    kind = spec.get("type")
    if kind == "random":
        return random_ensemble(
            int(spec["m"]), int(spec["n"]), float(spec["epsilon"]), int(spec["seed"])
        )
    if kind == "epsilon_example":
        return epsilon_example(float(spec["L"]), float(spec["mu"]), float(spec["epsilon"]))
    if kind == "explicit":
        costs = [
            QuadraticCost(a=np.asarray(c["A"], dtype=float), b=np.asarray(c["b"], dtype=float))
            for c in spec["costs"]
        ]
        return QuadraticEnsemble(costs)
    raise ValueError(f"unknown ensemble spec type {kind!r}")
