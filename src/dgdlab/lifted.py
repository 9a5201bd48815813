"""The lifted objective on R^(n*m) and its strong-convexity machinery.

Stacking the agent states x = (x_1, ..., x_m) turns one synchronous DGD
step with stepsize alpha into one plain gradient-descent step on

    G_alpha(x) = alpha * F(x) + 0.5 * x^T ((I - W) kron I_n) x,

where F(x) = (1/m) sum_k f_k(x_k). For quadratic costs G_alpha is a
quadratic form, so strong convexity is exactly the positivity of the
smallest Hessian eigenvalue, and the set of certified stepsizes is an
interval (0, alpha_A]: scaling alpha down mixes in more of the convex
consensus term, never less.

The Hessian is affine in t = alpha/m, H(t) = C + t B, so the right edge
alpha_A of that interval follows in closed form from one symmetric
eigenproblem of the pencil (B, C + t0 B) at a certified anchor t0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .costs import QuadraticEnsemble
from .errors import NotInClassError, NotStronglyConvexError
from .numerics import min_eigenvalue, solve_spd, sym_eigen
from .topology import MixingMatrix

SC_TOLERANCE = 1e-10
DEFAULT_SCAN_CAP = 1e3
_SEED_LADDER = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
_EDGE_GAP = 1e-11


@dataclass(frozen=True)
class ConvexityCertificate:
    """Exact (global, for quadratics) strong-convexity verdict at one alpha.

    is_strongly_convex holds iff the smallest Hessian eigenvalue clears the
    +1e-10 tolerance; values within the tolerance band around zero are
    flagged as boundary and treated as not certified.
    """

    alpha: float
    min_hessian_eig: float
    is_strongly_convex: bool
    modulus: float
    is_boundary: bool = False


@dataclass(frozen=True)
class ThresholdResult:
    """Right edge of the certified stepsize interval (0, alpha_A].

    alpha is math.inf when every stepsize up to the scan cap certifies
    (capped=True). Otherwise bracket is the certified/uncertified pair that
    confirms the edge, alpha is its lower end, and resolution its width;
    both are None when capped.
    """

    alpha: float
    method: str
    resolution: float | None = None
    bracket: tuple[float, float] | None = None
    capped: bool = False


class LiftedObjective:
    """G_alpha assembled from an ensemble and a mixing matrix."""

    def __init__(self, ensemble: QuadraticEnsemble, mixing: MixingMatrix):
        if ensemble.m != mixing.m:
            raise ValueError(
                f"ensemble has {ensemble.m} agents but mixing matrix has {mixing.m}"
            )
        self.ensemble = ensemble
        self.mixing = mixing

    @property
    def dim(self) -> int:
        return self.ensemble.m * self.ensemble.n

    @cached_property
    def consensus_matrix(self) -> np.ndarray:
        """(I - W) kron I_n, the stepsize-independent Hessian part."""
        m, n = self.ensemble.m, self.ensemble.n
        return np.kron(np.eye(m) - self.mixing.w, np.eye(n))

    @cached_property
    def block_curvature(self) -> np.ndarray:
        """blockdiag(A_1, ..., A_m) as a dense (nm, nm) array."""
        m, n = self.ensemble.m, self.ensemble.n
        out = np.zeros((m * n, m * n))
        for k, cost in enumerate(self.ensemble.costs):
            out[k * n : (k + 1) * n, k * n : (k + 1) * n] = cost.a
        return out

    @cached_property
    def stacked_linear(self) -> np.ndarray:
        """(b_1, ..., b_m) stacked to length nm."""
        return self.ensemble.linear_terms.reshape(-1)

    def _split(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"state has shape {x.shape}, expected ({self.dim},)")
        return x.reshape(self.ensemble.m, self.ensemble.n)

    def separable_value(self, x: np.ndarray) -> float:
        """F(x) = (1/m) sum_k f_k(x_k)."""
        blocks = self._split(x)
        return sum(c.value(blocks[k]) for k, c in enumerate(self.ensemble.costs)) / self.ensemble.m

    def separable_gradient(self, x: np.ndarray) -> np.ndarray:
        """grad F(x) = (1/m) (grad f_1(x_1), ..., grad f_m(x_m)) stacked."""
        blocks = self._split(x)
        grads = np.stack([c.gradient(blocks[k]) for k, c in enumerate(self.ensemble.costs)])
        return grads.reshape(-1) / self.ensemble.m

    def value(self, x: np.ndarray, alpha: float) -> float:
        x = np.asarray(x, dtype=float)
        return alpha * self.separable_value(x) + 0.5 * float(x @ self.consensus_matrix @ x)

    def gradient(self, x: np.ndarray, alpha: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return alpha * self.separable_gradient(x) + self.consensus_matrix @ x

    def hessian(self, alpha: float) -> np.ndarray:
        """(alpha/m) blockdiag(A_k) + (I - W) kron I_n."""
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        return (alpha / self.ensemble.m) * self.block_curvature + self.consensus_matrix

    def certify(self, alpha: float) -> ConvexityCertificate:
        """Strong-convexity certificate from the smallest Hessian eigenvalue."""
        lam = min_eigenvalue(self.hessian(alpha))
        boundary = abs(lam) <= SC_TOLERANCE
        certified = lam > SC_TOLERANCE
        return ConvexityCertificate(
            alpha=alpha,
            min_hessian_eig=lam,
            is_strongly_convex=certified,
            modulus=lam if lam > 0 else 0.0,
            is_boundary=boundary,
        )

    def _certified(self, alpha: float) -> bool:
        return self.certify(alpha).is_strongly_convex

    def strong_convexity_threshold(self, scan_cap: float = DEFAULT_SCAN_CAP) -> ThresholdResult:
        """Find alpha_A, the largest certified stepsize, from the Hessian pencil.

        With t = alpha/m and tau = SC_TOLERANCE, certify(alpha) holds exactly
        when K(t) = C - tau I + t B is positive definite. At the first anchor
        t0 of the seed ladder where K(t0) = Q diag(lam) Q^T is, S = Q
        diag(lam)^(-1/2) turns K(t) into I + (t - t0) S^T B S, which stays
        positive definite exactly while t < t0 - 1/nu_min, nu_min being the
        smallest eigenvalue of S^T B S. Certify calls on both sides of that
        edge confirm it. If the edge is at or past `scan_cap` the result is the
        +inf sentinel with capped=True. Raises NotInClassError when no
        stepsize certifies at all.
        """
        m = self.ensemble.m
        for probe in _SEED_LADDER:
            if probe > scan_cap:
                continue
            t0 = probe / m
            # K(t0) is built in place, and K, Q and S are freed as soon as they
            # are used: these (nm, nm) arrays set the peak memory of a threshold
            anchor = self.block_curvature * t0
            anchor += self.consensus_matrix
            anchor[np.diag_indices_from(anchor)] -= SC_TOLERANCE
            spectrum = sym_eigen(anchor, vectors=True)
            del anchor
            if spectrum.eigenvalues[0] > 0:
                break
        else:
            raise NotInClassError(
                f"no strongly convex stepsize found down to {_SEED_LADDER[-1]:g}"
            )
        scaled = spectrum.eigenvectors
        scaled /= np.sqrt(spectrum.eigenvalues)
        del spectrum
        pencil = scaled.T @ (self.block_curvature @ scaled)
        del scaled
        pencil += pencil.T
        pencil *= 0.5
        nu_min = min_eigenvalue(pencil)
        del pencil
        edge = math.inf if nu_min >= 0 else m * (t0 - 1.0 / nu_min)
        if edge >= scan_cap:
            return ThresholdResult(alpha=math.inf, method="pencil", capped=True)
        return self._confirm_edge(edge)

    def _confirm_edge(self, edge: float) -> ThresholdResult:
        """Bracket `edge` between a certified and an uncertified stepsize.

        The bracket starts a relative 1e-11 on each side of the edge, above
        the eigensolvers' rounding, and widens tenfold until certify agrees.
        """
        gap = _EDGE_GAP * edge
        while gap < edge:
            lo, hi = edge - gap, edge + gap
            if self._certified(lo) and not self._certified(hi):
                return ThresholdResult(
                    alpha=lo, method="pencil", resolution=hi - lo, bracket=(lo, hi)
                )
            gap *= 10.0
        raise RuntimeError(f"certify does not confirm the pencil edge {edge!r}")

    def minimizer(self, alpha: float) -> np.ndarray:
        """Unique minimizer of G_alpha; requires a strong-convexity certificate."""
        cert = self.certify(alpha)
        if not cert.is_strongly_convex:
            raise NotStronglyConvexError(
                f"G is not strongly convex at alpha={alpha:g} "
                f"(min Hessian eigenvalue {cert.min_hessian_eig:g})"
            )
        rhs = -(alpha / self.ensemble.m) * self.stacked_linear
        return solve_spd(self.hessian(alpha), rhs)

    def segment_gradient_bound(
        self, x_a: np.ndarray, x_b: np.ndarray, samples: int = 17
    ) -> float:
        """Max of ||grad F|| over evenly sampled points of the segment [x_a, x_b]."""
        a, b = self._split(x_a), self._split(x_b)
        steps = np.linspace(0.0, 1.0, samples)
        points = a + steps[:, None, None] * (b - a)
        grads = np.einsum("kij,skj->ski", self.ensemble.curvatures, points)
        grads += self.ensemble.linear_terms
        grads /= self.ensemble.m
        norms = np.linalg.norm(grads.reshape(samples, -1), axis=1)
        return float(np.max(norms, initial=0.0))


@dataclass(frozen=True, eq=False)
class CurvePoint:
    alpha: float
    minimizer: np.ndarray
    norm: float


@dataclass(frozen=True)
class CurveSegment:
    """Adjacent pair on the minimizer curve with its empirical Lipschitz data."""

    alpha_lo: float
    alpha_hi: float
    distance: float
    lipschitz_ratio: float
    gradient_bound: float  # max ||grad F|| sampled on the connecting segment


@dataclass(frozen=True, eq=False)
class MinimizerCurve:
    points: list[CurvePoint]
    segments: list[CurveSegment]


def minimizer_curve(
    objective: LiftedObjective, alphas: list[float], samples: int = 17
) -> MinimizerCurve:
    """Minimizers of G_alpha along an alpha grid plus adjacent-pair Lipschitz ratios.

    Every alpha must be certified; the offending value is named otherwise.
    """
    alphas = sorted(float(a) for a in alphas)
    points = []
    for alpha in alphas:
        cert = objective.certify(alpha)
        if not cert.is_strongly_convex:
            raise NotStronglyConvexError(f"alpha={alpha:g} is not certified strongly convex")
        x = objective.minimizer(alpha)
        points.append(CurvePoint(alpha=alpha, minimizer=x, norm=float(np.linalg.norm(x))))
    segments = []
    for lo, hi in zip(points, points[1:]):
        gap = hi.alpha - lo.alpha
        dist = float(np.linalg.norm(hi.minimizer - lo.minimizer))
        segments.append(
            CurveSegment(
                alpha_lo=lo.alpha,
                alpha_hi=hi.alpha,
                distance=dist,
                lipschitz_ratio=dist / gap if gap > 0 else 0.0,
                gradient_bound=objective.segment_gradient_bound(
                    lo.minimizer, hi.minimizer, samples=samples
                ),
            )
        )
    return MinimizerCurve(points=points, segments=segments)
