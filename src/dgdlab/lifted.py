"""The lifted objective on R^(n*m) and its strong-convexity machinery.

Stacking the agent states x = (x_1, ..., x_m) turns one synchronous DGD
step with stepsize alpha into one plain gradient-descent step on

    G_alpha(x) = alpha * F(x) + 0.5 * x^T ((I - W) kron I_n) x,

where F(x) = (1/m) sum_k f_k(x_k). For quadratic costs G_alpha is a
quadratic form, so strong convexity is exactly the positivity of the
smallest Hessian eigenvalue beyond a 1e-10 tolerance. The Hessian is
affine in t = alpha/m, H(t) = C + t B, and the certified stepsizes form
an open interval (alpha_lo, alpha_hi); alpha_lo is tiny but positive, as
H(t) tends to the singular consensus matrix C when t goes to 0.

The pencil (B, C + t0 B) at one certified anchor t0 gives both ends in
closed form, alpha_A being the right one, and diagonalises every H(t), so
each minimizer y(alpha) = -t H(t)^(-1) b costs one product, no solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .costs import QuadraticEnsemble
from .errors import NotInClassError, NotStronglyConvexError
# solve_spd is unused here, but perfbench/test_spans.py looks it up in this module
from .numerics import Spectrum, min_eigenvalue, solve_spd, sym_eigen  # noqa: F401
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
    """Right edge of the certified stepsizes (alpha_lo, alpha_A].

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
        if not 0 < alpha < math.inf:
            raise ValueError("alpha must be finite and positive")
        return (alpha / self.ensemble.m) * self.block_curvature + self.consensus_matrix

    def certify(self, alpha: float) -> ConvexityCertificate:
        """Strong-convexity certificate from the smallest Hessian eigenvalue."""
        lam = min_eigenvalue(self.hessian(alpha))
        return ConvexityCertificate(
            alpha=alpha,
            min_hessian_eig=lam,
            is_strongly_convex=lam > SC_TOLERANCE,
            modulus=lam if lam > 0 else 0.0,
            is_boundary=abs(lam) <= SC_TOLERANCE,
        )

    @cached_property
    def _anchor(self) -> tuple[float, Spectrum] | None:
        """(t0, eigendecomposition of K(t0) = C - tau I + t0 B) at the first
        seed-ladder t0 = probe/m where K(t0) is positive definite, else None."""
        for probe in _SEED_LADDER:
            t0 = probe / self.ensemble.m
            # K(t0) is built in place and freed once factored: these (nm, nm)
            # arrays set the peak memory of a threshold
            anchor = self.block_curvature * t0
            anchor += self.consensus_matrix
            anchor[np.diag_indices_from(anchor)] -= SC_TOLERANCE
            spectrum = sym_eigen(anchor, vectors=True)
            del anchor
            if spectrum.eigenvalues[0] > 0:
                return t0, spectrum
        return None

    def _pencil(self, basis: np.ndarray) -> np.ndarray:
        """basis^T B basis, made exactly symmetric."""
        pencil = basis.T @ (self.block_curvature @ basis)
        pencil += pencil.T
        pencil *= 0.5
        return pencil

    @cached_property
    def certified_interval(self) -> tuple[float, float]:
        """(alpha_lo, alpha_hi), open: certify(alpha) holds exactly inside, up to rounding.

        certify(m t) holds iff K(t) is positive definite. S = Q diag(lam)^(-1/2)
        from K(t0) = Q diag(lam) Q^T turns K(t) into I + (t - t0) S^T B S, so iff
        1 + (t - t0) nu > 0 for every eigenvalue nu of S^T B S. (0.0, 0.0), empty,
        when no seed-ladder stepsize certifies.
        """
        if self._anchor is None:
            return (0.0, 0.0)
        t0, spectrum = self._anchor
        scaled = spectrum.eigenvectors / np.sqrt(spectrum.eigenvalues)  # S
        nu = sym_eigen(self._pencil(scaled)).eigenvalues
        nu_min, nu_max, m = float(nu[0]), float(nu[-1]), self.ensemble.m
        return (
            max(0.0, m * (t0 - 1.0 / nu_max)) if nu_max > 0 else 0.0,
            math.inf if nu_min >= 0 else m * (t0 - 1.0 / nu_min),
        )

    def strong_convexity_threshold(self, scan_cap: float = DEFAULT_SCAN_CAP) -> ThresholdResult:
        """alpha_A, the right end of certified_interval, confirmed by certify on
        both sides. An edge at or past `scan_cap` gives the +inf sentinel with
        capped=True. Raises NotInClassError when no seed-ladder stepsize certifies.
        """
        if self._anchor is None:
            raise NotInClassError(
                f"no strongly convex stepsize found down to {_SEED_LADDER[-1]:g}"
            )
        edge = self.certified_interval[1]
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
            if self.certify(lo).is_strongly_convex and not self.certify(hi).is_strongly_convex:
                return ThresholdResult(
                    alpha=lo, method="pencil", resolution=hi - lo, bracket=(lo, hi)
                )
            gap *= 10.0
        raise RuntimeError(f"certify does not confirm the pencil edge {edge!r}")

    @cached_property
    def _basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(Z, d, nu, Z^T b) with Z^T (C + t0 B) Z = I, Z^T B Z = diag(nu), from
        the anchor. d = diag(Z^T C Z) directly, not 1 - t0 nu, which cancels on
        the consensus null space of C, where nu = 1/t0."""
        _, spectrum = self._anchor
        z = spectrum.eigenvectors / np.sqrt(spectrum.eigenvalues + SC_TOLERANCE)
        spectrum = sym_eigen(self._pencil(z), vectors=True)
        z = z @ spectrum.eigenvectors
        d = np.einsum("ij,ij->j", z, self.consensus_matrix @ z)
        return z, d, spectrum.eigenvalues, z.T @ self.stacked_linear

    def _minimizers(self, alphas) -> np.ndarray:
        """Minimizers of G_alpha, one (nm,) row per stepsize: y = -t Z ((Z^T b) /
        (d + t nu)) with t = alpha/m, as H(t)^(-1) = Z diag(1 / (d + t nu)) Z^T.
        Raises NotStronglyConvexError naming the first alpha outside
        certified_interval."""
        alphas = np.asarray(alphas, dtype=float).reshape(-1)
        if not np.all((alphas > 0) & (alphas < math.inf)):
            raise ValueError("alpha must be finite and positive")
        lo, hi = self.certified_interval
        outside = (alphas <= lo) | (alphas >= hi)
        if outside.any():
            raise NotStronglyConvexError(
                f"alpha={alphas[outside.argmax()]:g} is not certified strongly convex "
                f"(certified interval ({lo:g}, {hi:g}))"
            )
        if not alphas.size:  # no basis exists where no stepsize certifies
            return np.empty((0, self.dim))
        z, d, nu, zb = self._basis
        t = alphas[:, None] / self.ensemble.m
        # a stack of (1, nm) products: each row rounds as in a lone run's batch of one
        return ((-t * zb / (d + t * nu))[:, None, :] @ z.T)[:, 0]

    def minimizer(self, alpha: float) -> np.ndarray:
        """Unique minimizer of G_alpha at one stepsize; see `_minimizers`."""
        return self._minimizers([alpha])[0]

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
    points = [
        CurvePoint(alpha=alpha, minimizer=x, norm=float(np.linalg.norm(x)))
        for alpha, x in zip(alphas, objective._minimizers(alphas))
    ]
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
