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
each minimizer y(alpha) = -t H(t)^(-1) b costs one product, no solve. In
that basis y(alpha) = sum_i z_i g_i(t) with each coordinate g_i monotone in
t, which also bounds how far y moves between two stepsizes in closed form:
sum_i ||z_i|| |g_i(t') - g_i(t)|, a bound that telescopes along a monotone
schedule.

ThresholdStack runs that machinery on a stack of instances sharing one
mixing matrix, each step one batched eigensolve for all of them; a
LiftedObjective is its one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .costs import QuadraticEnsemble
from .errors import NotInClassError, NotStronglyConvexError
# solve_spd is unused here, but perfbench/test_spans.py looks it up in this module
from .numerics import min_eigenvalue, solve_spd, sym_eigen  # noqa: F401
from .topology import MixingMatrix

SC_TOLERANCE = 1e-10
DEFAULT_SCAN_CAP = 1e3
_SEED_LADDER = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
_EDGE_GAP = 1e-11
# The widest bracket, relative to the edge, that may confirm alpha_A: wider
# ones report an edge certify cannot place.
_BRACKET_CAP = 1e-6


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


def _block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """blockdiag(A_1, ..., A_m) as a dense (nm, nm) array from (m, n, n) blocks,
    or one such array per set for a (..., m, n, n) stack of block sets."""
    *lead, m, n, _ = blocks.shape
    out = np.zeros((*lead, m * n, m * n))
    # a writable view of the m diagonal (n, n) blocks
    np.einsum("...kakb->...kab", out.reshape(*lead, m, n, m, n))[...] = blocks
    return out


def _pencil(curvature: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """basis^T B basis, made exactly symmetric; stacks broadcast."""
    pencil = basis.swapaxes(-1, -2) @ (curvature @ basis)
    # (P^T + P) / 2 from a contiguous copy of P^T: adding P^T into P in place
    # makes numpy buffer copies of the overlapping operand
    out = pencil.swapaxes(-1, -2).copy()
    out += pencil
    out *= 0.5
    return out


class ThresholdStack:
    """The threshold machinery for E instances that share one mixing matrix.

    Row e is the lifted objective of the e-th curvature set: its Hessian is
    H_e(t) = C + t B_e with t = alpha/m, B_e = blockdiag of the set and
    C = (I - W) kron I_n shared by every row. Each stage (the seed-ladder
    anchor, the pencil interval, the bracket that confirms alpha_A) runs on
    all rows at once through batched eigensolves: one per ladder probe, one
    for the pencil, one per bracket end and round. Every row's numbers are
    bit for bit those of the same instance alone: a LiftedObjective is the
    one-row case.
    """

    def __init__(self, curvatures: np.ndarray, mixing: MixingMatrix):
        """`curvatures` is an (E, m, n, n) stack: row e holds A_1, ..., A_m of instance e."""
        _, m, n, _ = curvatures.shape
        if m != mixing.m:
            raise ValueError(f"curvature sets have {m} agents but mixing matrix has {mixing.m}")
        self.m = m
        self.curvature = _block_diagonal(curvatures)  # (E, nm, nm)
        # (I - W) kron I_n, bit for bit, without np.kron's overhead
        self.consensus = np.empty((m * n, m * n))
        np.multiply(
            (np.eye(m) - mixing.w)[:, None, :, None], np.eye(n)[:, None],
            out=self.consensus.reshape(m, n, m, n),
        )

    @cached_property
    def anchors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(rows, t0, eigenvalues, eigenvectors) of K(t0) = C - tau I + t0 B for
        each row, ascending, that has a seed-ladder t0 = probe/m where K(t0) is
        positive definite; t0 is the first such probe. All rows try a probe
        together; a row that fails it retries at the next probe, alone.
        """
        pending = np.arange(len(self.curvature))
        pieces = []
        for probe in _SEED_LADDER:
            t0 = probe / self.m
            # K(t0) is built in place and freed once factored: these (nm, nm)
            # arrays set the peak memory of a threshold
            anchor = self.curvature[pending]
            anchor *= t0
            anchor += self.consensus
            size = anchor.shape[-1]
            anchor.reshape(pending.size, size * size)[:, :: size + 1] -= SC_TOLERANCE  # diagonals
            spectrum = sym_eigen(anchor, vectors=True)
            del anchor
            values, vectors = spectrum.eigenvalues, spectrum.eigenvectors
            ok = values[:, 0] > 0
            if ok.all():
                pieces.append((pending, np.full(pending.size, t0), values, vectors))
                break
            pieces.append((pending[ok], np.full(ok.sum(), t0), values[ok], vectors[ok]))
            pending = pending[~ok]
        if len(pieces) == 1:
            return pieces[0]
        rows, t0, values, vectors = (np.concatenate(part) for part in zip(*pieces))
        order = np.argsort(rows)
        return rows[order], t0[order], values[order], vectors[order]

    @cached_property
    def intervals(self) -> np.ndarray:
        """(2, R): alpha_lo and alpha_hi, the ends of each anchored row's open
        interval, in the order of `anchors`; certify(alpha) holds exactly
        inside, up to rounding.

        certify(m t) holds iff K(t) is positive definite. S = Q diag(lam)^(-1/2)
        from K(t0) = Q diag(lam) Q^T turns K(t) into I + (t - t0) S^T B S, so iff
        1 + (t - t0) nu > 0 for every eigenvalue nu of S^T B S.
        """
        rows, t0, values, vectors = self.anchors
        out = np.empty((2, rows.size))
        if not rows.size:
            return out
        nu = sym_eigen(_pencil(self._rows(rows), vectors / np.sqrt(values)[:, None, :])).eigenvalues
        nu_min, nu_max = nu[:, 0], nu[:, -1]
        lo, hi = out
        with np.errstate(divide="ignore"):  # 1/nu where nu = 0 is never kept
            np.maximum(0.0, self.m * (t0 - 1.0 / nu_max), out=lo)
            np.multiply(self.m, t0 - 1.0 / nu_min, out=hi)
        lo[nu_max <= 0] = 0.0
        hi[nu_min >= 0] = math.inf
        return out

    def thresholds(self, scan_cap: float = DEFAULT_SCAN_CAP) -> list[ThresholdResult | None]:
        """Per row, alpha_A: the right end of its interval confirmed by certify on
        both sides, or None where no seed-ladder stepsize certifies. An edge at
        or past `scan_cap` gives the +inf sentinel with capped=True. Raises
        NotInClassError when certify confirms no bracket of a row's edge.

        A row's bracket starts a relative 1e-11 on each side of its edge, above
        the eigensolvers' rounding, and widens tenfold, for that row alone,
        until certify agrees on both ends; a bracket that would grow wider than
        a relative 1e-6 raises NotInClassError. Each round certifies the lower ends
        of every open bracket in one batched eigensolve, and the upper ends in
        another.
        """
        results: list[ThresholdResult | None] = [None] * len(self.curvature)
        rows, edges = self.anchors[0], self.intervals[1]
        capped = edges >= scan_cap
        if capped.any():
            for row in rows[capped].tolist():
                results[row] = ThresholdResult(alpha=math.inf, method="pencil", capped=True)
            rows, edges = rows[~capped], edges[~capped]
        gaps = _EDGE_GAP * edges  # below the edges, which are positive
        while rows.size:
            lo, hi = edges - gaps, edges + gaps
            done = self._certified(rows, lo) & ~self._certified(rows, hi)
            for row, a, b in zip(rows[done].tolist(), lo[done].tolist(), hi[done].tolist()):
                results[row] = ThresholdResult(
                    alpha=a, method="pencil", resolution=b - a, bracket=(a, b)
                )
            if done.all():
                break
            rows, edges, gaps = rows[~done], edges[~done], gaps[~done] * 10.0
            wide = 2.0 * gaps > _BRACKET_CAP * edges
            if wide.any():
                # certify's verdicts near the edge are rounding: at this scale the
                # eigensolver cannot resolve the 1e-10 certificate tolerance
                raise NotInClassError(
                    f"certify does not confirm the pencil edge {float(edges[wide.argmax()])!r} "
                    f"to a relative {_BRACKET_CAP:g}"
                )
        return results

    def _rows(self, rows: np.ndarray) -> np.ndarray:
        """The curvatures of ascending `rows`: B itself, not a copy, when that is every row."""
        return self.curvature if rows.size == len(self.curvature) else self.curvature[rows]

    def _certified(self, rows: np.ndarray, alphas: np.ndarray) -> np.ndarray:
        """certify(alphas[j]).is_strongly_convex for row rows[j], in one eigensolve."""
        hessians = (alphas / self.m)[:, None, None] * self._rows(rows)
        hessians += self.consensus
        return sym_eigen(hessians).eigenvalues[:, 0] > SC_TOLERANCE


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
    def _stack(self) -> ThresholdStack:
        """This objective as the one row of a threshold stack."""
        return ThresholdStack(self.ensemble.curvatures[None], self.mixing)

    @property
    def consensus_matrix(self) -> np.ndarray:
        """(I - W) kron I_n, the stepsize-independent Hessian part."""
        return self._stack.consensus

    @property
    def block_curvature(self) -> np.ndarray:
        """blockdiag(A_1, ..., A_m) as a dense (nm, nm) array."""
        return self._stack.curvature[0]

    @cached_property
    def stacked_linear(self) -> np.ndarray:
        """(b_1, ..., b_m) stacked to length nm."""
        return self.ensemble.linear_terms.reshape(-1)

    def _split(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"state has shape {x.shape}, expected ({self.dim},)")
        return x.reshape(self.ensemble.m, self.ensemble.n)

    def separable_gradient(self, x: np.ndarray) -> np.ndarray:
        """grad F(x) = (1/m) (grad f_1(x_1), ..., grad f_m(x_m)) stacked."""
        blocks = self._split(x)
        grads = np.stack([c.gradient(blocks[k]) for k, c in enumerate(self.ensemble.costs)])
        return grads.reshape(-1) / self.ensemble.m

    def value(self, x: np.ndarray, alpha: float) -> float:
        """G_alpha(x) = alpha F(x) + x^T ((I - W) kron I_n) x / 2, F(x) = (1/m) sum_k f_k(x_k)."""
        blocks = self._split(x)
        costs = self.ensemble.costs
        separable = sum(c.value(blocks[k]) for k, c in enumerate(costs)) / self.ensemble.m
        x = blocks.reshape(-1)
        return alpha * separable + 0.5 * float(x @ self.consensus_matrix @ x)

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

    @property
    def certified_interval(self) -> tuple[float, float]:
        """(alpha_lo, alpha_hi), open: certify(alpha) holds exactly inside, up to
        rounding; (0.0, 0.0), empty, when no seed-ladder stepsize certifies. See
        ThresholdStack.intervals."""
        lo, hi = self._stack.intervals
        if not lo.size:
            return (0.0, 0.0)
        return float(lo[0]), float(hi[0])

    def strong_convexity_threshold(self, scan_cap: float = DEFAULT_SCAN_CAP) -> ThresholdResult:
        """alpha_A, the right end of certified_interval, confirmed by certify on
        both sides. An edge at or past `scan_cap` gives the +inf sentinel with
        capped=True. Raises NotInClassError when no seed-ladder stepsize certifies,
        or when certify confirms no bracket of the edge up to a relative 1e-6.
        """
        result = self._stack.thresholds(scan_cap)[0]
        if result is None:
            raise NotInClassError(
                f"no strongly convex stepsize found down to {_SEED_LADDER[-1]:g}"
            )
        return result

    @cached_property
    def _basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(Z, d, nu, Z^T b) with Z^T (C + t0 B) Z = I, Z^T B Z = diag(nu), from
        the stack's anchor. d = diag(Z^T C Z) directly, not 1 - t0 nu, which
        cancels on the consensus null space of C, where nu = 1/t0."""
        _, _, values, vectors = self._stack.anchors
        z = vectors[0] / np.sqrt(values[0] + SC_TOLERANCE)
        spectrum = sym_eigen(_pencil(self.block_curvature, z), vectors=True)
        z = z @ spectrum.eigenvectors
        d = np.einsum("ij,ij->j", z, self.consensus_matrix @ z)
        return z, d, spectrum.eigenvalues, z.T @ self.stacked_linear

    def _coordinates(self, alphas) -> tuple[np.ndarray, np.ndarray]:
        """(Z, G): the basis and, one row per stepsize, the coordinates
        g_i(t) = -t (Z^T b)_i / (d_i + t nu_i) with t = alpha/m, so that
        y(alpha) = Z g(alpha/m), as H(t)^(-1) = Z diag(1 / (d + t nu)) Z^T.
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
            return np.empty((self.dim, 0)), np.empty((0, 0))
        z, d, nu, zb = self._basis
        t = alphas[:, None] / self.ensemble.m
        return z, -t * zb / (d + t * nu)

    def _minimizers(self, alphas) -> np.ndarray:
        """Minimizers y(alpha) of G_alpha, one (nm,) row per stepsize; see
        `_coordinates`."""
        z, g = self._coordinates(alphas)
        # a stack of (1, nm) products: each row rounds as in a lone run's batch of one
        return (g[:, None, :] @ z.T)[:, 0]

    def minimizer(self, alpha: float) -> np.ndarray:
        """Unique minimizer of G_alpha at one stepsize; see `_minimizers`."""
        return self._minimizers([alpha])[0]

    def _shift_bounds(self, alphas) -> np.ndarray:
        """sum_i ||z_i|| |g_i(t_(k+1)) - g_i(t_k)|, a bound on ||y(alpha_(k+1)) -
        y(alpha_k)||, for each pair of consecutive stepsizes; see `_coordinates`.

        Each g_i is monotone on the certified interval (its derivative
        -(Z^T b)_i d_i / (d_i + t nu_i)^2 keeps one sign), so along a monotone
        run of stepsizes the bounds telescope: they sum to the same bound
        between the first stepsize and the last.
        """
        z, g = self._coordinates(alphas)
        return abs(np.diff(g, axis=0)) @ np.linalg.norm(z, axis=0)
