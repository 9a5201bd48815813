"""The lifted objective on R^(n*m) and its strong-convexity machinery.

Stacking the agent states x = (x_1, ..., x_m) turns one synchronous DGD
step with stepsize alpha into one plain gradient-descent step on

    G_alpha(x) = alpha * F(x) + 0.5 * x^T ((I - W) kron I_n) x,

where F(x) = (1/m) sum_k f_k(x_k). For quadratic costs G_alpha is strongly
convex exactly when its Hessian H(t) = C + t B is positive definite, with
t = alpha/m, C = (I - W) kron I_n and B = blockdiag(A_k). In W's eigenbasis
(W = Q diag(w) Q^T, q_1 = 1/sqrt(m), w_1 = 1), C is diag(0, D) with
D = diag(1 - w_j) kron I_n over j >= 2, and B has the blocks
B~_ij = sum_k Q_ki Q_kj A_k, of which B~_11 = (1/m) sum_k A_k is the
aggregate curvature. By the Schur complement of t B~_11, H(t) is positive
definite iff B~_11 is (the instance is in class) and D + t S is, with
S = B~_22 - B~_21 B~_11^(-1) B~_12. So the certified stepsizes are the open
interval (0, alpha_A), alpha_A = m / lambda_max(-D^(-1/2) S D^(-1/2)), inf
where that eigenvalue is not positive and empty out of class. `certify`,
`certified_interval` and the thresholds all read this one edge; a threshold
also confirms a finite edge by the sign of H's smallest eigenvalue just
below and just above it.

The pencil (B, C + t0 B) at t0 = half the edge diagonalises every H(t), so
each minimizer y(alpha) = -t H(t)^(-1) b costs one product, no solve. In
that basis y(alpha) = sum_i z_i g_i(t) with each coordinate g_i monotone in
t, which also bounds how far y moves between two stepsizes in closed form:
sum_i ||z_i|| |g_i(t') - g_i(t)|, a bound that telescopes along a monotone
schedule.

ThresholdStack computes the edges of a stack of instances sharing one
mixing matrix, each step one batched product or eigensolve for all of them;
a LiftedObjective is its one-row case. Its `_hessians` is the one builder
of H(t): certification, the minimizer basis and `spectral_radii`, the
simulator's oracle, whose iteration matrix is I - H(alpha/m), read it.
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

# A threshold confirms a finite edge by H's smallest eigenvalue: positive this
# far below the edge (relative to it) and not positive this far above it.
_CONFIRM_GAP = 1e-9


@dataclass(frozen=True)
class ConvexityCertificate:
    """Exact (global, for quadratics) strong-convexity verdict at one alpha.

    is_strongly_convex holds iff the instance is in class and alpha < alpha_A
    (see the module docstring). min_hessian_eig is the smallest Hessian
    eigenvalue as rounded, modulus its positive part; neither decides it.
    """

    alpha: float
    min_hessian_eig: float
    is_strongly_convex: bool
    modulus: float


def _diagonal_blocks(matrices: np.ndarray, m: int, n: int) -> np.ndarray:
    """A writable (..., m, n, n) view of the m diagonal (n, n) blocks of a
    contiguous (..., nm, nm) stack."""
    return np.einsum("...kakb->...kab", matrices.reshape(*matrices.shape[:-2], m, n, m, n))


def _symmetric_part(a: np.ndarray) -> np.ndarray:
    """(A^T + A) / 2, exactly symmetric; stacks broadcast."""
    # from a contiguous copy of A^T: adding A^T into A in place makes numpy
    # buffer copies of the overlapping operand
    out = a.swapaxes(-1, -2).copy()
    out += a
    out *= 0.5
    return out


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    """`a`, or NotInClassError naming `what` where it overflowed: no edge to place."""
    if not np.isfinite(a).all():
        raise NotInClassError(f"{what} is not finite at the curvatures' scale")
    return a


class ThresholdStack:
    """The certification of E instances that share one mixing matrix.

    Row e is the lifted objective of the e-th curvature set: its Hessian is
    H_e(t) = C + t B_e with t = alpha/m, B_e = blockdiag of the set and
    C = (I - W) kron I_n shared by every row. `_edges` gives every row's
    alpha_A from one product into W's eigenbasis (`MixingMatrix.eigenbasis`,
    which validation took) and two batched eigensolves; `brackets` confirms
    the finite edges with two more, one per bracket end. Every row's
    numbers are bit for bit those of the same instance alone: a
    LiftedObjective is the one-row case.

    The stack holds the (E, m, n, n) curvature sets and the one (nm, nm) C,
    never a dense B_e: `_hessians` writes each H's diagonal blocks into a
    copy of C when it is asked for, so a row costs its (nm, nm) Hessian
    only while an eigensolve reads it.
    """

    def __init__(self, curvatures: np.ndarray, mixing: MixingMatrix):
        """`curvatures` is an (E, m, n, n) stack: row e holds A_1, ..., A_m of instance e."""
        _, m, n, _ = curvatures.shape
        if m != mixing.m:
            raise ValueError(f"curvature sets have {m} agents but mixing matrix has {mixing.m}")
        self.m = m
        self._sets, self._mixing = curvatures, mixing
        # (I - W) kron I_n without np.kron's overhead: (I - W)_kl on the
        # diagonal of block (k, l), and +0.0 everywhere else, never the -0.0
        # of -w_kl * 0.0, so that H's off-diagonal blocks can be copies of C's
        self.consensus = np.zeros((m * n, m * n))
        np.einsum("kala->kla", self.consensus.reshape(m, n, m, n))[...] = (
            np.eye(m) - mixing.w
        )[:, :, None]
        self._consensus_blocks = _diagonal_blocks(self.consensus, m, n).copy()  # the C_kk

    @cached_property
    def _edges(self) -> np.ndarray:
        """(E,): each row's alpha_A (see the module docstring), inf where every
        stepsize certifies and 0.0 out of class. K below is B~_11^(-1/2) B~_12
        D^(-1/2) up to an orthogonal factor, so -D^(-1/2) S D^(-1/2) = K^T K -
        D^(-1/2) B~_22 D^(-1/2). Raises NotInClassError where a step overflows.
        """
        m, n = self.m, self._sets.shape[-1]
        edges = np.zeros(len(self._sets))
        # an overflow is caught where it would reach an eigensolve
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mean = self._sets.sum(axis=1) / m  # B~_11, bit for bit each ensemble's mean
            values, vectors = sym_eigen(_finite(mean, "the aggregate curvature"), vectors=True)
            del mean
            rows = np.flatnonzero(values[:, 0] > 0)
            if not rows.size:
                return edges
            sets = self._sets
            if rows.size < len(sets):
                sets, values, vectors = sets[rows], values[rows], vectors[rows]
            # B~_12 D^(-1/2) and D^(-1/2) B~_22 D^(-1/2): the products Q_ki Q_kj of
            # the scaled basis for j >= 2 (outer products by matmul, which buffers
            # less than broadcasting) as one (m (m - 1), m) matrix times each row's A_k
            q = self._mixing.eigenbasis
            size, rest = rows.size, (m - 1) * n
            pairs = (q[:, :, None] @ q[:, None, 1:]).reshape(m, -1).T
            blocks = (pairs @ sets.reshape(size, m, n * n)).reshape(size, m, m - 1, n, n)
            k = blocks[:, 0].transpose(0, 2, 1, 3).reshape(size, n, rest)
            b22 = blocks[:, 1:].transpose(0, 1, 3, 2, 4).reshape(size, rest, rest)
            # each array is released once read, so the Schur eigensolve holds little else
            del pairs, blocks, sets
            k = (vectors / np.sqrt(values)[:, None, :]).swapaxes(-1, -2) @ k
            del values, vectors
            top = k.swapaxes(-1, -2) @ k
            del k
            top -= b22
            del b22
            top = _finite(_symmetric_part(top), "the Schur complement")
            top = sym_eigen(top).max(axis=-1, initial=0.0)
            edges[rows] = np.where(top > 0, m / top, math.inf)
        return edges

    def brackets(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi), per row the stepsizes a relative 1e-9 below and above
        alpha_A from `_edges`: both NaN for a row out of class and inf where
        every stepsize certifies. H's smallest eigenvalue confirms every
        finite edge, positive at lo and not at hi, in one batched eigensolve
        per end; NotInClassError names the first edge it does not confirm.
        """
        edges = self._edges  # 0.0 out of class, else positive
        lo, hi = edges * (1.0 - _CONFIRM_GAP), edges * (1.0 + _CONFIRM_GAP)
        lo[edges == 0] = hi[edges == 0] = math.nan
        rows = np.flatnonzero(np.isfinite(lo))  # in class with a finite edge
        if rows.size:
            confirmed = self._certified(rows, lo) & ~self._certified(rows, hi)
            if not confirmed.all():
                raise NotInClassError(
                    f"lambda_min(H) does not confirm the Schur edge "
                    f"{float(edges[rows[confirmed.argmin()]])!r} to a relative {_CONFIRM_GAP:g}"
                )
        return lo, hi

    def _hessians(self, alphas, rows: np.ndarray | None = None) -> np.ndarray:
        """H(t) = C + t B_e at t = alphas[j]/m, one (nm, nm) matrix per
        stepsize: of row e = rows[j], or without `rows` of the stack's rows
        broadcast against the stepsizes (its only row for every stepsize).

        H is a copy of C whose diagonal (n, n) blocks are t A_k + C_kk: each
        entry is t B_e + C's bit for bit (a zero of C is +0.0, as t 0.0 + C's
        is), and no dense B_e is built. Every step is an assignment or a sum
        or product of equal shapes, as numpy buffers a broadcast or strided
        operand of a sum or product whole. One buffer holds the A_k, then
        the C_kk, and is freed before H is allocated. Raises NotInClassError
        where a diagonal block leaves the float range, before H is built.
        """
        t = np.asarray(alphas, dtype=float) / self.m
        _, m, n, _ = self._sets.shape
        shape = (len(self._sets) if rows is None and t.size == 1 else t.size, m, n, n)
        blocks, operand = np.empty(shape), np.empty(shape)
        blocks[...] = t[:, None, None, None]
        if rows is None:
            operand[...] = self._sets
        else:  # mode "raise" would buffer `out` whole; every row index is valid
            np.take(self._sets, rows, axis=0, out=operand, mode="clip")
        with np.errstate(over="ignore", invalid="ignore"):
            blocks *= operand
            operand[...] = self._consensus_blocks
            blocks += operand
        del operand
        _finite(blocks, "a Hessian block t A_k + C_kk")
        hessians = np.empty((shape[0], m * n, m * n))
        hessians[...] = self.consensus
        _diagonal_blocks(hessians, m, n)[...] = blocks
        return hessians

    def spectral_radii(self, alphas) -> np.ndarray:
        """rho(I - H(alpha/m)) = max(|1 - lambda_min(H)|, |1 - lambda_max(H)|)
        at each stepsize, of the stack's rows broadcast against the stepsizes
        (see `_hessians`), from one stacked eigensolve: the exact oracle of
        constant-stepsize DGD, whose iteration matrix is I - H(alpha/m)."""
        eigs = sym_eigen(self._hessians(alphas))
        return np.maximum(abs(1.0 - eigs[:, 0]), abs(1.0 - eigs[:, -1]))

    def _certified(self, rows: np.ndarray, alphas: np.ndarray) -> np.ndarray:
        """Whether H(alphas[e]/m) of each row e in `rows` has a positive
        smallest eigenvalue, in one eigensolve; `alphas` has one stepsize per
        row of the stack, and is copied only where `rows` leaves some out."""
        part = rows if rows.size < len(self._sets) else None
        return sym_eigen(self._hessians(alphas if part is None else alphas[part], part))[:, 0] > 0


class LiftedObjective:
    """G_alpha assembled from an ensemble and a mixing matrix. Its gradient
    at x is hessian(alpha) @ x + (alpha/m) stacked_linear."""

    def __init__(self, ensemble: QuadraticEnsemble, mixing: MixingMatrix):
        if ensemble.m != mixing.m:
            raise ValueError(
                f"ensemble has {ensemble.m} agents but mixing matrix has {mixing.m}"
            )
        self.ensemble = ensemble
        self.mixing = mixing

    @cached_property
    def _stack(self) -> ThresholdStack:
        """This objective as the one row of a threshold stack."""
        return ThresholdStack(self.ensemble.curvatures[None], self.mixing)

    @property
    def block_curvature(self) -> np.ndarray:
        """blockdiag(A_1, ..., A_m) as a dense (nm, nm) array, built on each read."""
        m, n = self.ensemble.m, self.ensemble.n
        out = np.zeros((m * n, m * n))
        _diagonal_blocks(out, m, n)[...] = self.ensemble.curvatures
        return out

    @cached_property
    def stacked_linear(self) -> np.ndarray:
        """(b_1, ..., b_m) stacked to length nm."""
        return self.ensemble.linear_terms.reshape(-1)

    def hessian(self, alpha: float) -> np.ndarray:
        """(alpha/m) blockdiag(A_k) + (I - W) kron I_n."""
        if not 0 < alpha < math.inf:
            raise ValueError("alpha must be finite and positive")
        return self._stack._hessians([alpha])[0]

    def certify(self, alpha: float) -> ConvexityCertificate:
        """Strong-convexity certificate: in class and below alpha_A, with the
        smallest Hessian eigenvalue as measured."""
        lam = min_eigenvalue(self.hessian(alpha))
        return ConvexityCertificate(
            alpha=alpha,
            min_hessian_eig=lam,
            is_strongly_convex=bool(alpha < self._stack._edges[0]),
            modulus=lam if lam > 0 else 0.0,
        )

    @property
    def certified_interval(self) -> tuple[float, float]:
        """(0, alpha_A), open: certify(alpha) holds exactly inside; (0.0, 0.0),
        empty, for an instance out of class. See ThresholdStack._edges."""
        return 0.0, float(self._stack._edges[0])

    def strong_convexity_threshold(self) -> tuple[float, float]:
        """(lo, hi), the confirmed bracket of alpha_A, the right end of
        certified_interval: the sign of the smallest Hessian eigenvalue is
        positive at lo, which is alpha_A as reported, and not at hi (see
        ThresholdStack.brackets); (inf, inf) where every stepsize certifies.
        Raises NotInClassError for an instance out of class, or when the
        sign does not confirm the edge.
        """
        lo, hi = self._stack.brackets()
        lo, hi = lo.item(), hi.item()
        if math.isnan(lo):
            raise NotInClassError(
                "the aggregate curvature (1/m) sum A_k is not positive definite: "
                "no stepsize certifies"
            )
        return lo, hi

    @cached_property
    def _basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(Z, d, nu, Z^T b) with Z^T (C + t0 B) Z = I, Z^T B Z = diag(nu), at
        t0 = alpha_A / (2m), where C + t0 B is positive definite (t0 = 1/m
        where alpha_A = inf). d = diag(Z^T C Z) directly, not 1 - t0 nu, which
        cancels on the consensus null space of C, where nu = 1/t0. Raises
        NotInClassError where rounding at the curvatures' scale leaves the
        basis non-finite."""
        edge = self.certified_interval[1]
        anchor = 0.5 * edge if math.isfinite(edge) else 1.0
        values, vectors = sym_eigen(self.hessian(anchor), vectors=True)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            z = vectors / np.sqrt(values)
            pencil = _symmetric_part(z.T @ (self.block_curvature @ z))
        pencil = _finite(pencil, f"the minimizer basis at alpha = {anchor!r}")
        nu, vectors = sym_eigen(pencil, vectors=True)
        z = z @ vectors
        d = np.einsum("ij,ij->j", z, self._stack.consensus @ z)
        return z, d, nu, z.T @ self.stacked_linear

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
            return np.empty((self.ensemble.m * self.ensemble.n, 0)), np.empty((0, 0))
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
