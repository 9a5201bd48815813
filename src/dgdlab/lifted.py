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

The eigenpairs -D^(-1/2) S D^(-1/2) = U diag(mu) U^T of that Schur matrix
give every minimizer y(alpha) = -t H(t)^(-1) b in closed form, with no solve:
y(alpha) = 1 kron x* + sum_i z_i g_i(t), x* the aggregate minimizer and
g_i(t) = -r_i / (1/t - mu_i), monotone below its pole 1/mu_i, past the
certified interval. So y moves between two stepsizes by at most
sum_i ||z_i|| |g_i(t') - g_i(t)|, a bound that telescopes along a monotone
schedule.

ThresholdStack computes the edges of a stack of instances sharing one
mixing matrix, each step one batched product or eigensolve for all of them;
a LiftedObjective is the stack of one row, with that row's minimizers. A
stack holds only its inputs, the curvature sets and W. Its `_schur` builds
the Schur matrices, for the edges and the minimizer basis, and its
`_hessians` H(t), C written in, for certification and `spectral_radii`, the
simulator's oracle. Each matrix solved here is built finite and exactly
symmetric, so it goes to LAPACK through `numerics._eigensolve`, without
`sym_eigen`'s check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .costs import QuadraticEnsemble
from .errors import NotInClassError, NotStronglyConvexError
# solve_spd is unused here, but perfbench/test_spans.py looks it up in this module
from .numerics import _eigensolve, min_eigenvalue, solve_spd  # noqa: F401
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
    the finite edges with two more of the whole stack, one per bracket end.
    Every row's numbers are bit for bit those of the same instance alone: a
    LiftedObjective is the one-row stack.

    The stack holds only its inputs, the (E, m, n, n) curvature sets and
    `mixing`: never a dense B_e or C. `_hessians` writes C and each H's
    diagonal blocks into a zeroed matrix when it is asked for, so a row
    costs its (nm, nm) Hessian only while an eigensolve reads it.
    """

    def __init__(self, curvatures: np.ndarray, mixing: MixingMatrix):
        """`curvatures` is an (E, m, n, n) stack: row e holds A_1, ..., A_m of instance e."""
        m = curvatures.shape[1]
        if m != mixing.m:
            raise ValueError(f"curvature sets have {m} agents but mixing matrix has {mixing.m}")
        self.m = m
        self._sets, self.mixing = curvatures, mixing

    @cached_property
    def _edges(self) -> np.ndarray:
        """(E,): each row's alpha_A (see the module docstring) from the largest
        eigenvalue of its Schur matrix (`_schur`), inf where every stepsize
        certifies and 0.0 out of class. Raises NotInClassError where a step overflows.
        """
        edges = np.zeros(len(self._sets))
        rows, schur = self._schur()[:2]
        top = _eigensolve(schur).max(axis=-1, initial=0.0)
        edges[rows] = np.divide(self.m, top, out=np.full_like(top, math.inf), where=top > 0)
        return edges

    def _schur(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(rows, M, K, factor): the rows in class, whose B~_11 = V diag(lambda) V^T
        is positive definite, and for each of them K = factor^T B~_12 D^(-1/2) with
        factor = V diag(lambda)^(-1/2) and the Schur matrix -D^(-1/2) S D^(-1/2) =
        M = K^T K - D^(-1/2) B~_22 D^(-1/2), exactly symmetric. Raises
        NotInClassError where B~_11 or M overflows."""
        # an overflow is caught where it would reach an eigensolve
        with np.errstate(over="ignore", invalid="ignore"):
            mean = self._sets.sum(axis=1) / self.m  # B~_11, bit for bit each ensemble's mean
            values, vectors = _eigensolve(_finite(mean, "the aggregate curvature"), vectors=True)
            del mean
            rows = np.flatnonzero(values[:, 0] > 0)
            factor = vectors[rows] / np.sqrt(values[rows])[:, None, :]
            del values, vectors
            sets = self._sets if rows.size == len(self._sets) else self._sets[rows]
            size, m, n, _ = sets.shape
            rest = (m - 1) * n
            # B~_12 D^(-1/2) and D^(-1/2) B~_22 D^(-1/2): the products Q_ki Q_kj of
            # the scaled basis for j >= 2 (outer products by matmul, which buffers
            # less than broadcasting) as one (m (m - 1), m) matrix times each row's A_k
            q = self.mixing.eigenbasis
            pairs = (q[:, :, None] @ q[:, None, 1:]).reshape(m, -1).T
            blocks = (pairs @ sets.reshape(size, m, n * n)).reshape(size, m, m - 1, n, n)
            k = blocks[:, 0].transpose(0, 2, 1, 3).reshape(size, n, rest)
            b22 = blocks[:, 1:].transpose(0, 1, 3, 2, 4).reshape(size, rest, rest)
            # each array is released once read, so the Schur eigensolve holds little else
            del pairs, blocks
            k = factor.swapaxes(-1, -2) @ k
            top = k.swapaxes(-1, -2) @ k
            top -= b22
            del b22
            # (M^T + M) / 2, exactly symmetric, from a contiguous copy of M^T:
            # adding M^T into M in place makes numpy buffer the overlapping operand
            schur = top.swapaxes(-1, -2).copy()
            schur += top
            schur *= 0.5
            return rows, _finite(schur, "the Schur complement"), k, factor

    def brackets(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi), per row the stepsizes a relative 1e-9 below and above
        alpha_A from `_edges`: both NaN for a row out of class and inf where
        every stepsize certifies. H's smallest eigenvalue confirms every
        finite edge, positive at lo and not at hi, in one eigensolve of the
        whole stack per end; NotInClassError names the first edge it does
        not confirm.
        """
        edges = self._edges  # 0.0 out of class, else positive
        lo, hi = edges * (1.0 - _CONFIRM_GAP), edges * (1.0 + _CONFIRM_GAP)
        lo[edges == 0] = hi[edges == 0] = math.nan
        finite = np.isfinite(lo)  # in class with a finite edge
        if finite.any():
            # a row without a finite edge is probed at alpha = 0, where H = C
            # is finite, and its verdict is not read
            refused = ~(_eigensolve(self._hessians(np.where(finite, lo, 0.0)))[:, 0] > 0)
            refused |= _eigensolve(self._hessians(np.where(finite, hi, 0.0)))[:, 0] > 0
            refused &= finite
            if refused.any():
                raise NotInClassError(
                    f"lambda_min(H) does not confirm the Schur edge "
                    f"{float(edges[refused.argmax()])!r} to a relative {_CONFIRM_GAP:g}"
                )
        return lo, hi

    def _hessians(self, alphas) -> np.ndarray:
        """H(t) = C + t B_e at t = alpha/m, one (nm, nm) matrix for each entry
        of the stack's rows broadcast against the stepsizes: a one-row stack
        at every stepsize, each row at its own stepsize, or every row at one
        stepsize. No stepsizes give no matrices.

        H is C = (I - W) kron I_n, written as (I - W)_kl on the diagonal of
        each (k, l) block of a zeroed matrix, with diagonal (n, n) blocks
        t A_k + C_kk: each entry is t B_e + C's bit for bit (every other
        entry is +0.0, as t 0.0 + C's is, never the -0.0 of -w_kl * 0.0),
        and no dense B_e or C is built. Every step is an assignment or a sum
        or product of equal shapes, as numpy buffers a broadcast or strided
        operand of a sum or product whole. One buffer holds the A_k, then
        the C_kk = (1 - w_kk) I_n, and is freed before H is allocated.
        Raises NotInClassError where a diagonal block leaves the float
        range, before H is built.
        """
        t = np.asarray(alphas, dtype=float) / self.m
        size, m, n, _ = self._sets.shape
        consensus = np.eye(m) - self.mixing.w  # I - W, whose kron I_n is C
        # the rows broadcast against the stepsizes: the rows' count at one
        # stepsize, else the stepsizes' (`operand[...]` refuses other pairs)
        shape = (size if t.size == 1 else t.size, m, n, n)
        blocks, operand = np.empty(shape), np.empty(shape)
        blocks[...] = t[:, None, None, None]
        operand[...] = self._sets
        with np.errstate(over="ignore", invalid="ignore"):
            blocks *= operand
            operand[...] = 0.0
            np.einsum("...kaa->...ka", operand)[...] = consensus.diagonal()[:, None]
            blocks += operand
        del operand
        _finite(blocks, "a Hessian block t A_k + C_kk")
        hessians = np.zeros((shape[0], m * n, m * n))
        np.einsum("...kala->...kla", hessians.reshape(-1, m, n, m, n))[...] = consensus[:, :, None]
        _diagonal_blocks(hessians, m, n)[...] = blocks
        return hessians

    def spectral_radii(self, alphas) -> np.ndarray:
        """rho(I - H(alpha/m)) = max(|1 - lambda_min(H)|, |1 - lambda_max(H)|)
        at each stepsize, of the stack's rows broadcast against the stepsizes
        (see `_hessians`), from one stacked eigensolve: the exact oracle of
        constant-stepsize DGD, whose iteration matrix is I - H(alpha/m)."""
        eigs = _eigensolve(self._hessians(alphas))
        return np.maximum(abs(1.0 - eigs[:, 0]), abs(1.0 - eigs[:, -1]))


class LiftedObjective(ThresholdStack):
    """G_alpha assembled from an ensemble and a mixing matrix: the one-row
    stack of the ensemble's curvatures. Its gradient at x is
    hessian(alpha) @ x + (alpha/m) b, b = (b_1, ..., b_m) the ensemble's
    linear_terms stacked to length nm."""

    def __init__(self, ensemble: QuadraticEnsemble, mixing: MixingMatrix):
        super().__init__(ensemble.curvatures[None], mixing)
        self.ensemble = ensemble

    def hessian(self, alpha: float) -> np.ndarray:
        """(alpha/m) blockdiag(A_k) + (I - W) kron I_n."""
        if not 0 < alpha < math.inf:
            raise ValueError("alpha must be finite and positive")
        return self._hessians([alpha])[0]

    def certify(self, alpha: float) -> ConvexityCertificate:
        """Strong-convexity certificate: in class and below alpha_A, with the
        smallest Hessian eigenvalue as measured."""
        lam = min_eigenvalue(self.hessian(alpha))
        return ConvexityCertificate(
            alpha=alpha,
            min_hessian_eig=lam,
            is_strongly_convex=bool(alpha < self._edges[0]),
            modulus=lam if lam > 0 else 0.0,
        )

    @property
    def certified_interval(self) -> tuple[float, float]:
        """(0, alpha_A), open: certify(alpha) holds exactly inside; (0.0, 0.0),
        empty, for an instance out of class. See ThresholdStack._edges."""
        return 0.0, float(self._edges[0])

    def strong_convexity_threshold(self) -> tuple[float, float]:
        """(lo, hi), the confirmed bracket of alpha_A, the right end of
        certified_interval: the sign of the smallest Hessian eigenvalue is
        positive at lo, which is alpha_A as reported, and not at hi (see
        ThresholdStack.brackets); (inf, inf) where every stepsize certifies.
        Raises NotInClassError for an instance out of class, or when the
        sign does not confirm the edge.
        """
        lo, hi = self.brackets()
        lo, hi = lo.item(), hi.item()
        if math.isnan(lo):
            raise NotInClassError(
                "the aggregate curvature (1/m) sum A_k is not positive definite: "
                "no stepsize certifies"
            )
        return lo, hi

    @cached_property
    def _basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(1 kron x*, Z, mu, U^T r) from the eigenpairs U diag(mu) U^T of the
        edge's Schur matrix (`ThresholdStack._schur`): with c = q^T b in W's
        scaled eigenbasis q and X = B~_11^(-1) B~_12 D^(-1/2), r = c_rest - X^T c_1
        and Z = (q_rest kron I_n - 1 kron (q_11 X)) U. Raises NotInClassError
        where rounding leaves the basis non-finite."""
        m, n = self.ensemble.m, self.ensemble.n
        q, rest = self.mixing.eigenbasis, (m - 1) * n
        _, schur, k, factor = self._schur()
        mu, u = _eigensolve(schur[0], vectors=True)
        with np.errstate(over="ignore", invalid="ignore"):
            x = factor[0] @ k[0]
            c = q.T @ self.ensemble.linear_terms
            ur = _finite(u.T @ (c[1:].reshape(rest) - c[0] @ x), "the minimizer basis")
            # (q_rest kron I_n) U, without forming the Kronecker product
            z = (q[:, 1:] @ u.reshape(m - 1, n * rest)).reshape(m, n, rest) - (q[0, 0] * x) @ u
        z = _finite(z.reshape(m * n, rest), "the minimizer basis")
        return np.tile(self.ensemble.aggregate_minimizer(), m), z, mu, ur

    def _coordinates(self, alphas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(1 kron x*, Z, G), with y(alpha) = 1 kron x* + Z g(alpha/m) (see `_basis`)
        and one row g_i(t) = -(U^T r)_i / (1/t - mu_i) of G per stepsize. Raises
        NotStronglyConvexError naming the first alpha outside certified_interval,
        and NotInClassError where H(t) leaves the float range, as `hessian` does,
        or 1/t - mu_i rounds to 0 or below, within rounding of the edge."""
        alphas = np.asarray(alphas, dtype=float).reshape(-1)
        if not np.all((alphas > 0) & (alphas < math.inf)):
            raise ValueError("alpha must be finite and positive")
        lo, hi = self.certified_interval
        outside = alphas >= hi
        if outside.any():
            raise NotStronglyConvexError(
                f"alpha={alphas[outside.argmax()]:g} is not certified strongly convex "
                f"(certified interval ({lo:g}, {hi:g}))"
            )
        if not alphas.size:  # no basis exists where no stepsize certifies
            return 0.0, np.empty((self.ensemble.m * self.ensemble.n, 0)), np.empty((0, 0))
        consensus, z, mu, ur = self._basis
        m = self.ensemble.m
        with np.errstate(over="ignore"):
            # H's blocks at the largest stepsize, as `hessian` rounds them: adding
            # C_kk, in [0, 1], to a finite t A_k leaves it finite
            _finite(alphas.max() / m * self.ensemble.curvatures, "a Hessian block t A_k + C_kk")
            poles = (m / alphas)[:, None] - mu  # 1/t = inf at a subnormal alpha gives g_i = 0
        if not (poles > 0).all():
            raise NotInClassError(f"alpha={max(alphas.tolist())!r} is within rounding of the edge")
        return consensus, z, -ur / poles

    def _minimizers(self, alphas) -> np.ndarray:
        """Minimizers y(alpha) of G_alpha, one (nm,) row per stepsize; see `_coordinates`."""
        consensus, z, g = self._coordinates(alphas)
        # a stack of (1, nm) products: each row rounds as in a lone run's batch of one
        return consensus + (g[:, None, :] @ z.T)[:, 0]

    def minimizer(self, alpha: float) -> np.ndarray:
        """Unique minimizer of G_alpha at one stepsize; see `_minimizers`."""
        return self._minimizers([alpha])[0]

    def _shift_bounds(self, alphas) -> np.ndarray:
        """sum_i ||z_i|| |g_i(t_(k+1)) - g_i(t_k)|, a bound on ||y(alpha_(k+1)) -
        y(alpha_k)||, for each pair of consecutive stepsizes; see `_coordinates`.

        Each g_i is monotone below its pole 1/mu_i, past the certified interval
        (its derivative -(U^T r)_i / (1 - t mu_i)^2 keeps one sign), so along a
        monotone run of stepsizes the bounds telescope: they sum to the same
        bound between the first stepsize and the last.
        """
        _, z, g = self._coordinates(alphas)
        return abs(np.diff(g, axis=0)) @ np.linalg.norm(z, axis=0)
