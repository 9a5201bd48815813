"""Stepsize bounds and the trajectory radius constant.

All bound formulas take plain scalars so each can be checked against known
values in isolation; `stepsize_bounds` says which of them an instance (or an
array of them) has, and `build_report` adds alpha_A, the radius and a sweep's base stepsize.

alpha_A is on the engine's alpha/m axis. alpha_gd, alpha_L, alpha_S and the
radius's alpha0 are per-agent stepsizes a, as in the paper's update
x_i <- sum_j w_ij x_j - a grad f_i(x_i), which is the engine stepsize m a.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .costs import QuadraticEnsemble
from .errors import RadiusUndefinedError
from .numerics import binary_unit, norm, render_float
from .topology import MixingMatrix


def classical_gd_bound(mu: float, smooth: float) -> float:
    """Single-agent gradient-descent stability bound 2 / (mu + L), a per-agent stepsize."""
    if not (0 < mu <= smooth):
        raise ValueError("requires 0 < mu <= L")
    return 2.0 / (mu + smooth)


def lambda_min_bound(lambda_min: float, smooth: float) -> float:
    """Stepsize bound (1 + lambda_min(W)) / L tied to the mixing spectrum floor,
    a per-agent stepsize: m times it on the engine's alpha/m axis."""
    if np.any(smooth <= 0):
        raise ValueError("smoothness constant must be positive")
    if not (-1.0 < lambda_min <= 1.0):
        raise ValueError("lambda_min must lie in (-1, 1]")
    return (1.0 + lambda_min) / smooth


def harmonic_rate(mu: float, smooth: float) -> float:
    """eta = mu * L / (mu + L)."""
    if not (0 < mu <= smooth):
        raise ValueError("requires 0 < mu <= L")
    return mu * smooth / (mu + smooth)


def spectral_gap_bound(mu: float, smooth: float, beta: float) -> float:
    """Stepsize bound eta * (1 - beta) / (L * (eta + L)) from the spectral gap,
    a per-agent stepsize (Yuan, Ling & Yin): m times it on the alpha/m axis."""
    if not (0 < mu <= smooth):
        raise ValueError("requires 0 < mu <= L")
    if not (0 < beta < 1):
        raise ValueError("beta must lie in (0, 1)")
    eta = harmonic_rate(mu, smooth)
    return eta * (1.0 - beta) / (smooth * (eta + smooth))


def _smoothness_and_mu(ensemble: QuadraticEnsemble) -> tuple[float, float]:
    """(L, mu) of an ensemble, mu clamped to L. In exact arithmetic mu <= L;
    the two eigensolves can round mu above it, as on identical agents."""
    smooth = ensemble.smoothness_constant()
    return smooth, min(ensemble.aggregate_mu(), smooth)


def trajectory_radius(
    ensemble: QuadraticEnsemble,
    mixing: MixingMatrix,
    x0: np.ndarray,
    alpha0: float,
) -> float:
    """Uniform trajectory radius R for a per-agent initial stepsize alpha0
    below the gap bound (the engine stepsize m alpha0).

    R = max( ||xbar(0) - x*||,
             (L/eta) * ||x(0) - 1 kron xbar(0)||,
             sqrt(m) * D * alpha0 / (eta*(1-beta)/L - (eta+L)*alpha0) ).

    eta comes from the aggregate strong-convexity constant mu, clamped to L, and
    every term is evaluated in L's `binary_unit`, its norms by `numerics.norm`.
    Raises RadiusUndefinedError when alpha0 is at or above the spectral-gap
    bound: the third denominator is nonpositive, or alpha0 reaches
    `spectral_gap_bound`'s own expression (at that bound the denominator
    rounds to either sign of one ulp).
    """
    x0 = np.asarray(x0, dtype=float)
    m, n = ensemble.m, ensemble.n
    if x0.shape != (m * n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({m * n},)")
    if not alpha0 > 0:  # nan too, which would drop out of the max below
        raise ValueError(f"alpha0 must be positive, got {alpha0!r}")
    smooth, mu = _smoothness_and_mu(ensemble)
    unit = binary_unit(smooth)
    smooth, mu, scaled_alpha0 = smooth / unit, mu / unit, alpha0 * unit
    eta = harmonic_rate(mu, smooth)
    beta = mixing.spectral.beta
    denom = eta * (1.0 - beta) / smooth - (eta + smooth) * scaled_alpha0
    if denom <= 0 or scaled_alpha0 >= eta * (1.0 - beta) / (smooth * (eta + smooth)):
        raise RadiusUndefinedError(
            f"radius undefined at alpha0={alpha0:g}: stepsize is not below the spectral-gap bound"
        )
    x_star = ensemble.aggregate_minimizer()
    blocks = x0.reshape(m, n)
    xbar = blocks.mean(axis=0)
    term_center = float(norm(xbar - x_star))
    term_spread = (smooth / eta) * float(norm(blocks - xbar))
    term_drive = math.sqrt(m) * (ensemble.grad_bound_D() / unit) * scaled_alpha0 / denom
    return max(term_center, term_spread, term_drive)


def stepsize_bounds(lambda_min: float, beta: float, smooth, mu) -> tuple:
    """(alpha_gd, alpha_L, eta, alpha_S), the last three evaluated in L's `binary_unit`.

    A bound that is not a finite positive float, its true value past the
    float range, is absent: NaN for alpha_gd and eta, None for alpha_S. All
    three are absent unless 0 < mu <= L, with mu still positive in the unit
    (above about 2^-1074 L), and alpha_S unless 0 < beta < 1 as well. Arrays
    of L and mu give arrays of the floats scalar calls return, alpha_S NaN where absent.
    """
    with np.errstate(all="ignore"):  # Python floats round alike, with no warning
        alpha_l = lambda_min_bound(lambda_min, smooth)
        unit = np.ldexp(1.0, np.frexp(smooth)[1] - 1)  # `binary_unit`, elementwise
        smooth, mu = smooth / unit, mu / unit
        present = (0 < mu) & (mu <= smooth)
        # `harmonic_rate`, `spectral_gap_bound` and `classical_gd_bound`, unchecked
        eta = mu * smooth / (mu + smooth)
        gap = eta * (1.0 - beta) / (smooth * (eta + smooth)) if 0 < beta < 1 else math.nan
        alpha_gd, eta, alpha_s = (
            np.where(present & (0 < v) & (v < math.inf), v, math.nan)
            for v in (2.0 / (mu + smooth) / unit, eta * unit, gap / unit)
        )
    if alpha_gd.ndim:
        return alpha_gd, alpha_l, eta, alpha_s
    return float(alpha_gd), float(alpha_l), float(eta), float(alpha_s) if alpha_s > 0 else None


@dataclass(frozen=True)
class BoundReport:
    """All stepsize bounds for one problem instance, ready to serialize."""

    alpha_gd: float
    alpha_L: float
    alpha_S: float | None
    alpha_A: float
    alpha_main: float
    eta: float
    radius_R: float | None
    threshold_resolution: float | None

    def base_alpha(self, sweep_base: str) -> float:
        """The stepsize a sweep's multiples scale: alpha_main for "main";
        for "alpha_A", alpha_A, or alpha_L where every stepsize certifies."""
        if sweep_base == "main":
            return self.alpha_main
        return self.alpha_A if math.isfinite(self.alpha_A) else self.alpha_L

    def to_dict(self) -> dict:
        return {
            "alpha_gd": render_float(self.alpha_gd),
            "alpha_L": render_float(self.alpha_L),
            "alpha_S": render_float(self.alpha_S),
            "alpha_A": render_float(self.alpha_A),
            "alpha_main": render_float(self.alpha_main),
            "eta": render_float(self.eta),
            "radius_R": render_float(self.radius_R),
            "alpha_A_provenance": {"method": "schur", "resolution": self.threshold_resolution},
        }


def build_report(
    ensemble: QuadraticEnsemble,
    mixing: MixingMatrix,
    bracket: tuple[float, float],
) -> BoundReport:
    """Assemble the bound comparison table for one (ensemble, mixing) pair.

    `bracket` is the confirmed bracket (lo, hi) of alpha_A, the lifted
    Hessian's Schur edge, from `LiftedObjective.strong_convexity_threshold`:
    alpha_A is lo, and its provenance is method "schur" and, as resolution,
    the bracket's width hi - lo (a relative 1e-9 on each side of the edge),
    null where alpha_A is inf. The radius uses x0 = 0 and alpha0 =
    half the spectral-gap bound; it is omitted (None) when the gap bound
    itself is absent.
    """
    summary = mixing.spectral
    alpha_gd, alpha_l, eta, alpha_s = stepsize_bounds(
        summary.lambda_min, summary.beta, *_smoothness_and_mu(ensemble)
    )

    radius = None
    if alpha_s is not None:
        # a term past the float range makes the radius inf, with no numpy warning
        with suppress(RadiusUndefinedError), np.errstate(over="ignore", invalid="ignore"):
            radius = trajectory_radius(
                ensemble, mixing, np.zeros(ensemble.m * ensemble.n), 0.5 * alpha_s
            )

    lo, hi = bracket
    return BoundReport(
        alpha_gd=alpha_gd,
        alpha_L=alpha_l,
        alpha_S=alpha_s,
        alpha_A=lo,
        alpha_main=min(alpha_l, lo),
        eta=eta,
        radius_R=radius,
        threshold_resolution=None if lo == math.inf else hi - lo,
    )
