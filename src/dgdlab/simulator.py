"""Deterministic DGD simulation, trajectory metrics, and the exact oracle.

One step with stepsize alpha maps the stacked state x to

    (W kron I_n) x - (alpha/m) * (grad f_1(x_1), ..., grad f_m(x_m)),

which is exactly one gradient-descent step on the lifted objective
G_alpha. The `agent_scale` flag drops the 1/m factor to run the per-agent
update rule verbatim with the nominal stepsize.

For quadratic costs and constant alpha the iteration is affine,
x(t+1) = M_alpha x(t) - c, with the symmetric matrix
M_alpha = W kron I_n - (alpha/m) blockdiag(A_k). Its spectral radius
decides boundedness exactly, which is what `boundedness_oracle` returns
as ground truth for the finite-horizon verdicts of `run`.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .costs import QuadraticEnsemble
from .errors import NotStronglyConvexError
from .lifted import LiftedObjective
from .numerics import sym_eigen
from .topology import MixingMatrix

DEFAULT_HORIZON = 10_000
DEFAULT_DIVERGENCE_THRESHOLD = 1e12
DEFAULT_RECORD_EVERY = 10
CRITICAL_BAND = 1e-6

TRAJECTORY_CSV_HEADER = ["t", "alpha", "R", "consensus_err", "dist_lifted_min"]


@dataclass(frozen=True)
class StepsizeSchedule:
    """Non-increasing stepsize sequence: constant or a / (t + w)^p."""

    kind: str
    alpha: float = 0.0
    a: float = 0.0
    w: float = 1.0
    p: float = 1.0

    @classmethod
    def constant(cls, alpha: float) -> "StepsizeSchedule":
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"constant stepsize must be finite and positive, got {alpha!r}")
        return cls(kind="constant", alpha=float(alpha))

    @classmethod
    def polynomial(cls, a: float, w: float = 1.0, p: float = 1.0) -> "StepsizeSchedule":
        if not all(math.isfinite(v) for v in (a, w, p)):
            raise ValueError(f"polynomial schedule needs finite a, w, p, got {(a, w, p)!r}")
        if a <= 0:
            raise ValueError("polynomial schedule needs a > 0")
        if w < 1:
            raise ValueError("polynomial schedule needs w >= 1")
        if not (0 < p <= 1):
            raise ValueError("polynomial schedule needs p in (0, 1]")
        return cls(kind="polynomial", a=float(a), w=float(w), p=float(p))

    def value(self, t: int) -> float:
        if t < 0:
            raise ValueError("t must be nonnegative")
        if self.kind == "constant":
            return self.alpha
        return self.a / (t + self.w) ** self.p

    @classmethod
    def from_spec(cls, spec: dict) -> "StepsizeSchedule":
        kind = spec.get("type")
        if kind == "constant":
            return cls.constant(float(spec["alpha"]))
        if kind == "polynomial":
            return cls.polynomial(
                float(spec["a"]), float(spec.get("w", 1.0)), float(spec.get("p", 1.0))
            )
        raise ValueError(f"unknown schedule spec type {kind!r}")

    def to_spec(self) -> dict:
        if self.kind == "constant":
            return {"type": "constant", "alpha": self.alpha}
        return {"type": "polynomial", "a": self.a, "w": self.w, "p": self.p}


def _kernel_arrays(ensemble: QuadraticEnsemble, mixing: MixingMatrix):
    return mixing.w, ensemble.curvatures, ensemble.linear_terms


def _step_blocks(
    blocks: np.ndarray, w: np.ndarray, a_stack: np.ndarray, b_stack: np.ndarray, scale: float
) -> np.ndarray:
    grads = np.einsum("kij,kj->ki", a_stack, blocks) + b_stack
    return w @ blocks - scale * grads


def step(
    state: np.ndarray,
    ensemble: QuadraticEnsemble,
    mixing: MixingMatrix,
    alpha: float,
    agent_scale: bool = False,
) -> np.ndarray:
    """One synchronous DGD step on the stacked state.

    Equals state - grad G_alpha(state) under the default scaling; with
    agent_scale=True the local gradients are applied with the full alpha.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if ensemble.m != mixing.m:
        raise ValueError(f"ensemble has {ensemble.m} agents, mixing has {mixing.m}")
    state = np.asarray(state, dtype=float)
    m, n = ensemble.m, ensemble.n
    if state.shape != (m * n,):
        raise ValueError(f"state has shape {state.shape}, expected ({m * n},)")
    if not np.all(np.isfinite(state)):
        raise ValueError("state contains non-finite entries")
    scale = alpha if agent_scale else alpha / m
    w, a_stack, b_stack = _kernel_arrays(ensemble, mixing)
    return _step_blocks(state.reshape(m, n), w, a_stack, b_stack, scale).reshape(-1)


@dataclass(eq=False)
class TrajectoryRecord:
    """Per-step DGD metrics plus a thinned state history and a verdict.

    Metrics are recorded at every step t for the pre-step state x(t);
    full states only every `record_every` steps (plus the final state).
    verdict is "diverged" when the error metric R(t) crossed the
    divergence threshold at `divergence_step`, else "bounded".
    """

    t: np.ndarray
    alpha: np.ndarray
    r: np.ndarray
    consensus_err: np.ndarray
    dist_lifted_min: np.ndarray
    state_ts: np.ndarray
    states: np.ndarray
    record_every: int
    horizon: int
    divergence_threshold: float
    verdict: str
    divergence_step: int | None
    x_star: np.ndarray
    summary_extra: dict = field(default_factory=dict)

    @property
    def max_r(self) -> float:
        return float(np.max(self.r))

    def state_at(self, t: int) -> np.ndarray:
        hits = np.nonzero(self.state_ts == t)[0]
        if hits.size == 0:
            raise KeyError(f"state at t={t} was not recorded (record_every={self.record_every})")
        return self.states[hits[0]]

    def summary_dict(self) -> dict:
        def _render(v: float):
            if math.isinf(v):
                return "inf"
            if math.isnan(v):
                return "nan"
            return v

        out = {
            "verdict": self.verdict,
            "divergence_step": self.divergence_step,
            "max_R": _render(self.max_r),
            "final_R": _render(float(self.r[-1])),
            "steps_recorded": int(self.t.size),
            "horizon": self.horizon,
            "divergence_threshold": self.divergence_threshold,
            "alpha0": float(self.alpha[0]),
        }
        out.update(self.summary_extra)
        return out

    def to_csv(self, target) -> None:
        """Write the metric columns as CSV; diverged runs truncate at divergence_step.

        `target` is a path or an open text file. Numeric columns never
        contain non-finite values; the lifted-distance column is empty
        where it was not tracked.
        """
        own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
        handle = open(target, "w", newline="") if own else target
        try:
            writer = csv.writer(handle)
            writer.writerow(TRAJECTORY_CSV_HEADER)
            cutoff = self.divergence_step if self.divergence_step is not None else self.t.size
            for i in range(self.t.size):
                if self.t[i] >= cutoff:
                    break
                dist = self.dist_lifted_min[i]
                writer.writerow(
                    [
                        int(self.t[i]),
                        repr(float(self.alpha[i])),
                        repr(float(self.r[i])),
                        repr(float(self.consensus_err[i])),
                        "" if math.isnan(dist) else repr(float(dist)),
                    ]
                )
        finally:
            if own:
                handle.close()

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def run(
    ensemble: QuadraticEnsemble,
    mixing: MixingMatrix,
    schedule: StepsizeSchedule,
    x0: np.ndarray | None = None,
    horizon: int = DEFAULT_HORIZON,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
    agent_scale: bool = False,
    record_every: int = DEFAULT_RECORD_EVERY,
    x_star: np.ndarray | None = None,
    lifted_distance: LiftedObjective | None = None,
) -> TrajectoryRecord:
    """Run DGD for `horizon` steps and record the error metrics.

    R(t) = sum_k ||x_k(t) - x*|| is measured against the aggregate
    minimizer (or an explicit `x_star`). The run stops early with verdict
    "diverged" once R(t) exceeds `divergence_threshold` or the state stops
    being finite. Passing `lifted_distance` also records
    ||x(t) - argmin G_alpha(t)|| wherever that alpha is certified.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    if ensemble.m != mixing.m:
        raise ValueError(f"ensemble has {ensemble.m} agents, mixing has {mixing.m}")
    m, n = ensemble.m, ensemble.n
    if x0 is None:
        x0 = np.zeros(m * n)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (m * n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({m * n},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 contains non-finite entries")
    if x_star is None:
        x_star = ensemble.aggregate_minimizer()
    x_star = np.asarray(x_star, dtype=float)

    w, a_stack, b_stack = _kernel_arrays(ensemble, mixing)

    minimizer_cache: dict[float, np.ndarray | None] = {}

    def _lifted_point(alpha: float):
        if lifted_distance is None:
            return None
        if alpha not in minimizer_cache:
            try:
                minimizer_cache[alpha] = lifted_distance.minimizer(alpha)
            except NotStronglyConvexError:
                minimizer_cache[alpha] = None
        return minimizer_cache[alpha]

    ts, alphas, rs, cons, dists = [], [], [], [], []
    state_ts, states = [], []
    verdict = "bounded"
    divergence_step = None

    blocks = x0.reshape(m, n).copy()
    for t in range(horizon + 1):
        alpha_t = schedule.value(t)
        finite = bool(np.all(np.isfinite(blocks)))
        if finite:
            r_t = float(np.linalg.norm(blocks - x_star, axis=1).sum())
            consensus = float(np.linalg.norm(blocks - blocks.mean(axis=0)))
        else:
            r_t = math.inf
            consensus = math.inf
        point = _lifted_point(alpha_t) if finite else None
        dist = (
            float(np.linalg.norm(blocks.reshape(-1) - point)) if point is not None else math.nan
        )

        ts.append(t)
        alphas.append(alpha_t)
        rs.append(r_t)
        cons.append(consensus)
        dists.append(dist)
        if t % record_every == 0 or t == horizon:
            state_ts.append(t)
            states.append(blocks.reshape(-1).copy())

        if r_t > divergence_threshold or not finite:
            verdict = "diverged"
            divergence_step = t
            if state_ts[-1] != t:
                state_ts.append(t)
                states.append(blocks.reshape(-1).copy())
            break
        if t == horizon:
            break
        scale = alpha_t if agent_scale else alpha_t / m
        blocks = _step_blocks(blocks, w, a_stack, b_stack, scale)

    return TrajectoryRecord(
        t=np.asarray(ts, dtype=int),
        alpha=np.asarray(alphas, dtype=float),
        r=np.asarray(rs, dtype=float),
        consensus_err=np.asarray(cons, dtype=float),
        dist_lifted_min=np.asarray(dists, dtype=float),
        state_ts=np.asarray(state_ts, dtype=int),
        states=np.asarray(states, dtype=float),
        record_every=record_every,
        horizon=horizon,
        divergence_threshold=divergence_threshold,
        verdict=verdict,
        divergence_step=divergence_step,
        x_star=x_star,
    )


@dataclass(frozen=True, eq=False)
class OracleVerdict:
    """Exact boundedness verdict for constant-stepsize quadratic DGD.

    bounded holds iff the spectral radius of the affine iteration matrix is
    at most 1 (+1e-12 slack); is_critical flags a radius within 1e-6 of 1,
    where a finite-horizon simulation cannot decide the question.
    """

    spectral_radius: float
    bounded: bool
    matrix: np.ndarray

    @property
    def is_critical(self) -> bool:
        return abs(self.spectral_radius - 1.0) <= CRITICAL_BAND


def iteration_matrix(
    ensemble: QuadraticEnsemble, mixing: MixingMatrix, alpha: float, agent_scale: bool = False
) -> np.ndarray:
    """M_alpha = W kron I_n - scale * blockdiag(A_k) for constant-alpha DGD."""
    m, n = ensemble.m, ensemble.n
    scale = alpha if agent_scale else alpha / m
    out = np.kron(mixing.w, np.eye(n))
    for k, cost in enumerate(ensemble.costs):
        out[k * n : (k + 1) * n, k * n : (k + 1) * n] -= scale * cost.a
    return out


def boundedness_oracle(
    ensemble: QuadraticEnsemble, mixing: MixingMatrix, alpha: float, agent_scale: bool = False
) -> OracleVerdict:
    """Ground-truth boundedness for constant stepsize via the spectral radius."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    matrix = iteration_matrix(ensemble, mixing, alpha, agent_scale=agent_scale)
    eigs = sym_eigen(matrix).eigenvalues
    rho = float(max(abs(eigs[0]), abs(eigs[-1])))
    return OracleVerdict(spectral_radius=rho, bounded=rho <= 1.0 + 1e-12, matrix=matrix)


@dataclass(frozen=True, eq=False)
class NonexpansivenessReport:
    """Per-step distances to the current lifted minimizer and their margins.

    core_margin[t] = ||x(t+1) - y(t)|| - ||x(t) - y(t)|| with y(t) the
    minimizer of G_alpha(t); non-positive (up to tolerance) whenever the
    stepsize stays inside the certified region. For time-varying schedules
    drift_bound[t] carries the minimizer-shift allowance
    2 * alpha(0) * C1 * |alpha(t+1) - alpha(t)| / (modulus(alpha(0)) * alpha(t+1)).
    """

    distances: np.ndarray
    core_margin: np.ndarray
    drift_measured: np.ndarray
    drift_bound: np.ndarray
    ok: bool
    max_core_margin: float
    tolerance: float


def nonexpansiveness_check(
    record: TrajectoryRecord,
    objective: LiftedObjective,
    tolerance: float = 1e-9,
    segment_samples: int = 9,
) -> NonexpansivenessReport:
    """Verify per-step non-expansion of the distance to the lifted minimizer.

    Requires a record with record_every=1 (full state history). Every
    stepsize in the run must be certified strongly convex and alpha(0) must
    not exceed the spectrum-floor bound (1 + lambda_min(W)) / L.
    """
    if record.record_every != 1:
        raise ValueError("nonexpansiveness_check needs a record with record_every=1")
    from .bounds import lambda_min_bound  # local import avoids a module cycle

    floor = lambda_min_bound(
        objective.mixing.spectral.lambda_min, objective.ensemble.smoothness_constant()
    )
    alpha0 = float(record.alpha[0])
    if alpha0 > floor + 1e-12:
        raise ValueError(
            f"alpha(0)={alpha0:g} exceeds the spectrum-floor bound {floor:g}"
        )

    minimizers: dict[float, np.ndarray] = {}
    for alpha in record.alpha:
        a = float(alpha)
        if a not in minimizers:
            minimizers[a] = objective.minimizer(a)  # raises if not certified

    anchor = objective.certify(alpha0)
    steps = record.t.size - 1
    distances = np.empty(record.t.size)
    core_margin = np.empty(steps)
    drift_measured = np.zeros(steps)
    drift_bound = np.zeros(steps)

    for i in range(record.t.size):
        distances[i] = np.linalg.norm(
            record.state_at(int(record.t[i])) - minimizers[float(record.alpha[i])]
        )
    for i in range(steps):
        a_now = float(record.alpha[i])
        a_next = float(record.alpha[i + 1])
        x_next = record.state_at(int(record.t[i + 1]))
        post = float(np.linalg.norm(x_next - minimizers[a_now]))
        pre = distances[i]
        core_margin[i] = post - pre
        if a_next != a_now:
            drift_measured[i] = float(
                np.linalg.norm(minimizers[a_now] - minimizers[a_next])
            )
            c1 = objective.segment_gradient_bound(
                minimizers[a_now], minimizers[a_next], samples=segment_samples
            )
            drift_bound[i] = (
                2.0 * alpha0 * c1 * abs(a_next - a_now) / (anchor.modulus * a_next)
            )

    max_core = float(np.max(core_margin)) if steps else 0.0
    return NonexpansivenessReport(
        distances=distances,
        core_margin=core_margin,
        drift_measured=drift_measured,
        drift_bound=drift_bound,
        ok=bool(max_core <= tolerance),
        max_core_margin=max_core,
        tolerance=tolerance,
    )
