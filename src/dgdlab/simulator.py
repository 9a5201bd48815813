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
as ground truth for the finite-horizon verdicts of `run` and `run_batch`.
"""

from __future__ import annotations

import bisect
import io
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .costs import QuadraticEnsemble
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
    blocks: np.ndarray, w: np.ndarray, a_stack: np.ndarray, b_stack: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """One DGD step on every row of a (B, m, n) state tensor; `scale` has shape (B,)."""
    grads = np.einsum("kij,bkj->bki", a_stack, blocks) + b_stack
    return w @ blocks - scale[:, None, None] * grads


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
    return _step_blocks(state.reshape(1, m, n), w, a_stack, b_stack, np.array([scale])).reshape(-1)


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
            handle.write(",".join(TRAJECTORY_CSV_HEADER) + "\r\n")
            cutoff = self.divergence_step  # None keeps every row
            columns = (
                self.t[:cutoff].tolist(),
                self.alpha[:cutoff].tolist(),
                self.r[:cutoff].tolist(),
                self.consensus_err[:cutoff].tolist(),
                self.dist_lifted_min[:cutoff].tolist(),
            )
            # a generator, not one joined string: the rows are the output's bulk
            handle.writelines(
                f"{t},{alpha!r},{r!r},{cons!r},{'' if math.isnan(dist) else repr(dist)}\r\n"
                for t, alpha, r, cons, dist in zip(*columns)
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

    A batch of one: see `run_batch` for the metrics and the early stop.
    """
    return run_batch(
        ensemble,
        mixing,
        [schedule],
        x0=x0,
        horizon=horizon,
        divergence_threshold=divergence_threshold,
        agent_scale=agent_scale,
        record_every=record_every,
        x_star=x_star,
        lifted_distance=lifted_distance,
    )[0]


# Steps a chunk runs ahead of the bookkeeping: R(t), consensus, the history
# writes, state recording and the early-stop test take a few numpy calls per
# chunk instead of per step. Rows never mix, so every row's arithmetic is that
# of a lone run.
_CHUNK = 64


def _distance_sums(states: np.ndarray, x_star: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """R = sum_k ||x_k - x*|| over the trailing (m, n) axes; `scratch` is overwritten.

    np.linalg.norm(states - x_star, axis=-1).sum(axis=-1) bit for bit,
    without its per-call overhead.
    """
    dev = np.subtract(states, x_star, out=scratch)
    np.multiply(dev, dev, out=dev)
    norms = np.add.reduce(dev, axis=-1)
    np.sqrt(norms, out=norms)
    return norms.sum(axis=-1)


def _consensus(states: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Frobenius distance of the agent blocks (axis -2) to their mean; `scratch` is overwritten."""
    mean = np.add.reduce(states, axis=-2, keepdims=True)
    mean /= states.shape[-2]  # the mean, bit for bit
    dev = np.subtract(states, mean, out=scratch)
    np.multiply(dev, dev, out=dev)
    return np.sqrt(np.add.reduce(dev, axis=(-2, -1)))


def run_batch(
    ensemble: QuadraticEnsemble,
    mixing: MixingMatrix,
    schedules: list[StepsizeSchedule],
    *,
    x0: np.ndarray | None = None,
    horizon: int = DEFAULT_HORIZON,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
    agent_scale: bool = False,
    record_every: int = DEFAULT_RECORD_EVERY,
    x_star: np.ndarray | None = None,
    lifted_distance: LiftedObjective | None = None,
) -> list[TrajectoryRecord]:
    """Run DGD once per schedule from a shared x0; one record per schedule.

    All runs are stepped together as one (B, m, n) state tensor, and each
    row is a true iteration of its own schedule. R(t) = sum_k ||x_k(t) - x*||
    is measured against the aggregate minimizer (or an explicit `x_star`).
    A row stops early with verdict "diverged" once its R(t) exceeds
    `divergence_threshold` or its state stops being finite; it is recorded
    at that step and then dropped from the batch. Passing
    `lifted_distance` also records ||x(t) - argmin G_alpha(t)|| wherever
    that alpha is certified.

    The rows are stepped up to _CHUNK steps ahead, and the metrics and the
    early stop are taken once per chunk; the records equal those of a
    step-by-step loop bit for bit.
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

    size = len(schedules)
    if size == 0:
        return []
    # Metric columns are indexed (t, schedule); each record copies its own.
    alpha_hist = np.empty((horizon + 1, size))
    r_hist = np.empty((horizon + 1, size))
    cons_hist = np.empty((horizon + 1, size))
    dist_hist = np.full((horizon + 1, size), math.nan) if lifted_distance is not None else None
    state_hist = np.empty((horizon // record_every + 2, size, m * n))
    state_times: list[int] = []
    divergence: list[int | None] = [None] * size
    crossing_state: list[np.ndarray | None] = [None] * size

    varying = any(s.kind != "constant" for s in schedules)
    alpha0 = np.array([s.value(0) for s in schedules], dtype=float)
    # While every R(t) is finite and at most the threshold, every state is
    # finite (a non-finite entry makes R(t) inf or nan) and no row stops.
    # `limit` keeps an infinite threshold from letting an infinite R(t) pass.
    limit = min(divergence_threshold, sys.float_info.max)
    # One chunk of states and one of temporaries, reused by every chunk as
    # (steps, live rows, m, n) views of their first elements.
    chunk_buf = np.empty(_CHUNK * size * m * n)
    scratch_buf = np.empty_like(chunk_buf)
    rows = np.arange(size)  # schedule index of each live row
    t = 0  # the time of the chunk's first state
    # A row that diverges inside a chunk is stepped to the chunk's end; those
    # states may overflow, and they are never recorded.
    with np.errstate(over="ignore", invalid="ignore"):
        while rows.size and t <= horizon:  # runs at least once
            steps = min(_CHUNK, horizon + 1 - t)
            live = rows.size
            chunk = chunk_buf[: steps * live * m * n].reshape(steps, live, m, n)
            scratch = scratch_buf[: chunk.size].reshape(chunk.shape)
            if varying:
                alpha = np.array(
                    [[schedules[i].value(s) for i in rows] for s in range(t, t + steps)],
                    dtype=float,
                )
            else:
                alpha = np.broadcast_to(alpha0[rows], (steps, live))
            scale = alpha if agent_scale else alpha / m
            if t == 0:
                chunk[0] = x0.reshape(m, n)
            else:
                chunk[0] = _step_blocks(last, w, a_stack, b_stack, last_scale)
            for j in range(1, steps):
                chunk[j] = _step_blocks(chunk[j - 1], w, a_stack, b_stack, scale[j - 1])

            r = _distance_sums(chunk, x_star, scratch)
            cons = _consensus(chunk, scratch)
            kept = [j for j in range(steps) if (t + j) % record_every == 0 or t + j == horizon]
            died = None
            if not (r <= limit).all():  # some R(t) over the limit or nan
                # the early stop of each row at its own first crossing, where
                # a non-finite state reads as infinite R(t) and consensus
                finite = np.isfinite(chunk).all(axis=(2, 3))
                r[~finite] = math.inf
                cons[~finite] = math.inf
                dies = ~finite | (r > divergence_threshold)
                died = dies.any(axis=0)
                death = np.where(died, dies.argmax(axis=0), steps)
                for q in np.flatnonzero(died):
                    i, step_at = rows[q], int(death[q])
                    divergence[i] = t + step_at
                    if step_at not in kept:
                        crossing_state[i] = chunk[step_at, q].reshape(-1).copy()

            # every cell is written; a row's cells past its divergence step are
            # never read
            alpha_hist[t : t + steps, rows] = alpha
            r_hist[t : t + steps, rows] = r
            cons_hist[t : t + steps, rows] = cons
            if kept:
                first = len(state_times)
                state_hist[first : first + len(kept), rows] = chunk[kept].reshape(
                    len(kept), live, m * n
                )
                state_times.extend(t + j for j in kept)
            if dist_hist is not None:
                for j in range(steps):
                    for q, i in enumerate(rows):
                        if died is not None and (j > death[q] or not finite[j, q]):
                            continue
                        point = lifted_distance.certified_minimizer(float(alpha[j, q]))
                        if point is not None:
                            dist_hist[t + j, i] = np.linalg.norm(chunk[j, q].reshape(-1) - point)

            last, last_scale = chunk[-1], scale[-1]
            if died is not None:
                survive = ~died
                rows, last, last_scale = rows[survive], last[survive], last_scale[survive]
            t += steps
    del chunk_buf, scratch_buf, chunk, scratch, last  # out of the records' peak memory

    records = []
    for i, stop in enumerate(divergence):
        end = horizon + 1 if stop is None else stop + 1
        state_ts = state_times[: bisect.bisect_right(state_times, end - 1)]
        states = state_hist[: len(state_ts), i].copy()
        if crossing_state[i] is not None:
            state_ts = state_ts + [stop]
            states = np.vstack([states, crossing_state[i]])
        records.append(
            TrajectoryRecord(
                t=np.arange(end),
                alpha=alpha_hist[:end, i].copy(),
                r=r_hist[:end, i].copy(),
                consensus_err=cons_hist[:end, i].copy(),
                dist_lifted_min=(
                    dist_hist[:end, i].copy() if dist_hist is not None else np.full(end, math.nan)
                ),
                state_ts=np.asarray(state_ts, dtype=int),
                states=states,
                record_every=record_every,
                horizon=horizon,
                divergence_threshold=divergence_threshold,
                verdict="bounded" if stop is None else "diverged",
                divergence_step=stop,
                x_star=x_star,
            )
        )
    return records


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

    minimizer = objective.certified_minimizer  # solved once per alpha, shared with the run
    for a in dict.fromkeys(record.alpha.tolist()):
        if minimizer(a) is None:
            objective.minimizer(a)  # raises NotStronglyConvexError with the certificate

    anchor = objective.certify(alpha0)
    steps = record.t.size - 1
    distances = np.empty(record.t.size)
    core_margin = np.empty(steps)
    drift_measured = np.zeros(steps)
    drift_bound = np.zeros(steps)

    for i in range(record.t.size):
        distances[i] = np.linalg.norm(
            record.state_at(int(record.t[i])) - minimizer(float(record.alpha[i]))
        )
    for i in range(steps):
        a_now = float(record.alpha[i])
        a_next = float(record.alpha[i + 1])
        x_next = record.state_at(int(record.t[i + 1]))
        post = float(np.linalg.norm(x_next - minimizer(a_now)))
        pre = distances[i]
        core_margin[i] = post - pre
        if a_next != a_now:
            drift_measured[i] = float(np.linalg.norm(minimizer(a_now) - minimizer(a_next)))
            c1 = objective.segment_gradient_bound(
                minimizer(a_now), minimizer(a_next), samples=segment_samples
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
