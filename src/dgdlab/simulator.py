"""Deterministic DGD simulation, trajectory metrics, and the exact oracle.

One step with stepsize alpha maps the stacked state x to

    (W (x) I_n) x - (alpha/m) * (grad f_1(x_1), ..., grad f_m(x_m)),

which is exactly one gradient-descent step on the lifted objective
G_alpha. The paper's per-agent update x_i <- sum_j w_ij x_j - a grad f_i(x_i)
is this step with alpha = m a.

The engine folds each row's scale s = alpha/m into its curvature
blocks before it steps: s A_k and s b_k, once per call for a constant
schedule and once per step for a varying one. A step is then four numpy
calls on the whole (B, m, n) batch, x <- W x - (s A) x - s b, with no
temporary array. It rounds differently from the literal s (A x + b), so
states and R(t) move at rounding level against that form.

For quadratic costs and constant alpha the iteration is affine,
x(t+1) = M_alpha x(t) - c, with the symmetric matrix
M_alpha = W (x) I_n - (alpha/m) blockdiag(A_k) = I - H(alpha/m), H(t) being
the Hessian of G_alpha that `lifted` builds. Its spectral radius decides
boundedness exactly, and it is at most 1 iff 0 <= H(alpha/m) <= 2I in the
Loewner order. That is what `boundedness_oracle` returns as ground truth
for the finite-horizon verdicts of `run` and `run_batch`;
`boundedness_verdicts` returns it for many stepsizes from one stacked
eigensolve of H, which `lifted.ThresholdStack.spectral_radii` takes next
to the strong-convexity edges.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .bounds import lambda_min_bound
from .config import DEFAULT_DIVERGENCE_THRESHOLD, DEFAULT_HORIZON, StepsizeSchedule
from .costs import QuadraticEnsemble
from .lifted import LiftedObjective
from .numerics import SQUARES_FLOOR, binary_unit, norm, render_float, squares_out_of_range
from .numerics import sym_eigen  # noqa: F401 (unused, but perfbench/test_spans.py looks it up here)
from .topology import MixingMatrix

CRITICAL_BAND = 1e-6
# the slack of nonexpansiveness_check: core margins up to it are rounding
_NONEXPANSION_TOLERANCE = 1e-9

TRAJECTORY_CSV_HEADER = ["t", "alpha", "R", "consensus_err", "dist_lifted_min"]
# the record's arrays behind the header's columns after t
_CSV_COLUMNS = ("alpha", "r", "consensus_err", "dist_lifted_min")
# Rows per write of `TrajectoryRecord.write_rows`: one %-format per block
# leaves little but float repr per row, and a bounded block keeps the
# block's strings out of the peak memory.
_CSV_BLOCK = 256


def _fold(
    scale: np.ndarray,
    a_stack: np.ndarray,
    b_stack: np.ndarray,
    sa: np.ndarray | None = None,
    sb: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's stepsize scale folded into its curvature blocks: (s A_k, s b_k).

    `scale` has shape (B,); the blocks have shapes (B, m, n, n) and (B, m, n)
    and are written into `sa` and `sb` when those are given.
    """
    return (
        np.multiply(scale[:, None, None, None], a_stack, out=sa),
        np.multiply(scale[:, None, None], b_stack, out=sb),
    )


def _dgd_step(
    w: np.ndarray,
    sa: np.ndarray,
    sb: np.ndarray,
    x: np.ndarray,
    x_col: np.ndarray,
    out: np.ndarray,
    prod_col: np.ndarray,
    prod: np.ndarray,
) -> None:
    """One DGD step on every row of a (B, m, n) state: out = W x - (s A) x - s b.

    `sa` and `sb` are the blocks `_fold` returns. `x_col` is `x` viewed as
    (B, m, n, 1) columns; `prod_col` (B, m, n, 1) is scratch and `prod` its
    (B, m, n) view. A caller that steps many times builds the scratch once.
    """
    np.matmul(w, x, out=out)
    np.matmul(sa, x_col, out=prod_col)
    out -= prod
    out -= sb


def step(
    state: np.ndarray,
    ensemble: QuadraticEnsemble,
    mixing: MixingMatrix,
    alpha: float,
) -> np.ndarray:
    """One synchronous DGD step on the stacked state: state - grad G_alpha(state)."""
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be finite and positive")
    if ensemble.m != mixing.m:
        raise ValueError(f"ensemble has {ensemble.m} agents, mixing has {mixing.m}")
    state = np.asarray(state, dtype=float)
    m, n = ensemble.m, ensemble.n
    if state.shape != (m * n,):
        raise ValueError(f"state has shape {state.shape}, expected ({m * n},)")
    if not np.all(np.isfinite(state)):
        raise ValueError("state contains non-finite entries")
    scale = np.array([alpha / m])
    sa, sb = _fold(scale, ensemble.curvatures, ensemble.linear_terms)
    x, out, prod_col = state.reshape(1, m, n), np.empty((1, m, n)), np.empty((1, m, n, 1))
    _dgd_step(mixing.w, sa, sb, x, x[..., None], out, prod_col, prod_col[..., 0])
    return out.reshape(-1)


@dataclass(eq=False, slots=True)
class TrajectoryRecord:
    """Per-step DGD metrics, optionally the per-step states, and a verdict.

    Metrics are recorded at every step t for the pre-step state x(t), and
    so are the states x(t) when the run keeps them. verdict is "diverged"
    when the error metric R(t) crossed the divergence threshold at
    `divergence_step`, else "bounded".

    A record holds its histories and nothing else per step: each metric
    array, and `states` with one (nm,) row per step, is a read-only view of
    its row's own buffer, which holds the cells the row reached and no
    more. A constant `alpha` is a broadcast of its one value, an untracked
    distance or an unkept consensus a NaN broadcast, and unkept states an
    empty (0, nm) broadcast. The steps `t` are derived from the length of
    `r`.
    """

    alpha: np.ndarray
    r: np.ndarray
    consensus_err: np.ndarray
    dist_lifted_min: np.ndarray
    states: np.ndarray
    horizon: int
    divergence_threshold: float
    verdict: str
    divergence_step: int | None

    @property
    def t(self) -> np.ndarray:
        """The step of each metric cell: 0 up to the last."""
        return _frozen(np.arange(self.r.size))

    def state_at(self, t: int) -> np.ndarray:
        """The state x(t); KeyError where it was not kept."""
        if not 0 <= t < len(self.states):
            raise KeyError(f"state at t={t} was not recorded ({len(self.states)} states kept)")
        return self.states[t]

    def summary_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "divergence_step": self.divergence_step,
            "max_R": render_float(float(np.max(self.r))),
            "final_R": render_float(float(self.r[-1])),
            "steps_recorded": int(self.r.size),
            "horizon": self.horizon,
            "divergence_threshold": self.divergence_threshold,
            "alpha0": float(self.alpha[0]),
        }

    def write_rows(self, handle, columns: tuple[str, ...] = _CSV_COLUMNS, lead: str = "") -> None:
        """Write one CSV row, `lead` then t then the named columns, per step
        before the cutoff: a diverged run stops before its divergence step.

        `columns` names float arrays of the record; a value prints as its
        repr, and NaN as an empty cell. Rows end in CRLF and go out
        _CSV_BLOCK at a time, each block one %-format and one write.
        """
        stop = self.r.size if self.divergence_step is None else self.divergence_step
        arrays = [getattr(self, name) for name in columns]
        lead = lead.replace("%", "%%")
        for start in range(0, stop, _CSV_BLOCK):
            end = min(start + _CSV_BLOCK, stop)
            cells, specs = [range(start, end)], ["%d"]  # t is the row index
            for values in arrays:
                block = values[start:end]
                blank = np.isnan(block)
                if not blank.any():
                    cells.append(block.tolist())
                    specs.append("%r")
                elif blank.all():
                    specs.append("")
                else:
                    pairs = zip(blank.tolist(), block.tolist())
                    cells.append(["" if b else repr(v) for b, v in pairs])
                    specs.append("%s")
            row = lead + ",".join(specs) + "\r\n"
            handle.write(row * (end - start) % tuple(chain.from_iterable(zip(*cells))))

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
            self.write_rows(handle)
        finally:
            if own:
                handle.close()


def run(
    ensemble: QuadraticEnsemble, mixing: MixingMatrix, schedule: StepsizeSchedule, **options
) -> TrajectoryRecord:
    """Run DGD on one schedule: `run_batch` on a batch of one, with the same
    keyword options, metrics, optional histories and early stop."""
    return run_batch(ensemble, mixing, [schedule], **options)[0]


# Steps a chunk runs ahead of the bookkeeping: R(t), consensus, the history
# writes and the early-stop test take a few numpy calls per chunk instead of
# per step. Rows never mix, so every row's arithmetic is that of a lone run.
_CHUNK = 64


def _distance_sums(states: np.ndarray, x_star: np.ndarray) -> np.ndarray:
    """R = sum_k ||x_k - x*|| over the trailing (m, n) axes.

    np.linalg.norm(states - x_star, axis=-1).sum(axis=-1) bit for bit, in
    one chunk-sized temporary where norm keeps a second: with norm, the
    tracemalloc peak of perfbench's sweep-alpha-mixed pass rises by 11%, from
    0.159 to 0.176 MB (numpy 2.4). The two take about the same time.
    """
    dev = states - x_star
    np.multiply(dev, dev, out=dev)
    norms = np.add.reduce(dev, axis=-1)
    np.sqrt(norms, out=norms)
    return norms.sum(axis=-1)


def _deviations(states: np.ndarray) -> np.ndarray:
    """The agent blocks (axis -2) minus their mean."""
    # numpy's reduce sums the agent axis left to right where it is strided
    # (n > 1), and pairwise from 8 agents on where it is contiguous (n = 1):
    # the per-step formula's bits, in one call for any shape
    mean = np.add.reduce(states, axis=-2, keepdims=True)
    mean /= states.shape[-2]  # the mean, bit for bit
    return states - mean


def _consensus(states: np.ndarray) -> np.ndarray:
    """Frobenius distance of the agent blocks (axis -2) to their mean."""
    dev = _deviations(states)
    np.multiply(dev, dev, out=dev)
    return np.sqrt(np.add.reduce(dev, axis=(-2, -1)))


class _RowHistories:
    """One per-step history for each row of a batch, each in a buffer of its own.

    A cell is one float for a metric and one `width`-shaped array for a
    state. A row's buffer holds the cells its chunks have written and grows
    in place as they need more, doubling up to the `cells` of a whole run,
    so the copying stays linear in the horizon. `view` trims it to the row's
    cells and returns them read-only. Growth resizes the buffer itself (a
    realloc along its first axis), which is safe because nothing views a
    buffer before `view`: writes go through slices that live for one
    assignment.
    """

    def __init__(self, rows: int, cells: int, width: tuple[int, ...] = ()):
        self._cells = cells
        self._buffers = [np.empty((min(_CHUNK, cells), *width)) for _ in range(rows)]

    def _grow(self, buffer: np.ndarray, stop: int) -> None:
        cells = min(max(stop, 2 * len(buffer)), self._cells)
        buffer.resize((cells, *buffer.shape[1:]), refcheck=False)

    def write(self, rows: list[int], start: int, values: np.ndarray, reach: list[int]) -> None:
        """Each row's column of a chunk's (steps, rows, *width) `values`, its
        first `reach` cells, into the row's history from step `start` on."""
        for row, cells, column in zip(rows, reach, values.swapaxes(0, 1)):
            stop = start + cells
            buffer = self._buffers[row]
            if stop > len(buffer):
                self._grow(buffer, stop)
            buffer[start:stop] = column[:cells]

    def view(self, row: int, end: int) -> np.ndarray:
        """A row's history, trimmed to its first `end` cells, read-only."""
        buffer = self._buffers[row]
        buffer.resize((end, *buffer.shape[1:]), refcheck=False)
        buffer.setflags(write=False)
        return buffer[:]


def _metric_view(history: _RowHistories | None, row: int, end: int) -> np.ndarray:
    """A row's first `end` cells of a metric's history, or a NaN broadcast without one."""
    return np.broadcast_to(math.nan, (end,)) if history is None else history.view(row, end)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _zeros_kept(states: np.ndarray, cons: np.ndarray) -> bool:
    """Whether each consensus cell out of range is an exact 0: its deviations are all 0."""
    low = squares_out_of_range(cons)
    return not cons[low].any() and not _deviations(states[low]).any()


def _same_instance(
    objective: LiftedObjective, ensemble: QuadraticEnsemble, mixing: MixingMatrix
) -> bool:
    """Whether `objective` has the run's curvatures, linear terms and W."""
    ours = (ensemble.curvatures, ensemble.linear_terms, mixing.w)
    theirs = (objective.ensemble.curvatures, objective.ensemble.linear_terms, objective.mixing.w)
    return all(a is b or np.array_equal(a, b) for a, b in zip(ours, theirs))


def run_batch(
    ensemble: QuadraticEnsemble,
    mixing: MixingMatrix,
    schedules: list[StepsizeSchedule],
    *,
    x0: np.ndarray | None = None,
    horizon: int = DEFAULT_HORIZON,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
    record_every: int | None = None,
    lifted_distance: LiftedObjective | None = None,
    consensus: bool = True,
) -> list[TrajectoryRecord]:
    """Run DGD once per schedule from a shared x0; one record per schedule.

    All runs are stepped together as one (B, m, n) state tensor, and each
    row is a true iteration of its own schedule. R(t) = sum_k ||x_k(t) - x*||
    is measured against the ensemble's aggregate minimizer x*. A row stops
    early with verdict "diverged" once its R(t) exceeds
    `divergence_threshold` or its state stops being finite; it is recorded
    at that step and then dropped from the batch. Passing
    `lifted_distance`, the run's own LiftedObjective (another instance's
    raises ValueError), also records ||x(t) - y(t)||, y(t) the minimizer of
    the lifted objective G_alpha(t) whose gradient step the row takes,
    wherever that stepsize is certified.

    R(t) is always kept. The consensus history (`consensus`) is kept by
    default; the states x(t) are kept only when asked for, with
    `record_every=1` (`nonexpansiveness_check` needs them), and not with the
    default None; no other value is accepted. A caller that reads neither
    saves their memory and their per-chunk work, and every kept metric,
    verdict and divergence step is the same bit for bit.

    The rows are stepped up to _CHUNK steps ahead, and the metrics and the
    early stop are taken once per chunk; the records equal those of a
    step-by-step loop bit for bit. Each row holds the cells it reaches, of
    every history it keeps, states included, and no more: its histories
    grow as its chunks need cells and end at its divergence step or the
    horizon, and its record's arrays are read-only views of them (see
    `TrajectoryRecord`), never copies. So a row that diverges early holds
    few cells whatever the horizon, and a run whose histories outgrow
    memory raises MemoryError when they do. Nothing else is held per step.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if record_every not in (None, 1):
        raise ValueError(f"record_every must be None or 1, got {record_every!r}")
    if not divergence_threshold > 0:  # nan too; an infinite threshold is legal
        raise ValueError(f"divergence_threshold must be positive, got {divergence_threshold!r}")
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
    if lifted_distance is not None and not _same_instance(lifted_distance, ensemble, mixing):
        raise ValueError("lifted_distance is the objective of another instance")
    x_star = ensemble.aggregate_minimizer()

    w, a_stack, b_stack = mixing.w, ensemble.curvatures, ensemble.linear_terms
    size = len(schedules)
    if size == 0:
        return []
    varying = any(s.kind != "constant" for s in schedules)
    # Each row's history of each metric and of its states, which its record
    # views. A constant schedule's alpha, an untracked distance, an unkept
    # consensus and unkept states get no history.
    r_hist = _RowHistories(size, horizon + 1)
    cons_hist = _RowHistories(size, horizon + 1) if consensus else None
    alpha_hist = _RowHistories(size, horizon + 1) if varying else None
    dist_hist = _RowHistories(size, horizon + 1) if lifted_distance is not None else None
    state_hist = None if record_every is None else _RowHistories(size, horizon + 1, (m * n,))
    divergence: list[int | None] = [None] * size

    alpha0 = np.array([s.value(0) for s in schedules], dtype=float)
    # While every R(t) is finite and at most the threshold, every state is
    # finite (a non-finite entry makes R(t) inf or nan) and no row stops.
    # `limit` keeps an infinite threshold from letting an infinite R(t) pass.
    limit = min(divergence_threshold, sys.float_info.max)
    # One chunk of states, reused by every chunk as a (steps, live rows, m, n)
    # view of its first elements.
    chunk_buf = np.empty(_CHUNK * size * m * n)
    prod_buf = np.empty((size, m, n, 1))  # the local products (s A_k) x_k of one step
    rows = np.arange(size)  # schedule index of each live row
    live_alpha = alpha0  # each live row's stepsize, read when no schedule varies
    t = 0  # the time of the chunk's first state
    # A row that diverges inside a chunk is stepped to the chunk's end; those
    # states may overflow, and they are never recorded.
    with np.errstate(over="ignore", invalid="ignore"):
        # Each row's scale is folded into its curvature blocks once per call;
        # a varying schedule re-folds them into the same arrays at every step.
        # The folded blocks of a row that stops leave with it.
        last_scale = alpha0 / m
        sa, sb = _fold(last_scale, a_stack, b_stack)
        while rows.size and t <= horizon:  # runs at least once
            steps = min(_CHUNK, horizon + 1 - t)
            live = rows.size
            chunk = chunk_buf[: steps * live * m * n].reshape(steps, live, m, n)
            prod_col = prod_buf[:live]
            prod = prod_col[..., 0]
            if varying:
                # the chunk's stepsizes in one flat list, with no list per step
                values = [schedules[i].value(s) for s in range(t, t + steps) for i in rows]
                alpha = np.array(values, dtype=float).reshape(steps, live)
                scale = alpha / m
            else:
                alpha = live_alpha  # broadcast over the chunk's steps
            if t == 0:
                chunk[0] = x0.reshape(m, n)
            else:
                if varying:
                    _fold(last_scale, a_stack, b_stack, sa, sb)
                _dgd_step(w, sa, sb, last, last[..., None], chunk[0], prod_col, prod)
            for j in range(1, steps):
                if varying:
                    _fold(scale[j - 1], a_stack, b_stack, sa, sb)
                x = chunk[j - 1]
                _dgd_step(w, sa, sb, x, x[..., None], chunk[j], prod_col, prod)

            r = _distance_sums(chunk, x_star)
            cons = None if cons_hist is None else _consensus(chunk)
            died = None
            # some R(t) over the limit or nan, or squares of R(t) or consensus out of
            # the float range (`squares_out_of_range`) but for zeros the rescue keeps; a
            # non-finite state makes R(t) inf or nan, so R(t) alone catches it
            if not (
                SQUARES_FLOOR <= r.min()
                and r.max() <= limit
                and (cons is None or SQUARES_FLOOR <= cons.min() and cons.max() < math.inf
                     or _zeros_kept(chunk, cons))
            ):
                # an R(t) or consensus of a finite state whose squares left the
                # float range is taken again in a binary unit, exactly, before
                # the crossing test
                finite = np.isfinite(chunk).all(axis=(2, 3))
                js, qs = np.nonzero(squares_out_of_range(r) & finite)
                if js.size:
                    r[js, qs] = norm(chunk[js, qs] - x_star, axis=-1).sum(axis=-1)
                # the early stop of each row at its own first crossing, where
                # a non-finite state reads as infinite R(t) and consensus
                r[~finite] = math.inf
                if cons is not None:
                    js, qs = np.nonzero(squares_out_of_range(cons) & finite)
                    if js.size:
                        # the state's unit, not the deviation's: the agent
                        # mean itself can overflow
                        rescued = chunk[js, qs]
                        peaks = abs(rescued).max(axis=(1, 2)).tolist()
                        units = np.array([binary_unit(p) for p in peaks])
                        cons[js, qs] = _consensus(rescued / units[:, None, None]) * units
                    cons[~finite] = math.inf
                dies = ~finite | (r > divergence_threshold)
                if dies.any():
                    died = dies.any(axis=0)
                    death = np.where(died, dies.argmax(axis=0), steps)
                    for q in np.flatnonzero(died):
                        divergence[rows[q]] = t + int(death[q])

            # each row's cells up to its divergence step, or to the chunk's end
            ids = rows.tolist()
            reach = [steps] * live if died is None else np.minimum(death + 1, steps).tolist()
            r_hist.write(ids, t, r, reach)
            if cons is not None:
                cons_hist.write(ids, t, cons, reach)
            if varying:
                alpha_hist.write(ids, t, alpha, reach)
            if state_hist is not None:
                state_hist.write(ids, t, chunk.reshape(steps, live, m * n), reach)
            if dist_hist is not None:
                alphas = np.broadcast_to(alpha, (steps, live))
                lo, hi = lifted_distance.certified_interval
                measured = (alphas > lo) & (alphas < hi)
                if died is not None:
                    measured &= finite & (np.arange(steps)[:, None] <= death)
                js, qs = np.nonzero(measured)
                distinct, which = np.unique(alphas[js, qs], return_inverse=True)
                points = lifted_distance._minimizers(distinct)[which]
                dist = np.full((steps, live), math.nan)  # blank where not certified
                dist[js, qs] = norm(chunk[js, qs].reshape(js.size, m * n) - points, axis=1)
                dist_hist.write(ids, t, dist, reach)

            last = chunk[-1]
            if varying:
                last_scale = scale[-1]
            if died is not None:
                survive = ~died
                rows, last, live_alpha = rows[survive], last[survive], live_alpha[survive]
                sa, sb = sa[survive], sb[survive]
                if varying:
                    last_scale = last_scale[survive]
            t += steps

    records = []
    for i, stop in enumerate(divergence):
        end = horizon + 1 if stop is None else stop + 1
        records.append(
            TrajectoryRecord(
                alpha=alpha_hist.view(i, end) if varying else np.broadcast_to(alpha0[i], (end,)),
                r=r_hist.view(i, end),
                consensus_err=_metric_view(cons_hist, i, end),
                dist_lifted_min=_metric_view(dist_hist, i, end),
                states=(
                    np.broadcast_to(math.nan, (0, m * n))
                    if state_hist is None
                    else state_hist.view(i, end)
                ),
                horizon=horizon,
                divergence_threshold=divergence_threshold,
                verdict="bounded" if stop is None else "diverged",
                divergence_step=stop,
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

    @property
    def is_critical(self) -> bool:
        return abs(self.spectral_radius - 1.0) <= CRITICAL_BAND


def boundedness_verdicts(objective: LiftedObjective, alphas) -> list[OracleVerdict]:
    """`boundedness_oracle` at each constant stepsize in `alphas`, from one
    stacked eigensolve of the objective's lifted Hessians H(alpha/m), as
    M_alpha = I - H(alpha/m) (`ThresholdStack.spectral_radii` of its stack,
    the one its certification reads); each verdict is bit for bit that of a
    lone call."""
    if not all(0 < alpha < math.inf for alpha in alphas):
        raise ValueError("alpha must be finite and positive")
    rhos = objective._stack.spectral_radii(alphas).tolist()
    return [OracleVerdict(spectral_radius=rho, bounded=rho <= 1.0 + 1e-12) for rho in rhos]


def boundedness_oracle(
    ensemble: QuadraticEnsemble, mixing: MixingMatrix, alpha: float
) -> OracleVerdict:
    """Ground-truth boundedness for constant stepsize via the spectral radius."""
    return boundedness_verdicts(LiftedObjective(ensemble, mixing), [alpha])[0]


@dataclass(frozen=True, eq=False)
class NonexpansivenessReport:
    """Per-step distances to the current lifted minimizer and their margins.

    core_margin[t] = ||x(t+1) - y(t)|| - ||x(t) - y(t)|| with y(t) the
    minimizer of G_alpha(t); non-positive (up to `tolerance`) whenever the
    stepsize stays inside the certified region. drift_measured[t] is the
    minimizer shift ||y(t+1) - y(t)|| and drift_bound[t] its closed-form
    bound sum_i ||z_i|| |g_i(alpha(t+1)) - g_i(alpha(t))| in the pencil
    basis y = sum_i z_i g_i (see `LiftedObjective._shift_bounds`); both are 0
    where the stepsize does not change. For a non-increasing schedule the
    bounds telescope: drift_bound sums to the same bound between alpha(0)
    and the last stepsize, so where no core margin is positive the distance
    to the moving minimizer grows by at most that much over the whole run.
    """

    distances: np.ndarray
    core_margin: np.ndarray
    drift_measured: np.ndarray
    drift_bound: np.ndarray
    ok: bool
    max_core_margin: float
    tolerance: float


def nonexpansiveness_check(
    record: TrajectoryRecord, objective: LiftedObjective
) -> NonexpansivenessReport:
    """Verify per-step non-expansion of the distance to the lifted minimizer.

    Requires a record that kept every state (run with record_every=1). Each step
    descends G_alpha(t), so every alpha(t) must be certified strongly
    convex, and alpha(0) must not exceed m (1 + lambda_min(W)) / L, up to a
    relative 1e-12 (the floor scales as 1/L): the spectrum-floor bound on
    the alpha/m axis, where (I + W) (x) I - (alpha/m) blockdiag(A_k) is at
    least (1 + lambda_min(W) - (alpha/m) L) I, so the gradient step on
    G_alpha does not expand distances.
    """
    if len(record.states) != record.r.size:
        raise ValueError("nonexpansiveness_check needs a record with record_every=1")

    floor = objective.ensemble.m * lambda_min_bound(
        objective.mixing.spectral.lambda_min, objective.ensemble.smoothness_constant()
    )
    alphas, states = record.alpha, record.states  # one state per step
    alpha0 = float(alphas[0])
    if alpha0 > floor * (1.0 + 1e-12):
        raise ValueError(f"alpha(0)={alpha0:g} exceeds m (1 + lambda_min(W)) / L = {floor:g}")

    targets = objective._minimizers(alphas)  # names the first uncertified stepsize
    distances = norm(states - targets, axis=1)
    core_margin = norm(states[1:] - targets[:-1], axis=1) - distances[:-1]
    max_core = float(np.max(core_margin)) if core_margin.size else 0.0
    return NonexpansivenessReport(
        distances=distances,
        core_margin=core_margin,
        drift_measured=norm(np.diff(targets, axis=0), axis=1),
        drift_bound=objective._shift_bounds(alphas),
        ok=bool(max_core <= _NONEXPANSION_TOLERANCE),
        max_core_margin=max_core,
        tolerance=_NONEXPANSION_TOLERANCE,
    )
