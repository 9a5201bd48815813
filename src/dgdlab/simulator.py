"""Deterministic DGD simulation, trajectory metrics, and the exact oracle.

One step with stepsize alpha maps the stacked state x to

    (W (x) I_n) x - (alpha/m) * (grad f_1(x_1), ..., grad f_m(x_m)),

which is exactly one gradient-descent step on the lifted objective
G_alpha. The paper's per-agent update x_i <- sum_j w_ij x_j - a grad f_i(x_i)
is this step with alpha = m a.

The engine steps a batch of rows in chunks of up to _CHUNK steps. A
chunk holds one more state per row than it records: slot 0 is its first
state, each later slot is stepped from the one before, and the last slot
is the next chunk's slot 0. It folds each row's scale s = alpha/m into a
step operator built for exactly the rows it steps, once per operator for
a constant schedule and once per step for a varying one; when rows stop,
the rows left get an operator of their own. A step on the whole batch
makes no temporary array.

Up to nm = 8 (`_DENSE_NM`, with its measured table) the operator is the
row's dense iteration matrix M = (W (x) I_n) - s blockdiag(A_k), and a step
is two numpy calls, x <- M x - s b. Above it, where the dense O(m^2 n^2)
work loses, the operator keeps W and s A_k apart, and a step is four,
x <- W x - (s A) x - s b. Both round differently from the literal
W x - s (A x + b), so states and R(t) move at rounding level against it:
the dense form rounds w_kk - s a_kk before its products and sums the
mixing and local terms of an entry in one pass, and the structured form
rounds s A_k and s b_k before its products. The dense products run in
numpy's own loop, not BLAS, which on numpy's x86-64 builds rounds each
product before its add, so two agents in mirror image stay so, as they do
in the structured form.

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


# nm up to which a step multiplies each row's state by its dense iteration
# matrix (`_DenseStep`); above it the step keeps W and s A_k apart
# (`_StructuredStep`). The dense step does O(m^2 n^2) work in two numpy
# calls, in numpy's own loop; the structured one O(m^2 n + m n^2) in four,
# through BLAS. The choice reads nm alone, so a row's bits never depend on
# the batch it runs in. Microseconds per step of B rows through `advance`,
# structured / dense, the better of two runs: numpy 2.4.6,
# OPENBLAS_NUM_THREADS=1, one core of a 2-core Xeon with a 2 MiB L2. At n = 2:
#
#     nm       6          8          10         16          32           64
#     B = 1    3.6/1.7    3.7/1.8    3.8/1.8    4.0/1.9     4.3/2.3      5.0/4.2
#     B = 8    5.1/2.1    5.3/2.2    5.6/2.4    6.6/3.4     9.3/6.6      23.8/21.0
#     B = 16   6.2/2.4    6.8/2.7    7.6/3.1    9.3/4.8     14.7/11.3    26.2/38.9
#     B = 64   12.7/4.0   15.4/5.5   19.0/6.8   26.2/13.3   48.7/41.4    99.5/167.6
#     B = 256  42.6/12.1  50.5/16.3  62.4/22.5  101.8/51.2  196.2/180.3  399/743
#
#     nm       96         128        192        300
#     B = 1    6.1/7.5    6.9/11.7   9.0/24.4   12.9/65.6
#     B = 8    22.9/48.6  28.3/88.4  48.5/200   80.4/518
#     B = 16   41.9/95.2  54.8/170   92.8/383   153/1015
#     B = 64   152/385    212/701    347/1601   609/4015
#     B = 256  618/1582   831/2909   1468/6306  2482/16102
#
# At n = 2 the dense step wins up to nm = 32 at every B. At other n it loses
# sooner, and nm = 8 is the largest size measured at which it wins at every
# n and B; at nm = 12 with n = 12 it lost at B = 256 (27.8/29.4). B = 64 and
# B = 256:
#
#     nm    n = 1                n = nm/2             n = nm
#     8     9.2/5.5, 26.4/16.3   11.9/5.7, 35.9/16.0  8.5/5.3, 21.6/15.5
#     10    10.2/6.8, 30.2/21.7  12.3/6.7, 37.8/21.8  9.6/6.8, 27.9/22.6
#     16    14.3/15.2, 41.3/55.4 13.0/13.5, 40.5/49.8 11.0/14.4, 32.3/53.3
#
# At B = 1024, nm = 8 and n = 2 it is 211/73. Up to nm = 8 a row's dense
# operator, 2 nm^2 floats with its buffer's gaps, is at most a quarter of
# the row's 64-step chunk of states, so it never sets a batch's memory.
_DENSE_NM = 8


class _StepOperator:
    """The DGD step of a fixed set of rows, each at its scale s = alpha/m.

    A subclass is built for exactly the rows it steps, holds their
    operators folded at the scales it was built with, and says how to fold
    other scales into them (`_fold`) and how to step with them (`_step`), on
    states shaped as its `_columns` shapes them. A row that stops is not
    dropped from an operator: the rows left get one of their own.
    """

    def __init__(self, a_stack: np.ndarray, b_stack: np.ndarray):
        self._a, self._b = a_stack, b_stack

    def advance(self, states: np.ndarray, scales: np.ndarray | None) -> None:
        """Step a chunk of (steps + 1, B, m, n) `states` in place.

        states[0] is the chunk's first state, and each states[j + 1] is
        stepped from states[j] at scales[j], shaped (steps, B, 1, 1, 1), or
        at the folded scales where `scales` is None.
        """
        x = self._columns(states)
        if scales is None:
            for before, after in zip(x[:-1], x[1:]):
                self._step(before, after)
        else:
            for before, after, scale in zip(x[:-1], x[1:], scales):
                self._fold(scale)
                self._step(before, after)


class _DenseStep(_StepOperator):
    """The step as one matmul by each row's iteration matrix, for nm <= _DENSE_NM.

    M = kron(W, I_n) - s blkdiag(A_k), (nm, nm) per row, and c = s b: a step
    on (nm, 1) columns is out = M x - c, one matmul and one subtraction.
    M's diagonal blocks round w_kk I - s A_k before any product, and the
    mixing and local terms of an entry sum in one pass. M sits in every
    other column of its buffer, a stride BLAS does not take, so numpy
    multiplies in its own loop, which does not dispatch on the CPU or the
    BLAS kernel: each entry of M x is its products, each rounded, summed
    left to right from 0 (numpy's x86-64 builds fuse no multiply-add). A
    fused dot product, as BLAS kernels take it, rounds M_ij x_j in one entry
    and not in its mirror image, so two agents at +-u, whose mean the
    structured step keeps at exactly 0, would leak about 1e-17 of u into
    their mean at each step. Folding rewrites only M's diagonal blocks,
    through a view, as the off-diagonal blocks w_ij I do not depend on s.
    """

    def __init__(self, w: np.ndarray, a_stack: np.ndarray, b_stack: np.ndarray, scale: np.ndarray):
        super().__init__(a_stack, b_stack[..., None])
        size, (m, n), nm = len(scale), b_stack.shape, b_stack.size
        buffer = np.empty((size, nm, nm, 2))
        self._op = buffer[..., 0]  # every other column
        blocks = buffer.reshape(size, m, n, m, n, 2)[..., 0]  # the same, per agent pair
        blocks[:] = w[:, None, :, None] * np.eye(n)[:, None, :]
        self._blocks = np.einsum("bkikj->bkij", blocks)  # the diagonal blocks, a view
        self._w_blocks = self._blocks[0].copy()  # w_kk I_n, before any fold
        self._off = np.empty((size, nm, 1))
        self._offsets = self._off.reshape(size, m, n, 1)
        self._fold(scale)

    def _fold(self, scale: np.ndarray) -> None:
        np.multiply(scale, self._a, out=self._blocks)
        np.subtract(self._w_blocks, self._blocks, out=self._blocks)
        np.multiply(scale, self._b, out=self._offsets)

    @staticmethod
    def _columns(states: np.ndarray) -> np.ndarray:
        return states.reshape(*states.shape[:-2], states.shape[-2] * states.shape[-1], 1)

    def _step(self, x: np.ndarray, out: np.ndarray) -> None:
        np.matmul(self._op, x, out=out)
        out -= self._off


class _StructuredStep(_StepOperator):
    """The step as W x - (s A) x - s b, for nm > _DENSE_NM: four numpy calls.

    s A_k is (B, m, n, n) and c = s b is (B, m, n); W x and the local
    products sum apart, and s A_k and s b_k are rounded before their
    products.
    """

    def __init__(self, w: np.ndarray, a_stack: np.ndarray, b_stack: np.ndarray, scale: np.ndarray):
        super().__init__(a_stack, b_stack)
        size, (m, n) = len(scale), b_stack.shape
        self._w = w
        self._op, self._off = np.empty((size, m, n, n)), np.empty((size, m, n))
        self._prod = np.empty((size, m, n, 1))  # the local products (s A_k) x_k
        self._fold(scale)

    def _fold(self, scale: np.ndarray) -> None:
        np.multiply(scale, self._a, out=self._op)
        np.multiply(scale[..., 0], self._b, out=self._off)

    @staticmethod
    def _columns(states: np.ndarray) -> np.ndarray:
        return states

    def _step(self, x: np.ndarray, out: np.ndarray) -> None:
        np.matmul(self._w, x, out=out)
        np.matmul(self._op, x[..., None], out=self._prod)
        out -= self._prod[..., 0]
        out -= self._off


def _step_operator(w, a_stack, b_stack, scale: np.ndarray) -> _StepOperator:
    """The step of nm = m n's form (`_DENSE_NM`) for rows at the (B,) `scale`."""
    form = _DenseStep if b_stack.size <= _DENSE_NM else _StructuredStep
    return form(w, a_stack, b_stack, scale[:, None, None, None])


def step(
    state: np.ndarray,
    ensemble: QuadraticEnsemble,
    mixing: MixingMatrix,
    alpha: float,
) -> np.ndarray:
    """One synchronous DGD step on the stacked state: state - grad G_alpha(state).

    It takes the step `run_batch` takes, bit for bit: the same operator."""
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
    operator = _step_operator(
        mixing.w, ensemble.curvatures, ensemble.linear_terms, np.array([alpha / m])
    )
    states = np.empty((2, 1, m, n))  # a chunk of one step
    states[0, 0] = state.reshape(m, n)
    operator.advance(states, None)
    return states[1].reshape(-1)


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
            # the column lists go before the text is formatted, and the
            # cells' floats before it is written, so no two are held at once
            values = tuple(chain.from_iterable(zip(*cells)))
            del cells
            text = (lead + ",".join(specs) + "\r\n") * (end - start) % values
            del values
            handle.write(text)

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
    one deviation array where norm keeps a second.
    """
    dev = states - x_star
    np.multiply(dev, dev, out=dev)
    norms = np.add.reduce(dev, axis=-1)
    np.sqrt(norms, out=norms)
    return np.add.reduce(norms, axis=-1)


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


# Floats of a chunk's states that R(t) and consensus take at once
# (`_in_parts`): an 8-row chunk of nm = 6 goes in two parts, a lone row's
# in one.
_METRIC_CELLS = 2048


def _in_parts(metric, states: np.ndarray, *args) -> np.ndarray:
    """metric(states, *args), one float per (step, row) of (steps, B, m, n)
    states, taken over as few equal runs of steps as keep each run within
    _METRIC_CELLS floats.

    Each metric reduces over trailing axes only, so the runs change no bit.
    numpy 2.4 buffers a subtraction that broadcasts, such as states - x_star
    or states minus their agent mean, in a temporary of the result's size,
    `out=` or not, so a metric holds two temporaries of its input's size;
    the runs bound them whatever the batch size.
    """
    parts = -(-states.size // _METRIC_CELLS)
    if parts == 1:
        return metric(states, *args)
    run = -(-len(states) // parts)
    values = np.empty(states.shape[:-2])
    for start in range(0, len(states), run):
        values[start : start + run] = metric(states[start : start + run], *args)
    return values


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
    wherever that stepsize is certified, and raises where it refuses y(t).

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
    # One chunk of states, reused by every chunk as a (steps + 1, live rows,
    # m, n) view of its first elements: slot 0 is the chunk's first state,
    # x0 in the first chunk, and the last slot the next chunk's slot 0.
    chunk_buf = np.empty((_CHUNK + 1) * size * m * n)
    chunk_buf[: size * m * n].reshape(size, m * n)[:] = x0
    rows = np.arange(size)  # schedule index of each live row
    live_alpha = alpha0  # each live row's stepsize, read when no schedule varies
    t = 0  # the time of the chunk's first state
    # A row that diverges inside a chunk is stepped to the chunk's end; those
    # states may overflow, and they are never recorded. Nor is the state
    # past the horizon that the last chunk steps to.
    with np.errstate(over="ignore", invalid="ignore"):
        # Each row's scale is folded into its step operator once per
        # operator; a varying schedule re-folds it in place at every step.
        # When rows stop, the rows left get an operator of their own.
        operator = _step_operator(w, a_stack, b_stack, alpha0 / m)
        while rows.size and t <= horizon:  # runs at least once
            steps = min(_CHUNK, horizon + 1 - t)
            live = rows.size
            states = chunk_buf[: (steps + 1) * live * m * n].reshape(steps + 1, live, m, n)
            if varying:
                # the chunk's stepsizes in one flat list, with no list per step
                values = [schedules[i].value(s) for s in range(t, t + steps) for i in rows]
                alpha = np.array(values, dtype=float).reshape(steps, live)
                operator.advance(states, (alpha / m)[..., None, None, None])
            else:
                alpha = live_alpha  # broadcasts over the chunk's steps
                operator.advance(states, None)
            chunk = states[:steps]  # x(t), ..., x(t + steps - 1)

            r = _in_parts(_distance_sums, chunk, x_star)
            cons = None if cons_hist is None else _in_parts(_consensus, chunk)
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
                    dev = _deviations(chunk[js, qs])
                    # where the agent mean overflowed, deviations in the state's unit
                    over = ~np.isfinite(dev).all(axis=(1, 2))
                    peaked = chunk[js[over], qs[over]]
                    units = binary_unit(abs(peaked).max(axis=(1, 2)))[:, None, None]
                    dev[over] = _deviations(peaked / units) * units
                    cons[js, qs] = norm(dev.reshape(js.size, m * n), axis=1)
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

            ahead = states[-1]  # x(t + steps), the next chunk's slot 0
            if died is not None:
                survive = ~died
                rows, live_alpha, ahead = rows[survive], live_alpha[survive], ahead[survive]
                if rows.size:
                    operator = _step_operator(w, a_stack, b_stack, live_alpha / m)
            chunk_buf[: ahead.size] = ahead.reshape(-1)
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
    M_alpha = I - H(alpha/m) (`ThresholdStack.spectral_radii`, of the
    one-row stack the objective is); each verdict is bit for bit that of a
    lone call."""
    if not all(0 < alpha < math.inf for alpha in alphas):
        raise ValueError("alpha must be finite and positive")
    rhos = objective.spectral_radii(alphas).tolist()
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
    bound sum_i ||z_i|| |g_i(alpha(t+1)) - g_i(alpha(t))| in the Schur basis
    y = 1 kron x* + sum_i z_i g_i, g_i = -r_i / (1/t - mu_i) (see
    `LiftedObjective._shift_bounds`); both are 0 where the stepsize does not
    change. For a non-increasing schedule the bounds telescope: drift_bound
    sums to the same bound between alpha(0) and the last stepsize, so where
    no core margin is positive the distance to the moving minimizer grows by
    at most that much over the whole run.
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
