"""Outside-in tracer: spans around the calls into each dgdlab layer.

The wrappers are installed from the benchmark's side, so nothing under
``src/`` changes. A function is wrapped at every place it can be looked
up: its defining module and each module that bound it by name with
``from .x import f`` (``sym_eigen`` is bound in ``topology``, ``costs``
and ``simulator``; ``solve_spd`` in ``lifted`` and ``costs``). Methods
are wrapped on their class. Spans live in memory as
``[name, start, end, parent]``; a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict


def _count_work_n3(tracer, args, kwargs, result):
    tracer.counts["numerics.sym_eigen.work_n3"] += len(args[0]) ** 3


def _count_steps(tracer, args, kwargs, result):
    tracer.counts["simulator.run.steps"] += int(result.t[-1])


def _count_alphas(tracer, args, kwargs, result):
    alpha = args[1] if len(args) > 1 else kwargs["alpha"]
    tracer.seen["lifted.minimizer.alpha"].add(float(alpha))


def _count_csv_bytes(tracer, args, kwargs, result):
    target = args[1] if len(args) > 1 else kwargs["target"]
    if isinstance(target, (str, os.PathLike)):
        tracer.counts["simulator.TrajectoryRecord.to_csv.bytes"] += os.path.getsize(target)


# (defining module, attribute or Class.method, span name, counter)
TRACED = [
    ("dgdlab.numerics", "sym_eigen", "numerics.sym_eigen", _count_work_n3),
    ("dgdlab.numerics", "min_eigenvalue", "numerics.min_eigenvalue", None),
    ("dgdlab.numerics", "cholesky", "numerics.cholesky", None),
    ("dgdlab.numerics", "solve_spd", "numerics.solve_spd", None),
    ("dgdlab.topology", "validate_mixing", "topology.validate_mixing", None),
    ("dgdlab.costs", "QuadraticEnsemble.smoothness_constant", "costs.smoothness_constant", None),
    ("dgdlab.costs", "QuadraticEnsemble.aggregate_mu", "costs.aggregate_mu", None),
    ("dgdlab.costs", "QuadraticEnsemble.aggregate_minimizer", "costs.aggregate_minimizer", None),
    ("dgdlab.lifted", "LiftedObjective.certify", "lifted.certify", None),
    ("dgdlab.lifted", "LiftedObjective.strong_convexity_threshold",
     "lifted.strong_convexity_threshold", None),
    ("dgdlab.lifted", "LiftedObjective.minimizer", "lifted.minimizer", _count_alphas),
    ("dgdlab.bounds", "build_report", "bounds.build_report", None),
    ("dgdlab.simulator", "run", "simulator.run", _count_steps),
    ("dgdlab.simulator", "boundedness_oracle", "simulator.boundedness_oracle", None),
    ("dgdlab.simulator", "nonexpansiveness_check", "simulator.nonexpansiveness_check", None),
    ("dgdlab.simulator", "TrajectoryRecord.to_csv", "simulator.TrajectoryRecord.to_csv",
     _count_csv_bytes),
    ("dgdlab.config", "load_config", "config.load_config", None),
    ("dgdlab.cli", "cmd_bounds", "cli.cmd_bounds", None),
    ("dgdlab.cli", "cmd_sweep_alpha", "cli.cmd_sweep_alpha", None),
    ("dgdlab.cli", "cmd_sweep_epsilon", "cli.cmd_sweep_epsilon", None),
]
SPAN_NAMES = [name for _, _, name, _ in TRACED]
ROOT_SPAN = "harness.pass"


class Tracer:
    """Records spans and counts while installed; restores every patched site on uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.seen: defaultdict[str, set] = defaultdict(set)
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sys.modules.items() if n == "dgdlab" or n.startswith("dgdlab.")]
        for module_name, attr, name, count in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(owner, class_name)
                self._patch(cls, method, self.wrap(name, cls.__dict__[method], count))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, count)
            sites = [(m, key) for m in modules for key, value in vars(m).items() if value is original]
            for module, key in sites:
                self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (summed durations) and self_s."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inside in zip(self.spans, child):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - inside
        return out
