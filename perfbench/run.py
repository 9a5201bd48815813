"""dgdlab benchmark: one workload per invocation, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; dgdlab is imported from its ``src/``.
With ``--trace 0`` the run measures, for about S seconds, closed-loop
passes of the workload (one caller; the next pass starts when the
previous one returns) and reports the end-to-end metrics listed in
BENCHMARK.json. With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics. Times are scaled to a reference
host speed by a calibration kernel run between passes (calibrate.py);
raw medians are printed alongside. Every pass is checked against an
independent LAPACK reference. Human-readable lines come first; the last
line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".perfbench_work"
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# One process, one thread: serial sweeps and single-threaded BLAS. BLAS reads
# its thread count when numpy is first imported, so this precedes that import.
os.environ.update(PINNED_ENV)
os.environ.pop("DGD_LAB_THREADS", None)

import calibrate  # noqa: E402
import spans  # noqa: E402

MIN_PASSES = 40  # p75 of 40 passes has 10 samples beyond it
TAIL_PERCENTILE = 75
MAX_MEASURE_S = 120.0  # keeps a much slower commit inside the 180 s run limit
SETUP_REPEATS = 15
MIN_TRACE_PAIRS = 5

SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
import dgdlab
from dgdlab.config import load_config
load_config(sys.argv[1], seed_override=None if sys.argv[2] == "-" else int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    index = max(0, -(-len(ordered) * percentile // 100) - 1)
    return ordered[int(index)]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown (no git)"
    return done.stdout.strip() or "unknown"


def provenance(args, workload) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "ensemble_seed": workload.ensemble_seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "threads": {**PINNED_ENV, "DGD_LAB_THREADS": "unset"},
    }


def measure_setup(workload, clock) -> list[tuple[int, float]]:
    """import dgdlab + load_config in fresh interpreters, started one at a time.

    Returns (calibration index, raw seconds) per interpreter.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    seed = "-" if workload.ensemble_seed is None else str(workload.ensemble_seed)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, workload.config_path, seed],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        times.append((clock.mark(), float(done.stdout.strip())))
    return times


class Ledger:
    """Runs, times and checks passes, and counts the failed ones."""

    def __init__(self, workload, clock):
        self.workload = workload
        self.clock = clock
        self.attempted = 0
        self.failed = 0

    def run_checked(self, around=contextlib.nullcontext):
        """One pass: returns (calibration index, raw seconds, output or None if it failed).

        Every pass starts from a collected heap, is followed by the
        calibration kernel, and is checked outside its timing.
        """
        gc.collect()
        start = time.perf_counter()
        try:
            with around():
                output = self.workload.run_pass()
            problems = None
        except Exception as exc:  # a crashing pass is a failed operation, not a crashed benchmark
            output, problems = None, [f"pass raised {exc!r}"]
        elapsed = time.perf_counter() - start
        index = self.clock.mark()
        if problems is None:
            try:
                problems = self.workload.check(output)
            except Exception as exc:  # output too malformed to check
                problems = [f"check raised on the output: {exc!r}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 3:
                print(f"FAILED pass {self.attempted}: {'; '.join(problems[:5])}", file=sys.stderr)
        return index, elapsed, None if problems else output

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def keep_measuring(start: float, count: int, seconds: float, minimum: int) -> bool:
    elapsed = time.perf_counter() - start
    return elapsed < MAX_MEASURE_S and (elapsed < seconds or count < minimum)


@contextlib.contextmanager
def traced_memory(peaks: list[int]):
    """tracemalloc over the body only; appends its peak in bytes."""
    tracemalloc.start()
    try:
        yield
    finally:
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def end_to_end(args, workload, ledger, spec) -> dict:
    clock = ledger.clock
    setup = measure_setup(workload, clock)
    ledger.run_checked()  # warm-up: first calls, bytecode caches
    peaks: list[int] = []
    # The window closes when the pass returns, before the calibration kernel and the check.
    ledger.run_checked(around=lambda: traced_memory(peaks))
    peak_bytes = peaks[0]

    timed, thresholds, steps = [], 0, 0
    start = time.perf_counter()
    while keep_measuring(start, len(timed), args.seconds, MIN_PASSES):
        index, elapsed, output = ledger.run_checked()
        timed.append((index, elapsed))
        if output is not None:
            thresholds += workload.thresholds_per_pass
            steps += workload.sim_steps(output)
    raw = [elapsed for _, elapsed in timed]
    walls = [elapsed * clock.scale(index) for index, elapsed in timed]
    setup_raw = [elapsed for _, elapsed in setup]
    busy = sum(walls)
    n = len(walls)
    beyond = n - -(-n * TAIL_PERCENTILE // 100)
    values = {
        "wall_s": statistics.median(walls),
        "wall_s_tail": nearest_rank(walls, TAIL_PERCENTILE),
        "setup_s": statistics.median(elapsed * clock.scale(index) for index, elapsed in setup),
        "peak_mem_mb": peak_bytes / 1e6,
    }
    notes = {
        "wall_s": f"median of n={n} passes (raw {statistics.median(raw):.4g} s)",
        "wall_s_tail": f"p{TAIL_PERCENTILE} of n={n} passes, {beyond} beyond "
                       f"(raw {nearest_rank(raw, TAIL_PERCENTILE):.4g} s)",
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters (raw {statistics.median(setup_raw):.4g} s)",
        "peak_mem_mb": "tracemalloc peak of one untimed pass",
    }
    report = [
        *((name, values[name], unit, notes[name]) for name, unit in spec),
        ("thresholds_per_s", thresholds / busy if thresholds else None, "1/s",
         f"{thresholds} threshold answers in {busy:.4g} s of passes"),
        ("sim_steps_per_s", steps / busy if steps else None, "1/s",
         f"{steps} DGD steps in {busy:.4g} s of passes"),
        ("fail_ratio", ledger.failed / ledger.attempted, "ratio",
         f"{ledger.failed} failed of {ledger.attempted} checked passes"),
    ]
    for name, value, unit, note in report:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<17} {shown:>12} {unit:<6} {note}")
    return {name: {"value": values[name], "unit": unit} for name, unit in spec}


def layer_values(tracer, workload, output, scale: float) -> dict:
    """Flat per-layer metrics of one traced pass; times scaled like the pass."""
    stats = tracer.stats()
    flat = {}
    for name in spans.SPAN_NAMES:
        entry = stats.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        flat[f"{name}.calls"] = entry["calls"]
        flat[f"{name}.total_s"] = entry["total_s"] * scale
        flat[f"{name}.self_s"] = entry["self_s"] * scale
    counts = tracer.counts
    steps = counts["simulator.run.steps"]
    thresholds = flat["lifted.strong_convexity_threshold.calls"]
    alphas = len(tracer.seen["lifted.minimizer.alpha"])
    flat.update(
        {
            "numerics.sym_eigen.work_n3": counts["numerics.sym_eigen.work_n3"],
            "simulator.run.steps": steps,
            "simulator.run.us_per_step": 1e6 * flat["simulator.run.self_s"] / steps if steps else 0.0,
            "simulator.TrajectoryRecord.to_csv.bytes": counts["simulator.TrajectoryRecord.to_csv.bytes"],
            "lifted.certify_per_threshold": flat["lifted.certify.calls"] / thresholds if thresholds else 0.0,
            "lifted.minimizer_per_alpha": flat["lifted.minimizer.calls"] / alphas if alphas else 0.0,
            "cli.out_bytes": workload.out_bytes(output) if output is not None else 0,
        }
    )
    return flat


def traced(args, workload, ledger, spec) -> dict:
    clock = ledger.clock
    ledger.run_checked()  # warm-up
    plain, traced_passes = [], []
    start = time.perf_counter()
    while keep_measuring(start, len(traced_passes), args.seconds, MIN_TRACE_PAIRS):
        plain.append(ledger.run_checked()[:2])
        tracer = spans.Tracer()
        tracer.install()
        try:
            index, elapsed, output = ledger.run_checked(around=lambda: tracer.span(spans.ROOT_SPAN))
        finally:
            tracer.uninstall()
        traced_passes.append((index, elapsed, tracer, output))
    samples = [layer_values(tracer, workload, output, clock.scale(index))
               for index, _, tracer, output in traced_passes]
    medians = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    medians["trace.overhead_s"] = (
        statistics.median(elapsed * clock.scale(index) for index, elapsed, _, _ in traced_passes)
        - statistics.median(elapsed * clock.scale(index) for index, elapsed in plain)
    )
    print(f"  {len(samples)} traced and {len(plain)} untraced passes; medians:")
    metrics = {}
    for name, unit in spec:
        metrics[name] = {"value": medians[name], "unit": unit}
        print(f"  {name:<48} {medians[name]:>14.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dgdlab" / "__init__.py").is_file():
        print(f"error: no dgdlab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    benchmark = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import dgdlab
    import workloads

    if Path(dgdlab.__file__).resolve().parent != SRC / "dgdlab":
        print(f"error: imported dgdlab from {dgdlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    spec = [(m["name"], m["unit"]) for m in benchmark[section]]

    WORK_PARENT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK_PARENT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print(json.dumps({"provenance": provenance(args, workload)}))
        ledger = Ledger(workload, calibrate.Series())
        measure = traced if args.trace else end_to_end
        metrics = measure(args, workload, ledger, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORK_PARENT.iterdir()):
            WORK_PARENT.rmdir()
    print(json.dumps(ledger.result(metrics)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
