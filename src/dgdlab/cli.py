"""Command-line front end.

Subcommands:
  bounds             stepsize-bound table for a problem instance (JSON)
  simulate           one DGD run: trajectory CSV plus summary JSON
  sweep-alpha        one run per stepsize multiple of the certified threshold
  sweep-epsilon      certified threshold vs epsilon for the planted family
  validate-topology  validate a mixing spec and print its spectral summary

Exit codes: 0 success, 2 configuration error (a horizon too long for
memory among them), 3 certification failure or an eigensolve that did not
converge, 4 I/O failure. A command computes its whole result before it
writes anything, so one that exits 2 or 3 writes nothing: no stdout, no file.
Any failure to create --out or to write output exits 4 with one line.

A command imports the engine modules it runs (`lifted`, `bounds`,
`simulator`) when it runs: building the parser loads none of them, and
only `simulate` and `sweep-alpha` load the simulator.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from .config import ExperimentConfig, StepsizeSchedule, load_config, mixing_from_spec, read_json
from .costs import EPSILON_EXAMPLE_AGENTS, epsilon_family, epsilon_family_constants
from .errors import (
    ConfigError, EigenConvergenceError, MixingMatrixError, NotInClassError, NotStronglyConvexError,
)
from .numerics import render_float

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3
EXIT_IO = 4
SWEEP_ALPHA_CSV_HEADER = "alpha_multiple,t,R"
SWEEP_EPSILON_CSV_HEADER = "epsilon,alpha_A,alpha_L,alpha_S"


def _emit_json(payload: dict, out: str | None = None, name: str = "") -> None:
    """Print `payload` as JSON and, with --out, write it to out/name as well."""
    text = json.dumps(payload, indent=2)
    print(text)
    if out is not None:
        with open(os.path.join(out, name), "w") as handle:
            handle.write(text + "\n")


def _open_csv(out: str | None, name: str):
    """out/name opened for CSV rows, or stdout (looked up now) without --out."""
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    return open(os.path.join(out, name), "w", newline="")


def _require(cfg: ExperimentConfig, *parts: str) -> None:
    missing = [p for p in parts if getattr(cfg, p) is None]
    if missing:
        raise ConfigError(f"config is missing required sections: {missing}")


def _require_oracle_stepsize(cfg: ExperimentConfig, alpha: float) -> None:
    """ConfigError unless the oracle's iteration matrix is finite at `alpha`:
    its entries reach alpha * L, which can overflow for legal alpha and L."""
    if not math.isfinite(alpha * cfg.ensemble.smoothness_constant()):
        raise ConfigError(
            f"stepsize {alpha!r} times the smoothness constant "
            f"L = {cfg.ensemble.smoothness_constant()!r} overflows"
        )


def _oracle_entry(verdict) -> dict:
    """The exact oracle's verdict (a `simulator.OracleVerdict`) as summaries print it."""
    return {
        "spectral_radius": verdict.spectral_radius,
        "bounded": verdict.bounded,
        "critical": verdict.is_critical,
    }


def cmd_bounds(cfg: ExperimentConfig, out: str | None) -> int:
    from . import bounds, lifted

    _require(cfg, "ensemble", "mixing")
    bracket = lifted.LiftedObjective(cfg.ensemble, cfg.mixing).strong_convexity_threshold()
    payload = bounds.build_report(cfg.ensemble, cfg.mixing, bracket=bracket).to_dict()
    summary = cfg.mixing.spectral
    payload.update(
        {
            "lambda_min": summary.lambda_min,
            "beta": summary.beta,
            "spectral_gap": summary.spectral_gap,
            "mu": cfg.ensemble.aggregate_mu(),
            "L": cfg.ensemble.smoothness_constant(),
            "m": cfg.ensemble.m,
            "n": cfg.ensemble.n,
        }
    )
    _emit_json(payload, out, "bounds.json")
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig, out: str | None) -> int:
    from . import lifted, simulator

    _require(cfg, "ensemble", "mixing", "schedule")
    if cfg.schedule.kind == "constant":
        _require_oracle_stepsize(cfg, cfg.schedule.alpha)
    objective = lifted.LiftedObjective(cfg.ensemble, cfg.mixing)
    # trajectory.csv holds the metrics, not states: no state history
    record = simulator.run(
        cfg.ensemble,
        cfg.mixing,
        cfg.schedule,
        x0=cfg.x0,
        horizon=cfg.horizon,
        divergence_threshold=cfg.divergence_threshold,
        record_every=None,
        lifted_distance=objective if cfg.track_lifted else None,
    )
    summary = record.summary_dict()
    if cfg.schedule.kind == "constant":  # the oracle reads the run's objective
        (verdict,) = simulator.boundedness_verdicts(objective, [cfg.schedule.alpha])
        summary["oracle"] = _oracle_entry(verdict)
    _emit_json(summary, out, "summary.json")
    if out is not None:
        record.to_csv(os.path.join(out, "trajectory.csv"))
    return EXIT_OK


def cmd_sweep_alpha(cfg: ExperimentConfig, out: str | None) -> int:
    from . import bounds, lifted, simulator

    _require(cfg, "ensemble", "mixing")
    objective = lifted.LiftedObjective(cfg.ensemble, cfg.mixing)
    report = bounds.build_report(cfg.ensemble, cfg.mixing, objective.strong_convexity_threshold())
    base = report.base_alpha(cfg.sweep_base)

    multiples = cfg.alpha_multiples
    for mult in multiples:
        if not 0 < mult * base < math.inf:  # the product can overflow or underflow
            raise ConfigError(
                f"alpha multiple {mult!r} times base alpha {base!r} is not a finite "
                "positive stepsize"
            )
        _require_oracle_stepsize(cfg, mult * base)
    # the sweep writes R(t) alone: no consensus or state history
    records = simulator.run_batch(
        cfg.ensemble,
        cfg.mixing,
        [StepsizeSchedule.constant(mult * base) for mult in multiples],
        x0=cfg.x0,
        horizon=cfg.horizon,
        divergence_threshold=cfg.divergence_threshold,
        record_every=None,
        consensus=False,
    )

    # the oracle reads the Hessians of the stack that certified alpha_A
    verdicts = simulator.boundedness_verdicts(objective, [mult * base for mult in multiples])
    summaries = {
        repr(mult): dict(record.summary_dict(), oracle=_oracle_entry(verdict))
        for mult, record, verdict in zip(multiples, records, verdicts)
    }
    payload = {
        "base_alpha": render_float(base),
        "sweep_base": cfg.sweep_base,
        "alpha_A": render_float(report.alpha_A),
        "alpha_L": report.alpha_L,
        "runs": summaries,
    }
    _emit_json(payload, out, "sweep_alpha_summary.json")
    if out is not None:
        with _open_csv(out, "sweep_alpha.csv") as handle:
            handle.write(SWEEP_ALPHA_CSV_HEADER + "\r\n")
            for mult, record in zip(multiples, records):
                record.write_rows(handle, ("r",), lead=f"{mult!r},")
    return EXIT_OK


@functools.lru_cache(maxsize=1)  # rows that share an instance's (L, mu) run together
def _bound_cells(lambda_min: float, beta: float, big_l: float, mu: float) -> str:
    """A sweep-epsilon row's alpha_L and alpha_S cells, as `build_report` gives them."""
    from . import bounds

    _, alpha_l, _, alpha_s = bounds.stepsize_bounds(lambda_min, beta, big_l, mu)
    return f",{alpha_l!r},{'' if alpha_s is None else repr(alpha_s)}\n"


# Epsilons certified per ThresholdStack: one product into W's eigenbasis and
# four batched eigensolves (the aggregate curvatures, the Schur complements and
# the two bracket ends) serve a whole block. A block's peak memory is its
# bracket-end eigensolve, where each row holds its curvatures, its Hessian and
# the symmetry check's copy of it, about 0.7 KB, so the block, not the epsilon
# count, sets the command's peak. 20 rows is the largest block whose sweep of
# 100 epsilons stays under 27.2 KB of tracemalloc peak: 26.97 KB, and 27.67 KB
# at 21 (numpy 2.4).
_EPSILON_BLOCK = 20


def cmd_sweep_epsilon(cfg: ExperimentConfig, out: str | None) -> int:
    from . import lifted

    _require(cfg, "mixing")
    if cfg.mixing.m != EPSILON_EXAMPLE_AGENTS:
        raise ConfigError(
            f"sweep-epsilon runs the {EPSILON_EXAMPLE_AGENTS}-agent planted family, "
            f"but the mixing matrix has {cfg.mixing.m} agents"
        )
    lam, beta = cfg.mixing.spectral.lambda_min, cfg.mixing.spectral.beta
    big_l, mu = cfg.family_L, cfg.family_mu

    # alpha_A per epsilon, the lower bracket end: NaN where nothing certifies
    # and inf where everything does. No row is written until every block has
    # certified, so a failing block leaves no output. For peak memory, a
    # block's curvatures, stack and brackets die with its statement, and each
    # row reads its alpha_A (not from a list of floats, which would lift the
    # writing above the eigensolves' peak), L and mu as it is written.
    alpha_a = np.full(len(cfg.epsilons), math.nan)
    for start in range(0, len(cfg.epsilons), _EPSILON_BLOCK):
        rows = slice(start, start + _EPSILON_BLOCK)
        alpha_a[rows] = lifted.ThresholdStack(
            epsilon_family(big_l, mu, cfg.epsilons[rows]), cfg.mixing
        ).brackets()[0]
    with _open_csv(out, "sweep_epsilon.csv") as handle:
        handle.write(SWEEP_EPSILON_CSV_HEADER + "\n")
        handle.writelines(
            f"{eps!r},{'' if math.isnan(a) else render_float(float(a))}"
            f"{_bound_cells(lam, beta, *epsilon_family_constants(big_l, mu, eps))}"
            for eps, a in zip(cfg.epsilons, alpha_a)
        )
    return EXIT_OK


def cmd_validate_topology(mixing_path: str) -> int:
    mixing = mixing_from_spec(read_json(mixing_path))
    summary = mixing.spectral
    _emit_json(
        {
            "m": mixing.m,
            "lambda_min": summary.lambda_min,
            "beta": summary.beta,
            "beta_abs": summary.beta_abs,
            "spectral_gap": summary.spectral_gap,
            "single_agent": summary.single_agent,
        }
    )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; cached, because building it costs far more than parsing."""
    parser = argparse.ArgumentParser(
        prog="dgdlab",
        description=(
            "Decentralized gradient descent laboratory: stepsize bounds, "
            "strong-convexity thresholds, and boundedness experiments."
        ),
        # simulator.TRAJECTORY_CSV_HEADER, written out: the parser imports no engine module
        epilog=(
            "CSV headers: trajectory 't,alpha,R,consensus_err,dist_lifted_min'; "
            f"sweep-alpha '{SWEEP_ALPHA_CSV_HEADER}'; "
            f"sweep-epsilon '{SWEEP_EPSILON_CSV_HEADER}'."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="output directory for CSV/JSON files")
        p.add_argument("--seed", type=int, default=None, help="override the random-ensemble seed")
        p.add_argument("--horizon", type=int, default=None, help="override the run horizon")

    for name in ("bounds", "simulate", "sweep-alpha", "sweep-epsilon"):
        common(sub.add_parser(name))
    vt = sub.add_parser("validate-topology")
    vt.add_argument("--config", required=True, help="path to a JSON mixing spec")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = None
    try:
        if args.command == "validate-topology":
            return cmd_validate_topology(args.config)
        cfg = load_config(args.config, seed_override=args.seed, horizon_override=args.horizon)
        if args.out is not None:
            os.makedirs(args.out, exist_ok=True)
        # looked up by name at call time, so a wrapped cmd_* is the one called
        if args.command == "bounds":
            return cmd_bounds(cfg, args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        if args.command == "sweep-alpha":
            return cmd_sweep_alpha(cfg, args.out)
        return cmd_sweep_epsilon(cfg, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MixingMatrixError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NotInClassError, NotStronglyConvexError) as exc:
        print(f"error: certification failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except EigenConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        # a run's histories grow with the steps its rows reach, up to a horizon
        # that can be legal and too long; they fail when they outgrow memory
        runs = cfg is not None and args.command in ("simulate", "sweep-alpha")
        need = f"horizon {cfg.horizon}" if runs else args.command
        print(f"error: {need} needs more memory than is available", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
