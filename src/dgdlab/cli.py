"""Command-line front end.

Subcommands:
  bounds             stepsize-bound table for a problem instance (JSON)
  simulate           one DGD run: trajectory CSV plus summary JSON
  sweep-alpha        one run per stepsize multiple of the certified threshold
  sweep-epsilon      certified threshold vs epsilon for the planted family
  validate-topology  validate a mixing spec and print its spectral summary

Exit codes: 0 success, 2 configuration error, 3 certification failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import bounds as bounds_mod
from . import simulator
from .config import ExperimentConfig, load_config
from .errors import ConfigError, MixingMatrixError, NotInClassError, NotStronglyConvexError
from .lifted import LiftedObjective
from .topology import mixing_from_spec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3
EXIT_IO = 4


def _ensure_outdir(out: str | None) -> str | None:
    if out is None:
        return None
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise _IOFailure(f"cannot create output directory {out}: {exc}") from exc
    return out


class _IOFailure(Exception):
    pass


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise _IOFailure(f"cannot write {path}: {exc}") from exc


def _require(cfg: ExperimentConfig, *parts: str) -> None:
    missing = [p for p in parts if getattr(cfg, p) is None]
    if missing:
        raise ConfigError(f"config is missing required sections: {missing}")


def cmd_bounds(cfg: ExperimentConfig, out: str | None) -> int:
    _require(cfg, "ensemble", "mixing")
    objective = LiftedObjective(cfg.ensemble, cfg.mixing)
    threshold = objective.strong_convexity_threshold(cfg.scan_cap)
    report = bounds_mod.build_report(cfg.ensemble, cfg.mixing, threshold=threshold)
    payload = report.to_dict()
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
    text = json.dumps(payload, indent=2)
    print(text)
    if out is not None:
        _write_text(os.path.join(out, "bounds.json"), text + "\n")
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig, out: str | None) -> int:
    _require(cfg, "ensemble", "mixing", "schedule")
    objective = LiftedObjective(cfg.ensemble, cfg.mixing) if cfg.track_lifted else None
    record = simulator.run(
        cfg.ensemble,
        cfg.mixing,
        cfg.schedule,
        x0=cfg.x0,
        horizon=cfg.horizon,
        divergence_threshold=cfg.divergence_threshold,
        agent_scale=cfg.agent_scale,
        record_every=cfg.record_every,
        lifted_distance=objective,
    )
    summary = record.summary_dict()
    if cfg.schedule.kind == "constant":
        verdict = simulator.boundedness_oracle(
            cfg.ensemble, cfg.mixing, cfg.schedule.alpha, agent_scale=cfg.agent_scale
        )
        summary["oracle"] = {
            "spectral_radius": verdict.spectral_radius,
            "bounded": verdict.bounded,
            "critical": verdict.is_critical,
        }
    text = json.dumps(summary, indent=2)
    print(text)
    if out is not None:
        record.to_csv(os.path.join(out, "trajectory.csv"))
        _write_text(os.path.join(out, "summary.json"), text + "\n")
    return EXIT_OK


def cmd_sweep_alpha(cfg: ExperimentConfig, out: str | None) -> int:
    _require(cfg, "ensemble", "mixing")
    objective = LiftedObjective(cfg.ensemble, cfg.mixing)
    threshold = objective.strong_convexity_threshold(cfg.scan_cap)
    alpha_l = bounds_mod.lambda_min_bound(
        cfg.mixing.spectral.lambda_min, cfg.ensemble.smoothness_constant()
    )
    if cfg.sweep_base == "main":
        base = bounds_mod.combined_bound(alpha_l, threshold.alpha)
    else:
        base = threshold.alpha if math.isfinite(threshold.alpha) else alpha_l

    multiples = cfg.alpha_multiples
    records = simulator.run_batch(
        cfg.ensemble,
        cfg.mixing,
        [simulator.StepsizeSchedule.constant(mult * base) for mult in multiples],
        x0=cfg.x0,
        horizon=cfg.horizon,
        divergence_threshold=cfg.divergence_threshold,
        agent_scale=cfg.agent_scale,
        record_every=cfg.record_every,
    )

    summaries = {}
    for mult, record in zip(multiples, records):
        oracle = simulator.boundedness_oracle(
            cfg.ensemble, cfg.mixing, mult * base, agent_scale=cfg.agent_scale
        )
        entry = record.summary_dict()
        entry["oracle"] = {
            "spectral_radius": oracle.spectral_radius,
            "bounded": oracle.bounded,
            "critical": oracle.is_critical,
        }
        summaries[repr(mult)] = entry

    payload = {
        "base_alpha": base if math.isfinite(base) else "inf",
        "sweep_base": cfg.sweep_base,
        "alpha_A": threshold.alpha if math.isfinite(threshold.alpha) else "inf",
        "alpha_L": alpha_l,
        "runs": summaries,
    }
    text = json.dumps(payload, indent=2)
    print(text)
    if out is not None:
        path = os.path.join(out, "sweep_alpha.csv")
        try:
            with open(path, "w", newline="") as handle:
                handle.write("alpha_multiple,t,R\r\n")
                for mult, record in zip(multiples, records):
                    # a diverged run stops before its crossing step, as in to_csv
                    cutoff = record.divergence_step
                    label = repr(mult)
                    handle.writelines(
                        f"{label},{t},{r!r}\r\n"
                        for t, r in zip(record.t[:cutoff].tolist(), record.r[:cutoff].tolist())
                    )
        except OSError as exc:
            raise _IOFailure(f"cannot write {path}: {exc}") from exc
        _write_text(os.path.join(out, "sweep_alpha_summary.json"), text + "\n")
    return EXIT_OK


def cmd_sweep_epsilon(cfg: ExperimentConfig, out: str | None) -> int:
    _require(cfg, "mixing")
    from .costs import EPSILON_EXAMPLE_AGENTS, epsilon_example

    if cfg.mixing.m != EPSILON_EXAMPLE_AGENTS:
        raise ConfigError(
            f"sweep-epsilon runs the {EPSILON_EXAMPLE_AGENTS}-agent planted family, "
            f"but the mixing matrix has {cfg.mixing.m} agents"
        )
    summary = cfg.mixing.spectral
    alpha_l = bounds_mod.lambda_min_bound(summary.lambda_min, cfg.family_L)
    if 0 < summary.beta < 1:
        alpha_s = bounds_mod.spectral_gap_bound(cfg.family_mu, cfg.family_L, summary.beta)
    else:
        alpha_s = None

    def alpha_a_cell(eps: float) -> str:
        ensemble = epsilon_example(cfg.family_L, cfg.family_mu, eps)
        objective = LiftedObjective(ensemble, cfg.mixing)
        try:
            alpha_a = objective.strong_convexity_threshold(cfg.scan_cap).alpha
        except (NotInClassError, NotStronglyConvexError):
            return ""
        return "inf" if math.isinf(alpha_a) else repr(alpha_a)

    # one string per row, with the eps-independent tail formatted once: the
    # rows are this command's whole output and set its peak memory
    tail = f",{alpha_l!r},{'' if alpha_s is None else repr(alpha_s)}\n"
    rows = ["epsilon,alpha_A,alpha_L,alpha_S\n"]
    rows.extend(f"{eps!r},{alpha_a_cell(eps)}{tail}" for eps in cfg.epsilons)
    text = "".join(rows)
    if out is not None:
        _write_text(os.path.join(out, "sweep_epsilon.csv"), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_validate_topology(mixing_path: str) -> int:
    try:
        with open(mixing_path) as handle:
            spec = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read mixing spec: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        mixing = mixing_from_spec(spec)
    except MixingMatrixError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    summary = mixing.spectral
    print(
        json.dumps(
            {
                "m": mixing.m,
                "lambda_min": summary.lambda_min,
                "beta": summary.beta,
                "beta_abs": summary.beta_abs,
                "spectral_gap": summary.spectral_gap,
                "single_agent": summary.single_agent,
            },
            indent=2,
        )
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
        epilog=(
            "CSV headers: trajectory 't,alpha,R,consensus_err,dist_lifted_min'; "
            "sweep-alpha 'alpha_multiple,t,R'; "
            "sweep-epsilon 'epsilon,alpha_A,alpha_L,alpha_S'."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="output directory for CSV/JSON files")
        p.add_argument("--seed", type=int, default=None, help="override the random-ensemble seed")
        p.add_argument("--horizon", type=int, default=None, help="override the run horizon")
        p.add_argument(
            "--agent-scale",
            action="store_true",
            help="apply local gradients with the full stepsize (no 1/m factor)",
        )

    for name in ("bounds", "simulate", "sweep-alpha", "sweep-epsilon"):
        common(sub.add_parser(name))
    vt = sub.add_parser("validate-topology")
    vt.add_argument("--config", required=True, help="path to a JSON mixing spec")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate-topology":
        return cmd_validate_topology(args.config)
    try:
        cfg = load_config(args.config, seed_override=args.seed, horizon_override=args.horizon)
        if args.agent_scale:
            cfg.agent_scale = True
        out = _ensure_outdir(args.out)
        if args.command == "bounds":
            return cmd_bounds(cfg, out)
        if args.command == "simulate":
            return cmd_simulate(cfg, out)
        if args.command == "sweep-alpha":
            return cmd_sweep_alpha(cfg, out)
        if args.command == "sweep-epsilon":
            return cmd_sweep_epsilon(cfg, out)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NotInClassError, NotStronglyConvexError) as exc:
        print(f"error: certification failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
