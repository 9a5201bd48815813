"""Experiment configuration: one JSON document, validated up front.

Every referenced spec (ensemble, mixing, schedule) is parsed and built
eagerly so that a bad configuration fails before any computation starts,
and `canonical()` re-serializes to a normal form with defaults filled in.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .costs import QuadraticEnsemble, ensemble_from_spec
from .errors import ConfigError, DgdLabError, MixingMatrixError
from .lifted import DEFAULT_SCAN_CAP
from .simulator import (
    DEFAULT_DIVERGENCE_THRESHOLD,
    DEFAULT_HORIZON,
    DEFAULT_RECORD_EVERY,
    StepsizeSchedule,
)
from .topology import MixingMatrix, mixing_from_spec

DEFAULT_ALPHA_MULTIPLES = [0.5, 0.95, 0.99, 1.01, 1.02]
DEFAULT_EPSILONS = [0.5 * k for k in range(1, 21)]
# a run preallocates 16 bytes per step and stepsize, plus thinned states, so
# no horizon beyond this fits; the CLI refuses one within it that memory cannot hold
MAX_HORIZON = 10**9


@dataclass
class ExperimentConfig:
    ensemble_spec: dict | None
    mixing_spec: dict | None
    schedule_spec: dict | None
    horizon: int = DEFAULT_HORIZON
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD
    record_every: int = DEFAULT_RECORD_EVERY
    agent_scale: bool = False
    track_lifted: bool = False
    x0: list[float] | None = None
    alpha_multiples: list[float] = field(default_factory=lambda: list(DEFAULT_ALPHA_MULTIPLES))
    sweep_base: str = "alpha_A"
    epsilons: list[float] = field(default_factory=lambda: list(DEFAULT_EPSILONS))
    family_L: float = 10.0
    family_mu: float = 1.0
    scan_cap: float = DEFAULT_SCAN_CAP

    # built eagerly at parse time
    ensemble: QuadraticEnsemble | None = None
    mixing: MixingMatrix | None = None
    schedule: StepsizeSchedule | None = None

    def canonical(self) -> dict:
        out: dict = {}
        if self.ensemble_spec is not None:
            out["ensemble"] = self.ensemble_spec
        if self.mixing_spec is not None:
            out["mixing"] = self.mixing_spec
        if self.schedule_spec is not None:
            out["schedule"] = self.schedule.to_spec()
        out.update(
            {
                "horizon": self.horizon,
                "divergence_threshold": self.divergence_threshold,
                "record_every": self.record_every,
                "agent_scale": self.agent_scale,
                "track_lifted": self.track_lifted,
                "alpha_multiples": self.alpha_multiples,
                "sweep_base": self.sweep_base,
                "epsilons": self.epsilons,
                "L": self.family_L,
                "mu": self.family_mu,
                "threshold": {"scan_cap": self.scan_cap},
            }
        )
        if self.x0 is not None:
            out["x0"] = self.x0
        return out


def _number(key: str, value, kind=float):
    """`value` as an int or a finite float, or a ConfigError naming `key`."""
    noun = "an integer" if kind is int else "a number"
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be {noun}, got {value!r}") from None
    if isinstance(value, bool) or (kind is int and isinstance(value, float) and out != value):
        raise ConfigError(f"{key} must be {noun}, got {value!r}")
    if kind is float and not math.isfinite(out):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return out


def _flag(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _numbers(key: str, value) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    return [_number(f"{key}[{i}]", v) for i, v in enumerate(value)]


def _scan_cap(threshold) -> float:
    if not isinstance(threshold, dict):
        raise ConfigError(f"threshold must be a JSON object, got {threshold!r}")
    unknown = set(threshold) - {"scan_cap"}
    if unknown:
        raise ConfigError(
            f"unknown threshold keys {sorted(unknown)}: only 'scan_cap' is accepted "
            "(alpha_A is computed exactly, with no search to tune)"
        )
    scan_cap = _number("threshold.scan_cap", threshold.get("scan_cap", DEFAULT_SCAN_CAP))
    if scan_cap <= 0:
        raise ConfigError("threshold.scan_cap must be positive")
    return scan_cap


def parse_config(
    data: dict, seed_override: int | None = None, horizon_override: int | None = None
) -> ExperimentConfig:
    """Validate a config dictionary and build all referenced objects.

    Raises ConfigError with a human-readable diagnostic on any problem.
    """
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")

    known = {
        "ensemble", "mixing", "schedule", "horizon", "divergence_threshold",
        "record_every", "agent_scale", "track_lifted", "x0", "alpha_multiples",
        "sweep_base", "epsilons", "L", "mu", "threshold",
    }
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    for key in ("ensemble", "mixing", "schedule"):
        if data.get(key) is not None and not isinstance(data[key], dict):
            raise ConfigError(f"{key} must be a JSON object, got {data[key]!r}")

    ensemble_spec = data.get("ensemble")
    if ensemble_spec is not None and seed_override is not None:
        if ensemble_spec.get("type") == "random":
            ensemble_spec = dict(ensemble_spec, seed=int(seed_override))

    horizon = data.get("horizon", DEFAULT_HORIZON) if horizon_override is None else horizon_override
    cfg = ExperimentConfig(
        ensemble_spec=ensemble_spec,
        mixing_spec=data.get("mixing"),
        schedule_spec=data.get("schedule"),
        horizon=_number("horizon", horizon, int),
        divergence_threshold=_number(
            "divergence_threshold", data.get("divergence_threshold", DEFAULT_DIVERGENCE_THRESHOLD)
        ),
        record_every=_number("record_every", data.get("record_every", DEFAULT_RECORD_EVERY), int),
        agent_scale=_flag("agent_scale", data.get("agent_scale", False)),
        track_lifted=_flag("track_lifted", data.get("track_lifted", False)),
        x0=_numbers("x0", data["x0"]) if data.get("x0") is not None else None,
        alpha_multiples=_numbers(
            "alpha_multiples", data.get("alpha_multiples", DEFAULT_ALPHA_MULTIPLES)
        ),
        sweep_base=str(data.get("sweep_base", "alpha_A")),
        epsilons=_numbers("epsilons", data.get("epsilons", DEFAULT_EPSILONS)),
        family_L=_number("L", data.get("L", 10.0)),
        family_mu=_number("mu", data.get("mu", 1.0)),
        scan_cap=_scan_cap(data.get("threshold", {})),
    )

    if not 1 <= cfg.horizon <= MAX_HORIZON:
        raise ConfigError(f"horizon must be between 1 and {MAX_HORIZON}, got {horizon!r}")
    if cfg.record_every < 1:
        raise ConfigError("record_every must be at least 1")
    if cfg.divergence_threshold <= 0:
        raise ConfigError("divergence_threshold must be positive")
    if any(mult <= 0 for mult in cfg.alpha_multiples):
        raise ConfigError("alpha multiples must all be positive")
    if any(eps < 0 for eps in cfg.epsilons):
        raise ConfigError("epsilon values must be nonnegative")
    if cfg.sweep_base not in ("alpha_A", "main"):
        raise ConfigError(f"unknown sweep_base {cfg.sweep_base!r}")
    if not (cfg.family_L > cfg.family_mu > 0):
        raise ConfigError("sweep-epsilon family needs L > mu > 0")

    try:
        if cfg.ensemble_spec is not None:
            cfg.ensemble = ensemble_from_spec(cfg.ensemble_spec)
        if cfg.mixing_spec is not None:
            cfg.mixing = mixing_from_spec(cfg.mixing_spec)
        if cfg.schedule_spec is not None:
            cfg.schedule = StepsizeSchedule.from_spec(cfg.schedule_spec)
    except MixingMatrixError as exc:
        raise ConfigError(f"mixing spec invalid [{exc.code}]: {exc}") from exc
    except (ValueError, KeyError, TypeError, OverflowError, DgdLabError) as exc:
        raise ConfigError(f"configuration invalid: {exc}") from exc

    if cfg.ensemble is not None and cfg.mixing is not None:
        if cfg.ensemble.m != cfg.mixing.m:
            raise ConfigError(
                f"ensemble has {cfg.ensemble.m} agents but mixing matrix has {cfg.mixing.m}"
            )
    if cfg.x0 is not None and cfg.ensemble is not None:
        expected = cfg.ensemble.m * cfg.ensemble.n
        if len(cfg.x0) != expected:
            raise ConfigError(f"x0 has length {len(cfg.x0)}, expected {expected}")
    return cfg


def read_json(path: str):
    """The JSON document in the file at `path`; a ConfigError if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def load_config(
    path: str, seed_override: int | None = None, horizon_override: int | None = None
) -> ExperimentConfig:
    return parse_config(
        read_json(path), seed_override=seed_override, horizon_override=horizon_override
    )
