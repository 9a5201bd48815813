"""Experiment configuration: the one reader of the JSON format.

Every spec in a config, and the mixing spec `validate-topology` reads, is
read here as strictly at every depth as at the top: each spec type takes
exactly its own keys, and a non-number where a number belongs, or a value
its constructor refuses, is a ConfigError naming its key path.
`canonical()` gives the normal form. The run defaults and the stepsize
schedule live here too, and `simulator` takes them from here: reading a
config imports no engine module.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .costs import QuadraticEnsemble, epsilon_example, random_ensemble
from .errors import ConfigError, DgdLabError, MixingMatrixError, NotSymmetricError, ParameterError
from .topology import MixingMatrix, metropolis_weights, validate_mixing

DEFAULT_HORIZON = 10_000
DEFAULT_DIVERGENCE_THRESHOLD = 1e12
DEFAULT_ALPHA_MULTIPLES = [0.5, 0.95, 0.99, 1.01, 1.02]
DEFAULT_EPSILONS = [0.5 * k for k in range(1, 21)]
# a run holds the metric cells its rows reach and nothing else per step: 8 bytes
# per step and stepsize for sweep-alpha (R alone), at least 16 for simulate (R and
# consensus), so a row that stays bounded beyond this horizon cannot fit; a run
# whose histories outgrow memory within it exits 2 when they do
MAX_HORIZON = 10**9
_CONFIG_KEYS = (
    "ensemble", "mixing", "schedule", "horizon", "divergence_threshold", "record_every",
    "track_lifted", "x0", "alpha_multiples", "sweep_base", "epsilons", "L", "mu",
)


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
            raise ParameterError(
                "alpha", f"constant stepsize must be finite and positive, got {alpha!r}"
            )
        return cls(kind="constant", alpha=float(alpha))

    @classmethod
    def polynomial(cls, a: float, w: float = 1.0, p: float = 1.0) -> "StepsizeSchedule":
        for name, value in (("a", a), ("w", w), ("p", p)):
            if not math.isfinite(value):
                raise ParameterError(
                    name, f"polynomial schedule needs finite a, w, p, got {(a, w, p)!r}"
                )
        if a <= 0:
            raise ParameterError("a", "polynomial schedule needs a > 0")
        if w < 1:
            raise ParameterError("w", "polynomial schedule needs w >= 1")
        if not (0 < p <= 1):
            raise ParameterError("p", "polynomial schedule needs p in (0, 1]")
        return cls(kind="polynomial", a=float(a), w=float(w), p=float(p))

    def value(self, t: int) -> float:
        if t < 0:
            raise ValueError("t must be nonnegative")
        if self.kind == "constant":
            return self.alpha
        return self.a / (t + self.w) ** self.p


@dataclass
class ExperimentConfig:
    # parse_config sets every field; the defaults are its own
    horizon: int
    divergence_threshold: float
    record_every: int | None  # run_batch's: 1 keeps every state, None none
    track_lifted: bool
    x0: list[float] | None
    alpha_multiples: list[float]
    sweep_base: str
    epsilons: list[float]
    family_L: float
    family_mu: float
    # each spec in its normal form, and the object it describes, built at parse time
    ensemble_spec: dict | None = None
    mixing_spec: dict | None = None
    schedule_spec: dict | None = None
    ensemble: QuadraticEnsemble | None = None
    mixing: MixingMatrix | None = None
    schedule: StepsizeSchedule | None = None

    def canonical(self) -> dict:
        """The config in its normal form; a spec or x0 that is absent is left out."""
        out = {
            "ensemble": self.ensemble_spec,
            "mixing": self.mixing_spec,
            "schedule": self.schedule_spec,
            "horizon": self.horizon,
            "divergence_threshold": self.divergence_threshold,
            "record_every": self.record_every,
            "track_lifted": self.track_lifted,
            "alpha_multiples": self.alpha_multiples,
            "sweep_base": self.sweep_base,
            "epsilons": self.epsilons,
            "L": self.family_L,
            "mu": self.family_mu,
            "x0": self.x0,
        }
        return {key: value for key, value in out.items() if value is not None}


def _number(key: str, value, kind=float):
    """`value` as an int or a finite float, or a ConfigError naming `key`: a
    JSON boolean, string, null, list or object is not a number, and an
    integer may be written 3 or 3.0 but not 3.5."""
    noun = "an integer" if kind is int else "a number"
    integral = kind is float or not isinstance(value, float) or value.is_integer()
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not integral:
        raise ConfigError(f"{key} must be {noun}, got {value!r}")
    try:
        out = kind(value)
    except OverflowError:  # an integer past the float range
        raise ConfigError(f"{key} must be {noun}, got {value!r}") from None
    if kind is float and not math.isfinite(out):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return out


def _flag(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _numbers(key: str, value) -> list[float]:
    _matrix(key, value, 1)
    return [float(v) for v in value]  # float(v) is v itself for a float


def _keys(path: str, spec, kinds: dict, default: str | None = None) -> str | None:
    """The `type` of the JSON object `spec` at `path`, which must hold exactly
    that type's keys: `kinds` maps each type to its required and its optional
    keys, and has the one type None for an object that takes no `type` key."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path} must be a JSON object, got {reprlib.repr(spec)}")
    kind = None if None in kinds else spec.get("type", default)
    try:
        required, optional = kinds[kind]
    except (KeyError, TypeError):  # TypeError: a list or an object as the type
        raise ConfigError(f"{path}.type must be one of {list(kinds)}, got {kind!r}") from None
    missing = [key for key in required if key not in spec]
    if missing:
        raise ConfigError(f"{path} is missing keys {missing}")
    unknown = sorted(set(spec) - {*required, *optional, *([] if kind is None else ["type"])})
    if unknown:
        raise ConfigError(f"unknown {path} keys {unknown}: it takes {[*required, *optional]}")
    return kind


def _matrix(key: str, value, ndim: int) -> np.ndarray:
    """`value`, nested JSON lists of finite numbers, as an `ndim`-dimensional array, or a
    ConfigError naming `key`; one scan finds booleans, which numpy reads as 0 and 1."""
    try:
        array = np.asarray(value) if isinstance(value, list) else None
    except ValueError:  # rows of different lengths
        array = None
    numeric = array is not None and array.ndim == ndim and array.dtype.kind in "iuf"
    entries = (value if ndim == 1 else (v for row in value for v in row)) if numeric else ()
    if not numeric or any(type(v) is bool for v in entries):
        noun = "a list of numbers" if ndim == 1 else "a matrix (a list of rows of numbers)"
        raise ConfigError(f"{key} must be {noun}, got {reprlib.repr(value)}")
    if not np.isfinite(array).all():
        raise ConfigError(f"{key} has non-finite entries")
    return array


def _built(path: str, build, *args):
    """build(*args), or a ConfigError naming the narrowest key path of a
    refusal: `path`, or path.key for a refused parameter of that name."""
    try:
        return build(*args)
    except ParameterError as exc:
        raise ConfigError(f"{path}.{exc.parameter}: {exc}") from None
    except NotSymmetricError as exc:
        member = "" if exc.member is None else f"[{exc.member}]"
        raise ConfigError(f"{path}{member}: {exc}") from None
    except (ValueError, DgdLabError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _ensemble(spec, seed: int | None = None) -> tuple[dict, QuadraticEnsemble]:
    """An ensemble spec's normal form and ensemble; `seed`, if given, replaces a random one's."""
    kinds = {
        "random": (("m", "n", "epsilon", "seed"), ()),
        "epsilon_example": (("L", "mu", "epsilon"), ()),
        "explicit": (("costs",), ()),
    }
    kind = _keys("ensemble", spec, kinds)
    if kind == "random" and seed is not None:
        spec = dict(spec, seed=seed)
    if kind != "explicit":  # every key a number, in the constructor's order
        numbers = {
            key: _number(f"ensemble.{key}", spec[key], int if key in ("m", "n", "seed") else float)
            for key in kinds[kind][0]
        }
        build = random_ensemble if kind == "random" else epsilon_example
        return {"type": kind, **numbers}, _built("ensemble", build, *numbers.values())
    if not isinstance(spec["costs"], list):
        raise ConfigError(f"ensemble.costs must be a list, got {reprlib.repr(spec['costs'])}")
    curvatures, linear = [], []
    for i, cost in enumerate(spec["costs"]):
        path = f"ensemble.costs[{i}]"
        _keys(path, cost, {None: (("A", "b"), ())})
        a, b = _matrix(f"{path}.A", cost["A"], 2), _matrix(f"{path}.b", cost["b"], 1)
        if a.shape[0] != a.shape[1]:
            raise ConfigError(f"{path}: expected a square matrix, got shape {a.shape}")
        if b.shape != a.shape[:1]:
            raise ConfigError(f"{path}: b has shape {b.shape}, expected {a.shape[:1]}")
        curvatures.append(a)
        linear.append(b)
    if len({len(terms) for terms in linear}) > 1:
        raise ConfigError("ensemble.costs: all costs must share one ambient dimension")
    # the constructor names an asymmetric A_k by its index and refuses an empty
    # list or an overflowing sum
    ensemble = _built("ensemble.costs", QuadraticEnsemble, np.array(curvatures), np.array(linear))
    return {"type": kind, "costs": spec["costs"]}, ensemble


def _mixing(spec) -> tuple[dict, MixingMatrix]:
    """A mixing spec's normal form and validated W; MixingMatrixError "malformed_spec" if no W."""
    kinds = {"explicit": (("W",), ()), "metropolis": (("adjacency",), ())}
    try:
        kind = _keys("mixing", spec, kinds, default="explicit")
        key = "W" if kind == "explicit" else "adjacency"
        matrix = _matrix(f"mixing.{key}", spec[key], 2)
    except ConfigError as exc:
        raise MixingMatrixError("malformed_spec", str(exc)) from None
    build = validate_mixing if kind == "explicit" else metropolis_weights
    return {"type": kind, key: spec[key]}, build(matrix)


def _schedule(spec) -> tuple[dict, StepsizeSchedule]:
    """A schedule spec's normal form and schedule; the type names its constructor."""
    kinds = {"constant": (("alpha",), ()), "polynomial": (("a",), ("w", "p"))}
    kind = _keys("schedule", spec, kinds)
    required, optional = kinds[kind]  # the optional w and p default to 1.0
    numbers = {key: _number(f"schedule.{key}", spec.get(key, 1.0)) for key in required + optional}
    build = getattr(StepsizeSchedule, kind)  # its parameters in the keys' order
    return {"type": kind, **numbers}, _built("schedule", build, *numbers.values())


def ensemble_from_spec(spec: dict) -> QuadraticEnsemble:
    """The ensemble of a JSON spec (`type` random, epsilon_example or explicit)."""
    return _ensemble(spec)[1]


def mixing_from_spec(spec: dict) -> MixingMatrix:
    """The validated W of a JSON mixing spec (`type` explicit, the default, or metropolis)."""
    return _mixing(spec)[1]


def parse_config(
    data: dict, seed_override: int | None = None, horizon_override: int | None = None
) -> ExperimentConfig:
    """Validate a config dictionary and build all referenced objects; a
    ConfigError with a one-line diagnosis on any problem."""
    _keys("configuration", data, {None: ((), _CONFIG_KEYS)})
    horizon = data.get("horizon", DEFAULT_HORIZON) if horizon_override is None else horizon_override
    cfg = ExperimentConfig(
        horizon=_number("horizon", horizon, int),
        divergence_threshold=_number(
            "divergence_threshold", data.get("divergence_threshold", DEFAULT_DIVERGENCE_THRESHOLD)
        ),
        record_every=(
            _number("record_every", data["record_every"], int) if "record_every" in data else None
        ),
        track_lifted=_flag("track_lifted", data.get("track_lifted", False)),
        x0=_numbers("x0", data["x0"]) if data.get("x0") is not None else None,
        alpha_multiples=_numbers(
            "alpha_multiples", data.get("alpha_multiples", DEFAULT_ALPHA_MULTIPLES)
        ),
        sweep_base=str(data.get("sweep_base", "alpha_A")),
        epsilons=_numbers("epsilons", data.get("epsilons", DEFAULT_EPSILONS)),
        family_L=_number("L", data.get("L", 10.0)),
        family_mu=_number("mu", data.get("mu", 1.0)),
    )

    if not 1 <= cfg.horizon <= MAX_HORIZON:
        raise ConfigError(f"horizon must be between 1 and {MAX_HORIZON}, got {horizon!r}")
    if cfg.record_every not in (None, 1):
        raise ConfigError(f"record_every must be 1 or absent, got {cfg.record_every!r}")
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
        if data.get("ensemble") is not None:
            cfg.ensemble_spec, cfg.ensemble = _ensemble(data["ensemble"], seed_override)
        if data.get("mixing") is not None:
            cfg.mixing_spec, cfg.mixing = _mixing(data["mixing"])
        if data.get("schedule") is not None:
            cfg.schedule_spec, cfg.schedule = _schedule(data["schedule"])
    except MixingMatrixError as exc:
        raise ConfigError(f"mixing spec invalid [{exc.code}]: {exc}") from exc

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
