"""The package's public names: every exported name resolves, and none of the
names or options removed in favour of another way to get their result is
exported again; and the package loads a module only when an entry point
runs it."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import dgdlab
from dgdlab import bounds, cli, config, costs, lifted, numerics, simulator, topology

# name -> where it lived, and what replaces it
REMOVED = {
    "minimizer_curve": lifted,  # LiftedObjective._minimizers on the grid
    "MinimizerCurve": lifted,
    "CurvePoint": lifted,
    "CurveSegment": lifted,
    "ordering_check": bounds,  # spectral_gap_bound(...) < lambda_min_bound(...)
    "combined_bound": bounds,  # min(alpha_L, alpha_A)
    "iteration_matrix": simulator,  # I - H(alpha/m) from ThresholdStack._hessians
    "_iteration_matrices": simulator,
    "_spec_matrix": topology,  # config._matrix
    "QuadraticCost": costs,  # a row of QuadraticEnsemble's curvatures and linear_terms
    "_state_slots": simulator,  # a run keeps every state or none, one per metric cell
    # a config's record_every is 1 or absent (None), the two values run_batch takes
    "DEFAULT_RECORD_EVERY": config,
    # sym_eigen returns numpy's own arrays: eigvalsh's, or eigh's pair
    "Spectrum": numerics,
    # one rescaling rule near the float range: numerics.binary_unit and numerics.norm
    "_row_norms": simulator,  # norm(rows, axis=1)
    "_overflowed_distance_sums": simulator,  # norm(states - x_star, axis=-1).sum(axis=-1)
    "_overflowed_consensus": simulator,  # norm(_deviations(states), axis=1) on flat rows
    "_unit": bounds,  # binary_unit(L)
    # a threshold is its confirmed bracket: strong_convexity_threshold returns (lo, hi)
    "ThresholdResult": lifted,
    # alpha_A is the confirmed Schur edge in any units: no absolute cap truncates it
    "DEFAULT_SCAN_CAP": config,
    # sweep-epsilon's bound cells: one stepsize_bounds call on arrays of L and mu
    "_bound_cells": cli,
}
# name -> the module it left: the JSON spec readers now live in `config`
MOVED_TO_CONFIG = {"ensemble_from_spec": costs, "mixing_from_spec": topology}
REMOVED_METHODS = {
    "segment_gradient_bound": lifted.LiftedObjective,  # the closed-form shift bound
    "aggregate_value": costs.QuadraticEnsemble,
    "aggregate_gradient": costs.QuadraticEnsemble,  # aggregate_a @ x + the mean b_k
    "separable_value": lifted.LiftedObjective,  # F(x) from the curvatures and linear_terms
    # an ensemble is its two stacks: QuadraticEnsemble(curvatures, linear_terms)
    "costs": costs.QuadraticEnsemble,  # rows of curvatures and linear_terms
    "from_stacks": costs.QuadraticEnsemble,  # the constructor itself
    "aggregate_b": costs.QuadraticEnsemble,  # linear_terms.mean(axis=0)
    # grad G_alpha(x) = hessian(alpha) @ x + (alpha/m) linear_terms.reshape(-1)
    "value": lifted.LiftedObjective,
    "gradient": lifted.LiftedObjective,
    "separable_gradient": lifted.LiftedObjective,
    "max_r": simulator.TrajectoryRecord,  # summary_dict()["max_R"]
    "to_csv_string": simulator.TrajectoryRecord,  # to_csv(io.StringIO())
    # one block writer for every record of a call: simulator.write_rows(handle, pairs)
    "write_rows": simulator.TrajectoryRecord,
    "from_spec": simulator.StepsizeSchedule,  # config reads schedule specs
    "to_spec": simulator.StepsizeSchedule,  # ExperimentConfig.canonical()["schedule"]
    "anchors": lifted.ThresholdStack,  # the Schur edge needs no anchor
    "intervals": lifted.ThresholdStack,  # LiftedObjective.certified_interval, (0, alpha_A)
    "thresholds": lifted.ThresholdStack,  # brackets(): per-row (lo, hi) arrays
    "is_boundary": lifted.ConvexityCertificate,  # the verdict no longer reads lambda_min
    "lifted_scale": simulator.TrajectoryRecord,  # one stepsize axis: a step descends G_alpha
    "state_ts": simulator.TrajectoryRecord,  # states[t] is the state at step t
    "dim": lifted.LiftedObjective,  # ensemble.m * ensemble.n
    "consensus_matrix": lifted.LiftedObjective,  # (I - W) kron I_n, hessian's constant part
    "to_json": bounds.BoundReport,  # json.dumps(report.to_dict(), indent=2)
    # validation eigendecomposes W once: MixingMatrix.eigenbasis
    "_eigenbasis": topology.MixingMatrix,
    # brackets() confirms every row of the stack in one eigensolve per bracket end
    "_certified": lifted.ThresholdStack,
    # the minimizers come from the Schur eigenpairs; blockdiag(A_k) is built by no one
    "block_curvature": lifted.LiftedObjective,
    "stacked_linear": lifted.LiftedObjective,  # ensemble.linear_terms.reshape(-1)
    "_stack": lifted.LiftedObjective,  # a LiftedObjective is the one-row ThresholdStack
}
# dataclass field -> its class
REMOVED_FIELDS = {
    "record_every": simulator.TrajectoryRecord,  # a record keeps every state or none
    "x_star": simulator.TrajectoryRecord,  # R(t) is against ensemble.aggregate_minimizer()
    "threshold_method": bounds.BoundReport,  # alpha_A's method is always "schur"
    "scan_cap": config.ExperimentConfig,  # the config key `threshold` is gone with it
}
REMOVED_OPTIONS = {
    simulator.nonexpansiveness_check: ("tolerance", "segment_samples"),
    bounds.trajectory_radius: ("mu",),
    bounds.build_report: ("x0", "alpha0", "threshold"),
    # one stepsize axis: the per-agent stepsize a is the engine stepsize m a
    simulator.step: ("agent_scale",),
    # R(t) is always measured against the ensemble's own aggregate minimizer
    simulator.run_batch: ("agent_scale", "x_star"),
    # the verdicts read the caller's LiftedObjective, which holds both
    simulator.boundedness_verdicts: ("agent_scale", "ensemble", "mixing"),
    simulator.boundedness_oracle: ("agent_scale",),
    # a finite edge is confirmed or refused, never capped to inf
    lifted.ThresholdStack.brackets: ("scan_cap",),
    lifted.LiftedObjective.strong_convexity_threshold: ("scan_cap",),
    # a Hessian per entry of the stack's rows broadcast against the stepsizes
    lifted.ThresholdStack._hessians: ("rows",),
}
# config keys a config no longer takes: each exits 2 as an unknown key
REMOVED_CONFIG_KEYS = ("agent_scale", "threshold")


def test_every_exported_name_resolves():
    assert len(set(dgdlab.__all__)) == len(dgdlab.__all__)
    for name in dgdlab.__all__:
        assert getattr(dgdlab, name) is not None, name


def test_every_exported_name_is_listed_and_is_its_modules_own():
    listing = dir(dgdlab)
    for name in dgdlab.__all__:
        value = getattr(dgdlab, name)
        assert name in listing, name
        assert getattr(sys.modules[value.__module__], name) is value, name


# Run in a fresh interpreter: the dgdlab submodules loaded after each entry point.
IMPORT_GRAPH = """
import contextlib, io, json, sys

def loaded():
    return sorted(name for name in sys.modules if name.startswith("dgdlab."))

stages = {}
import dgdlab
stages["import"] = loaded()
from dgdlab.config import load_config
load_config(sys.argv[1])
stages["load_config"] = loaded()
from dgdlab import cli
cli.build_parser()
stages["build_parser"] = loaded()
for command, path in [("validate-topology", sys.argv[2]), ("sweep-epsilon", sys.argv[1]),
                      ("bounds", sys.argv[1])]:
    with contextlib.redirect_stdout(io.StringIO()):
        stages[command] = [cli.main([command, "--config", path]), loaded()]
print(json.dumps(stages))
"""


def test_each_entry_point_loads_only_the_modules_it_runs(tmp_path):
    mixing = {"type": "explicit", "W": [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]}
    ensemble = {"type": "random", "m": 3, "n": 2, "epsilon": 1.0, "seed": 5}
    experiment, spec = tmp_path / "experiment.json", tmp_path / "mixing.json"
    experiment.write_text(json.dumps({"ensemble": ensemble, "mixing": mixing}))
    spec.write_text(json.dumps(mixing))
    src = Path(dgdlab.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GRAPH, str(experiment), str(spec)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True,
    )
    stages = json.loads(done.stdout)
    engines = {"dgdlab.lifted", "dgdlab.bounds", "dgdlab.simulator"}
    assert stages["import"] == []
    assert not (engines | {"dgdlab.cli"}) & set(stages["load_config"])
    assert not engines & set(stages["build_parser"])
    assert not engines & set(stages["validate-topology"][1])
    for command in ("validate-topology", "sweep-epsilon", "bounds"):
        code, modules = stages[command]
        assert code == 0 and "dgdlab.simulator" not in modules, command


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from dgdlab import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(dgdlab.__all__)


def test_removed_names_and_options_stay_removed():
    for name, module in REMOVED.items():
        assert name not in dgdlab.__all__ and not hasattr(dgdlab, name), name
        assert not hasattr(module, name), name
    for name, module in MOVED_TO_CONFIG.items():
        assert not hasattr(module, name), name
        assert getattr(dgdlab, name) is getattr(config, name), name
    for name, cls in REMOVED_METHODS.items():
        assert not hasattr(cls, name), name
    for name, cls in REMOVED_FIELDS.items():
        assert name not in {field.name for field in dataclasses.fields(cls)}, name
    # an ensemble has one constructor, QuadraticEnsemble(curvatures, linear_terms)
    assert not [k for k, v in vars(costs.QuadraticEnsemble).items() if isinstance(v, classmethod)]
    for function, options in REMOVED_OPTIONS.items():
        parameters = inspect.signature(function).parameters
        assert not set(options) & set(parameters), function.__name__
    # alpha_A comes from the caller's confirmed bracket
    bracket = inspect.signature(bounds.build_report).parameters["bracket"]
    assert bracket.default is inspect.Parameter.empty
    for key in REMOVED_CONFIG_KEYS:
        assert key not in config._CONFIG_KEYS, key


def test_lifted_reads_nothing_from_config():
    # the engine takes no config default: a threshold is its confirmed Schur edge
    src = Path(dgdlab.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", "import sys, dgdlab.lifted; print(sorted(sys.modules))"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True,
    )
    assert "'dgdlab.lifted'" in done.stdout and "'dgdlab.config'" not in done.stdout
