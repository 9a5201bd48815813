"""Decentralized gradient descent laboratory.

Builds quadratic consensus problems, certifies strong convexity of the
lifted objective to locate the tight stepsize threshold, computes the
competing stepsize bounds, and verifies boundedness of DGD trajectories
against the exact spectral-radius oracle.

`import dgdlab` loads no submodule: a public name imports its module when it
is first looked up (PEP 562), so a command loads only the modules it runs.
"""

from importlib import import_module

# the public names, each under the module that defines it
_EXPORTS = {
    "bounds": (
        "BoundReport", "build_report", "classical_gd_bound", "harmonic_rate",
        "lambda_min_bound", "spectral_gap_bound", "trajectory_radius",
    ),
    "config": ("StepsizeSchedule", "ensemble_from_spec", "mixing_from_spec"),
    "costs": ("QuadraticEnsemble", "epsilon_example", "random_ensemble"),
    "lifted": ("ConvexityCertificate", "LiftedObjective"),
    "numerics": ("min_eigenvalue", "solve_spd", "sym_eigen"),
    "simulator": (
        "OracleVerdict", "TrajectoryRecord", "boundedness_oracle", "nonexpansiveness_check",
        "run", "run_batch", "step",
    ),
    "topology": ("MixingMatrix", "SpectralSummary", "metropolis_weights", "validate_mixing"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, from its module (imported now if it is not yet); not cached
    here, so the lookup always returns the module's current binding."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
