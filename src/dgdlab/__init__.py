"""Decentralized gradient descent laboratory.

Builds quadratic consensus problems, certifies strong convexity of the
lifted objective to locate the tight stepsize threshold, computes the
competing stepsize bounds, and verifies boundedness of DGD trajectories
against the exact spectral-radius oracle.
"""

from .bounds import (
    BoundReport,
    build_report,
    classical_gd_bound,
    harmonic_rate,
    lambda_min_bound,
    spectral_gap_bound,
    trajectory_radius,
)
from .config import ensemble_from_spec, mixing_from_spec
from .costs import QuadraticCost, QuadraticEnsemble, epsilon_example, random_ensemble
from .lifted import (
    ConvexityCertificate,
    LiftedObjective,
    ThresholdResult,
)
from .numerics import Spectrum, min_eigenvalue, solve_spd, sym_eigen
from .simulator import (
    OracleVerdict,
    StepsizeSchedule,
    TrajectoryRecord,
    boundedness_oracle,
    nonexpansiveness_check,
    run,
    run_batch,
    step,
)
from .topology import MixingMatrix, SpectralSummary, metropolis_weights, validate_mixing

__all__ = [
    "BoundReport",
    "ConvexityCertificate",
    "LiftedObjective",
    "MixingMatrix",
    "OracleVerdict",
    "QuadraticCost",
    "QuadraticEnsemble",
    "SpectralSummary",
    "Spectrum",
    "StepsizeSchedule",
    "ThresholdResult",
    "TrajectoryRecord",
    "boundedness_oracle",
    "build_report",
    "classical_gd_bound",
    "ensemble_from_spec",
    "epsilon_example",
    "harmonic_rate",
    "lambda_min_bound",
    "metropolis_weights",
    "min_eigenvalue",
    "mixing_from_spec",
    "nonexpansiveness_check",
    "random_ensemble",
    "run",
    "run_batch",
    "solve_spd",
    "spectral_gap_bound",
    "step",
    "sym_eigen",
    "trajectory_radius",
    "validate_mixing",
]

__version__ = "0.1.0"
