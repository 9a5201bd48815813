"""Exception types shared across the package."""


class DgdLabError(Exception):
    """Base class for all package-specific errors."""


class NotSymmetricError(DgdLabError, ValueError):
    """Input matrix is not symmetric within tolerance."""


class NotPositiveDefiniteError(DgdLabError, ValueError):
    """Matrix fails a positive-definiteness requirement (Cholesky pivot too small)."""


class EigenConvergenceError(DgdLabError, RuntimeError):
    """Jacobi sweeps did not reach the off-diagonal tolerance within the sweep cap."""


class MixingMatrixError(DgdLabError, ValueError):
    """Mixing-matrix validation failure with a stable error code.

    Codes: "non_finite", "not_square", "asymmetric", "row_sum", "col_sum",
    "zero_diagonal", "disconnected", "negative_weight", and
    "malformed_spec" for a mixing spec that does not describe a matrix.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class NotStronglyConvexError(DgdLabError, ValueError):
    """An operation requires strong convexity that the input does not have."""


class NotInClassError(DgdLabError, ValueError):
    """No stepsize below the scan cap makes the lifted objective strongly convex."""


class RadiusUndefinedError(DgdLabError, ValueError):
    """Trajectory radius is undefined because the initial stepsize is too large."""


class ConfigError(DgdLabError, ValueError):
    """Experiment configuration failed to parse or validate."""
