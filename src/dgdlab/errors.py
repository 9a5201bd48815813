"""Exception types shared across the package."""


class DgdLabError(Exception):
    """Base class for all package-specific errors."""


class NotSymmetricError(DgdLabError, ValueError):
    """Input matrix is not symmetric within tolerance; in a stack checked at
    one tolerance per member, `member` is the first failing one's flat index."""

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member


class NotPositiveDefiniteError(DgdLabError, ValueError):
    """Matrix fails a positive-definiteness requirement (Cholesky pivot too small)."""


class EigenConvergenceError(DgdLabError, RuntimeError):
    """The symmetric eigensolver (LAPACK, through numpy.linalg) did not converge."""


class MixingMatrixError(DgdLabError, ValueError):
    """Mixing-matrix validation failure with a stable error code.

    Codes: "non_finite", "not_square", "asymmetric", "row_sum", "col_sum",
    "zero_diagonal", "disconnected", "negative_weight", and "malformed_spec",
    which config's mixing reader raises for a spec that describes no matrix.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class ParameterError(DgdLabError, ValueError):
    """A constructor refuses the value of one named parameter, `parameter`."""

    def __init__(self, parameter: str, message: str):
        super().__init__(message)
        self.parameter = parameter


class NotStronglyConvexError(DgdLabError, ValueError):
    """An operation requires strong convexity that the input does not have."""


class NotInClassError(DgdLabError, ValueError):
    """No stepsize certifies, or the edge cannot be placed or confirmed at this scale."""


class RadiusUndefinedError(DgdLabError, ValueError):
    """Trajectory radius is undefined because the initial stepsize is too large."""


class ConfigError(DgdLabError, ValueError):
    """Experiment configuration failed to parse or validate."""
