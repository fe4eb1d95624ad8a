"""Exception types shared across the library, and check_fraction, the
library's one test of the (0, 1] fraction rule.

Every error raised on a documented failure path is a distinct class so
callers (and the CLI exit-code mapping) can tell failure modes apart.
"""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(ValueError):
    """A matrix contains NaN or infinite entries."""


class RangeError(ValueError):
    """A scalar argument (fraction, rank, count) is outside its valid range."""


def check_fraction(name, value):
    """RangeError unless 0 < value <= 1 (so NaN fails too)."""
    if not 0.0 < value <= 1.0:
        raise RangeError(f"{name} must be in (0, 1], got {value}")


class InputError(ValueError):
    """Model input is invalid (out-of-vocabulary token, overlong sequence)."""


class MappingError(ValueError):
    """Teacher and student traces cannot be aligned layer by layer."""


class SvdConvergenceError(RuntimeError):
    """Jacobi sweeps hit the cap before the off-diagonal mass vanished."""

    def __init__(self, residual, sweeps):
        super().__init__(
            f"SVD did not converge after {sweeps} sweeps "
            f"(residual off-diagonal coherence {residual:.3e})"
        )
        self.residual = residual
        self.sweeps = sweeps


class InfeasibleBudgetError(ValueError):
    """Dense and rank-floored storage alone exceed the overall budget;
    `slack` is the budget left after them, negative by the shortfall."""

    def __init__(self, message, slack):
        super().__init__(f"{message} (slack {slack:.6g})")
        self.slack = slack


class DivergenceError(RuntimeError):
    """Training loss became non-finite or blew up; carries a state dump."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class BundleFormatError(ValueError):
    """Base class for parameter-bundle file problems."""


class MalformedManifestError(BundleFormatError):
    """The bundle manifest cannot be parsed or names an unknown group."""


class ChecksumError(BundleFormatError):
    """Stored and recomputed entry checksums disagree."""


class TruncatedBlobError(BundleFormatError):
    """The binary blob is shorter than the manifest declares."""


class ExpansionWarning(UserWarning):
    """Factorization at the given rank stores more values than the dense matrix."""
