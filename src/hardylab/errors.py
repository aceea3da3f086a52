"""Exception types shared across the laboratory modules."""

__all__ = [
    "HardyLabError",
    "IndexOutOfRange",
    "TruncationTooShort",
    "NearZeroConstantTerm",
    "OutsideSpectralBall",
    "DegenerateBasis",
    "ResidualMismatch",
]


class HardyLabError(Exception):
    """Base class for all hardylab errors."""


class IndexOutOfRange(HardyLabError):
    """An operator or family index violates its admissible range."""


class TruncationTooShort(HardyLabError):
    """The input series is too short for the requested transform window."""


class NearZeroConstantTerm(HardyLabError):
    """Formal logarithm requested for a series whose constant term is (near) zero."""


class OutsideSpectralBall(HardyLabError):
    """Eigenvector construction requested outside its ball of convergence."""


class DegenerateBasis(HardyLabError):
    """Column orthogonalization detected numerical rank deficiency."""


class ResidualMismatch(HardyLabError):
    """A least-squares distance disagrees with its independently recomputed residual."""
