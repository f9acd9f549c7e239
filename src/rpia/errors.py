"""Exception types shared across the library.

Errors are grouped loosely by where they arise: data preparation,
configuration, linear-algebra failures, and file I/O. The CLI maps these
groups onto exit codes.
"""


class FittingError(Exception):
    """Base class for all library-specific errors."""


class InvalidConfig(FittingError):
    """A size, tolerance, or option violates its documented constraints."""


class DegenerateData(FittingError):
    """Input data cannot be parametrized (for example, zero total chord length)."""


class OutOfDomain(FittingError):
    """A parameter value lies outside the basis domain [0, 1]."""


class DimensionMismatch(FittingError):
    """Matrix or array shapes are mutually incompatible."""


class ZeroColumnBlock(FittingError):
    """A column block has zero norm and can never be selected."""


class RankDeficient(FittingError):
    """A stacked system lost full column rank; the direct solve is undefined."""


class InsufficientSpectrum(FittingError):
    """Fewer positive eigenvalues than requested for the decay-rate fit."""


class NonConvergence(FittingError):
    """An iteration hit its cap without meeting its convergence test."""


class ZeroPenalty(FittingError):
    """The penalty norm of an iterate vanished; the weight update is undefined."""


class ZeroReference(FittingError):
    """The reference geometry has zero norm; the relative error is undefined."""


class SingularSample(FittingError):
    """A sampled grid point hits a (near-)zero denominator in the generator."""


class TooLarge(FittingError):
    """A size-capped reference computation was asked to exceed its cap."""


class ParseError(FittingError):
    """A data file could not be parsed; the message names the offending line."""


class IncompleteGrid(FittingError):
    """A surface file does not contain every (row, col) cell of its grid."""


class DuplicatePointWarning(UserWarning):
    """Consecutive duplicate data points produced equal parameters."""
