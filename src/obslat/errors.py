"""Exception types shared across the package (DimensionMismatch is a PreconditionError)."""


class ObslatError(Exception):
    """Base class for all package errors."""


class PreconditionError(ObslatError, ValueError):
    """A documented precondition of an operation was violated."""


class DimensionMismatch(PreconditionError):
    """Operands have incompatible lengths or shapes, the precondition all vectors share."""


class ConstructionError(ObslatError, ValueError):
    """Invalid data passed to a constructor (bad weights, asymmetry, non-PSD, ...)."""


class SolverError(ObslatError, RuntimeError):
    """A solver could not run (bad diagonal, unsupported exponent, size cap, ...)."""


class CertificateError(ObslatError, RuntimeError):
    """A certificate was refused or an asserted certificate condition failed."""


class ObstacleOrderError(ObslatError, ValueError):
    """Lower obstacle exceeds the upper obstacle somewhere.

    Carries the offending arrays so callers can report the violation:
    ``violation`` is ``max(lo - hi)`` and ``lo``/``hi`` the obstacles.
    """

    def __init__(self, message, violation=None, lo=None, hi=None):
        super().__init__(message)
        self.violation = violation
        self.lo = lo
        self.hi = hi
