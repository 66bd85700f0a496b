"""Exception taxonomy shared across the package."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class UmbilicError(DomainError):
    """Operation requires r2 > r1; quantities are singular at umbilic points."""


class PoleError(DomainError):
    """A closed-form denominator factor vanishes (possible only for alpha > 2)."""

    def __init__(self, message, t=None, factor=None):
        super().__init__(message)
        self.t = t
        self.factor = factor


class ResolutionError(ValueError):
    """Grid too coarse for the requested construction."""


class ConvexityLossError(RuntimeError):
    """A profile stopped representing a strictly convex body."""

    def __init__(self, message, node=None, r1=None, r2=None, trace=None):
        super().__init__(message)
        self.node = node
        self.r1 = r1
        self.r2 = r2
        self.trace = trace


class StepRejectedError(RuntimeError):
    """A time step produced an invalid profile; the caller should halve dt."""


class SignBudgetError(RuntimeError):
    """An exact sign decision ran out of pieces before it could decide."""


class BracketError(ValueError):
    """Threshold search range does not bracket a verdict change."""

    def __init__(self, message, lo_verdict=None, hi_verdict=None):
        super().__init__(message)
        self.lo_verdict = lo_verdict
        self.hi_verdict = hi_verdict


class ConfigError(ValueError):
    """Invalid run configuration; reported with field names, no output written."""
