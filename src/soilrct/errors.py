"""Exception hierarchy shared across the package."""


class SoilRctError(Exception):
    """Base class for all soilrct errors."""


class ParamError(SoilRctError, ValueError):
    """A parameter value is outside its allowed domain."""


class DimensionError(SoilRctError, ValueError):
    """Array shapes are inconsistent with each other."""


class DesignError(SoilRctError, ValueError):
    """A study design specification is internally inconsistent."""


class EnrollmentError(DesignError):
    """The requested sample cannot be drawn from the population."""


class InsufficientDataError(SoilRctError, ValueError):
    """Too few observations to compute the requested estimate."""


class SingularMatrixError(SoilRctError, ValueError):
    """A regression design matrix is rank deficient."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


class FitError(SoilRctError, ValueError):
    """A per-arm regression fit failed."""

    def __init__(self, message: str, arm: int | None = None):
        super().__init__(message)
        self.arm = arm


class InfeasibleBudgetError(SoilRctError, ValueError):
    """No treatment regime satisfies the budget constraint."""


class SchemaError(SoilRctError, ValueError):
    """An input file does not match its documented schema."""


class ScenarioAbortError(SoilRctError, RuntimeError):
    """Too many replicate failures inside a single scenario."""
