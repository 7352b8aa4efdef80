"""Exception types shared across the package."""


class LocentError(Exception):
    """Base class for all package errors."""


class NonmemberCenter(LocentError):
    """Ball center does not belong to the class body."""


class CapExceeded(LocentError):
    """Candidate count exceeds the exhaustive-search cap."""


class GridMismatch(LocentError):
    """Two entropy tables do not share the required epsilon grid."""


class DimensionMismatch(LocentError):
    """Coordinate vector length differs from the class dimension."""


class NoConvergence(LocentError):
    """Alternating projection failed to reach tolerance."""


class Degenerate(LocentError):
    """A sampled pair of members coincides."""


class DataDimensionMismatch(LocentError):
    """Regression data does not match the class geometry."""


class IdenticalHypotheses(LocentError):
    """The two test hypotheses are the same point."""


class NonMonotoneProfile(LocentError):
    """Monotonization changed a greedy profile beyond the allowed slack."""


class BadParams(LocentError):
    """Rate-formula parameters out of range."""


class InnerOptFailure(LocentError):
    """Inner maximization of a Gaussian-width draw did not certify."""


class PreconditionViolated(LocentError):
    """Concentration-check preconditions do not hold for the inputs."""


class UnboundedClassWithoutMomentConstant(LocentError):
    """Sup-norm-unbounded class requires the sub-Gaussian moment constant."""


class DegenerateFit(LocentError):
    """Slope fit impossible (all sample sizes equal)."""


class InsufficientData(LocentError):
    """All replicates failed at some sample size."""
