"""Exception taxonomy shared by all mercerlab modules."""


class MercerLabError(Exception):
    """Base class for all errors raised by this package."""


class NonHermitianInput(MercerLabError):
    """Input matrix is not self-adjoint within the representation tolerance."""


class DimensionMismatch(MercerLabError):
    """Operands have incompatible dimensions."""


class SpectrumOutOfDomain(MercerLabError):
    """An eigenvalue lies outside the declared spectral interval beyond the clamp band."""


class FunctionDomainError(MercerLabError):
    """A scalar function is undefined at a point where it must be evaluated."""


class DomainMismatch(MercerLabError):
    """The requested interval is not contained in the function's natural domain."""


class MissingSecondDerivative(MercerLabError):
    """A curvature computation was requested for an entry without a second derivative."""


class NonpositiveFunction(MercerLabError):
    """A positivity-requiring operation received a function that is not > 0 on the interval."""


class OutOfInterval(MercerLabError):
    """A scalar argument lies outside [m, M]."""


class BadWeights(MercerLabError):
    """Weights are negative or do not sum to one."""


class ArityMismatch(MercerLabError):
    """Number of operators does not match the number of maps."""


class InvalidInterval(MercerLabError):
    """Interval endpoints violate the required ordering or sign constraints."""


class HypothesisNotMet(MercerLabError):
    """The hypotheses of the requested inequality do not hold for the given data."""


class OperandOverflow(MercerLabError):
    """An operand built from finite family sums is not finite."""


class InverseDomainError(MercerLabError):
    """An inverse function is unavailable or its argument leaves its domain."""


class SingularNormalizer(MercerLabError):
    """The unitality normalizer of a map family is numerically singular."""


class InvalidConfig(MercerLabError):
    """A run size or tolerance is out of range (e.g. no operators, negative trials)."""


class BudgetExhausted(MercerLabError):
    """A search finished its budget without finding a witness.

    Carries the best candidate seen so far in ``best``.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best
