"""Exception hierarchy shared across the package."""


class GravTritterError(Exception):
    """Base class for all library errors."""


class DomainError(GravTritterError, ValueError):
    """An input violates a documented precondition (bad parameter range)."""


class QuadratureError(GravTritterError, ArithmeticError):
    """A Simpson overlap of a table with a gaussian/comb profile missed its tolerance.

    Attributes:
        achieved: Richardson error estimate actually reached by the rule.
        requested: tolerance that was asked for.
    """

    def __init__(self, achieved: float, requested: float):
        self.achieved = achieved
        self.requested = requested
        super().__init__(
            f"quadrature reached abs error {achieved:.3e}, "
            f"requested {requested:.3e}"
        )


class DegeneracyError(GravTritterError, ValueError):
    """Two mode profiles are numerically parallel; Gram-Schmidt is undefined."""


class InconsistencyError(GravTritterError, ValueError):
    """Supplied overlaps cannot originate from orthonormal mode pairs."""
