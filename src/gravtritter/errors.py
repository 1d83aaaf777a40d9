"""Exception hierarchy shared across the package."""


class GravTritterError(Exception):
    """Base class for all library errors."""


class DomainError(GravTritterError, ValueError):
    """An input violates a documented precondition (bad parameter range)."""


class DegeneracyError(GravTritterError, ValueError):
    """Two mode profiles are numerically parallel; Gram-Schmidt is undefined."""


class InconsistencyError(GravTritterError, ValueError):
    """Supplied overlaps cannot originate from orthonormal mode pairs."""
