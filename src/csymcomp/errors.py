"""Exception hierarchy shared by all modules."""


class CsymcompError(Exception):
    """Base class for all package-specific errors."""


class InvalidMapError(CsymcompError):
    """Coefficients do not define a linear fractional transformation (determinant ~ 0)."""


class DomainError(CsymcompError):
    """Input lies outside the documented domain of an operation."""


class NotSelfMapError(DomainError):
    """The symbol does not map the unit disk into itself."""


class PoleDerivativeError(DomainError):
    """Derivative requested at the pole of the map."""


class ExpansionDomainError(DomainError):
    """Taylor expansion about 0 requested for a map whose pole lies in the closed disk."""

