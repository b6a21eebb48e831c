"""Exception types shared across the package."""


class DegseqError(Exception):
    """Base class for all package-specific failures."""


class DomainError(DegseqError, ValueError):
    """Input is outside the mathematical domain of an operation; also a
    ValueError, the type of every other bad argument."""


class EmptyClassError(DomainError):
    """The requested graph class contains no graphs."""


class ConvergenceError(DegseqError):
    """An iterative numeric routine failed to reach its target residual."""


class StructuralError(DegseqError):
    """A graph violates the degree-{1,2} structural invariants."""
