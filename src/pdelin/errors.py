"""Exception types shared across the package."""


class PdelinError(Exception):
    """Base class for all errors raised by this package."""


class ExprError(PdelinError):
    """Malformed expression construction (division by zero, log(0), ...)."""


class ParseError(PdelinError):
    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class UndeclaredIdentifierError(ParseError):
    def __init__(self, name, position=None):
        self.name = name
        super().__init__(f"undeclared identifier '{name}'", position)


class DomainError(PdelinError):
    """Numeric evaluation left the real domain (log of nonpositive, 0^negative)."""


class UncoveredKernelError(PdelinError):
    """A probe assignment does not cover some kernel of the expression."""


class CyclicRuleError(PdelinError):
    """A substitution rule set cannot be closed under differentiation."""


class NotADivergenceError(PdelinError):
    """Flux reconstruction was asked for an expression with nonzero Euler image."""


class ExtractionError(PdelinError):
    """The augmented-identity stage could not extract dependent-variable factors."""


class DegenerateError(PdelinError):
    """A transformation or factor matrix fails its non-degeneracy requirement."""


class WorkspaceError(PdelinError):
    """Invalid declarations or workspace file contents."""


class ProbeUndecidedError(DomainError):
    """A numeric probe reached its precision cap with an interval that
    neither excludes zero nor is narrow enough to call zero: no verdict."""
