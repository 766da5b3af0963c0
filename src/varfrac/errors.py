"""Exception taxonomy shared across the library.

The CLI maps these onto its exit codes, so new error conditions should
reuse one of the classes below rather than raising bare ValueErrors.
"""

from __future__ import annotations


class VarfracError(Exception):
    """Base class for all library errors."""


class DomainError(VarfracError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ValidityError(VarfracError, ValueError):
    """A declared invariant fails at runtime (order bounds, hypotheses)."""


class ConfigurationError(VarfracError):
    """An operation was invoked without the inputs it was configured to need."""


class ExpressionError(VarfracError):
    """Parse or compile failure in the expression mini-language, or a config
    value the CLI cannot parse; the message ends with the position in the
    expression when one is given."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message if col is None else f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class OptimizationError(VarfracError):
    """The minimizer hit a non-finite objective; carries the offending point."""

    def __init__(self, message: str, coeffs=None):
        super().__init__(message)
        self.coeffs = None if coeffs is None else list(coeffs)
