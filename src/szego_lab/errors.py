"""Exception types shared across the package."""


class SzegoLabError(Exception):
    """Base class for all package-specific failures."""


class ConjugateSymmetryError(SzegoLabError, ValueError):
    """A coefficient map is not Hermitian-symmetric (the log-weight is not real)."""


class SymbolParseError(SzegoLabError, ValueError):
    """A symbol or moment file could not be parsed."""

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


class QuadratureError(SzegoLabError, RuntimeError):
    """A quadrature hit its grid cap or gave an unusable value (nan, inf, or D_n <= 0)."""


class PositivityError(SzegoLabError, ArithmeticError):
    """A moment matrix is not positive definite (bad input or exhausted precision)."""


class RecursionConsistencyError(SzegoLabError, ArithmeticError):
    """Polynomial data fed to a recursion step is internally inconsistent."""


class InsufficientDataError(SzegoLabError, ValueError):
    """Too few usable points for a requested fit."""


class InvariantViolation(SzegoLabError, RuntimeError):
    """A structural identity that should hold numerically was violated; ``check`` names it."""

    def __init__(self, message, check="invariant"):
        super().__init__(message)
        self.check = check
