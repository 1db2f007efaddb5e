"""Exception types shared across the package."""


class DomainError(ValueError):
    """Raised when an energy argument lies inside the closed continuous band."""


class ToleranceError(RuntimeError):
    """Raised when a root solve does not converge."""


class BudgetExceeded(RuntimeError):
    """Raised when the grid oracle's window needs a mesh longer than oracle.MESH_LIMIT."""


class GramMatrixError(ArithmeticError):
    """Raised when a Gram matrix below the band is not positive definite."""


# the typed numerical failures: the CLI exits with code 3 on them and a sweep
# reports them in the failing point's row; anything else is a bug and aborts
NUMERICAL_ERRORS = (DomainError, ToleranceError, BudgetExceeded, GramMatrixError)


class ParseError(ValueError):
    """Raised on malformed config text.  Carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(ValueError):
    """Raised when a config value is out of range.  Carries the field name."""

    def __init__(self, message, field=None):
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field
