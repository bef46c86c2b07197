"""Exception types shared across the package."""


class SpindeqError(Exception):
    """Base class for all package-specific errors."""


class TableMismatchError(SpindeqError, ValueError):
    """Two elements or an operator and its argument over different contexts
    were combined."""


class ParityError(SpindeqError):
    """An operation received an argument of the wrong parity."""


class ParseError(SpindeqError):
    """Expression text could not be parsed.  Carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownSymbolError(ParseError):
    """The expression references a symbol that was never declared."""


class OddPowerError(ParseError):
    """An anticommuting symbol was raised to a power of two or higher."""


class PoleError(SpindeqError):
    """A sphere-angle computation was requested too close to a pole."""


class UnsupportedCaseError(SpindeqError):
    """The requested computation is outside the implemented scope."""


class IdentityViolationError(SpindeqError):
    """An expression expected to decompose exactly failed to do so.

    ``payload`` holds a report dict with the offending residual terms so
    callers can surface it in machine-readable output.
    """

    def __init__(self, message: str, payload: dict | None = None):
        super().__init__(message)
        self.payload = payload or {}
