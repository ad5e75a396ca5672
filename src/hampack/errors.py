"""Exception hierarchy shared by all modules.

CLI exit-code mapping: ParseError -> 2, CapacityError -> 3,
InputError (including parity violations) -> 4,
InternalError -> 5.
"""


class HampackError(Exception):
    """Base class for all library errors."""


class InputError(HampackError):
    """A precondition on the inputs is violated (domain/range/parity)."""


class ParityError(InputError):
    """A parity requirement fails (e.g. r*n odd, k*d odd)."""


class CapacityError(HampackError):
    """The instance exceeds a documented exact-computation cutoff."""


class ParseError(HampackError):
    """Malformed input text; carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InternalError(HampackError):
    """An internal invariant failed; indicates a bug, not bad input."""
