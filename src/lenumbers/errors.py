"""Exception types shared across the package."""


class LeNumbersError(Exception):
    """Base class for all package errors."""


class PolyParseError(LeNumbersError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InputError(LeNumbersError):
    """Invalid or internally inconsistent user input."""


class GenericityError(LeNumbersError):
    """The chosen linear slice form fails a checkable genericity condition."""


class ResourceLimitError(LeNumbersError):
    """A configured computation budget was exhausted."""


class InvariantViolationError(LeNumbersError):
    """An internal consistency check failed; indicates a bug, not bad input.

    Raised only by ``localring.ideal_quotient``, when a quotient element
    leaves a remainder on division by g.
    """
