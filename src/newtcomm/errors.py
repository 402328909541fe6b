"""Exception types shared across the package, and the integer test its guards share."""


class NewtcommError(Exception):
    """Base class for all library errors."""


class InvalidInput(NewtcommError):
    """An argument is outside the operation's documented domain."""


class RingMismatch(NewtcommError):
    """Operands live in incompatible rings (e.g. different root orders t)."""


class ParseError(NewtcommError):
    """Expression text could not be parsed.

    Carries the 0-based offset of the offending character in ``position``.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotAMultiple(NewtcommError):
    """A derivation is not a polynomial-in-the-energy multiple of the base one."""


class HypothesisViolation(NewtcommError):
    """Input fails a mathematical hypothesis required for the result to hold."""


class SingularDelta(NewtcommError):
    """The transversality determinant vanishes where it must not."""


class DegenerateRecurrence(NewtcommError):
    """A recurrence hit a zero coefficient it needs to divide by."""


def is_int(n) -> bool:
    return isinstance(n, int) and not isinstance(n, bool)  # Python counts a bool as an int
