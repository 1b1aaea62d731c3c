"""Exception types, and the one rule each for file integers (as_int) and counts (at_least_one)."""


class HsaLabError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(HsaLabError):
    """Multiplicative inverse of zero requested."""


class ShapeError(HsaLabError):
    """Matrix dimensions incompatible with the requested operation."""


class SingularMatrix(HsaLabError):
    """A square matrix required to be invertible is singular."""


class CauchyDegenerate(HsaLabError):
    """Cauchy parameters violate distinctness or hit a zero denominator."""


class NoSuchRoot(HsaLabError):
    """No primitive root of unity of the requested order exists."""


class InvalidTopology(HsaLabError):
    """User-relay association violates the homogeneous network invariants."""


class InvalidArgument(HsaLabError):
    """Argument outside the operation's declared domain."""


class FieldTooSmall(HsaLabError):
    """The prime field cannot host the requested construction."""


class InfeasibleParameters(HsaLabError):
    """Scheme parameters violate the construction's hypothesis."""


class ConstructionFailed(HsaLabError):
    """Randomized construction exhausted its resampling budget.

    rejections counts the rejected candidates by the check that rejected them.
    """

    def __init__(self, message: str, attempts: int = 0,
                 rejections: dict[str, int] | None = None):
        super().__init__(message)
        self.attempts = attempts
        self.rejections = {} if rejections is None else rejections


class ProtocolViolation(HsaLabError):
    """A protocol round received messages from the wrong set of parties."""


class TooLargeToEnumerate(HsaLabError):
    """Exhaustive enumeration would exceed the configured cap."""


def as_int(value, what: str) -> int:
    """An integer given in any JSON form (13, 13.0 or "13") as an int.

    The one rule for every integer read from a config or scheme file.

    Raises:
        InvalidArgument: for booleans, fractions and anything int() rejects.
    """
    try:
        # int() would accept booleans and truncate fractions
        if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidArgument(f"{what} must be an integer, got {value!r}") from None


def at_least_one(value: int, what: str):
    if value < 1:
        raise InvalidArgument(f"{what} must be at least 1, got {value}")
