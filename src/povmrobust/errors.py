"""Exception types raised across the package."""


class PovmRobustError(Exception):
    """Base class for all errors raised by this package."""


class NotSquare(PovmRobustError):
    pass


class NotHermitian(PovmRobustError):
    pass


class NotPsd(PovmRobustError):
    """An operator that should be positive semidefinite is not.

    Carries the outcome index when raised during POVM validation.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class CompletenessViolation(PovmRobustError):
    """POVM elements do not sum to the identity within tolerance."""

    def __init__(self, message, deviation=None):
        super().__init__(message)
        self.deviation = deviation


class InvalidDistribution(PovmRobustError):
    pass


class NotOrthonormal(PovmRobustError):
    pass


class SizeMismatch(PovmRobustError):
    pass


class EtaOutOfRange(PovmRobustError):
    pass


class DimensionMismatch(PovmRobustError):
    pass


class DimensionOne(PovmRobustError):
    pass


class ShapeMismatch(PovmRobustError):
    pass


class InvalidPovm(PovmRobustError):
    pass


class InvalidEnsemble(PovmRobustError):
    pass


class InvalidState(PovmRobustError):
    pass


class InvalidJoint(PovmRobustError):
    pass


class InvalidGroup(PovmRobustError):
    pass


class InvalidArgument(PovmRobustError, ValueError):
    """An argument of the wrong kind or outside its domain: a string for an
    array, a float for a size, a matrix entry that is not finite, a negative seed."""


class SolverFailure(PovmRobustError):
    pass


class ResourceLimit(PovmRobustError):
    """A computation that would exceed a memory budget, or ran out of memory."""


class UsageError(PovmRobustError):
    pass


class ParseError(PovmRobustError):
    def __init__(self, path, detail):
        super().__init__(f"{path}: {detail}")
        self.path = path
        self.detail = detail


def type_gate(cls, error):
    """A check passing on a ``cls`` and raising ``error`` for anything else."""
    def require(obj):
        if not isinstance(obj, cls):
            raise error(f"expected an instance of {cls.__name__}, got {type(obj).__name__}")
        return obj
    return require


def dimension_gate(first: str, a: int, second: str, b: int) -> None:
    """``DimensionMismatch`` unless the ``first`` operand's dimension ``a``
    equals the ``second`` operand's dimension ``b``."""
    if a != b:
        raise DimensionMismatch(f"{first} dimension {a} vs {second} dimension {b}")
