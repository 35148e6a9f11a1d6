"""Exception types shared across the package."""


class RbscError(Exception):
    """Base class for all errors raised by this package."""


class EqualPoints(RbscError):
    """Two coincident points were given where distinct ones are required."""


class DuplicatePoints(RbscError):
    """A point collection contains coincident points."""


class SameLine(RbscError):
    """Two identical lines were given where distinct ones are required."""


class ParseError(RbscError):
    """Malformed input text; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SemanticError(ParseError):
    """Syntactically valid input with inconsistent content."""


class UnknownSetId(RbscError):
    """A solution references a set id that is not in the family."""


class NotLinearSystem(RbscError):
    """Two family sets share two or more elements."""


class BoundedBudget(RbscError):
    """Wrong kind of line budget: unbounded where the operation needs a finite
    one, or finite where it needs an unbounded one."""


class PreconditionViolated(RbscError):
    """Instance falls outside the structural domain of the algorithm."""


class DegreeExceeded(RbscError):
    """A set carries more red elements than the stated per-set bound."""


class TooManyBlues(RbscError):
    """The subset program's estimated table memory exceeds its limit."""


class RedDegreeExceeded(RbscError):
    """A set carries two or more red elements where at most one is allowed."""


class TooLarge(RbscError):
    """Instance exceeds an exponential-solver guard."""


class NotRegular(RbscError):
    """Graph is not d-regular as required."""


class GeometryAuditError(RbscError):
    """A generated construction failed its geometric non-degeneracy audit."""


class PlacementExhausted(RbscError):
    """No collision-free placement found within the retry schedule."""


class FilterUnsatisfiable(RbscError):
    """Random generation could not satisfy the profile filters."""
