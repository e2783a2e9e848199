"""Exception hierarchy for the tropical plane library."""


class TroplaneError(Exception):
    """Base class for all library errors."""


class ParseError(TroplaneError):
    """Malformed scalar, point or matrix input."""


class BoundaryPointError(TroplaneError):
    """Operation undefined on the boundary of the projective plane."""


class DegenerateError(TroplaneError):
    """Degenerate geometric configuration (no finite coordinate, etc.)."""


class InvalidMatrixError(TroplaneError):
    """Matrix violates the finite-entry-per-row-and-column condition."""


class NotNormalError(TroplaneError):
    """Operation requires a normal matrix."""


class NotIdempotentError(TroplaneError):
    """Operation requires an idempotent matrix."""


class NonFiniteEntryError(TroplaneError):
    """Operation requires all matrix entries to be finite."""


class ParameterRangeError(TroplaneError):
    """Canonical-form parameters outside their admissible range."""


class ConstraintViolationError(ParameterRangeError):
    """Canonical parameters violate a complementarity condition."""


class NotCanonicalError(TroplaneError):
    """Matrix is not in canonical lower form."""


class NoSuchAntennaError(TroplaneError):
    """Requested antenna parameter is zero."""


class InternalInconsistencyError(TroplaneError):
    """A step that is guaranteed to succeed failed; indicates a bug."""
