"""Exception types with stable machine-readable codes.

Every error raised by this package derives from DuracastError and carries a
short kebab-case ``code`` that the command-line layer prints on failure, so
scripts can branch on the code without parsing prose.
"""


class DuracastError(Exception):
    """Base class for all package errors."""

    code = "error"


class SchemaViolation(DuracastError):
    code = "schema-violation"


class ParseError(DuracastError):
    code = "parse-error"


class IoError(DuracastError):
    code = "io-error"


class UnfillableGap(DuracastError):
    code = "unfillable-gap"


class DegenerateSplit(DuracastError):
    code = "degenerate-split"


class InvalidK(DuracastError):
    code = "invalid-k"


class EmptySelection(DuracastError):
    code = "empty-selection"


class ShapeError(DuracastError):
    code = "shape-error"


class UndefinedAssociation(DuracastError):
    code = "undefined-association"


class NoCoverage(DuracastError):
    code = "no-coverage"


class TrainingFailure(DuracastError):
    code = "training-failure"


class Divergence(DuracastError):
    code = "divergence"


class InsufficientHistory(DuracastError):
    code = "insufficient-history"


class SingularTime(DuracastError):
    code = "singular-time"


class DivisionError(DuracastError):
    code = "division-error"


class UnitMismatch(DuracastError):
    code = "unit-mismatch"


class DomainError(DuracastError):
    code = "domain-error"


class ConfigError(DuracastError):
    code = "config-error"
