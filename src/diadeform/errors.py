"""Shared exception types for the workbench."""


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class MixedFields(WorkbenchError):
    """Entries of a matrix or tensor disagree on their base field."""


class FieldMismatch(WorkbenchError):
    """Two objects that must share a base field do not."""


class ShapeMismatch(WorkbenchError):
    """Dimensions of tensors, matrices, or cochains are inconsistent."""


class CapExceeded(WorkbenchError):
    """A requested tree degree or deformation order exceeds its fixed cap."""


class IndexOutOfRange(WorkbenchError):
    """A degree, order, leaf or basis index is outside its valid range."""


class OrderTooLow(WorkbenchError):
    """A deformation does not carry enough orders for the requested operation."""


class OrderMismatch(WorkbenchError):
    """Two truncated series have different orders."""


class InvalidDeformation(WorkbenchError):
    """A deformation failed validity checking where validity is required."""


class BaseMismatch(WorkbenchError):
    """Order-0 data of a deformation disagrees with the underlying model."""


class NonIdentityConstantTerm(WorkbenchError):
    """A formal isomorphism whose constant term is not the identity."""


class NotACoboundary(WorkbenchError):
    """A cochain expected to be a coboundary is not; carries a rank certificate."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class ParseError(WorkbenchError):
    """Model file syntax error, with line information."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class UnknownReference(ParseError):
    """A model file refers to an undeclared object."""


class BadScalar(ParseError):
    """A scalar literal does not parse in the declared field."""
