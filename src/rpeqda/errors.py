"""Exception hierarchy shared by all rpeqda modules.

Every error raised by the public API derives from :class:`RpeQdaError`, so
callers (including the CLI) can catch one base class and report a nonzero
exit status.
"""


class RpeQdaError(Exception):
    """Base class for all rpeqda errors."""


class DimensionMismatch(RpeQdaError, ValueError):
    """Operand shapes are incompatible."""


class NonFiniteInput(RpeQdaError):
    """Input data holds a NaN or an infinite value."""


class TooFewClasses(RpeQdaError, ValueError):
    """A classifier was asked to fit fewer than two classes."""


class UnknownProjectionFamily(RpeQdaError, ValueError):
    """A projection family is not one of the supported families."""


class UnknownScheme(RpeQdaError, ValueError):
    """A benchmark scheme id is not one of the defined schemes."""


class InvalidCovariance(RpeQdaError, ValueError):
    """Covariance handle parameters are out of range or inconsistent."""


class InvalidParameter(RpeQdaError, ValueError):
    """A scalar argument lies outside the range its operation supports."""


class NotPositiveDefinite(RpeQdaError):
    """A matrix required to be positive definite is singular or indefinite."""


class RankDeficient(RpeQdaError):
    """A matrix required to have full rank does not."""


class InvalidDimensions(RpeQdaError):
    """Projection dimensions violate 1 <= d <= p."""


class TooFewSamplesForClass(RpeQdaError):
    """A class has too few samples for the requested dimension."""

    def __init__(self, label, message=None):
        self.label = label
        super().__init__(message or f"class {label!r} has too few samples")


class SingularCovariance(RpeQdaError):
    """A class covariance estimate could not be factored."""

    def __init__(self, label, message=None):
        self.label = label
        super().__init__(message or f"singular covariance for class {label!r}")


class MemberDegenerate(SingularCovariance):
    """An ensemble member kept producing singular projected covariances
    after exhausting its redraw budget."""

    def __init__(self, member, message=None):
        self.member = member
        SingularCovariance.__init__(
            self, None,
            message or f"ensemble member {member} degenerate after retries")


class ReducedDimTooLarge(RpeQdaError):
    """Reduced dimension d is not smaller than the minimum class size."""


class LengthMismatch(RpeQdaError):
    """Two sequences that must align have different lengths."""


class EmptyInput(RpeQdaError, ValueError):
    """An operation received an empty sequence."""


class DimensionTooSmall(RpeQdaError, ValueError):
    """Ambient dimension p is too small for the requested construction."""


class ParseError(RpeQdaError):
    """A CSV cell could not be parsed."""

    def __init__(self, line, column, message=None):
        self.line = line
        self.column = column
        super().__init__(
            message or f"parse error at line {line}, column {column}")


class MissingValue(RpeQdaError):
    """A CSV cell is blank or non-finite."""

    def __init__(self, line, column=None, message=None):
        self.line = line
        self.column = column
        super().__init__(message or f"missing value at line {line}")


class InconsistentWidth(RpeQdaError):
    """A CSV row has a different number of fields than the first row."""

    def __init__(self, line, message=None):
        self.line = line
        super().__init__(
            message or f"inconsistent number of fields at line {line}")


class ModelFormatError(RpeQdaError, ValueError):
    """A model file is not a well-formed ``rpeqda-model/1`` document."""
