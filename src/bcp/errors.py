"""Exception types shared across the package.

Plain argument mistakes (wrong lengths, bad counts) raise ValueError;
the classes here cover failures with domain meaning.
"""


class BcpError(Exception):
    """Base class for all package-specific errors."""


class EvaluationError(BcpError):
    """A boundary evaluator returned NaN or an otherwise unusable value."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class InvalidBoundariesError(BcpError):
    """Boundaries violate ordering, sign or finiteness requirements."""


class StartOutsideBandError(InvalidBoundariesError):
    """The process start point does not lie strictly inside the band."""


class NumericFailureError(BcpError):
    """A numeric step failed: the time change S(T) overflowed or vanished,
    an `ou-td` coefficient or a `gbm` rate left its domain (is not finite,
    or kappa or sigma is not positive), or a Chebyshev fit needed more
    pieces than its limit."""


class InvalidDomainError(BcpError):
    """A coefficient function leaves its admissible domain on the grid."""


class ExprSyntaxError(BcpError):
    """Boundary expression could not be parsed.

    `offset` is the byte offset of the offending token in the source text.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
