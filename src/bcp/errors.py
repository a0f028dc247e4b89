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
    """Quadrature or root finding failed to converge."""


class InvalidDomainError(BcpError):
    """A coefficient function leaves its admissible domain on the grid."""


class ExprSyntaxError(BcpError):
    """Boundary expression could not be parsed.

    `offset` is the byte offset of the offending token in the source text.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
