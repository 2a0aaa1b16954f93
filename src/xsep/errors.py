"""Exception types shared across the package.

All of them derive from ValueError so that callers who do not care about
the distinction can catch a single class; the CLI maps each subtype to a
distinct exit code.
"""

from __future__ import annotations


class XsepError(ValueError):
    """Base class for all errors raised by this package."""


class DimensionMismatch(XsepError):
    """Operands or declared subsystem dimensions are incompatible."""


class NotHermitian(XsepError):
    """A Hermitian matrix was required; carries the worst offending entry pair."""

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


class InvalidParams(XsepError):
    """Construction parameters violate a documented bound."""


class NotDensityMatrix(XsepError):
    """Input failed a density-matrix check; the message is "<check> check failed: <detail>"."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check} check failed: {detail}")
        self.check = check


class EqualityHypothesisError(XsepError):
    """The factor pair does not satisfy the product/transposition equality."""


class MatrixFileError(XsepError):
    """A matrix file is malformed; carries the UTF-8 byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset
