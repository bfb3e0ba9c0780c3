"""Exception types shared across the kernel.

Every failure mode the evaluators can hit has its own class so that the
verification harness can turn it into a SKIP with a reason instead of a
stack trace, and so tests can assert on the exact condition.
"""

from __future__ import annotations


class QrucibleError(Exception):
    """Base class for all kernel errors."""


class DivisionByZero(QrucibleError, ZeroDivisionError):
    """Inverse of the zero element of Q(w)."""


class ExponentNotRepresentable(QrucibleError):
    """An exponent denominator does not divide the context grid."""


class ContextMismatch(QrucibleError):
    """Two series from different contexts were combined."""


class NotInvertible(QrucibleError):
    """Inverse of a series that is zero on its whole window."""


class InsufficientTruncation(QrucibleError):
    """A comparison was requested beyond a series' proven truncation."""


class NonPositiveBaseExponent(QrucibleError):
    """Infinite product whose base does not tend to zero formally."""


class NonSummable(QrucibleError):
    """Series whose term valuations do not grow; no formal sum exists."""


class ZeroDenominator(QrucibleError):
    """A lower Pochhammer parameter produces an exact zero factor."""


class InvalidParameter(QrucibleError, ValueError):
    """A kernel parameter outside its domain, such as a zero theta
    argument or an unknown generating-function variant."""


class DivergentSpec(QrucibleError):
    """Multi-sum whose exponent does not grow along some ray."""


class WindowOverflow(QrucibleError):
    """A z-Laurent computation exceeded its configured degree window."""


class ParseError(QrucibleError):
    """Syntax error in DSL text, with source position."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class SuiteError(QrucibleError):
    """A suite file that cannot be read or does not parse; the message
    names the file."""


class UnknownSymbol(ParseError):
    """An identifier that is not part of the DSL vocabulary."""


class EvalError(QrucibleError):
    """Elaboration failure, annotated with the AST path where it occurred."""

    def __init__(self, path: str, cause: Exception) -> None:
        super().__init__(f"at {path}: {cause}")
        self.path = path
        self.cause = cause


class MonomialExpected(QrucibleError):
    """A parameter position requires a single monomial c*q^e."""
