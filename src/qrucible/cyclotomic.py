"""Exact arithmetic in Q(w), w a primitive cube root of unity.

Elements are stored on the basis {1, w} with w^2 rewritten as -1 - w,
which gives a unique normal form and O(1) reduction. Components are
`fractions.Fraction`, so there is no floating point anywhere and equality
is exact.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from .errors import DivisionByZero

_ZERO = Fraction(0)
_ONE = Fraction(1)


class CycRat:
    """re + om*w with rational re, om."""

    __slots__ = ("re", "om")

    def __init__(self, re=0, om=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.om = om if type(om) is Fraction else Fraction(om)

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycRat(self.re + other.re, self.om + other.om)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycRat(self.re - other.re, self.om - other.om)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycRat(other.re - self.re, other.om - self.om)

    def __neg__(self):
        return CycRat(-self.re, -self.om)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.re, self.om
        c, d = other.re, other.om
        if not b and not d:
            return CycRat(a * c, _ZERO)
        # (a+bw)(c+dw) = ac - bd + (ad + bc - bd) w   since w^2 = -1-w
        bd = b * d
        return CycRat(a * c - bd, a * d + b * c - bd)

    __rmul__ = __mul__

    def inv(self) -> "CycRat":
        """Multiplicative inverse via the conjugate a + b*w^2."""
        a, b = self.re, self.om
        if not a and not b:
            raise DivisionByZero("inverse of 0 in Q(w)")
        if not b:
            return CycRat(1 / a, _ZERO)
        n = a * a - a * b + b * b
        return CycRat((a - b) / n, -b / n)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, k: int) -> "CycRat":
        if k < 0:
            return self.inv() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure -------------------------------------------------------

    def conj(self) -> "CycRat":
        """Image under w -> w^2 (complex conjugation on Q(w))."""
        return CycRat(self.re - self.om, -self.om)

    def norm(self) -> Fraction:
        """Field norm N(a+bw) = a^2 - ab + b^2; multiplicative."""
        a, b = self.re, self.om
        return a * a - a * b + b * b

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.om)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.om == other.om

    def __hash__(self) -> int:
        return hash((self.re, self.om))

    def __repr__(self) -> str:
        return f"CycRat({self.re!r}, {self.om!r})"

    def __str__(self) -> str:
        return render(self)


def _coerce(x):
    if type(x) is CycRat:
        return x
    if isinstance(x, (int, Fraction)):
        return CycRat(x)
    if isinstance(x, CycRat):
        return x
    return NotImplemented


def render(x: CycRat) -> str:
    """Canonical text form "a + b*w" with reduced fractions.

    Pure rationals print bare; pure w-multiples drop the rational part.
    """
    a, b = x.re, x.om
    if not b:
        return _text(a)
    if b == 1:
        wpart = "w"
    elif b == -1:
        wpart = "-w"
    else:
        wpart = f"{_text(b)}*w"
    if not a:
        return wpart
    sign = "-" if b < 0 else "+"
    mag = wpart.lstrip("-")
    return f"{_text(a)} {sign} {mag}"


def _text(x: Fraction) -> str:
    """str(x), also past the int-to-str digit limit, which Decimal lacks."""
    n, d = Decimal(x.numerator), Decimal(x.denominator)
    return f"{n}" if d == 1 else f"{n}/{d}"


ZERO = CycRat(0)
ONE = CycRat(1)
OMEGA = CycRat(0, 1)
OMEGA2 = CycRat(-1, -1)  # w^2 = -1 - w


def omega_power(k: int) -> CycRat:
    k %= 3
    if k == 0:
        return ONE
    return OMEGA if k == 1 else OMEGA2
