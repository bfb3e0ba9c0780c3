"""Truncated Laurent-Puiseux series in q over Q(w).

All exponents live on the grid (1/D)*Z fixed by a SeriesContext; inside a
series they are stored scaled by D so that indexing is pure integer
arithmetic. Truncation is tracked per value: a series "knows" its
coefficients for scaled exponents strictly below `trunc`, and every
operation propagates the tightest correct bound, so silent precision loss
is impossible. The zero-on-window series carries val == trunc.

Every product goes through one kernel, `_polymul`: both operands are
scaled to Z[w] by the lcm of their denominators, each of the `re` and `om`
parts is packed into one Python int (Kronecker substitution q -> 2^k),
and three big-int multiplies give the Z[w] product (Karatsuba with
w^2 = -1 - w). `QSeries.inverse` is Newton iteration on that kernel,
doubling the number of known coefficients per step.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import CycRat, ONE, ZERO
from .errors import (
    ContextMismatch,
    ExponentNotRepresentable,
    InsufficientTruncation,
    NotInvertible,
)


class SeriesContext:
    """Exponent grid denominator D and default working order (scaled)."""

    __slots__ = ("denom", "order")

    def __init__(self, denom: int, order: int):
        if denom < 1:
            raise ValueError("denom must be >= 1")
        if order <= 0:
            raise ValueError("order must be positive")
        self.denom = denom
        self.order = order

    def scale(self, exp) -> int:
        """Exact scaled exponent of a rational exponent, or error."""
        e = exp if isinstance(exp, Fraction) else Fraction(exp)
        s = e * self.denom
        if s.denominator != 1:
            raise ExponentNotRepresentable(
                f"exponent {e} not on the 1/{self.denom} grid"
            )
        return int(s)

    def unscale(self, s: int) -> Fraction:
        return Fraction(s, self.denom)

    def zero(self, trunc: int | None = None) -> "QSeries":
        t = self.order if trunc is None else min(trunc, self.order)
        return QSeries(self, t, [], t)

    def one(self) -> "QSeries":
        return QSeries(self, 0, [ONE], self.order)

    def monomial(self, coeff: CycRat, scaled_exp: int, trunc: int | None = None) -> "QSeries":
        t = self.order if trunc is None else min(trunc, self.order)
        if not coeff or scaled_exp >= t:
            return self.zero(t)
        return QSeries(self, scaled_exp, [coeff], t)

    def from_pairs(self, pairs, trunc: int | None = None) -> "QSeries":
        """Series from (scaled exponent, coefficient) pairs."""
        t = self.order if trunc is None else min(trunc, self.order)
        pairs = [(e, c) for e, c in pairs if c and e < t]
        if not pairs:
            return self.zero(t)
        lo = min(e for e, _ in pairs)
        hi = max(e for e, _ in pairs)
        coeffs = [ZERO] * (hi - lo + 1)
        for e, c in pairs:
            coeffs[e - lo] = coeffs[e - lo] + c
        return QSeries(self, lo, coeffs, t)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SeriesContext)
            and self.denom == other.denom
            and self.order == other.order
        )

    def __hash__(self) -> int:
        return hash((self.denom, self.order))

    def __repr__(self) -> str:
        return f"SeriesContext(denom={self.denom}, order={self.order})"


class Monomial:
    """c * q^e with exact coefficient and rational exponent.

    The zero parameter is Monomial(0); its exponent is normalized to 0.
    """

    __slots__ = ("coeff", "exp")

    def __init__(self, coeff, exp=0):
        c = coeff if isinstance(coeff, CycRat) else CycRat(coeff)
        e = exp if isinstance(exp, Fraction) else Fraction(exp)
        if not c:
            e = Fraction(0)
        self.coeff = c
        self.exp = e

    def is_zero(self) -> bool:
        return not self.coeff

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.coeff * other.coeff, self.exp + other.exp)

    def __neg__(self) -> "Monomial":
        return Monomial(-self.coeff, self.exp)

    def inv(self) -> "Monomial":
        return Monomial(self.coeff.inv(), -self.exp)

    def __pow__(self, k: int) -> "Monomial":
        return Monomial(self.coeff ** k, self.exp * k)

    def sqrt(self) -> "Monomial":
        """Square root, defined only for coefficient +1."""
        if self.coeff != ONE:
            raise ValueError("monomial sqrt requires coefficient 1")
        return Monomial(ONE, self.exp / 2)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Monomial)
            and self.coeff == other.coeff
            and self.exp == other.exp
        )

    def __hash__(self) -> int:
        return hash((self.coeff, self.exp))

    def __repr__(self) -> str:
        return f"Monomial({self.coeff!r}, {self.exp!r})"


def mono(coeff, exp=0) -> Monomial:
    return Monomial(coeff, Fraction(exp))


def qpow(exp) -> Monomial:
    return Monomial(1, Fraction(exp))


def monomial_to_series(m: Monomial, ctx: SeriesContext) -> "QSeries":
    if m.is_zero():
        return ctx.zero()
    return ctx.monomial(m.coeff, ctx.scale(m.exp))


class QSeries:
    """Dense coefficient window from `val` up, proven below `trunc`."""

    __slots__ = ("ctx", "val", "coeffs", "trunc")

    def __init__(self, ctx: SeriesContext, val: int, coeffs: list, trunc: int):
        trunc = min(trunc, ctx.order)
        if len(coeffs) > trunc - val:
            coeffs = coeffs[: max(0, trunc - val)]
        lead = 0
        n = len(coeffs)
        while lead < n and not coeffs[lead]:
            lead += 1
        tail = n
        while tail > lead and not coeffs[tail - 1]:
            tail -= 1
        if lead == tail:
            self.val = trunc
            self.coeffs = []
        else:
            self.val = val + lead
            self.coeffs = coeffs[lead:tail]
        self.ctx = ctx
        self.trunc = trunc

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, scaled_exp: int) -> CycRat:
        if scaled_exp >= self.trunc:
            raise InsufficientTruncation(
                f"coefficient at {scaled_exp} requested, proven below {self.trunc}"
            )
        i = scaled_exp - self.val
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return ZERO

    def __eq__(self, other) -> bool:
        # Exact equality of windows; use equal_to_order for identity checks.
        return (
            isinstance(other, QSeries)
            and self.ctx == other.ctx
            and self.val == other.val
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.val, self.trunc, tuple(self.coeffs)))

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "QSeries") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch(f"{self.ctx} vs {other.ctx}")

    def __add__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        t = min(self.trunc, other.trunc)
        if self.is_zero():
            return QSeries(other.ctx, other.val, list(other.coeffs), t)
        if other.is_zero():
            return QSeries(self.ctx, self.val, list(self.coeffs), t)
        lo = min(self.val, other.val)
        hi = min(t, max(self.val + len(self.coeffs), other.val + len(other.coeffs)))
        out = [ZERO] * max(0, hi - lo)
        for i, c in enumerate(self.coeffs):
            j = self.val + i - lo
            if j < len(out):
                out[j] = c
        for i, c in enumerate(other.coeffs):
            j = other.val + i - lo
            if j < len(out):
                out[j] = out[j] + c
        return QSeries(self.ctx, lo, out, t)

    def __neg__(self) -> "QSeries":
        return QSeries(self.ctx, self.val, [-c for c in self.coeffs], self.trunc)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __mul__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        t = min(self.trunc + other.val, other.trunc + self.val)
        if self.is_zero() or other.is_zero():
            return self.ctx.zero(t)
        lo = self.val + other.val
        n = min(t, self.ctx.order) - lo
        if n <= 0:
            return self.ctx.zero(t)
        return QSeries(self.ctx, lo, _polymul(self.coeffs, other.coeffs, n), t)

    def scale(self, c: CycRat) -> "QSeries":
        if not c:
            return self.ctx.zero(self.trunc)
        return QSeries(self.ctx, self.val, [c * a for a in self.coeffs], self.trunc)

    def shift(self, e: int) -> "QSeries":
        """Multiply by q^e (scaled units)."""
        return QSeries(self.ctx, self.val + e, list(self.coeffs), self.trunc + e)

    def mul_monomial(self, c: CycRat, e: int) -> "QSeries":
        if not c:
            return self.ctx.zero(self.trunc + e)
        return QSeries(self.ctx, self.val + e, [c * a for a in self.coeffs], self.trunc + e)

    def inverse(self) -> "QSeries":
        """1/self; valuation negates, relative precision is preserved."""
        if self.is_zero():
            raise NotInvertible("series is zero on its window")
        a = self.coeffs
        n = self.trunc - self.val
        out = [a[0].inv()]
        while len(out) < n:
            # Newton step y <- y*(2 - a*y): a*y = 1 + O(q^h), so y keeps its
            # h known coefficients and gains -y*(a*y)[h:m] above them.
            h = len(out)
            m = min(2 * h, n)
            corr = _polymul(out, _polymul(a, out, m)[h:], m - h)
            out += [-c if c else ZERO for c in corr]
            out += [ZERO] * (m - len(out))
        return QSeries(self.ctx, -self.val, out, self.trunc - 2 * self.val)

    def truncate(self, new_trunc: int) -> "QSeries":
        if new_trunc > self.trunc:
            raise InsufficientTruncation(
                f"cannot extend truncation {self.trunc} to {new_trunc}"
            )
        return QSeries(self.ctx, self.val, list(self.coeffs), new_trunc)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            e = self.ctx.unscale(self.val + i)
            cs = str(c)
            sign = "+"
            if " " in cs:
                cs = f"({cs})"
            elif cs.startswith("-"):
                sign, cs = "-", cs[1:]
            if e == 0:
                term = cs
            else:
                qs = "q" if e == 1 else f"q^({e})"
                term = qs if cs == "1" else f"{cs}*{qs}"
            parts.append((sign, term))
        out = ""
        for k, (sign, term) in enumerate(parts):
            if k == 0:
                out = term if sign == "+" else f"-{term}"
            else:
                out += f" {sign} {term}"
        tail = f"O(q^({self.ctx.unscale(self.trunc)}))"
        return f"{out} + {tail}" if out else tail

    def __repr__(self) -> str:
        return f"<QSeries {self}>"


def _polymul(a: list, b: list, n: int) -> list:
    """The first n coefficients of a*b for Q(w) coefficient lists a, b.

    The result has min(n, len(a) + len(b) - 1) entries, so a short
    operand never builds a long zero tail.
    """
    n = min(n, len(a) + len(b) - 1)
    if not a or not b or n <= 0:
        return []
    da, ar, ao, ma = _scaled(a[:n])
    db, br, bo, mb = _scaled(b[:n])
    if not ma or not mb:
        return [ZERO] * n
    # With A + B*w and C + D*w the scaled operands, the product is
    # re = AC - BD and om = AD + BC - BD: each output coefficient is at most
    # 3*m*ma*mb in absolute value, m = min(len(a), len(b), n) the number of
    # terms in one convolution sum. A signed slot of 8*kb bits holds
    # [-2^(8kb-1), 2^(8kb-1)), and 8*kb >= bound.bit_length() + 1 makes
    # 2^(8kb-1) > bound, so no slot of the result, and no slot of an operand
    # (each at most ma or mb, both nonzero here), can spill into the next.
    bound = 3 * min(len(a), len(b), n) * ma * mb
    kb = bound.bit_length() // 8 + 1
    bias = 1 << (8 * kb - 1)
    pa, pb = _pack(ar, kb, bias), _pack(ao, kb, bias)
    pc, pd = _pack(br, kb, bias), _pack(bo, kb, bias)
    ac = pa * pc
    bd = pb * pd
    re = _unpack(ac - bd, n, kb, bias)
    om = _unpack((pa + pb) * (pc + pd) - ac - 2 * bd, n, kb, bias)
    d = da * db
    return [
        (CycRat(Fraction(r, d), Fraction(o, d)) if r or o else ZERO)
        for r, o in zip(re, om)
    ]


def _scaled(xs: list):
    """(d, re, om, m): d the lcm of the denominators of xs, re and om the
    integer lists d*x.re and d*x.om, m the largest absolute entry."""
    d = math.lcm(*[c.re.denominator for c in xs], *[c.om.denominator for c in xs])
    re = [c.re.numerator * (d // c.re.denominator) for c in xs]
    om = [c.om.numerator * (d // c.om.denominator) for c in xs]
    m = max(max(re), -min(re), max(om), -min(om))
    return d, re, om, m


def _ones(n: int, kb: int, bias: int) -> int:
    """bias in each of n slots of kb bytes."""
    return int.from_bytes(bias.to_bytes(kb, "little") * n, "little")


def _pack(xs: list, kb: int, bias: int) -> int:
    """sum xs[i] * 2^(8*kb*i) for |xs[i]| < bias, by offsetting each entry
    into [0, 2*bias) and removing the offsets afterwards."""
    raw = b"".join([(x + bias).to_bytes(kb, "little") for x in xs])
    return int.from_bytes(raw, "little") - _ones(len(xs), kb, bias)


def _unpack(p: int, n: int, kb: int, bias: int) -> list:
    """The n low signed slots of p, each known to lie in [-bias, bias)."""
    width = kb * n
    raw = ((p + _ones(n, kb, bias)) & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
    return [int.from_bytes(raw[i : i + kb], "little") - bias for i in range(0, width, kb)]


def mul_binomial(x: QSeries, c: CycRat, e: int) -> QSeries:
    """x * (1 - c*q^e); e in scaled units, may be negative or zero."""
    if not c:
        return x
    t = min(x.trunc, x.trunc + e)
    if x.is_zero():
        return x.ctx.zero(t)
    lo = min(x.val, x.val + e)
    n = min(t, x.ctx.order) - lo
    if n <= 0:
        return x.ctx.zero(t)
    out = [ZERO] * n
    base = x.val - lo
    for i, a in enumerate(x.coeffs):
        j = base + i
        if j < n:
            out[j] = out[j] + a
    base = x.val + e - lo
    for i, a in enumerate(x.coeffs):
        j = base + i
        if j < n and a:
            out[j] = out[j] - c * a
    return QSeries(x.ctx, lo, out, t)


def div_binomial(x: QSeries, c: CycRat, e: int) -> QSeries:
    """x / (1 - c*q^e) by linear recurrence; exact to x's precision.

    For e < 0 the factor is rewritten as -c*q^e*(1 - q^(-e)/c) so the
    recurrence always runs upward. e == 0 requires c != 1.
    """
    if not c:
        return x
    if e == 0:
        if c == ONE:
            raise NotInvertible("division by exact zero factor (1 - 1)")
        return x.scale((ONE - c).inv())
    if e < 0:
        ci = c.inv()
        y = x.mul_monomial(-ci, -e)
        return div_binomial(y, ci, -e)
    if x.is_zero():
        return x
    n = x.trunc - x.val
    out = list(x.coeffs) + [ZERO] * (n - len(x.coeffs))
    for k in range(e, n):
        prev = out[k - e]
        if prev:
            out[k] = out[k] + c * prev
    return QSeries(x.ctx, x.val, out, x.trunc)


def equal_to_order(x: QSeries, y: QSeries, up_to: int) -> bool:
    """True iff all coefficients with scaled exponent < up_to agree."""
    return first_mismatch(x, y, up_to) is None


def first_mismatch(x, y, up_to):
    """Smallest scaled exponent < up_to where x and y differ, or None.

    Returns (scaled exponent, x coefficient, y coefficient).
    """
    if x.ctx != y.ctx:
        raise ContextMismatch(f"{x.ctx} vs {y.ctx}")
    if x.trunc < up_to or y.trunc < up_to:
        raise InsufficientTruncation(
            f"comparison to {up_to} but proven to {min(x.trunc, y.trunc)}"
        )
    lo = min(x.val, y.val)
    if lo >= up_to:
        return None
    for e in range(lo, up_to):
        cx = x.coeffs[e - x.val] if 0 <= e - x.val < len(x.coeffs) else ZERO
        cy = y.coeffs[e - y.val] if 0 <= e - y.val < len(y.coeffs) else ZERO
        if cx != cy:
            return (e, cx, cy)
    return None
