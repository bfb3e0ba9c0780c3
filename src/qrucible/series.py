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
doubling the number of known coefficients per step. Binomial factors
(1 - c*q^e)^(+-1) go through one integer pass on the same Z[w] lists
(`mul_binomials`), so a product of many factors converts from and to
Q(w) once, and `ZwSum` adds many scaled, shifted series the same way.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

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


def chain_trunc(order: int, vals) -> int:
    """The trunc of x_0 * x_1 * ..., multiplied left to right by
    QSeries.__mul__, for series x_j with val vals[j] (a zero series has
    val == trunc), each known below the order.

    v runs ahead of the product's val once the product is zero, but then
    order + v >= order + t >= t + w, so the trunc is the same.
    """
    t, v = order, vals[0]
    for w in vals[1:]:
        t = min(t + w, order + v, order)
        v += w
    return t


def _polymul(a: list, b: list, n: int) -> list:
    """The first n coefficients of a*b for Q(w) coefficient lists a, b.

    The result has min(n, len(a) + len(b) - 1) entries, so a short
    operand never builds a long zero tail.
    """
    if not a or not b or n <= 0:
        return []
    da, ar, ao = _scaled(a[:n])
    db, br, bo = _scaled(b[:n])
    return _from_zw(da * db, *_zw_mul(ar, ao, br, bo, n))


def _zw_mul(ar: list, ao: list, br: list, bo: list, n: int):
    """The first min(n, len(a) + len(b) - 1) coefficients of a*b for the
    Z[w] lists a = ar + ao*w and b = br + bo*w, as (re, om) int lists."""
    n = min(n, len(ar) + len(br) - 1)
    if n <= 0:
        return [], []
    ar, ao, br, bo = ar[:n], ao[:n], br[:n], bo[:n]
    ma = max(max(ar), -min(ar), max(ao), -min(ao))
    mb = max(max(br), -min(br), max(bo), -min(bo))
    if not ma or not mb:
        return [0] * n, [0] * n
    # With A + B*w and C + D*w the operands, the product is
    # re = AC - BD and om = AD + BC - BD: each output coefficient is at most
    # 3*m*ma*mb in absolute value, m = min(len(a), len(b), n) the number of
    # terms in one convolution sum. A signed slot of 8*kb bits holds
    # [-2^(8kb-1), 2^(8kb-1)), and 8*kb >= bound.bit_length() + 1 makes
    # 2^(8kb-1) > bound, so no slot of the result, and no slot of an operand
    # (each at most ma or mb, both nonzero here), can spill into the next.
    bound = 3 * min(len(ar), len(br)) * ma * mb
    kb = bound.bit_length() // 8 + 1
    bias = 1 << (8 * kb - 1)
    pa, pc = _pack(ar, kb, bias), _pack(br, kb, bias)
    ac = pa * pc
    if not any(ao) and not any(bo):
        return _unpack(ac, n, kb, bias), [0] * n
    pb, pd = _pack(ao, kb, bias), _pack(bo, kb, bias)
    bd = pb * pd
    re = _unpack(ac - bd, n, kb, bias)
    om = _unpack((pa + pb) * (pc + pd) - ac - 2 * bd, n, kb, bias)
    return re, om


def _scaled(xs: list):
    """(d, re, om): d the lcm of the denominators of xs, re and om the
    integer lists d*x.re and d*x.om."""
    res = [c.re.as_integer_ratio() for c in xs]
    oms = [c.om.as_integer_ratio() for c in xs]
    d = math.lcm(*[q for _, q in res], *[q for _, q in oms])
    if d == 1:
        return 1, [p for p, _ in res], [p for p, _ in oms]
    return d, [p * (d // q) for p, q in res], [p * (d // q) for p, q in oms]


def _from_zw(d: int, re: list, om: list) -> list:
    """The Q(w) list (re + om*w)/d; zero entries are the shared ZERO."""
    if d == 1:
        return [
            (CycRat(Fraction(r), Fraction(o) if o else ZERO.om) if r or o else ZERO)
            for r, o in zip(re, om)
        ]
    return [
        (CycRat(Fraction(r, d), Fraction(o, d)) if r or o else ZERO)
        for r, o in zip(re, om)
    ]


def _zw_scale(d: int, re: list, om: list, k: CycRat):
    """(d, re, om) times the nonzero scalar k, as a new (d, re, om)."""
    s, (kr,), (ko,) = _scaled([k])
    if not ko:
        return d * s, [kr * a for a in re], [kr * b for b in om]
    return (
        d * s,
        [kr * a - ko * b for a, b in zip(re, om)],
        [(kr - ko) * b + ko * a for a, b in zip(re, om)],
    )


class ZwSum:
    """A running sum of terms c*q^e*x, x a QSeries, held as one Z[w] list
    (re + om*w)/d over the scaled exponents lo..order-1: each term is
    scaled to Z[w] once and added in integers, and the sum converts back
    to Q(w) once. Terms must start at or above lo; their truncs are not
    tracked (the caller states the trunc of the sum)."""

    __slots__ = ("ctx", "lo", "d", "re", "om")

    def __init__(self, ctx: SeriesContext, lo: int):
        n = max(0, ctx.order - lo)
        self.ctx, self.lo, self.d, self.re, self.om = ctx, lo, 1, [0] * n, [0] * n

    def add(self, x: QSeries, c: CycRat = ONE, e: int = 0) -> None:
        """self += c*q^e*x, cut to the order."""
        off = x.val + e - self.lo
        if off < 0 and x.coeffs:
            raise ValueError(f"term at exponent {x.val + e} is below the sum's {self.lo}")
        n = len(self.re) - off
        if not c or not x.coeffs or n <= 0:
            return
        d, re, om = _scaled(x.coeffs[:n])
        if c != ONE:
            d, re, om = _zw_scale(d, re, om, c)
        are, aom = self.re, self.om
        if d != self.d:
            big = math.lcm(self.d, d)
            if big != self.d:
                k = big // self.d
                are[:] = [a * k for a in are]
                aom[:] = [a * k for a in aom]
                self.d = big
            if big != d:
                k = big // d
                re, om = [a * k for a in re], [a * k for a in om]
        n = len(re)
        are[off : off + n] = [a + b for a, b in zip(are[off : off + n], re)]
        if any(om):
            aom[off : off + n] = [a + b for a, b in zip(aom[off : off + n], om)]

    def series(self, trunc: int | None = None) -> QSeries:
        """The sum as a QSeries known below trunc (default: the order)."""
        t = self.ctx.order if trunc is None else trunc
        return QSeries(self.ctx, self.lo, _from_zw(self.d, self.re, self.om), t)


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
    return mul_binomials(x, [(c, e, 1)])


def div_binomial(x: QSeries, c: CycRat, e: int) -> QSeries:
    """x / (1 - c*q^e) by linear recurrence; exact to x's precision.

    For e < 0 the factor is rewritten as -c*q^e*(1 - q^(-e)/c) so the
    recurrence always runs upward. e == 0 requires c != 1.
    """
    return mul_binomials(x, [(c, e, -1)])


def mul_binomials(x: QSeries, factors) -> QSeries:
    """x * prod (1 - c*q^e)^p over (c, e, p) in factors, p = 1 or -1.

    One integer pass: x is scaled to Z[w] once, each factor is applied in
    turn with the val/trunc rules of a single mul_binomial (p = 1) or
    div_binomial (p = -1), and the result is converted back once.

    The pass carries q^val * (re + om*w)/d; an empty re is the zero
    series, whose val is its trunc. A nonzero series keeps a nonzero
    leading entry: no factor with e != 0 cancels it, and e == 0 scales by
    the constant 1 - c. Where c = (cr + co*w)/s is not in Z[w], d takes
    the factor s (product) or s^((n-1)//e) (quotient over a window of n),
    so every step stays in Z[w].
    """
    factors = [f for f in factors if f[0]]
    if not factors:
        return x
    order = x.ctx.order
    d, re, om = _scaled(x.coeffs)
    val, trunc = x.val, x.trunc
    for c, e, p in factors:
        if e == 0:
            if c == ONE:
                if p < 0:
                    raise NotInvertible("division by exact zero factor (1 - 1)")
                re, om, val = [], [], trunc
            elif re:
                d, re, om = _zw_scale(d, re, om, ONE - c if p > 0 else (ONE - c).inv())
            continue
        if p < 0 and e < 0:
            # 1/(1 - c*q^e) = -c^-1*q^-e / (1 - c^-1*q^-e), so the
            # recurrence below always runs upward
            c, e = c.inv(), -e
            if re:
                d, re, om = _zw_scale(d, re, om, -c)
            val, trunc = val + e, min(trunc + e, order)
            del re[max(0, trunc - val) :], om[max(0, trunc - val) :]
            if not re:
                val = trunc
        if not re:
            if p > 0:
                trunc = val = trunc + min(e, 0)
            continue
        n = trunc - val
        s, (cr,), (co,) = _scaled([c])
        if p > 0:
            val, trunc = val + min(e, 0), trunc + min(e, 0)
            f = abs(e)
            if e >= n:
                continue  # the q^e part lies past the window
            m = min(n, len(re) + f)
            xr, xo = re + [0] * (m - len(re)), om + [0] * (m - len(om))
            yr, yo = ([0] * min(f, m) + re)[:m], ([0] * min(f, m) + om)[:m]
            # the window gets u*s - w*cz, cz = cr + co*w, for (u, w) the
            # series and its shift by f in the order the sign of e gives
            ur, uo, wr, wo = (xr, xo, yr, yo) if e > 0 else (yr, yo, xr, xo)
            if s == 1 and not co:
                re = [a - cr * b for a, b in zip(ur, wr)]
                om = [a - cr * b for a, b in zip(uo, wo)] if any(om) else [0] * m
            else:
                d *= s
                re = [s * a - cr * b + co * b2 for a, b, b2 in zip(ur, wr, wo)]
                om = [s * a - (cr - co) * b - co * b2 for a, b, b2 in zip(uo, wo, wr)]
            continue
        if e >= n:
            continue  # the recurrence never reaches back into the window
        re += [0] * (n - len(re))
        om += [0] * (n - len(om))
        if s == 1 and not co:
            step = None if cr == 1 else (lambda acc, a: a + cr * acc)
            for r in range(e):
                re[r::e] = accumulate(re[r::e], step)
            if any(om):
                for r in range(e):
                    om[r::e] = accumulate(om[r::e], step)
            continue
        # out[k] = x[k] + c*out[k-e] carried at denominator d*D: out[k-e]
        # has denominator s^((k-e)//e), so D*out[k-e] is divisible by s.
        big = s ** ((n - 1) // e)
        d *= big
        re, om = [big * a for a in re], [big * b for b in om]
        for k in range(e, n):
            pr, po = re[k - e], om[k - e]
            if pr or po:
                re[k] += (cr * pr - co * po) // s
                om[k] += ((cr - co) * po + co * pr) // s
    if d != 1:
        g = math.gcd(d, *re, *om)
        if g != 1:
            d, re, om = d // g, [a // g for a in re], [b // g for b in om]
    return QSeries(x.ctx, val, _from_zw(d, re, om), trunc)


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
