"""Truncated Laurent-Puiseux series in q over Q(w).

All exponents live on the grid (1/D)*Z fixed by a SeriesContext; inside a
series they are stored scaled by D so that indexing is pure integer
arithmetic. Truncation is tracked per value: a series "knows" its
coefficients for scaled exponents strictly below `trunc`, and every
operation propagates the tightest correct bound, so silent precision loss
is impossible. The zero-on-window series carries val == trunc.

A series keeps its coefficients in the form that produced them, a Q(w)
list (scalar paths) or a Z[w] triple (d, re, om) = (re + om*w)/d
(kernels), and derives the other once, on first use. Every product goes
through one kernel, `_zw_mul`: each of the `re` and `om` parts is packed
into one Python int (Kronecker substitution q -> 2^k), and three big-int
multiplies give the Z[w] product (Karatsuba with w^2 = -1 - w). Binomial
factors (1 - c*q^e)^(+-1) go through one integer pass on the same lists
(`mul_binomials`; a division on a window of n runs its recurrence e
entries at a time where e^2 >= n, n/e slice steps, and in e strided
runs otherwise), and `ZwSum` adds scaled, shifted series in integers
and divides itself in place by binomials through that pass, so a chain
of these converts to Q(w) only where a scalar path reads it.
`QSeries.inverse` is Newton iteration on the kernel, and reads use the Z[w]
form, canonical in that d is the smallest positive denominator.
The kernels' scalars (factors, term weights) are canonical triples
(s, cr, co) = (cr + co*w)/s, multiplied and inverted in integers; a CycRat
is converted once where it enters (`mul_binomial`, `div_binomial`,
`ZwSum.add`, and the callers that turn parameters into factors).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import add

from .cyclotomic import CycRat, ONE, ZERO, _text
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
        s, r = divmod(e.numerator * self.denom, e.denominator)
        if r:
            raise ExponentNotRepresentable(f"exponent {_text(e)} not on the 1/{self.denom} grid")
        return s

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
    """Dense coefficient window from `val` up, proven below `trunc`:
    `coeffs` in Q(w), or `zw` = (d, re, om) with coeffs == (re + om*w)/d
    and d the lcm of their denominators. A series is built in one form
    (`from_zw` for the second) and derives the other once, on first use;
    neither is mutated."""

    __slots__ = ("ctx", "val", "trunc", "_q", "_z")

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
            self._q = []
        else:
            self.val = val + lead
            self._q = coeffs[lead:tail]
        self.ctx, self.trunc, self._z = ctx, trunc, None

    @classmethod
    def from_zw(cls, ctx: SeriesContext, val: int, d: int, re: list, om: list, trunc: int) -> "QSeries":
        """q^val * (re + om*w)/d known below trunc, cut to the trunc and
        reduced to the `zw` form; re and om are not kept."""
        x = cls.__new__(cls)
        x.ctx, x.trunc, x._q = ctx, min(trunc, ctx.order), None
        lead, tail = 0, max(0, min(len(re), x.trunc - val))
        while lead < tail and not (re[lead] or om[lead]):
            lead += 1
        while tail > lead and not (re[tail - 1] or om[tail - 1]):
            tail -= 1
        x.val = val + lead if lead < tail else x.trunc
        x._z = _reduced(d, re[lead:tail], om[lead:tail])
        return x

    @property
    def coeffs(self) -> list:
        if self._q is None:
            self._q = _from_zw(*self._z)
        return self._q

    @property
    def zw(self) -> tuple:
        if self._z is None:
            self._z = _scaled(self._q)
        return self._z

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.val == self.trunc

    def coefficient(self, scaled_exp: int) -> CycRat:
        if scaled_exp >= self.trunc:
            raise InsufficientTruncation(
                f"coefficient at {scaled_exp} requested, proven below {self.trunc}"
            )
        return _entry(self.zw, scaled_exp - self.val)

    def __eq__(self, other) -> bool:
        # Exact equality of windows; use equal_to_order for identity checks.
        return (
            isinstance(other, QSeries)
            and self.ctx == other.ctx
            and self.val == other.val
            and self.trunc == other.trunc
            and self.zw == other.zw
        )

    def __hash__(self):
        d, re, om = self.zw
        return hash((self.val, self.trunc, d, tuple(re), tuple(om)))

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
        lo = self.val + other.val
        n = min(t, self.ctx.order) - lo
        (da, ar, ao), (db, br, bo) = self.zw, other.zw
        return QSeries.from_zw(self.ctx, lo, da * db, *_zw_mul(ar, ao, br, bo, n), t)

    def mul_monomial(self, c: CycRat, e: int) -> "QSeries":
        if not c:
            return self.ctx.zero(self.trunc + e)
        return QSeries(self.ctx, self.val + e, [c * a for a in self.coeffs], self.trunc + e)

    def inverse(self) -> "QSeries":
        """1/self; valuation negates, relative precision is preserved.
        Newton iteration on Z[w] lists (von zur Gathen and Gerhard, Modern
        Computer Algebra, 9.1), y = Y/dy seeded by 1/(leading coefficient)."""
        if self.is_zero():
            raise NotInvertible("series is zero on its window")
        n = self.trunc - self.val
        da, ar, ao = self.zw
        dy, yr, yo = _scaled([_entry(self.zw, 0).inv()])
        while len(yr) < n:
            # P = A*Y gives a*y = P/(da*dy) = 1 + O(q^h): y keeps its h known
            # coefficients and gains -y*(a*y)[h:m] = -Y*P[h:m]/(da*dy^2).
            h = len(yr)
            m = min(2 * h, n)
            pr, po = _zw_mul(ar, ao, yr, yo, m)
            cr, co = _zw_mul(yr, yo, pr[h:], po[h:], m - h)
            k, pad = da * dy, [0] * (m - h - len(cr))
            yr = [k * r for r in yr] + [-c for c in cr] + pad
            yo = [k * o for o in yo] + [-c for c in co] + pad
            dy, yr, yo = _reduced(dy * k, yr, yo)
        return QSeries.from_zw(self.ctx, -self.val, dy, yr, yo, self.trunc - 2 * self.val)

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


def chain_trunc(order: int, factors) -> int:
    """The trunc of x_0 * x_1 * ..., multiplied left to right by
    QSeries.__mul__, for series x_j given as (val, trunc) pairs (a zero
    series has val == trunc).

    v runs ahead of the product's val once the product is zero, but then
    u + v >= u + t >= t + w, as w <= u, so the trunc is the same.
    """
    (v, t), *rest = factors
    for w, u in rest:
        t = min(t + w, u + v, order)
        v += w
    return t


def binomial_bounds(val: int, trunc: int, e: int, p: int, order: int) -> tuple:
    """The (val, trunc) of a series times (1 - c*q^e)^p, c != 0, e < 0 and
    p = 1 or -1, in the pass of mul_binomials, where no other factor moves
    them: both move by e for p = 1, and by -e for p = -1, the trunc capped
    at the order and the val then at most the trunc (a window that empties
    is the zero series)."""
    if p > 0:
        return val + e, trunc + e
    trunc = min(trunc - e, order)
    return min(val - e, trunc), trunc


def _zw_mul(ar: list, ao: list, br: list, bo: list, n: int):
    """The first min(n, len(a) + len(b) - 1) coefficients of a*b for the
    Z[w] lists a = ar + ao*w and b = br + bo*w, as (re, om) int lists;
    none if a or b is empty."""
    n = min(n, len(ar) + len(br) - 1) if ar and br else 0
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


def _reduced(d: int, re: list, om: list) -> tuple:
    """(d, re, om) over the gcd of its entries: the canonical form, d the
    smallest positive denominator (1 for the zero series)."""
    g = math.gcd(d, *re, *om)
    if g == 1:
        return d, re, om
    return d // g, [a // g for a in re], [b // g for b in om]


def _entry(zw: tuple, i: int) -> CycRat:
    """Entry i of the Z[w] form zw as a Q(w) coefficient, ZERO outside it."""
    d, re, om = zw
    return _from_zw(d, re[i : i + 1], om[i : i + 1])[0] if 0 <= i < len(re) else ZERO


def _zw_scalar(c: CycRat) -> tuple:
    """(s, cr, co) with c == (cr + co*w)/s and s the smallest positive
    denominator; an integer c is read directly."""
    if not c.om and c.re.denominator == 1:
        return 1, c.re.numerator, 0
    s, (cr,), (co,) = _scaled([c])
    return s, cr, co


ZW_ZERO, ZW_ONE = _zw_scalar(ZERO), _zw_scalar(ONE)


def _zw_value(k: tuple) -> CycRat:
    """The Q(w) scalar of the triple k."""
    return _from_zw(k[0], [k[1]], [k[2]])[0]


def _zw_canonical(s: int, r: int, o: int) -> tuple:
    g = math.gcd(s, r, o)
    return (s, r, o) if g == 1 else (s // g, r // g, o // g)


def _zw_times(a: tuple, b: tuple) -> tuple:
    """The canonical triple of a*b, a and b triples (see `_zw_scalar`)."""
    (s, ar, ao), (t, br, bo) = a, b
    oo = ao * bo
    return _zw_canonical(s * t, ar * br - oo, ar * bo + ao * br - oo)


def _zw_inverse(a: tuple) -> tuple:
    """The canonical triple of 1/a for a nonzero triple a = (r + o*w)/s:
    s*(r + o*w^2)/N, w^2 = -1 - w, N = r^2 - r*o + o^2 > 0 the norm."""
    s, r, o = a
    return _zw_canonical(r * r - r * o + o * o, s * (r - o), -s * o)


def _zw_scale(d: int, re: list, om: list, k: tuple):
    """(d, re, om) times the nonzero triple k, as a new (d, re, om)."""
    s, kr, ko = k
    if not ko:
        return d * s, [kr * a for a in re], [kr * b for b in om]
    return (
        d * s,
        [kr * a - ko * b for a, b in zip(re, om)],
        [(kr - ko) * b + ko * a for a, b in zip(re, om)],
    )


class ZwSum:
    """A running sum q^val * (re + om*w)/d known below the order, held as
    one Z[w] window over the scaled exponents val..order-1 (empty, val the
    order, for the zero sum). Terms c*q^e*x, x a QSeries or a ZwSum, are
    added in integers, the window growing down to the least term;
    `div_binomial` divides the whole sum in place by the pass of
    mul_binomials. Terms must start at or above lo; their truncs are not
    tracked (the caller states the trunc of the sum)."""

    __slots__ = ("ctx", "lo", "val", "d", "re", "om")

    def __init__(self, ctx: SeriesContext, lo: int):
        self.ctx, self.lo, self.val, self.d, self.re, self.om = ctx, lo, ctx.order, 1, [], []

    @property
    def zw(self) -> tuple:
        return self.d, self.re, self.om

    def add(self, x, c: CycRat = ONE, e: int = 0) -> None:
        """self += c*q^e*x for a QSeries or a ZwSum x, cut to the order."""
        if c:
            self._add(x.val + e, *x.zw, _zw_scalar(c))

    def add_monomial(self, k: tuple, e: int) -> None:
        """self += k*q^e, k a triple (see `_zw_scalar`)."""
        if k != ZW_ZERO:
            self._add(e, k[0], [k[1]], [k[2]], ZW_ONE)

    def _add(self, v: int, d: int, re: list, om: list, k: tuple) -> None:
        """self += k*q^v*(re + om*w)/d for a nonzero triple k, cut to the
        order."""
        if not re:
            return
        if v < self.lo:
            raise ValueError(f"term at exponent {v} is below the sum's {self.lo}")
        n = self.ctx.order - v
        if n <= 0:
            return
        re, om = re[:n], om[:n]
        if k != ZW_ONE:
            d, re, om = _zw_scale(d, re, om, k)
        if d != self.d:
            big = math.lcm(self.d, d)
            if big != self.d:
                k = big // self.d
                self.re[:] = [a * k for a in self.re]
                self.om[:] = [a * k for a in self.om]
                self.d = big
            if big != d:
                k = big // d
                re, om = [a * k for a in re], [a * k for a in om]
        are, aom = self.re, self.om
        if v < self.val:
            # the window always runs to the order: len(re) == order - val
            are[:0] = aom[:0] = [0] * (self.val - v)
            self.val = v
        off, n = v - self.val, len(re)
        are[off : off + n] = [a + b for a, b in zip(are[off : off + n], re)]
        if any(om):
            aom[off : off + n] = [a + b for a, b in zip(aom[off : off + n], om)]

    def div_binomial(self, c: tuple, e: int) -> None:
        """self /= (1 - c*q^e), in place, c a triple; e == 0 requires
        c != 1."""
        order = self.ctx.order
        self.d, self.re, self.om, self.val, _ = _binomials(
            order, self.d, self.re, self.om, self.val, order, [(c, e, -1)]
        )

    def series(self, trunc: int | None = None) -> QSeries:
        """The sum as a QSeries known below trunc (default: the order)."""
        t = self.ctx.order if trunc is None else trunc
        return QSeries.from_zw(self.ctx, self.val, self.d, self.re, self.om, t)


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
    return mul_binomials(x, [(_zw_scalar(c), e, 1)])


def div_binomial(x: QSeries, c: CycRat, e: int) -> QSeries:
    """x / (1 - c*q^e) by linear recurrence; exact to x's precision.

    For e < 0 the factor is rewritten as -c*q^e*(1 - q^(-e)/c) so the
    recurrence always runs upward. e == 0 requires c != 1.
    """
    return mul_binomials(x, [(_zw_scalar(c), e, -1)])


def mul_binomials(x: QSeries, factors) -> QSeries:
    """x * prod (1 - c*q^e)^p over (c, e, p) in factors, c a triple (see
    `_zw_scalar`) and p = 1 or -1: one integer pass (`_binomials`) on a
    copy of x's Z[w] form, each factor applied in turn with the val/trunc
    rules of a single mul_binomial (p = 1) or div_binomial (p = -1); x
    itself where every c is 0."""
    if all(c == ZW_ZERO for c, _, _ in factors):
        return x
    d, re, om = x.zw
    d, re, om, val, trunc = _binomials(x.ctx.order, d, list(re), list(om), x.val, x.trunc, factors)
    return QSeries.from_zw(x.ctx, val, d, re, om, trunc)


def _binomials(order: int, d: int, re: list, om: list, val: int, trunc: int, factors):
    """The pass of mul_binomials on q^val * (re + om*w)/d known below trunc:
    returns (d, re, om, val, trunc) times the factors, re and om changed in
    place where the step allows. Each factor's c is the canonical triple
    (s, cr, co) = (cr + co*w)/s, so an exact zero factor (e == 0, c == 1)
    is found by integer compares; a factor with c = 0 is 1.

    An empty re is the zero series, whose val is its trunc. A nonzero
    series keeps a nonzero leading entry: no factor with e != 0 cancels it,
    and e == 0 scales by the constant 1 - c. Where c is not in Z[w] (s > 1),
    d takes the factor s (product) or s^((n-1)//e) (quotient over a window
    of n), so every step stays in Z[w]. A quotient keeps
    len(re) == trunc - val when it holds on entry (`ZwSum` relies on it).
    """
    for c, e, p in factors:
        s, cr, co = c
        if not (cr or co):
            continue
        if e == 0:
            if c == ZW_ONE:
                if p < 0:
                    raise NotInvertible("division by exact zero factor (1 - 1)")
                re, om, val = [], [], trunc
            elif re:
                k = (s, s - cr, -co)  # 1 - c, canonical as c is
                d, re, om = _zw_scale(d, re, om, k if p > 0 else _zw_inverse(k))
            continue
        n = trunc - val
        if e < 0:
            val, trunc = binomial_bounds(val, trunc, e, p, order)
            if p < 0:
                # 1/(1 - c*q^e) = -c^-1*q^-e / (1 - c^-1*q^-e), so the
                # recurrence below always runs upward
                (s, cr, co), e = _zw_inverse(c), -e
                if re:
                    d, re, om = _zw_scale(d, re, om, (s, -cr, -co))
                n = trunc - val
                del re[max(0, n) :], om[max(0, n) :]
        if not re:
            continue
        if p > 0:
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
        # out[k] = x[k] + c*out[k-e] over the n/e blocks out[k:k+e], each x
        # there plus c times the block before; for c in Z and e*e < n, as e
        # strided runs instead
        if s == 1 and not co:
            for xs in (re, om) if any(om) else (re,):
                if e * e >= n:
                    for k in range(e, n, e):
                        xs[k : k + e] = (
                            map(add, xs[k : k + e], xs[k - e : k]) if cr == 1
                            else [a + cr * b for a, b in zip(xs[k : k + e], xs[k - e : k])]
                        )
                else:
                    step = None if cr == 1 else (lambda acc, a: a + cr * acc)
                    for r in range(e):
                        xs[r::e] = accumulate(xs[r::e], step)
            continue
        # carried at denominator d*D: out[k-e] has denominator s^((k-e)//e),
        # so D*out[k-e] is divisible by s
        big = s ** ((n - 1) // e)
        d *= big
        re, om = [big * a for a in re], [big * b for b in om]
        for k in range(e, n, e):
            pr, po = re[k - e : k], om[k - e : k]
            re[k : k + e] = [a + (cr * x - co * y) // s for a, x, y in zip(re[k : k + e], pr, po)]
            om[k : k + e] = [b + ((cr - co) * y + co * x) // s for b, x, y in zip(om[k : k + e], pr, po)]
    return d, re, om, val, trunc


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
    # entries (re, om)/d compare by cross-multiplying the denominators
    (dx, xr, xo), (dy, yr, yo) = x.zw, y.zw
    for e in range(min(x.val, y.val), up_to):
        i, j = e - x.val, e - y.val
        a = (xr[i] * dy, xo[i] * dy) if 0 <= i < len(xr) else (0, 0)
        b = (yr[j] * dx, yo[j] * dx) if 0 <= j < len(yr) else (0, 0)
        if a != b:
            return (e, _entry(x.zw, i), _entry(y.zw, j))
    return None
