"""Bivariate z-Laurent series over Q(w) and constant-term extraction.

Contour integrals "separating 0 from all poles" are modeled purely
formally: each Pochhammer family (c q^e z^d; b)_K^(+-1) of the integrand
expands whole in powers of z^d (Euler's identities and the Cauchy
q-binomial theorem, `qkernel.poch_rows`), the families multiply in by
`zmul`, and the integral is the z-degree-0 coefficient of the resulting
Laurent expansion.

The z window is bounded by the whole negative-degree supply: a term at
degree n or -n reaches degree 0 only if the 1/z factors of all families
together, inverted ones included, supply degree -n, and a lower bound on
the q-cost of that passes the truncation beyond a computable W, or the
supply runs out first; the window adds PAD degrees to that bound, and
stops at the total z-degree of the positive families where each is finite.
Factors with negative q-exponents (q^(-1) parameters, and the later
factors of a finite family whose base shrinks, such as (q z; q^(-1))_4)
demote coefficients downward, so the pipeline runs at an elevated
working order (the margin, which counts every such factor) and narrows
back at the end. Both bounds are deliberately conservative;
window-enlargement stability is a tested invariant, not an assumption.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import or_
from typing import Optional, Sequence

from .cyclotomic import CycRat, ONE
from .errors import NonPositiveBaseExponent, WindowOverflow
from .qkernel import poch, poch_rows
from .series import Monomial, QSeries, SeriesContext, qpow, series_sum
from .series import ZW_ONE, ZW_ZERO, _zw_mul, _zw_scale

MAX_WINDOW = 512
PAD = 4


@dataclass(frozen=True)
class ZPochFamily:
    """(coeff q^qexp z^zdeg; base)_count, optionally in the denominator."""

    coeff: CycRat
    qexp: Fraction
    zdeg: int
    base: Monomial
    inverted: bool = False
    count: Optional[int] = None  # None = infinite product

    def __post_init__(self):
        if self.count is None and self.base.exp <= 0:
            raise NonPositiveBaseExponent(f"infinite product base exponent {self.base.exp} <= 0")


class ZSeries:
    """Laurent polynomial in z as Z[w] rows: `rows` maps z-degree m to
    (trunc, re, om), the q-series q^lo (re + om*w)/d known below trunc; one
    d and one lo serve all rows, d reduced by the gcd of their entries."""

    __slots__ = ("ctx", "rows", "d", "lo")

    def __init__(self, ctx: SeriesContext, rows: dict, d: int = 1, lo: int = 0):
        kept = {}
        for m, (t, r, o) in rows.items():
            r, o = r[: max(0, t - lo)], o[: max(0, t - lo)]
            if t < ctx.order or any(r) or any(o):  # a zero row short of the order stays
                kept[m] = (t, r, o)
        g = math.gcd(d, *(v for _, r, o in kept.values() for v in r + o)) if d > 1 else 1
        self.ctx, self.d, self.lo = ctx, d // g, lo
        self.rows = kept if g == 1 else {
            m: (t, [v // g for v in r], [v // g for v in o]) for m, (t, r, o) in kept.items()}

    @property
    def terms(self) -> dict:
        return {m: self.coefficient(m) for m in self.rows}

    def coefficient(self, deg: int) -> QSeries:
        t, r, o = self.rows.get(deg, (self.ctx.order, [], []))
        return QSeries.from_zw(self.ctx, self.lo, self.d, r, o, t)

    def shift(self, deg: int) -> "ZSeries":
        return ZSeries(self.ctx, {m + deg: row for m, row in self.rows.items()}, self.d, self.lo)

    def scale(self, s: QSeries, k: tuple = ZW_ONE, e: int = 0, deg: int = 0) -> "ZSeries":
        """Every row times s c q^e z^deg, c the Z[w] triple k, with the
        truncs of QSeries.__mul__ and the trunc of s moved by e."""
        y = ZSeries(self.ctx, {}, 1, s.val + e)
        # s is kept even where it is zero: it still cuts the rows of negative val
        y.d, re, om = _zw_scale(*s.zw, k)
        y.rows = {deg: (s.trunc + e, re, om)}
        return zmul(self, y)

    def __add__(self, other: "ZSeries") -> "ZSeries":
        return zsum(self.ctx, [self, other])


def zs_one(ctx: SeriesContext) -> ZSeries:
    return ZSeries(ctx, {0: (ctx.order, [1], [0])})


def zsum(ctx: SeriesContext, parts) -> ZSeries:
    """The sum of row sets over their lcm denominator and least lo; each row
    is known below the least trunc of its terms."""
    parts = [p for p in parts if p.rows]
    d, lo = math.lcm(*(p.d for p in parts)), min((p.lo for p in parts), default=0)
    out: dict = {}
    for p in parts:
        k, pre = d // p.d, [0] * (p.lo - lo)
        for m, (t, r, o) in p.rows.items():
            s, a, b = out.get(m, (t, [], []))
            r, o = pre + [k * v for v in r], pre + [k * v for v in o]
            out[m] = (min(s, t), _plus(a, r), _plus(b, o))
    return ZSeries(ctx, out, d, lo)


def _plus(a: list, b: list) -> list:
    return [u + v for u, v in itertools.zip_longest(a, b, fillvalue=0)]


def _val(lo: int, t: int, r: list, o: list) -> int:
    """The exponent of a row's first nonzero entry, its trunc if none."""
    i = next(itertools.compress(itertools.count(), map(or_, r, o)), None)
    return t if i is None else lo + i


def zmul(x: ZSeries, y: ZSeries, top: int | None = None) -> ZSeries:
    """x*y without the rows of degree beyond +-top, by one _zw_mul on the
    rows packed through z = q^L. Row m is known below the least QSeries
    trunc min(t_a + v_b, t_b + v_a) of the row pairs meeting at m."""
    order, lo = x.ctx.order, x.lo + y.lo
    yv = [(k, t, _val(y.lo, t, r, o)) for k, (t, r, o) in y.rows.items()]
    truncs: dict = {}
    for j, (ta, r, o) in x.rows.items():
        va = _val(x.lo, ta, r, o)
        for k, tb, vb in yv:
            if top is None or abs(j + k) <= top:
                truncs[j + k] = min(truncs.get(j + k, order), ta + vb, tb + va)
    if not truncs:
        return ZSeries(x.ctx, {})
    # the product is kept below q^order, so each operand below q^(order - lo)
    n = max(0, order - lo)
    span = sum(min(n, max(len(r) for _, r, _ in s.rows.values())) for s in (x, y))
    at0 = min(x.rows) + min(y.rows)
    size = (max(truncs) - at0 + 1) * span
    pr, po = _zw_mul(*_flat(x.rows, span, n), *_flat(y.rows, span, n), size)
    out = {}
    for m, t in truncs.items():
        at = (m - at0) * span
        out[m] = (t, pr[at : at + span], po[at : at + span])
    return ZSeries(x.ctx, out, x.d * y.d, lo)


def _flat(rows: dict, span: int, n: int):
    """The rows from the lowest degree up, cut to n, at stride span."""
    zero = [0] * span
    re, om = [], []
    for j in range(min(rows), max(rows) + 1):
        _, r, o = rows.get(j, (0, [], []))
        re += (r[:n] + zero)[:span]
        om += (o[:n] + zero)[:span]
    return re, om


def zsubst(x: ZSeries, z: Monomial) -> QSeries:
    """Substitute a monomial (or root of unity) for z: the rows s_m times
    z^m = c_m q^(e_m) summed by `series_sum`, known below `subst_trunc`."""
    ctx = x.ctx
    return series_sum(ctx, [((z**m).coeff, ctx.scale((z**m).exp), x.coefficient(m)) for m in x.rows])


def subst_trunc(rows, z: Monomial, ctx: SeriesContext) -> int:
    """The trunc of `zsubst` for rows (m, t_m), row m known below t_m: the
    least t_m + e_m, z^m = c_m q^(e_m), capped at the order."""
    return min([ctx.order] + [t + ctx.scale(m * z.exp) for m, t in rows])


def zproduct(families: Sequence[ZPochFamily], ctx: SeriesContext, window: int) -> ZSeries:
    """Product of the families on [-window, window], starting from 1: every
    factor of a finite family, the factors (1 - c q^e z^d) below the order
    of an infinite one. Each family is multiplied in whole, by one zmul."""
    if window > MAX_WINDOW:
        raise WindowOverflow(f"window {window} exceeds the configured maximum")
    z = zs_one(ctx)
    for fam in families:
        if fam.zdeg == 0:
            raise WindowOverflow("z-degree-0 factor is not an integrand factor")
        x, k, eb = Monomial(fam.coeff, fam.qexp), fam.count, ctx.scale(fam.base.exp)
        # an infinite family stops below the order; a finite one whose base
        # exponent is not positive splits into its factors
        if k is None:
            parts = [(x, max(0, -((ctx.scale(fam.qexp) - ctx.order) // eb)))]
        else:
            parts = [(x, k)] if eb > 0 else [(x * fam.base**j, 1) for j in range(k)]
        for x, count in parts:
            if z.rows:
                z = _times_family(z, x, count, fam, ctx, window)
    return z


def _times_family(z: ZSeries, x: Monomial, count: int, fam: ZPochFamily,
                  ctx: SeriesContext, window: int) -> ZSeries:
    """z times (x z^d; base)_count^(+-1) on [-window, window]. Family row
    n, c_n q^(e_n) g_n, is known to relative precision order, so its trunc
    is e_n + order; the rows at or past q^(order - z.lo) are left out."""
    order, d, inv = ctx.order, fam.zdeg, fam.inverted
    e, eb = ctx.scale(x.exp), ctx.scale(fam.base.exp)
    top = (window - min(z.rows)) // d if d > 0 else (max(z.rows) + window) // -d
    top = top if inv else min(top, count)
    # row n sits at q^(ne) or q^(ne + eb*C(n,2)), convex in n from 0, so the
    # rows below order - z.lo are a prefix
    while top > 0 and top * e + (0 if inv else eb * top * (top - 1) // 2) >= order - z.lo:
        top -= 1
    rows = []
    for n, (c, en, g) in enumerate(poch_rows(x, fam.base, count, inv, top, ctx)):
        if c != ZW_ZERO and not g.is_zero():
            gd, r, o = _zw_scale(*g.zw, c)
            rows.append(ZSeries(ctx, {d * n: (en + order, r, o)}, gd, en))
    return zmul(z, zsum(ctx, rows), window)


# -- planning -----------------------------------------------------------


def _neg_supply(families, ctx: SeriesContext, cap):
    """The negative-degree supply, relaxed to units of z-degree -1:
    (costs, unlimited) with costs the q-costs of the units a window up to
    MAX_WINDOW can use, cheapest first, and unlimited the cost of units
    there are without end (None if none).

    A factor (1 - c q^e z^-d) of a family gives d units at e/d each, as
    many as the family has factors; degree -n takes at most n units from
    one family, so its MAX_WINDOW cheapest units are all that count. Each
    power of an inverted family's factor gives d units at e/d without end,
    so only its cheapest factor counts, and it must cost more than 0
    unless the cap bounds the window.
    """
    costs, unlimited = [], None
    for fam in families:
        if fam.zdeg >= 0 or fam.count == 0:
            continue
        d, e, eb = -fam.zdeg, ctx.scale(fam.qexp), ctx.scale(fam.base.exp)
        if fam.inverted:
            last = e if fam.count is None else e + (fam.count - 1) * eb
            if min(e, last) <= 0 and cap == math.inf:
                raise WindowOverflow("inverted 1/z family without positive cost: window unbounded")
            cost = Fraction(min(e, last), d)
            unlimited = cost if unlimited is None else min(unlimited, cost)
            continue
        # its cheapest factors: the first ones, or the last of a shrinking base
        top = MAX_WINDOW // d + 1 if fam.count is None else min(fam.count, MAX_WINDOW // d + 1)
        first = 0 if eb >= 0 else fam.count - top
        costs += [Fraction(e + j * eb, d) for j in range(first, first + top) for _ in range(d)]
    if not costs and unlimited is None and cap == math.inf:
        raise WindowOverflow("no negative z-degree factors: constant term window is unbounded")
    return sorted(c for c in costs if unlimited is None or c < unlimited), unlimited


def _return_degree(supply, target: int, cap) -> int:
    """The least n >= 1 such that no term of z-degree -n or below is
    cheaper than q^target (target > 0), or where the supply runs out, or
    past the cap.

    Degree -n costs at least its n cheapest units plus every other unit of
    negative cost. A sum of n cheapest units that reaches the positive
    target already holds every negative unit, and further units cost at
    least 0, so the first such n bounds every degree below it too.
    """
    costs, unlimited = supply
    cost = 0
    for n in range(1, MAX_WINDOW + 1):
        if n > cap:
            return n
        if n <= len(costs):
            cost += costs[n - 1]
        elif unlimited is None:
            return n
        else:
            cost += unlimited
        if cost >= target:
            return n
    raise WindowOverflow("required window exceeds the maximum")


def _neg_margin(families, ctx: SeriesContext, window: int) -> int:
    """Worst possible downward q-shift the product can still apply: the
    sum of the negative exponents e + j*eb over every factor j of every
    family, the first factors of a growing base and the last ones of a
    shrinking base, each as often as an inverted family can repeat it."""
    total = 0
    for fam in families:
        e, eb, k = ctx.scale(fam.qexp), ctx.scale(fam.base.exp), fam.count
        apps = (2 * window) // abs(fam.zdeg) + 1 if fam.inverted else 1
        # the factors j in [lo, hi) are the negative ones
        if eb > 0:  # the first ones
            lo, hi = 0, max(0, -(e // eb))
            hi = hi if k is None else min(k, hi)
        elif eb == 0:  # all or none
            lo, hi = 0, k if e < 0 else 0
        else:  # the last ones
            lo, hi = max(0, e // -eb + 1), k
        n = max(0, hi - lo)
        total -= apps * (n * e + eb * ((lo + hi - 1) * n // 2))
    return total


def plan_window(families, ctx: SeriesContext):
    """(window, margin) for a constant-term product of the families.

    The margin depends on the window (a q^(-1) denominator demotes once
    per geometric step) and vice versa, so iterate to a fixpoint; where
    the return cost does not outgrow the margin, the window passes its
    maximum and planning ends in WindowOverflow.

    Where every positive-degree family is finite and not inverted, a term
    that reaches degree 0 takes at most cap = sum(count*zdeg) from them, so
    it and its partial products lie in [-cap, cap]: the window stops at
    the cap, and the 1/z supply needs no bound of its own.
    """
    pos = [f for f in families if f.zdeg > 0]
    finite = all(f.count is not None and not f.inverted for f in pos)
    cap = sum(f.count * f.zdeg for f in pos) if finite else math.inf
    supply = _neg_supply(families, ctx, cap)
    margin = 0
    while True:
        window = min(_return_degree(supply, ctx.order + margin, cap) + PAD, cap)
        new_margin = _neg_margin(families, ctx, window)
        if new_margin <= margin:
            return window, margin
        margin = new_margin


def ct_product(families: Sequence[ZPochFamily], ctx: SeriesContext, degree: int = 0) -> QSeries:
    """z-degree coefficient (the constant term by default) of the product
    of Pochhammer families in z.

    Runs at order + margin internally and narrows the result back to the
    caller's context, so the returned truncation is honest.
    """
    window, margin = plan_window(families, ctx)
    work = SeriesContext(ctx.denom, ctx.order + margin)
    ct = zproduct(families, work, window + abs(degree)).coefficient(degree)
    return QSeries.from_zw(ctx, ct.val, *ct.zw, min(ct.trunc, ctx.order))


# -- the contour form of the triple sum ----------------------------------


def triple_sum_ct(u: Monomial, v: Monomial, w: Monomial, ctx: SeriesContext) -> QSeries:
    """(q^2;q^2)_inf times the constant term of

        (1/z, q^2 z; q^2)_inf (-w z^3; q^6)_inf
        / ((-u z; q)_inf (v z^2; q^4)_inf),

    the contour representation of the triple sum F(u, v, w).
    """
    families = [
        ZPochFamily(ONE, Fraction(0), -1, qpow(2)),
        ZPochFamily(ONE, Fraction(2), 1, qpow(2)),
        ZPochFamily(-w.coeff, w.exp, 3, qpow(6)),
        ZPochFamily(-u.coeff, u.exp, 1, qpow(1), inverted=True),
        ZPochFamily(v.coeff, v.exp, 2, qpow(4), inverted=True),
    ]
    ct = ct_product(families, ctx)
    return poch(qpow(2), qpow(2), ctx) * ct
