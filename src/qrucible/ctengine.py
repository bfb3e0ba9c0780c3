"""Bivariate z-Laurent series over QSeries and constant-term extraction.

Contour integrals "separating 0 from all poles" are modeled purely
formally: each Pochhammer family (c q^e z^d; b)_K^(+-1) of the integrand
expands whole in powers of z^d (Euler's identities and the Cauchy
q-binomial theorem, `qkernel.poch_rows`), the families multiply as Z[w]
lists packed through z = q^L, and the integral is the z-degree-0
coefficient of the resulting Laurent expansion.

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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cyclotomic import CycRat, ONE
from .errors import NonPositiveBaseExponent, WindowOverflow
from .qkernel import poch, poch_rows
from .series import Monomial, QSeries, SeriesContext, qpow
from .series import _zw_mul, _zw_scale

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
    """Laurent polynomial in z with QSeries coefficients (one context)."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: SeriesContext, terms: dict):
        self.ctx = ctx
        # a zero row known only below a trunc short of the order stays
        self.terms = {d: s for d, s in terms.items() if not s.is_zero() or s.trunc < ctx.order}

    def coefficient(self, deg: int) -> QSeries:
        return self.terms.get(deg, self.ctx.zero())

    def shift(self, deg: int) -> "ZSeries":
        return ZSeries(self.ctx, {d + deg: s for d, s in self.terms.items()})

    def scale(self, s: QSeries) -> "ZSeries":
        return ZSeries(self.ctx, {d: c * s for d, c in self.terms.items()})

    def __add__(self, other: "ZSeries") -> "ZSeries":
        out = dict(self.terms)
        for d, s in other.terms.items():
            out[d] = out[d] + s if d in out else s
        return ZSeries(self.ctx, out)

    def __mul__(self, other: "ZSeries") -> "ZSeries":
        return zmul(self, other)


def zs_one(ctx: SeriesContext) -> ZSeries:
    return ZSeries(ctx, {0: ctx.one()})


def zmul(x: ZSeries, y: ZSeries) -> ZSeries:
    """Full Laurent convolution; truncations propagate per coefficient."""
    out: dict = {}
    for dx, sx in x.terms.items():
        for dy, sy in y.terms.items():
            p = sx * sy
            d = dx + dy
            out[d] = out[d] + p if d in out else p
    return ZSeries(x.ctx, out)


def zsubst(x: ZSeries, z: Monomial) -> QSeries:
    """Substitute a monomial (or root of unity) for z."""
    acc = x.ctx.zero()
    for d, s in x.terms.items():
        zm = z ** d
        acc = acc + s.mul_monomial(zm.coeff, x.ctx.scale(zm.exp))
    return acc


def zproduct(
    families: Sequence[ZPochFamily],
    ctx: SeriesContext,
    window: int,
    degree: int | None = None,
) -> ZSeries:
    """Product of the families on [-window, window], starting from 1: every
    factor of a finite family, the factors (1 - c q^e z^d) below the order
    of an infinite one. With a degree given, only that row is returned.

    The product maps each z-degree to (trunc, re, om): Z[w] lists over one
    denominator from the exponent lo up, cut at the trunc. Each family is
    multiplied in whole, by one _zw_mul on operands packed through z = q^L.
    """
    if window > MAX_WINDOW:
        raise WindowOverflow(f"window {window} exceeds the configured maximum")
    order = ctx.order
    den, lo, rows = 1, 0, {0: (order, [1], [0])}
    for fam in families:
        if fam.zdeg == 0:
            raise WindowOverflow("z-degree-0 factor is not an integrand factor")
        x, k, eb = Monomial(fam.coeff, fam.qexp), fam.count, ctx.scale(fam.base.exp)
        # an infinite family stops below the order; a finite one whose base
        # exponent is not positive splits into its factors
        if k is None:
            parts = [(x, max(0, -((ctx.scale(fam.qexp) - order) // eb)))]
        else:
            parts = [(x, k)] if eb > 0 else [(x * fam.base**j, 1) for j in range(k)]
        for x, count in parts:
            if rows:
                den, lo, rows = _times_family(den, lo, rows, x, count, fam, ctx, window)
    return ZSeries(ctx, {m: QSeries.from_zw(ctx, lo, den, r, o, t)
                         for m, (t, r, o) in rows.items() if degree in (None, m)})


def _flat(rows: dict, span: int):
    """The rows (z-degree -> (_, re, om)) from the lowest degree up, at
    stride span, as one (re, om) pair."""
    zero = [0] * span
    re, om = [], []
    for j in range(min(rows), max(rows) + 1):
        _, r, o = rows.get(j, (0, zero, zero))
        re += r + zero[len(r) :]
        om += o + zero[len(o) :]
    return re, om


def _times_family(den, lo, rows, x: Monomial, count: int, fam: ZPochFamily,
                  ctx: SeriesContext, window: int):
    """(den, lo, rows) times (x z^d; base)_count^(+-1) on [-window, window].

    Row m's trunc is the minimum over the nonzero row pairs (a, b) with
    deg a + deg b = m of QSeries.__mul__'s min(t_a + v_b, t_b + v_a),
    capped at the order. A family row is known to relative precision
    order (t_b = v_b + order), and every row of the product has
    t_a <= order + v_a, so that minimum is t_a + v_b.
    """
    order, d, inv = ctx.order, fam.zdeg, fam.inverted
    e, eb = ctx.scale(x.exp), ctx.scale(fam.base.exp)
    top = (window - min(rows)) // d if d > 0 else (max(rows) + window) // -d
    top = top if inv else min(top, count)
    # row n sits at q^(ne) or q^(ne + eb*C(n,2)), convex in n from 0, so the
    # rows below order - lo are a prefix
    while top > 0 and top * e + (0 if inv else eb * top * (top - 1) // 2) >= order - lo:
        top -= 1
    frows, fden = {}, 1
    for n, (c, en, g) in enumerate(poch_rows(x, fam.base, count, inv, top, ctx)):
        if c and not g.is_zero():
            gd, gr, go = g.zw
            frows[d * n] = (en, *_zw_scale(gd, gr[: order - lo - en], go[: order - lo - en], c))
            fden = math.lcm(fden, frows[d * n][1])
    f0 = min(en for en, *_ in frows.values())
    for k, (en, s, r, o) in frows.items():
        pre, s = [0] * (en - f0), fden // s
        frows[k] = (en, pre + [s * v for v in r], pre + [s * v for v in o])
    span = order - lo + max(len(r) for _, r, _ in frows.values()) - 1
    at0 = min(rows) + min(frows)
    pr, po = _zw_mul(*_flat(rows, span), *_flat(frows, span), (window - at0 + 1) * span)
    truncs: dict = {}
    for j, (t, _, _) in rows.items():
        for k, (en, _, _) in frows.items():
            if abs(j + k) <= window:
                truncs[j + k] = min(truncs.get(j + k, order), t + en)
    lo, out = lo + f0, {}
    for m, t in truncs.items():
        at, n = (m - at0) * span, max(0, t - lo)
        r, o = pr[at : at + n], po[at : at + n]
        if any(r) or any(o):
            out[m] = (t, r, o)
    g = math.gcd(den * fden, *(v for _, r, o in out.values() for v in r + o))
    return den * fden // g, lo, {m: (t, [v // g for v in r], [v // g for v in o])
                                 for m, (t, r, o) in out.items()}


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
    ct = zproduct(families, work, window + abs(degree), degree).coefficient(degree)
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
