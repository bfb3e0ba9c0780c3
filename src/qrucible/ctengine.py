"""Bivariate z-Laurent series over QSeries and constant-term extraction.

Contour integrals "separating 0 from all poles" are modeled purely
formally: each Pochhammer family (c q^e z^d; b)_K^(+-1) of the integrand
expands whole in powers of z^d (Euler's identities and the Cauchy
q-binomial theorem, `qkernel.poch_rows`), the families multiply as Z[w]
lists packed through z = q^L, and the integral is the z-degree-0
coefficient of the resulting Laurent expansion.

The z window is bounded: a term at degree n can only return to degree 0
through the theta-type 1/z factors, at a q-cost that grows quadratically
in n, so degrees beyond a computable bound W cannot touch the constant
term below the truncation. Products with negative q-exponents (q^(-1)
parameters) demote coefficients downward, so the pipeline runs at an
elevated working order (the margin) and narrows back at the end. Both
bounds are deliberately conservative; window-enlargement stability is a
tested invariant, not an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cyclotomic import CycRat, ONE
from .errors import BalanceViolated, NonPositiveBaseExponent, WindowOverflow
from .qkernel import INF, poch, poch_rows, pochhammer_multi
from .series import Monomial, QSeries, SeriesContext, qpow
from .series import _from_zw, _scaled, _zw_mul, _zw_scale

_Q = qpow(1)

MAX_WINDOW = 512


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
        self.terms = {d: s for d, s in terms.items() if not s.is_zero()}

    @property
    def window(self):
        if not self.terms:
            return (0, 0)
        return (min(self.terms), max(self.terms))

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

    def __neg__(self) -> "ZSeries":
        return ZSeries(self.ctx, {d: -s for d, s in self.terms.items()})

    def __sub__(self, other: "ZSeries") -> "ZSeries":
        return self + (-other)

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


def constant_term(x: ZSeries) -> QSeries:
    return x.terms.get(0, x.ctx.zero())


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
    return ZSeries(ctx, {m: QSeries(ctx, lo, _from_zw(den, r, o), t)
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
        if c and g.coeffs:
            frows[d * n] = (en, *_zw_scale(*_scaled(g.coeffs[: order - lo - en]), c))
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


def _neg_return_cost(families, ctx: SeriesContext, n: int) -> int:
    """Cheapest q-cost of assembling total z-degree -n from the negative-
    degree factor supply; infinite if there is none."""
    best = None
    for fam in families:
        if fam.zdeg >= 0 or fam.inverted:
            continue
        eb = ctx.scale(fam.base.exp)
        e0 = ctx.scale(fam.qexp)
        need = -(-n // -fam.zdeg)  # ceil(n / |zdeg|)
        m = need
        # picking extra negative-exponent factors can only lower the cost
        while e0 + m * eb < 0 and (fam.count is None or m < fam.count):
            m += 1
        cost = sum(e0 + j * eb for j in range(m))
        if best is None or cost < best:
            best = cost
    if best is None:
        raise WindowOverflow(
            "no negative z-degree factors: constant term window is unbounded"
        )
    return best


def _neg_margin(families, ctx: SeriesContext, window: int) -> int:
    """Worst possible downward q-shift the product can still apply."""
    total = 0
    for fam in families:
        eb = ctx.scale(fam.base.exp)
        e = ctx.scale(fam.qexp)
        apps = (2 * window) // abs(fam.zdeg) + 1 if fam.inverted else 1
        j = 0
        while e < 0 and (fam.count is None or j < fam.count):
            total += -e * apps
            e += eb
            j += 1
    return total


def plan_window(families, ctx: SeriesContext, pad: int = 4):
    """(window, margin) for a constant-term product of the families.

    The margin depends on the window (a q^(-1) denominator demotes once
    per geometric step) and vice versa, so iterate to a fixpoint; the
    quadratic return cost against the linear margin guarantees one.
    """
    margin = 0
    while True:
        target = ctx.order + margin
        n = 1
        while _neg_return_cost(families, ctx, n) < target:
            n += 1
            if n > MAX_WINDOW:
                raise WindowOverflow("required window exceeds the maximum")
        window = n + pad
        new_margin = _neg_margin(families, ctx, window)
        if new_margin <= margin:
            return window, margin
        margin = new_margin


def ct_product(
    families: Sequence[ZPochFamily],
    ctx: SeriesContext,
    pad: int = 4,
    window: int | None = None,
    degree: int = 0,
) -> QSeries:
    """z-degree coefficient (the constant term by default) of the product
    of Pochhammer families in z.

    Runs at order + margin internally and narrows the result back to the
    caller's context, so the returned truncation is honest.
    """
    auto_window, margin = plan_window(families, ctx, pad)
    if window is None:
        window = auto_window + abs(degree)
    work = SeriesContext(ctx.denom, ctx.order + margin)
    ct = zproduct(families, work, window, degree).coefficient(degree)
    return QSeries(ctx, ct.val, list(ct.coeffs), min(ct.trunc, ctx.order))


# -- the integrands used by the identity registry -----------------------


def triple_sum_ct(u: Monomial, v: Monomial, w: Monomial, ctx: SeriesContext,
                  pad: int = 4, window: int | None = None) -> QSeries:
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
    ct = ct_product(families, ctx, pad, window)
    return poch(qpow(2), qpow(2), ctx) * ct


def theta_contour_ct(
    alphas: Sequence[Monomial],
    betas: Sequence[Monomial],
    ctx: SeriesContext,
    base: Monomial | None = None,
    pad: int = 4,
    window: int | None = None,
) -> QSeries:
    """Constant term of (a_1 z, a_2 z, qz, 1/z; q)_inf / (b_1 z, ..., b_m z; q)_inf."""
    b = base if base is not None else _Q
    families = [ZPochFamily(a.coeff, a.exp, 1, b) for a in alphas]
    families.append(ZPochFamily(b.coeff, b.exp, 1, b))
    families.append(ZPochFamily(ONE, Fraction(0), -1, b))
    families.extend(ZPochFamily(m.coeff, m.exp, 1, b, inverted=True) for m in betas)
    return ct_product(families, ctx, pad, window)


def balanced_theta_ct(
    alphas: Sequence[Monomial],
    betas: Sequence[Monomial],
    ctx: SeriesContext,
    base: Monomial | None = None,
    pad: int = 4,
    window: int | None = None,
) -> QSeries:
    """The balanced two-over-three contour integral; requires
    alpha_1 alpha_2 = beta_1 beta_2 beta_3 exactly."""
    if len(alphas) != 2 or len(betas) != 3:
        raise BalanceViolated("expected 2 numerator and 3 denominator parameters")
    lhs = alphas[0] * alphas[1]
    rhs = betas[0] * betas[1] * betas[2]
    if lhs != rhs:
        raise BalanceViolated(
            f"alpha product {lhs!r} differs from beta product {rhs!r}"
        )
    return theta_contour_ct(alphas, betas, ctx, base, pad, window)


def phi21_contour(a: Monomial, b: Monomial, c: Monomial, t: Monomial,
                  ctx: SeriesContext, pad: int = 4,
                  window: int | None = None) -> QSeries:
    """The contour representation of 2phi1(a, b; c; q, t):

        (q;q)_inf / (c, t; q)_inf *
        CT[(abz, cz, qz/t, t/z; q)_inf / ((az, bz, cz/t; q)_inf)].
    """
    ab = a * b
    ct_families = [
        ZPochFamily(ab.coeff, ab.exp, 1, _Q),
        ZPochFamily(c.coeff, c.exp, 1, _Q),
        ZPochFamily(t.coeff.inv(), 1 - t.exp, 1, _Q),
        ZPochFamily(t.coeff, t.exp, -1, _Q),
        ZPochFamily(a.coeff, a.exp, 1, _Q, inverted=True),
        ZPochFamily(b.coeff, b.exp, 1, _Q, inverted=True),
        ZPochFamily(c.coeff / t.coeff, c.exp - t.exp, 1, _Q, inverted=True),
    ]
    ct = ct_product(ct_families, ctx, pad, window)
    pref = poch(_Q, _Q, ctx) * pochhammer_multi([c, t], _Q, INF, ctx).inverse()
    return pref * ct
