"""Rogers (continuous q-ultraspherical) and Askey-Wilson polynomials as
symmetric z-Laurent objects and their generating functions. The
transformation identities built on them are data in
`suites/transforms.qid`.

x is never a first-class variable: every polynomial lives in z with
x = (z + 1/z)/2 implicit. The generating-function machinery treats t as
an outer formal variable truncated at a small order, with z-Laurent
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CycRat, ONE
from .errors import InvalidParameter, ZeroDenominator
from .series import (
    Monomial,
    QSeries,
    SeriesContext,
    div_binomial,
    mono,
    mul_binomials,
    qpow,
)
from .qkernel import INF, _zero_factor_index, poch, poch_rows
from .ctengine import ZSeries, zmul, zs_one

_Q = qpow(1)


@dataclass(frozen=True)
class RogersParam:
    a: Monomial
    base: Monomial


@dataclass(frozen=True)
class AWParam:
    a: Monomial
    b: Monomial
    c: Monomial
    d: Monomial
    base: Monomial


def _poch_ratio_chain(a: Monomial, base: Monomial, n: int, ctx) -> list:
    """[ (a;b)_k / (b;b)_k for k = 0..n ] as exact series."""
    eb = ctx.scale(base.exp)
    ea = ctx.scale(a.exp)
    out = [ctx.one()]
    for k in range(n):
        bk = base.coeff ** k
        out.append(mul_binomials(out[-1], [(a.coeff * bk, ea + k * eb, 1),
                                           (bk * base.coeff, (k + 1) * eb, -1)]))
    return out


def rogers_poly(n: int, p: RogersParam, ctx: SeriesContext) -> ZSeries:
    """C_n(x; a | b) = sum_k (a;b)_k (a;b)_(n-k) / ((b;b)_k (b;b)_(n-k)) z^(n-2k)."""
    r = _poch_ratio_chain(p.a, p.base, n, ctx)
    terms = {}
    for k in range(n + 1):
        d = n - 2 * k
        c = r[k] * r[n - k]
        terms[d] = terms[d] + c if d in terms else c
    return ZSeries(ctx, terms)


def _z_binomial(ctx, coeff: CycRat, qe: int, zdeg: int) -> ZSeries:
    return ZSeries(ctx, {0: ctx.one(), zdeg: ctx.monomial(-coeff, qe)})


def aw_poly(n: int, p: AWParam, ctx: SeriesContext) -> ZSeries:
    """Askey-Wilson p_n via its generating function:

        p_n = (q,ab,cd;q)_n sum_k (az,bz;q)_k (c/z,d/z;q)_(n-k)
              / ((q,ab;q)_k (q,cd;q)_(n-k)) z^(n-2k).
    """
    b = p.base
    eb = ctx.scale(b.exp)
    ab = p.a * p.b
    cd = p.c * p.d
    for m, label in ((ab, "ab"), (cd, "cd")):
        j = _zero_factor_index(m, b)
        if j is not None and j < n:
            raise ZeroDenominator(f"({label}; base)_k vanishes for k <= {n}")

    one = zs_one(ctx)
    front = [one]
    back = [one]
    for k in range(n):
        step = _z_binomial(ctx, p.a.coeff * b.coeff ** k, ctx.scale(p.a.exp) + k * eb, 1)
        step = zmul(step, _z_binomial(ctx, p.b.coeff * b.coeff ** k, ctx.scale(p.b.exp) + k * eb, 1))
        front.append(zmul(front[-1], step))
        stepb = _z_binomial(ctx, p.c.coeff * b.coeff ** k, ctx.scale(p.c.exp) + k * eb, -1)
        stepb = zmul(stepb, _z_binomial(ctx, p.d.coeff * b.coeff ** k, ctx.scale(p.d.exp) + k * eb, -1))
        back.append(zmul(back[-1], stepb))

    # 1/(q, ab; q)_k and 1/(q, cd; q)_k; a zero ab or cd drops out of
    # the factor list
    inv_q_ab = [ctx.one()]
    inv_q_cd = [ctx.one()]
    for k in range(n):
        bk = b.coeff ** k
        qk = (bk * b.coeff, (k + 1) * eb, -1)
        inv_q_ab.append(mul_binomials(inv_q_ab[-1], [qk, (ab.coeff * bk, ctx.scale(ab.exp) + k * eb, -1)]))
        inv_q_cd.append(mul_binomials(inv_q_cd[-1], [qk, (cd.coeff * bk, ctx.scale(cd.exp) + k * eb, -1)]))

    acc = ZSeries(ctx, {})
    for k in range(n + 1):
        part = zmul(front[k], back[n - k]).shift(n - 2 * k)
        part = part.scale(inv_q_ab[k] * inv_q_cd[n - k])
        acc = acc + part
    pref = poch(b, b, ctx, n)
    if not ab.is_zero():
        pref = pref * poch(ab, b, ctx, n)
    if not cd.is_zero():
        pref = pref * poch(cd, b, ctx, n)
    return acc.scale(pref)


# -- generating functions in an outer formal variable t ------------------


def _t_zero(ctx) -> ZSeries:
    return ZSeries(ctx, {})


def _t_mul(A: list, B: list, t_order: int) -> list:
    out = [None] * (t_order + 1)
    for i, ai in enumerate(A):
        if ai is None:
            continue
        for j, bj in enumerate(B):
            if bj is None or i + j > t_order:
                continue
            p = zmul(ai, bj)
            out[i + j] = p if out[i + j] is None else out[i + j] + p
    return [x if x is not None else _t_zero(A[0].ctx if A else B[0].ctx) for x in out]


def _t_scale(A: list, s: QSeries) -> list:
    return [x.scale(s) for x in A]


def _t_euler(x: Monomial, zdeg: int, base: Monomial, t_order, ctx, t_step: int = 1,
             inverted: bool = False, count=INF) -> list:
    """(x z^zdeg t^t_step; base)_count, or its reciprocal, as a t-series:
    t^(m t_step) -> the z^(m zdeg) row of qkernel.poch_rows."""
    out = [_t_zero(ctx) for _ in range(t_order + 1)]
    for m, (c, e, g) in enumerate(poch_rows(x, base, count, inverted, t_order // t_step, ctx)):
        out[m * t_step] = ZSeries(ctx, {m * zdeg: g.mul_monomial(c, e)})
    return out


def _t_phi(uppers, lowers, base: Monomial, argmono: Monomial, arg_zdeg: int,
           t_order: int, ctx, t_step: int = 1) -> list:
    """phi whose argument carries t^t_step z^arg_zdeg; uppers are
    (monomial, zdeg) pairs expanded as z-polynomials, lowers are scalar."""
    eb = ctx.scale(base.exp)
    out = [_t_zero(ctx) for _ in range(t_order + 1)]
    num = zs_one(ctx)
    den = ctx.one()
    m = 0
    argpow = mono(1, 0)
    while m * t_step <= t_order:
        if m:
            for u, zd in uppers:
                num = zmul(num, _z_binomial(ctx, u.coeff * base.coeff ** (m - 1),
                                            ctx.scale(u.exp) + (m - 1) * eb, zd))
            bm = base.coeff ** (m - 1)
            den = mul_binomials(den, [(bm * base.coeff, m * eb, -1)] + [
                (l.coeff * bm, ctx.scale(l.exp) + (m - 1) * eb, -1) for l in lowers])
            argpow = argpow * argmono
        coeff = den.mul_monomial(argpow.coeff, ctx.scale(argpow.exp))
        out[m * t_step] = num.scale(coeff).shift(m * arg_zdeg)
        m += 1
    return out


def _t_phi22_sym(a: Monomial, arg: Monomial, t_order: int, ctx) -> list:
    """2phi2(tz, t/z; at, -at; base q, arg) as a t-series.

    The lower product (at, -at; q)_k collapses to (a^2 t^2; q^2)_k. Term k
    is (tz, t/z; q)_k / (a^2 t^2; q^2)_k, three finite poch_rows t-series,
    times (-1)^k q^C(k,2) arg^k / (q; q)_k; terms are summed until that
    scalar's exponent passes the truncation, which its C(k,2) growth
    guarantees.
    """
    earg = ctx.scale(arg.exp)
    u = ctx.scale(1)
    acc = [_t_zero(ctx) for _ in range(t_order + 1)]
    one = mono(1, 0)
    inv_qk = ctx.one()
    k = 0
    while True:
        sc_e = (k * (k - 1) // 2) * u + k * earg
        if k and sc_e >= ctx.order:
            break
        num = _t_mul(_t_euler(one, 1, _Q, t_order, ctx, count=k),
                     _t_euler(one, -1, _Q, t_order, ctx, count=k), t_order)
        den = _t_euler(a ** 2, 0, qpow(2), t_order, ctx, t_step=2, inverted=True, count=k)
        term = _t_scale(_t_mul(num, den, t_order),
                        inv_qk.mul_monomial((-ONE) ** k * arg.coeff ** k, sc_e))
        acc = [x + y for x, y in zip(acc, term)]
        inv_qk = div_binomial(inv_qk, ONE, (k + 1) * u)
        k += 1
    return acc


def genfun_lhs(variant: int, a: Monomial, t_order: int, ctx: SeriesContext) -> list:
    """t-coefficients (each a ZSeries) of the five generating-function
    left-hand sides for the Rogers polynomials, keyed 1..5:

      1: (tq/z;q^2)/(tz;q^2) * 2phi1(az,-az; -a^2; q, t/z)
      2: (-t/z;q)/(tz;q)     * 2phi1(az^2,az^2 q; a^2 q; q^2, t^2/z^2)
      3: 2phi1(az,-az; -a^2; q, t/z) * 2phi1(aq^(1/2)/z,-aq^(1/2)/z; -a^2 q; q, tz)
      4: (a^2 t^2;q^2) / ((-a^2;q) (tz,t/z;q^2)) * 2phi2(tz,t/z; at,-at; q, -a^2)
      5: as 4 with -a^2 q^(-1) in place of -a^2
    """
    q = _Q
    q2 = qpow(2)
    a2 = a ** 2
    if variant == 1:
        A = _t_euler(qpow(1), -1, q2, t_order, ctx)
        B = _t_euler(mono(1, 0), 1, q2, t_order, ctx, inverted=True)
        C = _t_phi([(a, 1), (-a, 1)], [-a2], q, mono(1, 0), -1, t_order, ctx)
        return _t_mul(_t_mul(A, B, t_order), C, t_order)
    if variant == 2:
        A = _t_euler(mono(-1, 0), -1, q, t_order, ctx)
        B = _t_euler(mono(1, 0), 1, q, t_order, ctx, inverted=True)
        C = _t_phi([(a, 2), (a * q, 2)], [a2 * q], q2, mono(1, 0), -2,
                   t_order, ctx, t_step=2)
        return _t_mul(_t_mul(A, B, t_order), C, t_order)
    if variant == 3:
        ah = a * Monomial(ONE, Fraction(1, 2))
        A = _t_phi([(a, 1), (-a, 1)], [-a2], q, mono(1, 0), -1, t_order, ctx)
        B = _t_phi([(ah, -1), (-ah, -1)], [-a2 * q], q, mono(1, 0), 1, t_order, ctx)
        return _t_mul(A, B, t_order)
    if variant in (4, 5):
        shift = mono(1, 0) if variant == 4 else qpow(-1)
        arg = -(a2 * shift)
        A = _t_euler(a2, 0, q2, t_order, ctx, t_step=2)
        B = _t_euler(mono(1, 0), 1, q2, t_order, ctx, inverted=True)
        C = _t_euler(mono(1, 0), -1, q2, t_order, ctx, inverted=True)
        D = _t_phi22_sym(a, arg, t_order, ctx)
        pref = poch(arg, q, ctx).inverse()
        out = _t_mul(_t_mul(_t_mul(A, B, t_order), C, t_order), D, t_order)
        return _t_scale(out, pref)
    raise InvalidParameter(f"unknown generating-function variant {variant}")


def genfun_rhs_coeff(variant: int, n: int, a: Monomial, ctx: SeriesContext) -> ZSeries:
    """The stated multiple of a Rogers polynomial at t^n for each variant."""
    q = _Q
    q2 = qpow(2)
    a2 = a ** 2
    if variant in (1, 4):
        num = poch(a2 * q, q2, ctx, n)
        den = poch(a2 ** 2, q2, ctx, n)
        cn = rogers_poly(n, RogersParam(a2, q2), ctx)
    elif variant == 2:
        num = poch(-a, q, ctx, n)
        den = poch(a2, q, ctx, n)
        cn = rogers_poly(n, RogersParam(a, q), ctx)
    elif variant == 3:
        h = Monomial(ONE, Fraction(1, 2))
        num = poch(a2 * h, q, ctx, n) * poch(-(a2 * h), q, ctx, n)
        den = poch(-(a2 * q), q, ctx, n) * poch(a2 ** 2, q, ctx, n)
        cn = rogers_poly(n, RogersParam(a2, q), ctx)
    elif variant == 5:
        num = poch(a2 * qpow(-1), q2, ctx, n)
        den = poch(a2 ** 2 * qpow(-2), q2, ctx, n)
        cn = rogers_poly(n, RogersParam(a2, q2), ctx)
    else:
        raise InvalidParameter(f"unknown generating-function variant {variant}")
    return cn.scale(num * den.inverse())
