"""Rogers (continuous q-ultraspherical) and Askey-Wilson polynomials as
symmetric z-Laurent objects and their generating functions. The
transformation identities built on them are data in
`suites/transforms.qid`.

x is never a first-class variable: every polynomial lives in z with
x = (z + 1/z)/2 implicit. The generating-function machinery treats t as
an outer formal variable truncated at a small order, with z-Laurent
coefficients.

Every series here is a basic hypergeometric sum (Gasper-Rahman, Basic
Hypergeometric Series, 2nd ed., 2004, ch. 7), and one term pass,
`_terms`, builds them all from the term ratio. The polynomials are the
t^n coefficient of the product of two passes (their generating functions
are products of two 1phi0 or 2phi1 series); the generating-function left
sides are products of `_t_phi` sums, Euler's products among them as a
0phi0 and as a 1phi0 with a zero upper parameter.

A product's truncation depends on its operands' valuations, so the order
of the products is part of the result: each binomial goes into num on
its own, and each scalar is applied after the z-products it scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

from .cyclotomic import ONE
from .errors import InvalidParameter, ZeroDenominator
from .series import Monomial, SeriesContext, mono, mul_binomials, qpow
from .series import _zw_scalar, _zw_times
from .qkernel import _zero_factor_index, poch
from .ctengine import ZSeries, zmul, zs_one, zsum

_Q = qpow(1)
_ZERO_M = mono(0, 0)


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


# -- t-series: lists of z-Laurent coefficients of t^0..t^t_order ----------


def _t_mul(A: list, B: list, t_order: int) -> list:
    """The t-series A*B, its t^n coefficient the sum of A_i B_(n-i)."""
    return [zsum(A[0].ctx, [zmul(A[i], B[n - i]) for i in range(n + 1)])
            for n in range(t_order + 1)]


def _t_times(num: list, c: tuple, e: int, i: int, j: int, p: int, ctx) -> list:
    """num * (1 - c q^e t^i z^j)^p for a t-series num and a Z[w] triple c;
    p = -1 needs i > 0."""
    k, cr, co = c
    m = ZSeries(ctx, {j: (ctx.order, [-p * cr], [-p * co])}, k, e)
    out = list(num)
    for r in range(i, len(num)):
        out[r] = out[r] + zmul(num[r - i] if p > 0 else out[r - i], m)
    return out


def _terms(zparams, uppers, lowers, base: Monomial, t_order: int, ctx: SeriesContext):
    """Yield (num_n, den_n) for n = 0, 1, ... of a basic hypergeometric
    series in base b:

    - num_n is the t-series of (zparams; b)_n, each entry (m, i, j, p) the
      parameter m t^i z^j, an upper for p = 1 and a lower (i > 0) for
      p = -1; an entry with i = 2 is the pair (+-sqrt(m) t z^(j/2); b)_n
      = (m t^2 z^j; b^2)_n;
    - den_n is the scalar (uppers; b)_n / (lowers, b; b)_n, one binomial
      pass per step, uppers before lowers.

    Step n's factors are step n-1's times b (b^2 for i = 2), as Z[w]
    triples.
    """
    eb, cb = ctx.scale(base.exp), _zw_scalar(base.coeff)
    cbs = (cb, cb, _zw_times(cb, cb))  # b^max(i, 1) by i
    zfs = [(_zw_scalar(m.coeff), ctx.scale(m.exp), i, j, p) for m, i, j, p in zparams]
    dfs = ([(_zw_scalar(u.coeff), ctx.scale(u.exp), 1) for u in uppers] + [(cb, eb, -1)]
           + [(_zw_scalar(l.coeff), ctx.scale(l.exp), -1) for l in lowers])
    num = [zs_one(ctx)] + [ZSeries(ctx, {}) for _ in range(t_order)]
    den = ctx.one()
    for n in count():
        yield num, den
        for c, e, i, j, p in zfs:
            num = _t_times(num, c, e, i, j, p, ctx)
        den = mul_binomials(den, dfs)
        zfs = [(_zw_times(c, cbs[i]), e + max(i, 1) * eb, i, j, p) for c, e, i, j, p in zfs]
        dfs = [(_zw_times(c, cb), e + eb, p) for c, e, p in dfs]


def _t_phi(zparams, uppers, lowers, base: Monomial, arg: Monomial, arg_t: int, arg_z: int,
           t_order: int, ctx: SeriesContext) -> list:
    """sum num_n den_n (arg t^arg_t z^arg_z)^n ((-1)^n b^C(n,2))^(1+s-r) over
    the terms of `_terms` as a t-series, r and s counting the upper and
    lower parameters, a scalar upper 0 included; terms stop once t^n
    passes t_order or the scalar monomial passes the order."""
    r = len(uppers) + sum(max(i, 1) for _, i, _, p in zparams if p > 0)
    s = len(lowers) + sum(max(i, 1) for _, i, _, p in zparams if p < 0)
    power = 1 + s - r
    eb, ea = ctx.scale(base.exp), ctx.scale(arg.exp)

    def e(n):
        return n * ea + power * (n * (n - 1) // 2) * eb

    stop = next(n for n in count(1) if n * arg_t > t_order or e(n) >= ctx.order)
    out = [[] for _ in range(t_order + 1)]
    for n, (num, den) in enumerate(islice(_terms(zparams, uppers, lowers, base, t_order, ctx), stop)):
        c = arg.coeff ** n * ((-ONE) ** n * base.coeff ** (n * (n - 1) // 2)) ** power
        coeff = den.mul_monomial(c, e(n))
        for k, row in enumerate(num[: t_order + 1 - n * arg_t]):
            out[k + n * arg_t].append(row.scale(coeff).shift(n * arg_z))
    return [zsum(ctx, parts) for parts in out]


def _cauchy(front, back, ctx) -> ZSeries:
    """The t^n coefficient of the product of two term passes, given their
    terms 0..n, whose arguments are t/z and t z:
    sum_k num_k num'_(n-k) z^(n-2k) den_k den'_(n-k), each scalar applied
    after its z-product."""
    n = len(front) - 1
    return zsum(ctx, [zmul(nf[0], nb[0]).shift(n - 2 * k).scale(df * db)
                      for k, ((nf, df), (nb, db)) in enumerate(zip(front, reversed(back)))])


def rogers_poly(n: int, p: RogersParam, ctx: SeriesContext) -> ZSeries:
    """C_n(x; a | b) = sum_k (a;b)_k (a;b)_(n-k) / ((b;b)_k (b;b)_(n-k)) z^(n-2k),
    the t^n coefficient of 1phi0(a; -; b, t z) 1phi0(a; -; b, t/z)."""
    half = list(islice(_terms([], [p.a], [], p.base, 0, ctx), n + 1))
    return _cauchy(half, half, ctx)


def aw_poly(n: int, p: AWParam, ctx: SeriesContext) -> ZSeries:
    """Askey-Wilson p_n via its generating function
    2phi1(az, bz; ab; q, t/z) 2phi1(c/z, d/z; cd; q, t z):

        p_n = (q,ab,cd;q)_n sum_k (az,bz;q)_k (c/z,d/z;q)_(n-k)
              / ((q,ab;q)_k (q,cd;q)_(n-k)) z^(n-2k).
    """
    b = p.base
    ab = p.a * p.b
    cd = p.c * p.d
    for m, label in ((ab, "ab"), (cd, "cd")):
        j = _zero_factor_index(m, b)
        if j is not None and j < n:
            raise ZeroDenominator(f"({label}; base)_k vanishes for k <= {n}")
    front = list(islice(_terms([(p.a, 0, 1, 1), (p.b, 0, 1, 1)], [], [ab], b, 0, ctx), n + 1))
    back = list(islice(_terms([(p.c, 0, -1, 1), (p.d, 0, -1, 1)], [], [cd], b, 0, ctx), n + 1))
    pref = poch(b, b, ctx, n)
    if not ab.is_zero():
        pref = pref * poch(ab, b, ctx, n)
    if not cd.is_zero():
        pref = pref * poch(cd, b, ctx, n)
    return _cauchy(front, back, ctx).scale(pref)


def genfun_lhs(variant: int, a: Monomial, t_order: int, ctx: SeriesContext) -> list:
    """t-coefficients (each a ZSeries) of the five generating-function
    left-hand sides for the Rogers polynomials, keyed 1..5. Each is the
    product of `_t_phi` factors, listed under its formula as (zparams,
    uppers, lowers, base, arg, arg t-degree, arg z-degree)."""
    q, q2, one = _Q, qpow(2), mono(1, 0)
    a2 = a ** 2
    ah = a * Monomial(ONE, Fraction(1, 2))
    # 2phi1(az, -az; -a^2; q, t/z)
    phi_az = ([(a, 0, 1, 1), (-a, 0, 1, 1)], [], [-a2], q, one, 1, -1)
    if variant == 1:
        # (tq/z; q^2) / (tz; q^2) * 2phi1(az, -az; -a^2; q, t/z)
        factors = [([], [], [], q2, q, 1, -1), ([], [_ZERO_M], [], q2, one, 1, 1), phi_az]
    elif variant == 2:
        # (-t/z; q) / (tz; q) * 2phi1(az^2, az^2 q; a^2 q; q^2, t^2/z^2)
        factors = [([], [], [], q, -one, 1, -1), ([], [_ZERO_M], [], q, one, 1, 1),
                   ([(a, 0, 2, 1), (a * q, 0, 2, 1)], [], [a2 * q], q2, one, 2, -2)]
    elif variant == 3:
        # 2phi1(az, -az; -a^2; q, t/z) * 2phi1(aq^(1/2)/z, -aq^(1/2)/z; -a^2 q; q, tz)
        factors = [phi_az, ([(ah, 0, -1, 1), (-ah, 0, -1, 1)], [], [-a2 * q], q, one, 1, 1)]
    elif variant in (4, 5):
        # 4: (a^2 t^2; q^2) / ((-a^2; q) (tz, t/z; q^2)) * 2phi2(tz, t/z; at, -at; q, -a^2)
        # 5: as 4 with -a^2 q^(-1) in place of -a^2
        arg = -(a2 * (one if variant == 4 else qpow(-1)))
        factors = [([], [], [], q2, a2, 2, 0), ([], [_ZERO_M], [], q2, one, 1, 1),
                   ([], [_ZERO_M], [], q2, one, 1, -1),
                   ([(one, 1, 1, 1), (one, 1, -1, 1), (a2, 2, 0, -1)], [], [], q, arg, 0, 0)]
    else:
        raise InvalidParameter(f"unknown generating-function variant {variant}")
    out = _t_phi(*factors[0], t_order, ctx)
    for f in factors[1:]:
        out = _t_mul(out, _t_phi(*f, t_order, ctx), t_order)
    if variant in (4, 5):
        pref = poch(arg, q, ctx).inverse()
        out = [x.scale(pref) for x in out]
    return out


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
