import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import (
    parent_poch_rows,
    rogers_half_4phi3_text,
    rogers_half_sum_text,
    zseries,
    zw_factors,
)
from qrucible import ortho
from qrucible.cyclotomic import CycRat, OMEGA, ONE
from qrucible.ctengine import ZSeries, zmul, zs_one, zsubst
from qrucible.dsl import AWPoly, RogersC, _fold, _plan, as_monomial, elaborate, parse, unparse
from qrucible.errors import QrucibleError, ZeroDenominator
from qrucible.ortho import (
    AWParam,
    RogersParam,
    aw_poly,
    genfun_lhs,
    genfun_rhs_coeff,
    rogers_poly,
)
from qrucible.qkernel import INF, _zero_factor_index, poch
from qrucible.series import (
    Monomial,
    SeriesContext,
    div_binomial,
    equal_to_order,
    mono,
    monomial_to_series,
    mul_binomial,
    mul_binomials,
    qpow,
)

HALF = Fraction(1, 2)


def zs_equal(x, y, upto):
    for d in set(x.terms) | set(y.terms):
        cx, cy = x.coefficient(d), y.coefficient(d)
        if not equal_to_order(cx, cy, min(cx.trunc, cy.trunc, upto)):
            return False
    return True


@pytest.fixture
def ctx():
    return SeriesContext(2, 60)


def test_rogers_c0_c1_c2(ctx):
    a = qpow(3)
    p = RogersParam(a, qpow(1))
    c0 = rogers_poly(0, p, ctx)
    assert set(c0.terms) == {0} and c0.coefficient(0).coefficient(0) == ONE
    # C1 = (1-a)/(1-q) (z + 1/z)
    c1 = rogers_poly(1, p, ctx)
    ratio = div_binomial(ctx.one() - monomial_to_series(a, ctx), ONE, ctx.scale(1))
    for d in (1, -1):
        assert equal_to_order(c1.coefficient(d), ratio, 50)
    assert 0 not in c1.terms
    # C2 = (a;q)_2/(q;q)_2 (z^2 + 1/z^2) + ((1-a)/(1-q))^2
    c2 = rogers_poly(2, p, ctx)
    outer = poch(a, qpow(1), ctx, 2) * poch(qpow(1), qpow(1), ctx, 2).inverse()
    for d in (2, -2):
        assert equal_to_order(c2.coefficient(d), outer, 50)
    assert equal_to_order(c2.coefficient(0), ratio * ratio, 50)


def test_aw_p0_and_pair_swap_symmetry(ctx):
    p = AWParam(qpow(1), mono(-1, 1), mono(1, HALF), mono(-1, HALF), qpow(1))
    p0 = aw_poly(0, p, ctx)
    assert set(p0.terms) == {0}
    p1 = aw_poly(1, p, ctx)
    swapped = AWParam(p.b, p.a, p.d, p.c, p.base)
    q1 = aw_poly(1, swapped, ctx)
    assert zs_equal(p1, q1, 40)


def test_z_inversion_symmetry():
    # C_n and p_n are polynomials in x = (z + 1/z)/2: the Laurent
    # coefficients at degree d and -d coincide
    ctx = SeriesContext(2, 40)
    p = RogersParam(qpow(2), qpow(1))
    aw = AWParam(qpow(1), mono(-1, 1), mono(1, HALF), mono(-1, HALF), qpow(1))
    for n in range(7):
        for zs in (rogers_poly(n, p, ctx), aw_poly(min(n, 5), aw, ctx)):
            for d in zs.terms:
                cx, cy = zs.coefficient(d), zs.coefficient(-d)
                assert equal_to_order(cx, cy, min(cx.trunc, cy.trunc, 30)), (n, d)


def test_aw_full_symmetry_group():
    # all 24 parameter permutations agree for n <= 5
    ctx = SeriesContext(2, 36)
    params = (qpow(1), mono(-1, 1), mono(1, HALF), mono(-1, HALF))
    for n in range(6):
        ref = aw_poly(n, AWParam(*params, qpow(1)), ctx)
        for perm in permutations(range(4)):
            cand = AWParam(*(params[i] for i in perm), qpow(1))
            got = aw_poly(n, cand, ctx)
            assert zs_equal(ref, got, 30), (n, perm)


def test_aw_zero_denominator():
    ctx = SeriesContext(1, 20)
    # ab = q^(-1) hits an exact zero in (ab;q)_k for k >= 2
    bad = AWParam(qpow(1), qpow(-2), qpow(1), qpow(1), qpow(1))
    with pytest.raises(ZeroDenominator):
        aw_poly(3, bad, ctx)


def test_rogers_aw_embeddings_swept():
    # the four embeddings, degrees up to 6
    ctx = SeriesContext(2, 70)
    q = qpow(1)
    a = qpow(1)
    a2 = a ** 2
    for n in range(7):
        lhs = rogers_poly(n, RogersParam(a2, q), ctx)
        pn = aw_poly(n, AWParam(a, -a, a * Monomial(ONE, HALF), -(a * Monomial(ONE, HALF)), q), ctx)
        num = poch(a2 ** 2, q, ctx, n)
        den = (
            poch(q, q, ctx, n)
            * poch(-a2, q, ctx, n)
            * poch(a2 * Monomial(ONE, HALF), q, ctx, n)
            * poch(-(a2 * Monomial(ONE, HALF)), q, ctx, n)
        )
        rhs = pn.scale(num * den.inverse())
        assert zs_equal(lhs, rhs, 55), n

        lhs2 = rogers_poly(n, RogersParam(a2, qpow(2)), ctx)
        pn2 = aw_poly(n, AWParam(a, -a, Monomial(ONE, HALF), Monomial(-ONE, HALF), q), ctx)
        num2 = poch(a2, q, ctx, n)
        den2 = poch(qpow(2), qpow(2), ctx, n) * poch(a2 * q, qpow(2), ctx, n)
        rhs2 = pn2.scale(num2 * den2.inverse())
        assert zs_equal(lhs2, rhs2, 55), n

    ctx1 = SeriesContext(1, 60)
    for n in range(7):
        # even degrees in the squared argument
        lhs = rogers_poly(2 * n, RogersParam(a, q), ctx1)
        pn = aw_poly(n, AWParam(a, a * q, mono(-1, 0), mono(-1, 1), qpow(2)), ctx1)
        pref = poch(a2, qpow(2), ctx1, n) * (poch(q, q, ctx1, 2 * n) * poch(-a, q, ctx1, 2 * n)).inverse()
        rhs = _subst_square(pn, ctx1).scale(pref)
        assert zs_equal(lhs, rhs, 40), n
        # odd degrees
        lhs = rogers_poly(2 * n + 1, RogersParam(a, q), ctx1)
        pn = aw_poly(n, AWParam(a, a * q, mono(-1, 1), mono(-1, 2), qpow(2)), ctx1)
        pref = (
            poch(a2, qpow(2), ctx1, n + 1)
            * (poch(q, q, ctx1, 2 * n + 1) * poch(-a, q, ctx1, 2 * n + 1)).inverse()
        ).mul_monomial(CycRat(2), 0)
        half_x = _half_x(ctx1)
        rhs = _zmul_scalar_x(_subst_square(pn, ctx1), half_x).scale(pref)
        assert zs_equal(lhs, rhs, 40), n


def _subst_square(zs, ctx):
    return zseries(ctx, {2 * d: s for d, s in zs.terms.items()})


def _half_x(ctx):
    # x = (z + 1/z)/2 as a ZSeries
    h = CycRat(Fraction(1, 2))
    return zseries(ctx, {1: ctx.monomial(h, 0), -1: ctx.monomial(h, 0)})


def _zmul_scalar_x(zs, x):
    from qrucible.ctengine import zmul

    return zmul(zs, x)


def _ev(text, ctx):
    return elaborate(parse(text), ctx)


def test_cube_root_value_sweep():
    # C_n(-1/2; a | q), that is rc(n; a; q; w), against its cube dissection
    ctx = SeriesContext(2, 70)
    for a in ("q", "q^2", "w*q"):
        for n in range(13):
            lhs = _ev(f"rc({n}; {a}; q; w)", ctx)
            rhs = _ev(rogers_half_sum_text(n, a), ctx)
            assert equal_to_order(lhs, rhs, min(lhs.trunc, rhs.trunc, 55)), (a, n)


def test_cube_root_small_cases():
    ctx = SeriesContext(1, 30)
    one = _ev("rc(0; q; q; w)", ctx)
    assert equal_to_order(one, ctx.one(), one.trunc)
    # n=1: both sides are -(1-a)/(1-q)
    lhs = _ev("rc(1; q; q; w)", ctx)
    ratio = div_binomial(ctx.one() - monomial_to_series(qpow(1), ctx), ONE, 1)
    assert equal_to_order(lhs, -ratio, min(lhs.trunc, 28))
    # n=6, a=q against the substitution z = w into the Laurent polynomial
    l6 = _ev("rc(6; q; q; w)", ctx)
    r6 = zsubst(rogers_poly(6, RogersParam(qpow(1), qpow(1)), ctx), mono(OMEGA, 0))
    assert l6 == r6


def test_balanced_4phi3_restatement():
    ctx = SeriesContext(1, 70)
    for n in range(9):
        lhs = _ev(f"rc({n}; w*q; q; w)", ctx)
        rhs = _ev(rogers_half_4phi3_text(n, "w*q"), ctx)
        assert equal_to_order(lhs, rhs, min(lhs.trunc, rhs.trunc, 40)), n


def test_genfun_lemmas_swept():
    ctx = SeriesContext(2, 70)
    for variant in (1, 2, 3, 4, 5):
        coeffs = genfun_lhs(variant, qpow(1), 6, ctx)
        for n in range(7):
            rhs = genfun_rhs_coeff(variant, n, qpow(1), ctx)
            assert zs_equal(coeffs[n], rhs, 50), (variant, n)


def test_genfun_shifted_form_at_a_squared():
    # the shifted 2phi2 form with a = q^2: ratio (a^2/q;q^2)_n/(a^4/q^2;q^2)_n
    ctx = SeriesContext(1, 50)
    a = qpow(2)
    coeffs = genfun_lhs(5, a, 6, ctx)
    for n in range(7):
        rhs = genfun_rhs_coeff(5, n, a, ctx)
        assert zs_equal(coeffs[n], rhs, 40), n


def test_genfun_t0_is_one(ctx):
    coeffs = genfun_lhs(1, qpow(2), 0, ctx)
    c0 = coeffs[0]
    assert set(c0.terms) == {0}
    assert equal_to_order(c0.coefficient(0), ctx.one(), 55)


def test_single_sums_are_halved_reductions():
    """Each quarter-grid one-variable sum is its parent reduction with the
    base replaced by its square root: coefficients at scaled index k must
    agree between the D=4 and D=2 elaborations."""
    from qrucible.dsl import AWPoly, RogersC, _fold, _plan, as_monomial, elaborate, parse, unparse
    from qrucible.harness import load_registry

    registry = load_registry()
    parents = {
        "single-sum-6a": "phi([q^(3/2)*w, -q^(3/2)*w]; [-q^3]; q^2; q*w2)",
        "single-sum-4": "phi([q^(1/2)*w, -q^(1/2)*w]; [-q]; q^2; q*w2)",
        "single-sum-6": "phi([q*w, q*w2]; [q^(5/2), -q^(5/2)]; q^2; -q)",
        "single-sum-4a": "phi([q^(-1)*w, q^(-1)*w2]; [q^(3/2), -q^(3/2)]; q^2; -q^3)",
        "single-sum-new": "phi([q^(1/2)*w, -q^(3/2)*w]; [-q^2]; q^2; q*w2)",
    }
    for name, parent_text in parents.items():
        case = registry.get(name)
        half = elaborate(case.lhs(), SeriesContext(4, 64))
        full = elaborate(parse(parent_text), SeriesContext(2, 64))
        upto = min(half.trunc, full.trunc, 60)
        for k in range(upto):
            assert half.coefficient(k) == full.coefficient(k), (name, k)


def test_half_exponent_triple_sum_reduces_to_its_single_series():
    # the half-grid lattice sum equals its prefactor-times-2phi1 form
    from qrucible.dsl import AWPoly, RogersC, _fold, _plan, as_monomial, elaborate, parse, unparse

    ctx = SeriesContext(2, 60)
    lhs = elaborate(parse("tsum_h()"), ctx)
    rhs = elaborate(
        parse("qp(-q^2, q*w2; q^2; inf)*phi([q^(1/2)*w, -q^(3/2)*w]; [-q^2]; q^2; q*w2)"),
        ctx,
    )
    assert equal_to_order(lhs, rhs, min(lhs.trunc, rhs.trunc, 60))


def test_transform_sextic_quarter_grid_matches_single_sum():
    # at a = q^(3/4) the sextic-a transform's lhs is exactly the
    # one-variable sum the registry verifies on the quarter grid; no suite
    # entry states this specialization, so both sides are checked here
    from qrucible.dsl import AWPoly, RogersC, _fold, _plan, as_monomial, elaborate, parse, unparse
    from qrucible.qkernel import phi

    ctx = SeriesContext(4, 60)
    lhs = elaborate(parse("phi([q^(3/4)*w, -q^(3/4)*w]; [-q^(3/2)]; q; q^(1/2)*w2)"), ctx)
    rhs = elaborate(parse(
        "qp(q^(9/2); q^2; inf)*qp(q^(3/2); q^6; inf)/qp(q^(1/2)*w2, q^2; q; inf)"
        "*phi([q^(5/2), q^(9/2), q^(13/2)]; [q^(13/2), q^(17/2)]; q^6; q^(3/2))"), ctx)
    assert equal_to_order(lhs, rhs, min(lhs.trunc, rhs.trunc, ctx.order))

    direct = phi(
        [mono(OMEGA, Fraction(3, 4)), mono(-OMEGA, Fraction(3, 4))],
        [mono(-1, Fraction(3, 2))],
        qpow(1),
        mono(OMEGA * OMEGA, Fraction(1, 2)),
        ctx,
    )
    assert equal_to_order(lhs, direct, min(lhs.trunc, direct.trunc))


# -- the parent's chains: whole-function references for the term pass ----
#
# rogers_poly, aw_poly and genfun_lhs as they stood before ortho built
# every series from one term pass, with their helpers. The new functions
# must equal these in val, trunc and coefficients, not just in value: the
# truncations depend on the order of the products.


def parent_z_binomial(ctx, coeff, qe, zdeg):
    assert zdeg != 0
    return zseries(ctx, {0: ctx.one(), zdeg: ctx.monomial(-coeff, qe)})


def parent_poch_ratio_chain(a, base, n, ctx):
    """[ (a;b)_k / (b;b)_k for k = 0..n ] as exact series."""
    eb = ctx.scale(base.exp)
    ea = ctx.scale(a.exp)
    out = [ctx.one()]
    for k in range(n):
        bk = base.coeff ** k
        out.append(mul_binomials(out[-1], zw_factors([(a.coeff * bk, ea + k * eb, 1),
                                                      (bk * base.coeff, (k + 1) * eb, -1)])))
    return out


def parent_rogers_poly(n, p, ctx):
    r = parent_poch_ratio_chain(p.a, p.base, n, ctx)
    terms = {}
    for k in range(n + 1):
        d = n - 2 * k
        c = r[k] * r[n - k]
        terms[d] = terms[d] + c if d in terms else c
    return zseries(ctx, terms)


def parent_aw_poly(n, p, ctx):
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
        step = parent_z_binomial(ctx, p.a.coeff * b.coeff ** k, ctx.scale(p.a.exp) + k * eb, 1)
        step = zmul(step, parent_z_binomial(ctx, p.b.coeff * b.coeff ** k, ctx.scale(p.b.exp) + k * eb, 1))
        front.append(zmul(front[-1], step))
        stepb = parent_z_binomial(ctx, p.c.coeff * b.coeff ** k, ctx.scale(p.c.exp) + k * eb, -1)
        stepb = zmul(stepb, parent_z_binomial(ctx, p.d.coeff * b.coeff ** k, ctx.scale(p.d.exp) + k * eb, -1))
        back.append(zmul(back[-1], stepb))
    inv_q_ab = [ctx.one()]
    inv_q_cd = [ctx.one()]
    for k in range(n):
        bk = b.coeff ** k
        qk = (bk * b.coeff, (k + 1) * eb, -1)
        inv_q_ab.append(mul_binomials(inv_q_ab[-1], zw_factors([qk, (ab.coeff * bk, ctx.scale(ab.exp) + k * eb, -1)])))
        inv_q_cd.append(mul_binomials(inv_q_cd[-1], zw_factors([qk, (cd.coeff * bk, ctx.scale(cd.exp) + k * eb, -1)])))
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


def parent_t_mul(A, B, t_order):
    out = [None] * (t_order + 1)
    for i, ai in enumerate(A):
        if ai is None:
            continue
        for j, bj in enumerate(B):
            if bj is None or i + j > t_order:
                continue
            p = zmul(ai, bj)
            out[i + j] = p if out[i + j] is None else out[i + j] + p
    return [x if x is not None else ZSeries(A[0].ctx, {}) for x in out]


def parent_t_euler(x, zdeg, base, t_order, ctx, t_step=1, inverted=False, count=INF):
    """(x z^zdeg t^t_step; base)_count, or its reciprocal, as a t-series."""
    out = [ZSeries(ctx, {}) for _ in range(t_order + 1)]
    for m, (c, e, g) in enumerate(parent_poch_rows(x, base, count, inverted, t_order // t_step, ctx)):
        out[m * t_step] = zseries(ctx, {m * zdeg: g.mul_monomial(c, e)})
    return out


def parent_t_phi(uppers, lowers, base, argmono, arg_zdeg, t_order, ctx, t_step=1):
    eb = ctx.scale(base.exp)
    out = [ZSeries(ctx, {}) for _ in range(t_order + 1)]
    num = zs_one(ctx)
    den = ctx.one()
    m = 0
    argpow = mono(1, 0)
    while m * t_step <= t_order:
        if m:
            for u, zd in uppers:
                num = zmul(num, parent_z_binomial(ctx, u.coeff * base.coeff ** (m - 1),
                                                  ctx.scale(u.exp) + (m - 1) * eb, zd))
            bm = base.coeff ** (m - 1)
            den = mul_binomials(den, zw_factors([(bm * base.coeff, m * eb, -1)] + [
                (l.coeff * bm, ctx.scale(l.exp) + (m - 1) * eb, -1) for l in lowers]))
            argpow = argpow * argmono
        coeff = den.mul_monomial(argpow.coeff, ctx.scale(argpow.exp))
        out[m * t_step] = num.scale(coeff).shift(m * arg_zdeg)
        m += 1
    return out


def parent_t_phi22_sym(a, arg, t_order, ctx):
    """2phi2(tz, t/z; at, -at; q, arg), each term's (tz, t/z; q)_k and
    1/(a^2 t^2; q^2)_k rebuilt from poch_rows t-series."""
    earg = ctx.scale(arg.exp)
    u = ctx.scale(1)
    acc = [ZSeries(ctx, {}) for _ in range(t_order + 1)]
    one = mono(1, 0)
    inv_qk = ctx.one()
    k = 0
    while True:
        sc_e = (k * (k - 1) // 2) * u + k * earg
        if k and sc_e >= ctx.order:
            break
        num = parent_t_mul(parent_t_euler(one, 1, qpow(1), t_order, ctx, count=k),
                           parent_t_euler(one, -1, qpow(1), t_order, ctx, count=k), t_order)
        den = parent_t_euler(a ** 2, 0, qpow(2), t_order, ctx, t_step=2, inverted=True, count=k)
        s = inv_qk.mul_monomial((-ONE) ** k * arg.coeff ** k, sc_e)
        term = [x.scale(s) for x in parent_t_mul(num, den, t_order)]
        acc = [x + y for x, y in zip(acc, term)]
        inv_qk = div_binomial(inv_qk, ONE, (k + 1) * u)
        k += 1
    return acc


def parent_genfun_lhs(variant, a, t_order, ctx):
    q = qpow(1)
    q2 = qpow(2)
    a2 = a ** 2
    if variant == 1:
        A = parent_t_euler(qpow(1), -1, q2, t_order, ctx)
        B = parent_t_euler(mono(1, 0), 1, q2, t_order, ctx, inverted=True)
        C = parent_t_phi([(a, 1), (-a, 1)], [-a2], q, mono(1, 0), -1, t_order, ctx)
        return parent_t_mul(parent_t_mul(A, B, t_order), C, t_order)
    if variant == 2:
        A = parent_t_euler(mono(-1, 0), -1, q, t_order, ctx)
        B = parent_t_euler(mono(1, 0), 1, q, t_order, ctx, inverted=True)
        C = parent_t_phi([(a, 2), (a * q, 2)], [a2 * q], q2, mono(1, 0), -2, t_order, ctx, t_step=2)
        return parent_t_mul(parent_t_mul(A, B, t_order), C, t_order)
    if variant == 3:
        ah = a * Monomial(ONE, HALF)
        A = parent_t_phi([(a, 1), (-a, 1)], [-a2], q, mono(1, 0), -1, t_order, ctx)
        B = parent_t_phi([(ah, -1), (-ah, -1)], [-a2 * q], q, mono(1, 0), 1, t_order, ctx)
        return parent_t_mul(A, B, t_order)
    shift = mono(1, 0) if variant == 4 else qpow(-1)
    arg = -(a2 * shift)
    A = parent_t_euler(a2, 0, q2, t_order, ctx, t_step=2)
    B = parent_t_euler(mono(1, 0), 1, q2, t_order, ctx, inverted=True)
    C = parent_t_euler(mono(1, 0), -1, q2, t_order, ctx, inverted=True)
    D = parent_t_phi22_sym(a, arg, t_order, ctx)
    pref = poch(arg, q, ctx).inverse()
    out = parent_t_mul(parent_t_mul(parent_t_mul(A, B, t_order), C, t_order), D, t_order)
    return [x.scale(pref) for x in out]


# -- the per-factor chains: references for the parent's binomial passes ---


def oracle_poch_ratio_chain(a, base, n, ctx):
    """[(a;b)_k / (b;b)_k for k = 0..n], one binomial call per factor."""
    eb = ctx.scale(base.exp)
    ea = ctx.scale(a.exp)
    out = [ctx.one()]
    for k in range(n):
        r = mul_binomial(out[-1], a.coeff * base.coeff ** k, ea + k * eb)
        r = div_binomial(r, base.coeff ** (k + 1), (k + 1) * eb)
        out.append(r)
    return out


def oracle_aw_poly(n, p, ctx):
    """aw_poly with 1/(q, ab; q)_k and 1/(q, cd; q)_k one factor at a time."""
    b = p.base
    eb = ctx.scale(b.exp)
    ab = p.a * p.b
    cd = p.c * p.d
    for m in (ab, cd):
        if m.is_zero():
            continue
        j = -m.exp / b.exp
        if j.denominator == 1 and 0 <= j < n and m.coeff * b.coeff ** int(j) == ONE:
            raise ZeroDenominator("zero factor")
    one = zs_one(ctx)
    front = [one]
    back = [one]
    for k in range(n):
        step = parent_z_binomial(ctx, p.a.coeff * b.coeff ** k, ctx.scale(p.a.exp) + k * eb, 1)
        step = zmul(step, parent_z_binomial(ctx, p.b.coeff * b.coeff ** k, ctx.scale(p.b.exp) + k * eb, 1))
        front.append(zmul(front[-1], step))
        stepb = parent_z_binomial(ctx, p.c.coeff * b.coeff ** k, ctx.scale(p.c.exp) + k * eb, -1)
        stepb = zmul(stepb, parent_z_binomial(ctx, p.d.coeff * b.coeff ** k, ctx.scale(p.d.exp) + k * eb, -1))
        back.append(zmul(back[-1], stepb))
    inv_q_ab = [ctx.one()]
    inv_q_cd = [ctx.one()]
    for k in range(n):
        r = div_binomial(inv_q_ab[-1], b.coeff ** (k + 1), (k + 1) * eb)
        if not ab.is_zero():
            r = div_binomial(r, ab.coeff * b.coeff ** k, ctx.scale(ab.exp) + k * eb)
        inv_q_ab.append(r)
        s = div_binomial(inv_q_cd[-1], b.coeff ** (k + 1), (k + 1) * eb)
        if not cd.is_zero():
            s = div_binomial(s, cd.coeff * b.coeff ** k, ctx.scale(cd.exp) + k * eb)
        inv_q_cd.append(s)
    acc = ZSeries(ctx, {})
    for k in range(n + 1):
        part = zmul(front[k], back[n - k]).shift(n - 2 * k)
        acc = acc + part.scale(inv_q_ab[k] * inv_q_cd[n - k])
    pref = poch(b, b, ctx, n)
    if not ab.is_zero():
        pref = pref * poch(ab, b, ctx, n)
    if not cd.is_zero():
        pref = pref * poch(cd, b, ctx, n)
    return acc.scale(pref)


def oracle_t_phi(uppers, lowers, base, argmono, arg_zdeg, t_order, ctx, t_step=1):
    """parent_t_phi with its scalar denominator one factor at a time."""
    eb = ctx.scale(base.exp)
    out = [ZSeries(ctx, {}) for _ in range(t_order + 1)]
    num = zs_one(ctx)
    den = ctx.one()
    m = 0
    argpow = mono(1, 0)
    while m * t_step <= t_order:
        if m:
            for u, zd in uppers:
                num = zmul(num, parent_z_binomial(ctx, u.coeff * base.coeff ** (m - 1),
                                            ctx.scale(u.exp) + (m - 1) * eb, zd))
            den = div_binomial(den, base.coeff ** m, m * eb)
            for l in lowers:
                den = div_binomial(den, l.coeff * base.coeff ** (m - 1),
                                   ctx.scale(l.exp) + (m - 1) * eb)
            argpow = argpow * argmono
        coeff = den.mul_monomial(argpow.coeff, ctx.scale(argpow.exp))
        out[m * t_step] = num.scale(coeff).shift(m * arg_zdeg)
        m += 1
    return out


def _t_div_binomial_t2(A, c, e, t_order, ctx):
    """Divide a t-series by (1 - c q^e t^2)."""
    out = list(A)
    for m in range(2, t_order + 1):
        prev = out[m - 2]
        if prev.terms:
            out[m] = out[m] + prev.scale(ctx.monomial(c, e))
    return out


def oracle_t_phi22_sym(a, arg, t_order, ctx):
    """2phi2(tz, t/z; at, -at; q, arg): (tz, t/z; q)_k one factor at a
    time, each term divided by (a^2 t^2; q^2)_k one t^2-geometric
    division per factor."""
    earg = ctx.scale(arg.exp)
    ea = ctx.scale(a.exp)
    u = ctx.scale(1)
    zero = ZSeries(ctx, {})
    acc = [zero] * (t_order + 1)
    num = [zs_one(ctx)] + [zero] * t_order
    den_ops = []
    inv_qk = ctx.one()
    k = 0
    while True:
        sc_e = (k * (k - 1) // 2) * u + k * earg
        if k and sc_e >= ctx.order:
            break
        s = inv_qk.mul_monomial((-ONE) ** k * arg.coeff ** k, sc_e)
        term = [x.scale(s) for x in num]
        for c, e in den_ops:
            term = _t_div_binomial_t2(term, c, e, t_order, ctx)
        acc = [x + y for x, y in zip(acc, term)]
        nxt = [zero] * (t_order + 1)
        for m, zs in enumerate(num):
            if not zs.terms:
                continue
            nxt[m] = nxt[m] + zs
            if m + 1 <= t_order:
                f = zmul(zs, zseries(ctx, {1: ctx.monomial(-ONE, k * u),
                                           -1: ctx.monomial(-ONE, k * u)}))
                nxt[m + 1] = nxt[m + 1] + f
                if m + 2 <= t_order:
                    nxt[m + 2] = nxt[m + 2] + zmul(zs, zseries(ctx, {0: ctx.monomial(ONE, 2 * k * u)}))
        num = nxt
        den_ops.append((a.coeff ** 2, 2 * ea + 2 * k * u))
        inv_qk = div_binomial(inv_qk, ONE, (k + 1) * u)
        k += 1
    return acc


def _zs_window(zs):
    return {d: (s.val, s.trunc, s.coeffs) for d, s in zs.terms.items()}


def _zs_agree_below(short, long):
    """short and long, one value elaborated to two orders, agree below the
    truncation short claims in each z-degree."""
    for d in set(short.terms) | set(long.terms):
        s, l = short.coefficient(d), long.coefficient(d)
        assert s.trunc <= l.trunc, d
        assert all(s.coefficient(e) == l.coefficient(e) for e in range(min(s.val, l.val), s.trunc)), d


# 2*q^(-1/2) lies on the D = 2 grid only
_GENFUN_AS = [qpow(1), qpow(2), mono(OMEGA, 1), mono(-1, 1), mono(1, 0), qpow(-1), mono(2, -HALF)]


def test_genfun_lhs_matches_per_factor_oracle(monkeypatch):
    new, parent = {}, {}
    for variant in (1, 2, 3, 4, 5):
        for a in _GENFUN_AS:
            for D in (1, 2) if variant != 3 else (2,):  # 3 has q^(1/2) parameters
                if (a.exp * D).denominator != 1:
                    continue
                for t_order in (0, 1, 4):
                    ctx = SeriesContext(D, 14 * D)
                    new[variant, a, D, t_order] = [_zs_window(x) for x in genfun_lhs(variant, a, t_order, ctx)]
                    parent[variant, a, D, t_order] = [
                        _zs_window(x) for x in parent_genfun_lhs(variant, a, t_order, ctx)]
    assert new == parent
    monkeypatch.setitem(globals(), "parent_t_phi", oracle_t_phi)
    monkeypatch.setitem(globals(), "parent_t_phi22_sym", oracle_t_phi22_sym)
    for (variant, a, D, t_order), got in new.items():
        want = parent_genfun_lhs(variant, a, t_order, SeriesContext(D, 14 * D))
        assert got == [_zs_window(x) for x in want], (variant, a, D, t_order)
    assert len(new) == (4 * (6 + 7) + 7) * 3  # D = 1 skips 2*q^(-1/2) and variant 3


def _random_aw(rng, D):
    def m():
        return mono(rng.choice([ONE, -ONE, OMEGA, CycRat(Fraction(1, 2)), CycRat(2, 1)]),
                    Fraction(rng.randint(-D, 2 * D), D))
    return AWParam(m(), m(), m(), m(), mono(rng.choice([ONE, -ONE, OMEGA]), Fraction(rng.randint(1, 2 * D), D)))


def test_rogers_and_aw_match_per_factor_oracles(monkeypatch):
    rng = random.Random(808)
    cases = []
    for _ in range(40):
        D = rng.choice([1, 2])
        ctx = SeriesContext(D, rng.randint(4, 24))
        n = rng.randint(0, 6)
        p = _random_aw(rng, D)
        try:
            want = _zs_window(parent_aw_poly(n, p, ctx))
        except ZeroDenominator:
            for f in (aw_poly, oracle_aw_poly):
                with pytest.raises(ZeroDenominator):
                    f(n, p, ctx)
            continue
        assert _zs_window(aw_poly(n, p, ctx)) == want, (n, p)
        assert _zs_window(oracle_aw_poly(n, p, ctx)) == want, (n, p)
        cases.append((n, RogersParam(p.a, p.base), ctx))
    new = [_zs_window(rogers_poly(n, p, ctx)) for n, p, ctx in cases]
    assert new == [_zs_window(parent_rogers_poly(n, p, ctx)) for n, p, ctx in cases]
    monkeypatch.setitem(globals(), "parent_poch_ratio_chain", oracle_poch_ratio_chain)
    assert new == [_zs_window(parent_rogers_poly(n, p, ctx)) for n, p, ctx in cases]
    assert len(cases) > 25


def test_rewritten_helpers_honest_across_truncations():
    rng = random.Random(909)
    for _ in range(12):
        D, N, k = rng.choice([1, 2]), rng.randint(4, 16), rng.randint(1, 8)
        n = rng.randint(0, 5)
        p = _random_aw(rng, D)
        try:
            short, long = aw_poly(n, p, SeriesContext(D, N)), aw_poly(n, p, SeriesContext(D, N + k))
        except ZeroDenominator:
            continue
        _zs_agree_below(short, long)
        rp = RogersParam(p.a, p.base)
        _zs_agree_below(rogers_poly(n, rp, SeriesContext(D, N)), rogers_poly(n, rp, SeriesContext(D, N + k)))
    for variant in (1, 2, 3, 4, 5):
        a = rng.choice(_GENFUN_AS)
        D, N, k = 2, rng.randint(6, 14), rng.randint(1, 8)
        short = genfun_lhs(variant, a, 3, SeriesContext(D, N))
        long = genfun_lhs(variant, a, 3, SeriesContext(D, N + k))
        for s, l in zip(short, long):
            _zs_agree_below(s, l)



_COEFF_TEXTS = ["", "-", "w*", "-w2*", "2*", "1/2*"]
_Z_EXPS = [Fraction(-2), Fraction(-1), -HALF, Fraction(0), HALF, Fraction(1), Fraction(3, 2)]


def _random_polynomial_text(rng, D) -> str:
    """rc, awp or cgf with random parameters on the 1/D grid, a positive
    base, and z = c*q^e for c among w, -w^2, 2, 1/2, 1 and -1 and e among
    negative, whole and half exponents; cgf's variant is now and then
    unknown."""
    def m(lo, hi, coeffs=_COEFF_TEXTS):
        return f"{rng.choice(coeffs)}q^({Fraction(rng.randint(lo * D, hi * D), D)})"

    n, z = rng.randint(0, 5), f"{rng.choice(_COEFF_TEXTS)}q^({rng.choice(_Z_EXPS)})"
    kind = rng.choice("rac")
    if kind == "r":
        return f"rc({n}; {m(-1, 2)}; {m(1, 2, ['', '-', 'w*'])}; {z})"
    if kind == "a":
        return f"awp({n}; {', '.join(m(-1, 2) for _ in range(4))}; {m(1, 2, ['', '-', 'w*'])}; {z})"
    return f"cgf({rng.randint(0, 6)}; {n}; {m(-1, 2)}; {z})"


def _build(e, ctx, z):
    """The polynomial of the call node e, built at the point z, or in z
    for None."""
    fields = _fold(e)[:-1]
    if isinstance(e, RogersC):
        n, a, base = fields
        return rogers_poly(n, RogersParam(a, base), ctx, z)
    if isinstance(e, AWPoly):
        n, *params, base = fields
        return aw_poly(n, AWParam(*params, base), ctx, z)
    variant, n, a = fields
    return genfun_lhs(variant, a, n, ctx, z)[n]


def _outcome(f):
    try:
        return f()
    except QrucibleError as exc:
        return type(exc), str(exc)


def _at_point(e, ctx, z):
    """The point build as a QSeries: it has no row but degree 0."""
    x = _build(e, ctx, z)
    assert set(x.rows) <= {0}
    return x.coefficient(0)


def test_point_build_matches_the_laurent_build_and_never_over_claims():
    """rc, awp and cgf built at z against the z-Laurent build taken at z.
    Both raise the same error, or the point build agrees with itself at a
    higher order below its trunc, and where the two builds differ below
    the smaller trunc, it is the Laurent build that over-claims: it drops
    a row or a term that is zero below the order, which z^m, m < 0, would
    bring below it. That happens only where the precision plan does not
    see the polynomial, and the Laurent build at the higher order, where
    it knows more, sides with the point build. Where the plan sees the
    polynomial, the planned trunc is at most the Laurent one and that at
    most the point one: the plan may over-pad a point build, never
    under-pad."""
    rng = random.Random(2710)
    builds = higher = lower = errors = wrong = 0
    while builds < 300:
        D = rng.choice([1, 2])
        e = parse(_random_polynomial_text(rng, D))
        z = as_monomial(e.z)
        if (z.exp * D).denominator != 1 or z.is_zero():
            continue  # the DSL builds these in z
        N, k = rng.randint(4, 16), rng.randint(1, 8)
        ctx = SeriesContext(D, N)
        point = _outcome(lambda: _at_point(e, ctx, z))
        laurent = _outcome(lambda: zsubst(_build(e, ctx, None), z))
        if isinstance(point, tuple) or isinstance(laurent, tuple):
            assert point == laurent, unparse(e)
            errors += 1
            continue
        builds += 1
        assert elaborate(e, ctx) == point
        longer = _at_point(e, SeriesContext(D, N + k), z)
        assert longer.trunc >= point.trunc, unparse(e)
        lo = min(point.val, longer.val)
        assert all(point.coefficient(j) == longer.coefficient(j) for j in range(lo, point.trunc)), unparse(e)
        plan_lo, _, planned = _plan(e, ctx)
        seen = plan_lo != -math.inf
        lo = min(point.val, laurent.val)
        differ = [j for j in range(lo, min(point.trunc, laurent.trunc))
                  if point.coefficient(j) != laurent.coefficient(j)]
        if differ:
            again = zsubst(_build(e, SeriesContext(D, N + k), None), z)
            assert not seen, unparse(e)
            assert all(again.coefficient(j) == point.coefficient(j) for j in differ if j < again.trunc)
            wrong += 1
        if seen:
            assert laurent.trunc >= planned and point.trunc >= laurent.trunc, unparse(e)
        higher += point.trunc > laurent.trunc
        lower += point.trunc < laurent.trunc
    # both outcomes are met, and the point build is not the Laurent one
    assert errors > 20 and higher > 5, (errors, higher, lower, wrong)
