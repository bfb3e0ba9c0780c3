from fractions import Fraction
from itertools import permutations

import pytest

from qrucible.cyclotomic import CycRat, OMEGA, ONE
from qrucible.ctengine import zsubst
from qrucible.errors import ZeroDenominator
from qrucible.ortho import (
    AWParam,
    RogersParam,
    aw_poly,
    genfun_lhs,
    genfun_rhs_coeff,
    rogers_at_minus_half,
    rogers_half_4phi3,
    rogers_half_sum,
    rogers_poly,
)
from qrucible.qkernel import poch
from qrucible.series import (
    Monomial,
    SeriesContext,
    div_binomial,
    equal_to_order,
    mono,
    monomial_to_series,
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
        ).scale(CycRat(2))
        half_x = _half_x(ctx1)
        rhs = _zmul_scalar_x(_subst_square(pn, ctx1), half_x).scale(pref)
        assert zs_equal(lhs, rhs, 40), n


def _subst_square(zs, ctx):
    from qrucible.ctengine import ZSeries

    return ZSeries(ctx, {2 * d: s for d, s in zs.terms.items()})


def _half_x(ctx):
    # x = (z + 1/z)/2 as a ZSeries
    from qrucible.ctengine import ZSeries

    h = CycRat(Fraction(1, 2))
    return ZSeries(ctx, {1: ctx.monomial(h, 0), -1: ctx.monomial(h, 0)})


def _zmul_scalar_x(zs, x):
    from qrucible.ctengine import zmul

    return zmul(zs, x)


def test_cube_root_value_sweep():
    ctx = SeriesContext(2, 70)
    for a in (qpow(1), qpow(2), mono(OMEGA, 1)):
        p = RogersParam(a, qpow(1))
        for n in range(13):
            lhs = rogers_at_minus_half(n, p, ctx)
            rhs = rogers_half_sum(n, p, ctx)
            assert equal_to_order(lhs, rhs, min(lhs.trunc, rhs.trunc, 55)), (a, n)


def test_cube_root_small_cases():
    ctx = SeriesContext(1, 30)
    p = RogersParam(qpow(1), qpow(1))
    one = rogers_at_minus_half(0, p, ctx)
    assert equal_to_order(one, ctx.one(), one.trunc)
    # n=1: both sides are -(1-a)/(1-q)
    lhs = rogers_at_minus_half(1, p, ctx)
    ratio = div_binomial(ctx.one() - monomial_to_series(qpow(1), ctx), ONE, 1)
    assert equal_to_order(lhs, -ratio, min(lhs.trunc, 28))
    # n=6, a=q against the substitution oracle
    l6 = rogers_at_minus_half(6, p, ctx)
    r6 = zsubst(rogers_poly(6, p, ctx), mono(OMEGA, 0))
    assert equal_to_order(l6, r6, min(l6.trunc, r6.trunc))


def test_balanced_4phi3_restatement():
    ctx = SeriesContext(1, 70)
    p = RogersParam(mono(OMEGA, 1), qpow(1))
    for n in range(9):
        lhs = rogers_at_minus_half(n, p, ctx)
        rhs = rogers_half_4phi3(n, p, ctx)
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
    from qrucible.dsl import elaborate, parse
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
    from qrucible.dsl import elaborate, parse

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
    from qrucible.dsl import elaborate, parse
    from qrucible.qkernel import phi_series

    ctx = SeriesContext(4, 60)
    lhs = elaborate(parse("phi([q^(3/4)*w, -q^(3/4)*w]; [-q^(3/2)]; q; q^(1/2)*w2)"), ctx)
    rhs = elaborate(parse(
        "qp(q^(9/2); q^2; inf)*qp(q^(3/2); q^6; inf)/qp(q^(1/2)*w2, q^2; q; inf)"
        "*phi([q^(5/2), q^(9/2), q^(13/2)]; [q^(13/2), q^(17/2)]; q^6; q^(3/2))"), ctx)
    assert equal_to_order(lhs, rhs, min(lhs.trunc, rhs.trunc, ctx.order))

    direct = phi_series(
        [mono(OMEGA, Fraction(3, 4)), mono(-OMEGA, Fraction(3, 4))],
        [mono(-1, Fraction(3, 2))],
        qpow(1),
        mono(OMEGA * OMEGA, Fraction(1, 2)),
        ctx,
    )
    assert equal_to_order(lhs, direct, min(lhs.trunc, direct.trunc))
