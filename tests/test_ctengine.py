import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from qrucible.cyclotomic import CycRat, OMEGA, OMEGA2, ONE
from qrucible.ctengine import (
    ZPochFamily,
    ZSeries,
    balanced_theta_ct,
    constant_term,
    ct_product,
    phi21_contour,
    plan_window,
    theta_contour_ct,
    triple_sum_ct,
    zmul,
    zproduct,
    zs_one,
)
from qrucible.dsl import _collect_ct, elaborate, parse
from qrucible.errors import BalanceViolated, EvalError, NonPositiveBaseExponent, WindowOverflow
from qrucible.qkernel import INF, f_triple, phi_series, poch, pochhammer_multi
from qrucible.series import Monomial, QSeries, SeriesContext, equal_to_order, mono, qpow


# -- the per-factor product: the reference for zproduct -------------------


@dataclass(frozen=True)
class ZFactor:
    """(1 - coeff * q^qexp * z^zdeg); qexp in scaled units, zdeg != 0."""

    coeff: CycRat
    qexp: int
    zdeg: int


def _apply_factor(x: ZSeries, f: ZFactor, lo: int, hi: int, cancelled: list) -> ZSeries:
    out = dict(x.terms)
    for d, s in x.terms.items():
        t = d + f.zdeg
        if lo <= t <= hi:
            shifted = s.mul_monomial(-f.coeff, f.qexp)
            out[t] = out[t] + shifted if t in out else shifted
            if out[t].is_zero() and not shifted.is_zero():
                cancelled.append(t)
    return ZSeries(x.ctx, out)


def _apply_inverse_factor(x: ZSeries, f: ZFactor, lo: int, hi: int, cancelled: list) -> ZSeries:
    # y = x / (1 - c q^e z^d): y[m] = x[m] + c q^e y[m - d], swept in the
    # direction of increasing m*sign(d) so the recurrence is causal.
    out: dict = {}
    degs = range(lo, hi + 1) if f.zdeg > 0 else range(hi, lo - 1, -1)
    for m in degs:
        s = x.terms.get(m, None)
        prev = out.get(m - f.zdeg, None)
        if prev is not None and not prev.is_zero():
            inc = prev.mul_monomial(f.coeff, f.qexp)
            if s is not None and (s + inc).is_zero():
                cancelled.append(m)
            s = inc if s is None else s + inc
        if s is not None:
            out[m] = s
    return ZSeries(x.ctx, out)


def factor_product(factors, ctx: SeriesContext, window: int, cancelled=None) -> ZSeries:
    """Product of (1 - c q^e z^d)^(+-1), one factor at a time, starting from
    1 on [-window, window]; the degrees where a factor cancelled a row to
    zero are appended to `cancelled`."""
    cancelled = [] if cancelled is None else cancelled
    acc = zs_one(ctx)
    for f, inverted in factors:
        step = _apply_inverse_factor if inverted else _apply_factor
        acc = step(acc, f, -window, window, cancelled)
    return acc


def family_members(fam: ZPochFamily, ctx: SeriesContext):
    """The factors of the family, an infinite one cut below the order."""
    eb = ctx.scale(fam.base.exp)
    e = ctx.scale(fam.qexp)
    c = fam.coeff
    j = 0
    while (fam.count is None or j < fam.count) and (e < ctx.order or fam.count is not None):
        yield ZFactor(c, e, fam.zdeg)
        c = c * fam.base.coeff
        e += eb
        j += 1
        if fam.count is None and e >= ctx.order:
            break


def oracle_zproduct(families, ctx, window, cancelled=None) -> ZSeries:
    factors = [(f, fam.inverted) for fam in families for f in family_members(fam, ctx)]
    return factor_product(factors, ctx, window, cancelled)


def oracle_ct_product(families, ctx, degree=0) -> QSeries:
    window, margin = plan_window(families, ctx)
    work = SeriesContext(ctx.denom, ctx.order + margin)
    z = oracle_zproduct(families, work, window + abs(degree))
    ct = z.terms.get(degree, work.zero())
    return QSeries(ctx, ct.val, list(ct.coeffs), min(ct.trunc, ctx.order))


_COEFFS = [ONE, -ONE, CycRat(2), CycRat(Fraction(1, 2)), OMEGA, -OMEGA2, ONE + OMEGA,
           CycRat(Fraction(-3, 2))]


def _random_family(rng, denom) -> ZPochFamily:
    count = rng.choice([None, None, 0, 1, 2, 3, 5])
    # finite families also get bases q^0 and q^(-k), split into factors
    be = rng.randint(1, 3) if count is None else rng.randint(-2, 3)
    base = Monomial(rng.choice([ONE, -ONE, OMEGA, CycRat(2)]),
                    Fraction(be, denom if rng.random() < 0.3 else 1))
    qexp = Fraction(rng.randint(-3 * denom, 4 * denom), denom)
    zdeg = rng.choice([1, -1, 2, -2, 3, -3])
    return ZPochFamily(rng.choice(_COEFFS), qexp, zdeg, base, rng.random() < 0.4, count)


def _window(s: QSeries):
    return (s.val, s.trunc, s.coeffs)


@pytest.fixture
def ctx():
    return SeriesContext(1, 20)


def test_constant_term_picks_degree_zero(ctx):
    x = ZSeries(ctx, {1: ctx.monomial(ONE, 2), 0: ctx.monomial(CycRat(3), 0),
                      -1: ctx.monomial(ONE, 1)})
    ct = constant_term(x)
    assert ct.coefficient(0) == CycRat(3)
    pure = ZSeries(ctx, {4: ctx.one()})
    assert constant_term(pure).is_zero()


def test_zmul_laurent_identity(ctx):
    x = ZSeries(ctx, {1: ctx.one(), 0: ctx.one(), -1: ctx.one()})
    y = zs_one(ctx)
    p = zmul(x, y)
    assert set(p.terms) == {-1, 0, 1}
    b1 = ZSeries(ctx, {0: ctx.one(), 1: ctx.monomial(-ONE, 1)})   # 1 - qz
    b2 = ZSeries(ctx, {0: ctx.one(), 1: ctx.monomial(ONE, 1)})    # 1 + qz
    p2 = zmul(b1, b2)
    assert set(p2.terms) == {0, 2}
    assert p2.coefficient(2).coefficient(2) == -ONE


def test_zproduct_single_factor(ctx):
    z = zproduct([ZPochFamily(ONE, Fraction(1), 1, qpow(1), count=1)], ctx, window=4)
    assert z.window == (0, 1)
    assert z.coefficient(1) == ctx.monomial(-ONE, 1)


def test_inverse_z_expansion_brute_force():
    # (1/z; q^2)_inf against its first 12 factors multiplied directly
    ctx = SeriesContext(1, 24)
    z = zproduct([ZPochFamily(ONE, Fraction(0), -1, qpow(2))], ctx, window=12)
    brute = factor_product([(ZFactor(ONE, 2 * j, -1), False) for j in range(12)], ctx, 12)
    assert set(z.terms) == set(brute.terms)
    for d, s in brute.terms.items():
        assert _window(z.terms[d]) == _window(s)
    # degree -n carries q^(n(n-1)) growth: check the leading exponents
    for n in range(1, 6):
        c = z.terms[-n]
        assert c.val == n * (n - 1)
    assert z.terms[-2].coefficient(2) == ONE  # q^2 from exponents {0,2}


def test_theta_factorization_matches_triple_product(ctx):
    # (q^2 z; q^2)(1/z; q^2) * (q^2;q^2)_inf = two-sided theta in 1/z
    fams = [
        ZPochFamily(ONE, Fraction(2), 1, qpow(2)),
        ZPochFamily(ONE, Fraction(0), -1, qpow(2)),
    ]
    z = zproduct(fams, ctx, window=8)
    scalar = poch(qpow(2), qpow(2), ctx)
    for d in range(-4, 5):
        # z^d comes from index -d of the theta sum in 1/z
        got = z.terms.get(d, ctx.zero()) * scalar
        e = d * (d + 1)
        want = ctx.monomial((-ONE) ** (d % 2), e) if e < ctx.order else ctx.zero()
        assert equal_to_order(got, want, min(got.trunc, 18))


def test_zproduct_matches_per_factor_oracle():
    # seeded random families: negative q-exponents (rows with trunc below
    # the order), Q(w) coefficients, finite counts (bases q^0 and q^(-k)
    # too), z-degrees +-1..+-3, inverted families, the 1/2 grid
    rng = random.Random(20261018)
    exact = low_trunc = cancelling = 0
    for _ in range(400):
        denom = rng.choice([1, 1, 2])
        ctx = SeriesContext(denom, rng.randint(4, 16))
        fams = [_random_family(rng, denom) for _ in range(rng.randint(1, 4))]
        window = rng.randint(1, 6)
        cancelled: list = []
        want = oracle_zproduct(fams, ctx, window, cancelled)
        got = zproduct(fams, ctx, window)
        low_trunc += any(s.trunc < ctx.order for s in want.terms.values())
        if not cancelled:
            exact += 1
            assert set(got.terms) == set(want.terms), fams
            for d, s in want.terms.items():
                assert _window(got.terms[d]) == _window(s), (fams, d)
            continue
        # A factor cancelled a row to exact zero and the oracle dropped it,
        # and with it that row's trunc. zproduct keeps the trunc of every
        # row pair (QSeries.__mul__'s rule), so it may claim less, never
        # more, and the values agree below the smaller trunc.
        cancelling += 1
        for d in set(got.terms) & set(want.terms):
            a, b = got.terms[d], want.terms[d]
            assert a.trunc <= b.trunc and equal_to_order(a, b, a.trunc), (fams, d)
    assert exact > 300 and low_trunc > 100 and cancelling > 0


def test_ct_product_matches_per_factor_oracle():
    # the narrowed result is the same, cancellations included, also away
    # from degree 0 and with a nonzero margin
    rng = random.Random(7)
    checked = with_margin = 0
    for _ in range(200):
        denom = rng.choice([1, 1, 2])
        ctx = SeriesContext(denom, rng.randint(4, 12))
        fams = [_random_family(rng, denom) for _ in range(rng.randint(1, 3))]
        # a 1/z-type family bounds the window
        fams.append(ZPochFamily(rng.choice(_COEFFS), Fraction(rng.randint(-denom, 2 * denom), denom),
                                -rng.randint(1, 2), qpow(rng.randint(1, 2))))
        rng.shuffle(fams)
        degree = rng.choice([0, 0, 1, -1, 2, -3])
        try:
            window, margin = plan_window(fams, ctx)
        except WindowOverflow:
            continue
        if margin > 12:
            continue  # keeps the per-factor oracle fast
        want = oracle_ct_product(fams, ctx, degree)
        got = ct_product(fams, ctx, degree=degree)
        assert _window(got) == _window(want), (fams, degree)
        checked += 1
        with_margin += margin > 0
    assert checked > 100 and with_margin > 30


def test_infinite_family_needs_a_growing_base():
    with pytest.raises(NonPositiveBaseExponent):
        ZPochFamily(ONE, Fraction(1), 1, mono(1, 0))
    with pytest.raises(NonPositiveBaseExponent):
        ZPochFamily(ONE, Fraction(1), 1, qpow(-1))
    # in a suite this is a SKIP reason, not a hang
    with pytest.raises(EvalError):
        elaborate(parse("ct{qp(q*z; 1; inf)*qp(1/z; q; inf)}"), SeriesContext(1, 10))
    # finite families with a shrinking base plan and evaluate
    ctx = SeriesContext(1, 8)
    shrinking = ZPochFamily(ONE, Fraction(-1), 1, qpow(-1), count=3)
    fams = [shrinking, ZPochFamily(ONE, Fraction(0), -1, qpow(1))]
    assert _window(ct_product(fams, ctx)) == _window(oracle_ct_product(fams, ctx))
    # as the 1/z supply, three factors reach z^-3 at most: the window ends
    # there, and the product agrees with the per-factor oracle
    neg = ZPochFamily(ONE, Fraction(-1), -1, qpow(-1), count=3)
    window, margin = plan_window([neg], ctx)
    assert window == 4 + 4 and margin > 0
    fams = [shrinking, neg]
    assert _window(ct_product(fams, ctx)) == _window(oracle_ct_product(fams, ctx))


def test_window_planning_lists_only_usable_factors():
    # degree -n draws at most n factors from one family, so a long 1/z
    # family costs no more to plan than an infinite one
    ctx = SeriesContext(1, 20)
    long = ZPochFamily(ONE, Fraction(0), -1, qpow(1), count=10**7)
    assert plan_window([long], ctx) == plan_window([ZPochFamily(ONE, Fraction(0), -1, qpow(1))], ctx)
    # a shrinking base's last factors are its cheapest: q^(-10^6) pays for
    # any degree, so no window is enough
    with pytest.raises(WindowOverflow):
        plan_window([ZPochFamily(ONE, Fraction(5), -1, qpow(-1), count=10**6)], ctx)


@pytest.mark.parametrize("text", [
    # four 1/z families together return from z^-n at 4x the rate of one
    "ct{qp(1/z, 1/z, 1/z, 1/z; q; inf)/qp(q*z, q*z, q*z, q*z; q; inf)}",
    # the inverted q/z family returns from z^-n at cost about n
    "ct{qp(1/z; q; inf)/qp(q*z, q/z; q; inf)}",
])
def test_window_covers_the_whole_negative_supply(text):
    ctx = SeriesContext(1, 40)
    families, scalars, shifts = [], [], []
    _collect_ct(parse(text).integrand, False, families, scalars, shifts)
    window, _ = plan_window(families, ctx)
    got = ct_product(families, ctx)
    wide = ct_product(families, ctx, window=3 * window)
    assert got.trunc == wide.trunc == 40
    assert got == wide


def test_triple_sum_ct_matches_multisum(ctx):
    for u, v, w in [
        (qpow(1), mono(1, 0), qpow(3)),
        (qpow(2), qpow(4), qpow(9)),
    ]:
        ct = triple_sum_ct(u, v, w, ctx)
        ms = f_triple(u, v, w, ctx)
        assert equal_to_order(ct, ms, min(ct.trunc, ms.trunc, 20))


def test_window_enlargement_stability(ctx):
    u, v, w = qpow(2), qpow(-1), qpow(6)
    base = triple_sum_ct(u, v, w, ctx)
    wider = triple_sum_ct(u, v, w, ctx, pad=8)
    assert equal_to_order(base, wider, min(base.trunc, wider.trunc))
    a, b, c, t = qpow(1), qpow(2), qpow(3), qpow(1)
    p1 = phi21_contour(a, b, c, t, ctx)
    p2 = phi21_contour(a, b, c, t, ctx, pad=8)
    assert equal_to_order(p1, p2, min(p1.trunc, p2.trunc))


def test_phi21_contour_representation():
    ctx = SeriesContext(1, 25)
    samples = [
        (qpow(1), qpow(2), qpow(3), qpow(1)),
        (qpow(2), qpow(3), qpow(2), qpow(1)),
        (mono(OMEGA, 1), mono(OMEGA2, 1), qpow(2), qpow(2)),
    ]
    for a, b, c, t in samples:
        lhs = phi21_contour(a, b, c, t, ctx)
        rhs = phi_series([a, b], [c], qpow(1), t, ctx)
        assert equal_to_order(lhs, rhs, min(lhs.trunc, rhs.trunc, 25))


def test_balanced_integral_two_forms():
    ctx = SeriesContext(1, 25)
    q = qpow(1)
    samples = [
        ([qpow(2), qpow(3)], [qpow(1), qpow(2), qpow(2)]),
        ([qpow(2), qpow(2)], [qpow(1), qpow(1), qpow(2)]),
        ([mono(OMEGA, 2), mono(OMEGA2, 2)], [qpow(1), qpow(1), qpow(2)]),
    ]
    for alphas, betas in samples:
        ct = balanced_theta_ct(alphas, betas, ctx)
        b1, b2, b3 = betas
        a1, a2 = alphas
        # 2phi1 form
        pref = pochhammer_multi([b1, a1 * b1.inv()], q, INF, ctx) * poch(q, q, ctx).inverse()
        rhs1 = pref * phi_series([a2 * b2.inv(), a2 * b3.inv()], [b1], q, a1 * b1.inv(), ctx)
        assert equal_to_order(ct, rhs1, min(ct.trunc, rhs1.trunc, 25))
        # 2phi2 form
        pref2 = pochhammer_multi([b2, b3], q, INF, ctx) * poch(q, q, ctx).inverse()
        rhs2 = pref2 * phi_series([a1 * b1.inv(), a2 * b1.inv()], [b2, b3], q, b1, ctx)
        assert equal_to_order(ct, rhs2, min(ct.trunc, rhs2.trunc, 25))


def test_balanced_integral_degeneration_oracle():
    # beta3 = alpha2/beta1 makes the 2phi1 collapse to a q-binomial
    # product: the integral equals (q^2; q)_inf exactly
    ctx = SeriesContext(1, 25)
    ct = balanced_theta_ct([qpow(2), qpow(3)], [qpow(1), qpow(2), qpow(2)], ctx)
    oracle = poch(qpow(2), qpow(1), ctx)
    assert equal_to_order(ct, oracle, min(ct.trunc, oracle.trunc, 25))


def test_balance_violated():
    ctx = SeriesContext(1, 10)
    with pytest.raises(BalanceViolated):
        balanced_theta_ct([qpow(1), qpow(1)], [qpow(1), qpow(1), qpow(1)], ctx)
    with pytest.raises(BalanceViolated):
        balanced_theta_ct([qpow(1)], [qpow(1), qpow(1), qpow(1)], ctx)


def test_split_2phi2_contour():
    # with paired denominators (b, -b) and alpha product -b1 b^2 q, the
    # integral is a single 2phi2 with lowers (bq, -bq)
    ctx = SeriesContext(1, 25)
    q = qpow(1)
    samples = [
        ((qpow(2), mono(-1, 2)), (qpow(1), qpow(1))),
        ((qpow(3), mono(-1, 1)), (qpow(1), qpow(1))),
        ((mono(OMEGA, 2), mono(-OMEGA2, 2)), (qpow(1), qpow(1))),
    ]
    for (a1, a2), (b1, b2) in samples:
        ct = theta_contour_ct([a1, a2], [b1, b2, -b2], ctx)
        pref = poch(b2 * b2 * qpow(2), qpow(2), ctx) * poch(q, q, ctx).inverse()
        rhs = pref * phi_series(
            [a1 * b1.inv(), a2 * b1.inv()], [b2 * q, -(b2 * q)], q, b1, ctx
        )
        assert equal_to_order(ct, rhs, min(ct.trunc, rhs.trunc, 25))


def test_no_negative_supply_raises():
    ctx = SeriesContext(1, 10)
    with pytest.raises(WindowOverflow):
        ct_product([ZPochFamily(ONE, Fraction(1), 1, qpow(1))], ctx)
