import itertools
import random
from fractions import Fraction

import pytest

from qrucible.cyclotomic import CycRat, OMEGA, OMEGA2, ONE
from qrucible.errors import (
    DivergentSpec,
    NonPositiveBaseExponent,
    NonSummable,
    ZeroDenominator,
)
from qrucible.harness import partition_count
from qrucible.qkernel import (
    INF,
    NAMED_SUMS,
    MultiSumSpec,
    PhiSpec,
    PochSpec,
    _zero_factor_index,
    capparelli_spec,
    f_triple,
    f_triple_spec,
    multisum,
    phi,
    phi_series,
    poch,
    pochhammer,
    pochhammer_multi,
    theta_sum,
    tsum_h_spec,
)
from qrucible.series import (
    SeriesContext,
    div_binomial,
    equal_to_order,
    mono,
    monomial_to_series,
    mul_binomial,
    qpow,
)


@pytest.fixture
def ctx():
    return SeriesContext(1, 40)


def test_poch_empty_and_finite(ctx):
    assert poch(qpow(2), qpow(1), ctx, 0).coefficient(0) == ONE
    p = poch(qpow(1), qpow(1), ctx, 2)  # (q;q)_2 = 1 - q - q^2 + q^3
    assert [p.coefficient(k) for k in range(4)] == [ONE, -ONE, -ONE, ONE]


def test_poch_infinite_pentagonal():
    ctx = SeriesContext(1, 8)
    e = poch(qpow(1), qpow(1), ctx)
    got = [e.coefficient(k).re for k in range(8)]
    assert got == [1, -1, -1, 0, 0, 1, 0, 1]


def test_poch_nonpositive_base(ctx):
    with pytest.raises(NonPositiveBaseExponent):
        poch(qpow(1), mono(1, 0), ctx)


def test_poch_multi_partition_oracle(ctx):
    s = pochhammer_multi([qpow(1), qpow(4)], qpow(5), INF, ctx).inverse()
    for n in range(30):
        assert s.coefficient(n).re == partition_count(n, modulus=5, residues=(1, 4))
    assert [s.coefficient(n).re for n in range(7)] == [1, 1, 1, 1, 2, 2, 3]


def test_poch_multi_empty_and_zero_factor(ctx):
    assert pochhammer_multi([], qpow(1), INF, ctx).coefficient(0) == ONE
    z = pochhammer_multi([qpow(1), mono(1, 0), qpow(-1)], qpow(1), INF, ctx)
    assert z.is_zero()  # the z=1 factor (1 - 1) kills the product


def test_poch_recurrence_randomized(ctx):
    rng = random.Random(11)
    for _ in range(15):
        a = mono(CycRat(rng.randint(-2, 2), rng.randint(-1, 1)), rng.randint(-2, 3))
        if a.is_zero():
            continue
        b = qpow(rng.randint(1, 3))
        n = rng.randint(0, 5)
        lhs = poch(a, b, ctx, n + 1)
        step = monomial_to_series(a * b ** n, ctx)
        rhs = poch(a, b, ctx, n) * (ctx.one() - step)
        assert equal_to_order(lhs, rhs, min(lhs.trunc, rhs.trunc))


def test_poch_splitting_randomized(ctx):
    rng = random.Random(13)
    for _ in range(10):
        a = mono(CycRat(rng.choice([-1, 1])), rng.randint(-1, 3))
        b = qpow(rng.randint(1, 3))
        n = rng.randint(0, 5)
        full = poch(a, b, ctx)
        split = poch(a, b, ctx, n) * poch(a * b ** n, b, ctx)
        assert equal_to_order(full, split, min(full.trunc, split.trunc))


@pytest.mark.parametrize("zc,ze", [(1, 1), (1, 2), (-1, 1), (None, 1)])
def test_euler_identities(ctx, zc, ze):
    z = mono(OMEGA, ze) if zc is None else mono(zc, ze)
    # sum z^n/(q;q)_n * (z;q)_inf = 1
    s = phi_series([mono(0)], [], qpow(1), z, ctx)
    p = s * poch(z, qpow(1), ctx)
    assert equal_to_order(p, ctx.one(), p.trunc)
    # sum q^C(n,2) z^n/(q;q)_n = (-z;q)_inf
    s2 = phi_series([], [], qpow(1), -z, ctx)
    rhs2 = poch(-z, qpow(1), ctx)
    assert equal_to_order(s2, rhs2, min(s2.trunc, rhs2.trunc, 40))


def test_q_binomial_theorem_sampled(ctx):
    for a, z in [(qpow(2), qpow(1)), (mono(-1, 1), qpow(2)), (mono(OMEGA, 1), qpow(1))]:
        lhs = phi_series([a], [], qpow(1), z, ctx)
        rhs = poch(a * z, qpow(1), ctx) * poch(z, qpow(1), ctx).inverse()
        assert equal_to_order(lhs, rhs, min(lhs.trunc, rhs.trunc))


def test_phi_geometric(ctx):
    p = phi_series([qpow(1)], [], qpow(1), qpow(1), ctx)
    geo = (ctx.one() - monomial_to_series(qpow(1), ctx)).inverse()
    assert equal_to_order(p, geo, min(p.trunc, geo.trunc))


def test_phi_telescoping(ctx):
    p = phi_series([qpow(3)], [], qpow(1), qpow(1), ctx)
    rhs = pochhammer_multi([qpow(1), qpow(2), qpow(3)], qpow(1), 1, ctx).inverse()
    assert equal_to_order(p, rhs, min(p.trunc, rhs.trunc))


def test_bailey_daum_sampled(ctx):
    # 2phi1(a, b; aq/b; q, -q/b) with (a, b) = (q^2, -1) and (q, -1/q)
    for a, b in [(qpow(2), mono(-1, 0)), (qpow(1), mono(-1, -1))]:
        c = a * qpow(1) * b.inv()
        arg = -(qpow(1) * b.inv())
        lhs = phi_series([a, b], [c], qpow(1), arg, ctx)
        rhs = (
            poch(mono(-1, 1), qpow(1), ctx)
            * pochhammer_multi([a * qpow(1), a * qpow(2) * (b * b).inv()], qpow(2), INF, ctx)
            * pochhammer_multi([c, arg * qpow(0)], qpow(1), INF, ctx).inverse()
        )
        assert equal_to_order(lhs, rhs, min(lhs.trunc, rhs.trunc))


def test_q_gauss_sampled(ctx):
    for a, b, c in [
        (qpow(1), qpow(1), qpow(3)),
        (qpow(2), qpow(1), qpow(4)),
        (mono(OMEGA, 1), mono(OMEGA2, 1), qpow(4)),
    ]:
        arg = c * (a * b).inv()
        lhs = phi_series([a, b], [c], qpow(1), arg, ctx)
        rhs = pochhammer_multi([c * a.inv(), c * b.inv()], qpow(1), INF, ctx) * \
            pochhammer_multi([c, arg], qpow(1), INF, ctx).inverse()
        assert equal_to_order(lhs, rhs, min(lhs.trunc, rhs.trunc))


def test_heine_type_transform_sampled(ctx):
    for a, b, c, z in [
        (qpow(1), qpow(2), qpow(3), qpow(1)),
        (qpow(2), qpow(2), qpow(3), qpow(2)),
    ]:
        lhs = phi_series([a, b], [c], qpow(1), z, ctx)
        pref = pochhammer_multi([a * z, b * z], qpow(1), INF, ctx) * \
            pochhammer_multi([c, z], qpow(1), INF, ctx).inverse()
        rhs = pref * phi_series([z, a * b * z * c.inv()], [a * z, b * z], qpow(1), c, ctx)
        assert equal_to_order(lhs, rhs, min(lhs.trunc, rhs.trunc))


def test_phi_nonsummable(ctx):
    with pytest.raises(NonSummable):
        phi_series([qpow(1)], [], qpow(1), mono(1, 0), ctx)  # |z| not shrinking
    with pytest.raises(NonSummable):
        phi_series([qpow(1), qpow(1), qpow(1)], [qpow(2)], qpow(1), qpow(1), ctx)


def test_phi_zero_denominator(ctx):
    with pytest.raises(ZeroDenominator):
        phi_series([qpow(1)], [qpow(-2)], qpow(1), qpow(1), ctx)


def test_phi_terminating_upper(ctx):
    # upper q^(-3) terminates the series after 4 terms; no error from the
    # negative-exponent lower q^(-1) because it never hits an exact zero
    p = phi_series([qpow(-3)], [mono(OMEGA, -1)], qpow(1), qpow(5), ctx)
    assert p.trunc > 0


def test_multisum_trivial(ctx):
    f0 = f_triple(mono(0), mono(0), mono(0), ctx)
    assert equal_to_order(f0, ctx.one(), f0.trunc)
    f = f_triple(qpow(1), mono(1, 0), qpow(3), ctx)
    assert f.coefficient(0) == ONE


def test_multisum_divergent_spec(ctx):
    bad = MultiSumSpec(
        quad=((0,),),
        lin=(1,),
        signs=(0,),
        denom_args=(qpow(1),),
        denom_bases=(qpow(1),),
        coeffs=(mono(1, 0),),
    )
    with pytest.raises(DivergentSpec):
        multisum(bad, ctx)


def test_capparelli_double_sum_brute_force():
    # oracle: direct lattice enumeration with plain Fraction polynomials
    ctx = SeriesContext(1, 30)
    got = multisum(capparelli_spec(ctx), ctx)
    acc = [Fraction(0)] * 30
    for j in range(6):
        for k in range(4):
            e = 2 * j * j + 6 * j * k + 6 * k * k
            if e >= 30:
                continue
            den = [Fraction(1)]
            for m in range(1, j + 1):
                den = _mul_binom(den, m, 30)
            for m in range(1, k + 1):
                den = _mul_binom(den, 3 * m, 30)
            inv = _inv_poly(den, 30)
            for i, c in enumerate(inv):
                if e + i < 30:
                    acc[e + i] += c
    for e in range(30):
        assert got.coefficient(e).re == acc[e]


def _mul_binom(poly, j, upto):
    out = list(poly) + [Fraction(0)] * max(0, min(upto, len(poly) + j) - len(poly))
    out = out[:upto]
    for i in range(len(out) - 1, -1, -1):
        if i - j >= 0 and i - j < len(poly):
            out[i] -= poly[i - j]
    return out


def _inv_poly(poly, upto):
    out = [Fraction(0)] * upto
    out[0] = 1 / poly[0]
    for k in range(1, upto):
        s = Fraction(0)
        for i in range(1, min(k, len(poly) - 1) + 1):
            s += poly[i] * out[k - i]
        out[k] = -out[0] * s
    return out


def test_half_grid_multisum_requires_even_denominator():
    from qrucible.errors import ExponentNotRepresentable

    with pytest.raises(ExponentNotRepresentable):
        tsum_h_spec(SeriesContext(1, 20))


def test_theta_zero_at_z_one():
    ctx = SeriesContext(1, 30)
    t = theta_sum(mono(1, 0), ctx)
    assert t.is_zero()
    p = pochhammer_multi([qpow(1), mono(1, 0), qpow(1)], qpow(1), INF, ctx)
    assert p.is_zero()


def test_theta_matches_product():
    ctx = SeriesContext(1, 21)
    for z in [qpow(2), mono(OMEGA, 1), mono(-1, 1)]:
        t = theta_sum(z, ctx)
        p = pochhammer_multi([qpow(1), z, qpow(1) * z.inv()], qpow(1), INF, ctx)
        assert equal_to_order(t, p, min(t.trunc, p.trunc, 20))


def test_multisum_agrees_with_phi_reduction():
    # F(q,1,q^3) equals its prefactor-times-2phi1 reduction termwise
    ctx = SeriesContext(1, 25)
    f = f_triple(qpow(1), mono(1, 0), qpow(3), ctx)
    pref = pochhammer_multi([mono(-1, 0), mono(OMEGA2, 1)], qpow(2), INF, ctx)
    ph = phi_series(
        [mono(OMEGA, -1), mono(-OMEGA, 1)], [mono(-1, 0)], qpow(2), mono(OMEGA2, 1), ctx
    )
    red = pref * ph
    assert equal_to_order(f, red, min(f.trunc, red.trunc, 25))


def sequential_pochhammer(spec, ctx):
    """Oracle: (a; b)_n one mul_binomial at a time, stopping an infinite
    product once the factor exponent plus the valuation reaches the
    truncation."""
    a, b = spec.arg, spec.base
    if a.is_zero():
        return ctx.one()
    eb, e, c = ctx.scale(b.exp), ctx.scale(a.exp), a.coeff
    acc = ctx.one()
    k = 0
    while e + acc.val < acc.trunc if spec.count is INF else k < spec.count:
        if e == 0 and c == ONE:
            return ctx.zero()
        acc = mul_binomial(acc, c, e)
        c, e, k = c * b.coeff, e + eb, k + 1
    return acc


def leaf_product_multisum(spec, ctx):
    """Oracle: every lattice point below the order as c*q^e times the m
    rows 1/(d_i; b_i)_(k_i), one QSeries product per row, summed as
    QSeries."""
    m = len(spec.lin)
    A = spec.quad
    eff = [spec.lin[i] + ctx.scale(spec.coeffs[i].exp) for i in range(m)]
    bounds = []
    for i in range(m):
        rest = 0
        for j in range(m):
            if j != i:
                rest += min(A[j][j] * k * k + eff[j] * k for k in range(4 * ctx.order + 4))
        k, last = 0, 0
        while True:
            v = A[i][i] * k * k + eff[i] * k + rest
            if v >= ctx.order and v >= last and 2 * A[i][i] * k + eff[i] > 0:
                break
            last, k = v, k + 1
        bounds.append(k)
    inv_pochs = []
    for i in range(m):
        d, b = spec.denom_args[i], spec.denom_bases[i]
        row = [ctx.one()]
        c, e = d.coeff, ctx.scale(d.exp)
        for _ in range(bounds[i]):
            if e == 0 and c == ONE:
                raise ZeroDenominator("multisum denominator has an exact zero factor")
            row.append(div_binomial(row[-1], c, e))
            c, e = c * b.coeff, e + ctx.scale(b.exp)
        inv_pochs.append(row)
    total = ctx.zero()
    for ks in itertools.product(*[range(n + 1) for n in bounds]):
        e = sum(A[i][j] * ks[i] * ks[j] for i in range(m) for j in range(m))
        e += sum(eff[i] * ks[i] for i in range(m))
        if e >= ctx.order:
            continue
        c = ONE
        for i in range(m):
            c = c * spec.coeffs[i].coeff ** ks[i]
        if sum(spec.signs[i] * ks[i] for i in range(m)) % 2:
            c = -c
        s = ctx.monomial(c, e)
        for j in range(m):
            s = s * inv_pochs[j][ks[j]]
        total = total + s
    return total


def rand_multisum_spec(rng, ctx):
    """2 or 3 variables; Q(w) weights and denominator coefficients; lin
    entries down to -2*D, so some lattice points sit below q^0, and
    denominator arguments down to q^-1."""
    m = rng.choice([2, 3])
    D = ctx.denom
    quad = [[0] * m for _ in range(m)]
    for i in range(m):
        quad[i][i] = D * rng.randint(1, 3)
        for j in range(i):
            quad[i][j] = quad[j][i] = D * rng.randint(0, 2)
    coeff_pool = [ONE, -ONE, OMEGA, OMEGA2, CycRat(Fraction(1, 2)), CycRat(2, -1), CycRat(Fraction(-2, 3), Fraction(1, 3))]

    def monomial(lo, hi):
        return mono(rng.choice(coeff_pool), Fraction(rng.randint(lo, hi), D))

    denom_args = [monomial(-D, 2 * D) for _ in range(m)]
    return MultiSumSpec(
        quad=tuple(tuple(r) for r in quad),
        lin=tuple(rng.randint(-2 * D, D) for _ in range(m)),
        signs=tuple(rng.randint(0, 1) for _ in range(m)),
        denom_args=tuple(denom_args),
        denom_bases=tuple(monomial(1, 2 * D) for _ in range(m)),
        coeffs=tuple(monomial(0, D) for _ in range(m)),
    )


def test_multisum_matches_leaf_products_on_random_specs():
    rng = random.Random(606)
    for _ in range(60):
        ctx = SeriesContext(rng.choice([1, 2]), rng.randint(6, 16))
        spec = rand_multisum_spec(rng, ctx)
        try:
            expect = leaf_product_multisum(spec, ctx)
        except ZeroDenominator:
            with pytest.raises(ZeroDenominator):
                multisum(spec, ctx)
            continue
        assert multisum(spec, ctx) == expect, spec


def test_multisum_matches_leaf_products_on_named_and_triple_sums():
    for name, make in NAMED_SUMS.items():
        ctx = SeriesContext(2, 40)
        assert multisum(make(ctx), ctx) == leaf_product_multisum(make(ctx), ctx), name
    for order in (1, 7, 30, 60):
        ctx = SeriesContext(1, order)
        for u, v, w in [(qpow(1), mono(1, 0), qpow(3)), (qpow(2), qpow(4), qpow(9)), (mono(OMEGA, 1), mono(-1, 2), qpow(6))]:
            spec = f_triple_spec(u, v, w, ctx)
            assert multisum(spec, ctx) == leaf_product_multisum(spec, ctx), (order, u, v, w)


def test_pochhammer_matches_sequential_factors():
    rng = random.Random(9)
    for _ in range(60):
        ctx = SeriesContext(rng.choice([1, 2, 3]), rng.randint(1, 40))
        D = ctx.denom
        arg = mono(rng.choice([ONE, -ONE, OMEGA, CycRat(Fraction(1, 2)), CycRat(3, 1)]), Fraction(rng.randint(-3 * D, 3 * D), D))
        base = mono(rng.choice([ONE, -ONE, OMEGA2, CycRat(2)]), Fraction(rng.randint(1, 3 * D), D))
        spec = PochSpec(arg, base, rng.choice([INF, 0, 1, 5, 12]))
        assert pochhammer(spec, ctx) == sequential_pochhammer(spec, ctx), spec


def _agree_below(short, long):
    """short and long, the same value elaborated to two orders, agree
    below the truncation short claims, which long matches or passes."""
    assert short.trunc <= long.trunc
    assert all(short.coefficient(e) == long.coefficient(e) for e in range(min(short.val, long.val), short.trunc))


def test_pochhammer_and_multisum_honest_across_truncations():
    rng = random.Random(12)
    for _ in range(40):
        D, n, k = rng.choice([1, 2]), rng.randint(1, 30), rng.randint(1, 20)
        arg = mono(rng.choice([ONE, -ONE, OMEGA, CycRat(Fraction(2, 3))]), Fraction(rng.randint(-4 * D, 3 * D), D))
        base = mono(rng.choice([ONE, OMEGA2, CycRat(-2)]), Fraction(rng.randint(1, 3 * D), D))
        spec = PochSpec(arg, base, rng.choice([INF, 3, 9, 40]))
        _agree_below(pochhammer(spec, SeriesContext(D, n)), pochhammer(spec, SeriesContext(D, n + k)))
    for _ in range(12):
        D, n, k = rng.choice([1, 2]), rng.randint(3, 14), rng.randint(1, 8)
        spec = rand_multisum_spec(rng, SeriesContext(D, n))
        _agree_below(multisum(spec, SeriesContext(D, n)), multisum(spec, SeriesContext(D, n + k)))


def per_factor_phi(spec, ctx):
    """Oracle: phi with each term built one binomial call per factor, the
    uppers, then the lowers, then the implicit (b; b)_(n+1)."""
    uppers, lowers, b, z = spec.uppers, spec.lowers, spec.base, spec.arg
    eb = ctx.scale(b.exp)
    if eb <= 0:
        raise NonPositiveBaseExponent("base")
    cb = b.coeff
    g = 1 + len(lowers) - len(uppers)
    if z.is_zero():
        return ctx.one()
    ez = ctx.scale(z.exp)
    term_at = None
    for u in uppers:
        j = _zero_factor_index(u, b)
        if j is not None:
            term_at = j if term_at is None else min(term_at, j)
    if term_at is None and (g < 0 or (g == 0 and ez <= 0)):
        raise NonSummable("no termination")
    n0 = 1
    for p in [p for p in uppers + lowers if not p.is_zero()]:
        ep = ctx.scale(p.exp)
        if ep <= 0:
            n0 = max(n0, (-ep) // eb + 1)
    if g > 0:
        while ez + g * n0 * eb <= 0:
            n0 += 1
    scaled_uppers = [(u.coeff, ctx.scale(u.exp)) for u in uppers if not u.is_zero()]
    scaled_lowers = [(l.coeff, ctx.scale(l.exp)) for l in lowers if not l.is_zero()]
    acc = term = ctx.one()
    n = 0
    while not (n >= n0 and (term.is_zero() or term.val >= ctx.order)):
        if term_at is not None and n >= term_at:
            break
        nxt = term
        for c, e in scaled_uppers:
            nxt = mul_binomial(nxt, c * cb ** n, e + n * eb)
        for c, e in scaled_lowers:
            fe, fc = e + n * eb, c * cb ** n
            if fe == 0 and fc == ONE:
                raise ZeroDenominator("zero lower factor")
            nxt = div_binomial(nxt, fc, fe)
        nxt = div_binomial(nxt, cb ** (n + 1), (n + 1) * eb)
        coeff, e_extra = z.coeff, ez
        if g:
            coeff = coeff * ((-ONE) ** g * cb ** (n * g))
            e_extra += g * n * eb
        term = nxt.mul_monomial(coeff, e_extra)
        acc = acc + term
        n += 1
    return acc


def rand_phi_spec(rng, D):
    """Up to 3 uppers and lowers with Q(w) coefficients and exponents down
    to -D, some uppers terminating (b^-k) and some lowers hitting zero."""
    pool = [ONE, -ONE, OMEGA, OMEGA2, CycRat(Fraction(1, 2)), CycRat(2, -1)]
    base = mono(rng.choice([ONE, ONE, -ONE, OMEGA]), Fraction(rng.randint(1, 2 * D), D))

    def param():
        if rng.random() < 0.15:
            return base ** (-rng.randint(0, 3))
        return mono(rng.choice(pool), Fraction(rng.randint(-D, 2 * D), D))

    uppers = tuple(param() for _ in range(rng.randint(0, 3)))
    lowers = tuple(param() for _ in range(rng.randint(0, 3)))
    arg = mono(rng.choice(pool), Fraction(rng.randint(1, 3 * D), D))
    return PhiSpec(uppers, lowers, base, arg)


def test_phi_matches_per_factor_oracle():
    rng = random.Random(4242)
    checked = raised = 0
    for _ in range(200):
        D = rng.choice([1, 2])
        ctx = SeriesContext(D, rng.randint(1, 30))
        spec = rand_phi_spec(rng, D)
        try:
            want = per_factor_phi(spec, ctx)
        except (NonSummable, ZeroDenominator) as exc:
            with pytest.raises(type(exc)):
                phi(spec, ctx)
            raised += 1
            continue
        assert phi(spec, ctx) == want, spec
        checked += 1
    assert checked > 120 and raised > 10


def test_phi_honest_across_truncations():
    rng = random.Random(31)
    checked = 0
    for _ in range(60):
        D, n, k = rng.choice([1, 2]), rng.randint(1, 24), rng.randint(1, 12)
        spec = rand_phi_spec(rng, D)
        try:
            short = phi(spec, SeriesContext(D, n))
        except (NonSummable, ZeroDenominator):
            continue
        _agree_below(short, phi(spec, SeriesContext(D, n + k)))
        checked += 1
    assert checked > 40
