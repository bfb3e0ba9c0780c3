import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from conftest import parent_add, parent_poch_rows, partition_count, zw_factors
from qrucible import qkernel
from qrucible.cyclotomic import CycRat, OMEGA, OMEGA2, ONE
from qrucible.errors import (
    DivergentSpec,
    NonPositiveBaseExponent,
    NonSummable,
    NotInvertible,
    ZeroDenominator,
)
from qrucible.qkernel import (
    INF,
    NAMED_SUMS,
    MultiSumSpec,
    _zero_factor_index,
    capparelli_spec,
    f_triple,
    f_triple_spec,
    multisum,
    phi,
    poch,
    poch_binomials,
    pochhammer,
    theta_sum,
    tsum_h_spec,
)
from qrucible.series import (
    SeriesContext,
    ZwSum,
    _zw_scalar,
    chain_trunc,
    div_binomial,
    equal_to_order,
    mono,
    monomial_to_series,
    mul_binomial,
    mul_binomials,
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
    s = pochhammer([qpow(1), qpow(4)], qpow(5), ctx).inverse()
    for n in range(30):
        assert s.coefficient(n).re == partition_count(n, modulus=5, residues=(1, 4))
    assert [s.coefficient(n).re for n in range(7)] == [1, 1, 1, 1, 2, 2, 3]


def test_poch_multi_empty_and_zero_factor(ctx):
    assert pochhammer([], qpow(1), ctx).coefficient(0) == ONE
    z = pochhammer([qpow(1), mono(1, 0), qpow(-1)], qpow(1), ctx)
    assert z.is_zero()  # the z=1 factor (1 - 1) kills the product


def test_poch_binomials_see_every_exact_zero_factor(ctx):
    """An exactly zero factor is found on any window, an empty one too:
    None for a numerator, ZeroDenominator for a denominator."""
    zeros = [([mono(1, 0)], qpow(1), 3), ([qpow(-2)], qpow(1), INF), ([mono(2, 0)], mono(Fraction(1, 2), 0), 4)]
    for args, base, count in zeros:
        for n in (0, 1, 40):
            assert poch_binomials(args, base, count, 1, n, ctx) is None
            with pytest.raises(ZeroDenominator):
                poch_binomials(args, base, count, -1, n, ctx)
    assert poch_binomials([mono(2, 0)], mono(Fraction(1, 2), 0), 1, -1, 0, ctx) == [((1, 2, 0), 0, -1)]


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
    s = phi([mono(0)], [], qpow(1), z, ctx)
    p = s * poch(z, qpow(1), ctx)
    assert equal_to_order(p, ctx.one(), p.trunc)
    # sum q^C(n,2) z^n/(q;q)_n = (-z;q)_inf
    s2 = phi([], [], qpow(1), -z, ctx)
    rhs2 = poch(-z, qpow(1), ctx)
    assert equal_to_order(s2, rhs2, min(s2.trunc, rhs2.trunc, 40))


def test_q_binomial_theorem_sampled(ctx):
    for a, z in [(qpow(2), qpow(1)), (mono(-1, 1), qpow(2)), (mono(OMEGA, 1), qpow(1))]:
        lhs = phi([a], [], qpow(1), z, ctx)
        rhs = poch(a * z, qpow(1), ctx) * poch(z, qpow(1), ctx).inverse()
        assert equal_to_order(lhs, rhs, min(lhs.trunc, rhs.trunc))


def test_phi_geometric(ctx):
    p = phi([qpow(1)], [], qpow(1), qpow(1), ctx)
    geo = (ctx.one() - monomial_to_series(qpow(1), ctx)).inverse()
    assert equal_to_order(p, geo, min(p.trunc, geo.trunc))


def test_phi_telescoping(ctx):
    p = phi([qpow(3)], [], qpow(1), qpow(1), ctx)
    rhs = pochhammer([qpow(1), qpow(2), qpow(3)], qpow(1), ctx, 1).inverse()
    assert equal_to_order(p, rhs, min(p.trunc, rhs.trunc))


def test_bailey_daum_sampled(ctx):
    # 2phi1(a, b; aq/b; q, -q/b) with (a, b) = (q^2, -1) and (q, -1/q)
    for a, b in [(qpow(2), mono(-1, 0)), (qpow(1), mono(-1, -1))]:
        c = a * qpow(1) * b.inv()
        arg = -(qpow(1) * b.inv())
        lhs = phi([a, b], [c], qpow(1), arg, ctx)
        rhs = (
            poch(mono(-1, 1), qpow(1), ctx)
            * pochhammer([a * qpow(1), a * qpow(2) * (b * b).inv()], qpow(2), ctx)
            * pochhammer([c, arg * qpow(0)], qpow(1), ctx).inverse()
        )
        assert equal_to_order(lhs, rhs, min(lhs.trunc, rhs.trunc))


def test_q_gauss_sampled(ctx):
    for a, b, c in [
        (qpow(1), qpow(1), qpow(3)),
        (qpow(2), qpow(1), qpow(4)),
        (mono(OMEGA, 1), mono(OMEGA2, 1), qpow(4)),
    ]:
        arg = c * (a * b).inv()
        lhs = phi([a, b], [c], qpow(1), arg, ctx)
        rhs = pochhammer([c * a.inv(), c * b.inv()], qpow(1), ctx) * \
            pochhammer([c, arg], qpow(1), ctx).inverse()
        assert equal_to_order(lhs, rhs, min(lhs.trunc, rhs.trunc))


def test_heine_type_transform_sampled(ctx):
    for a, b, c, z in [
        (qpow(1), qpow(2), qpow(3), qpow(1)),
        (qpow(2), qpow(2), qpow(3), qpow(2)),
    ]:
        lhs = phi([a, b], [c], qpow(1), z, ctx)
        pref = pochhammer([a * z, b * z], qpow(1), ctx) * \
            pochhammer([c, z], qpow(1), ctx).inverse()
        rhs = pref * phi([z, a * b * z * c.inv()], [a * z, b * z], qpow(1), c, ctx)
        assert equal_to_order(lhs, rhs, min(lhs.trunc, rhs.trunc))


def test_phi_nonsummable(ctx):
    with pytest.raises(NonSummable):
        phi([qpow(1)], [], qpow(1), mono(1, 0), ctx)  # |z| not shrinking
    with pytest.raises(NonSummable):
        phi([qpow(1), qpow(1), qpow(1)], [qpow(2)], qpow(1), qpow(1), ctx)


def test_phi_zero_denominator(ctx):
    with pytest.raises(ZeroDenominator):
        phi([qpow(1)], [qpow(-2)], qpow(1), qpow(1), ctx)


def test_phi_terminating_upper(ctx):
    # upper q^(-3) terminates the series after 4 terms; no error from the
    # negative-exponent lower q^(-1) because it never hits an exact zero
    p = phi([qpow(-3)], [mono(OMEGA, -1)], qpow(1), qpow(5), ctx)
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
    p = pochhammer([qpow(1), mono(1, 0), qpow(1)], qpow(1), ctx)
    assert p.is_zero()


def test_theta_matches_product():
    ctx = SeriesContext(1, 21)
    for z in [qpow(2), mono(OMEGA, 1), mono(-1, 1)]:
        t = theta_sum(z, ctx)
        p = pochhammer([qpow(1), z, qpow(1) * z.inv()], qpow(1), ctx)
        assert equal_to_order(t, p, min(t.trunc, p.trunc, 20))


def test_multisum_agrees_with_phi_reduction():
    # F(q,1,q^3) equals its prefactor-times-2phi1 reduction termwise
    ctx = SeriesContext(1, 25)
    f = f_triple(qpow(1), mono(1, 0), qpow(3), ctx)
    pref = pochhammer([mono(-1, 0), mono(OMEGA2, 1)], qpow(2), ctx)
    ph = phi(
        [mono(OMEGA, -1), mono(-OMEGA, 1)], [mono(-1, 0)], qpow(2), mono(OMEGA2, 1), ctx
    )
    red = pref * ph
    assert equal_to_order(f, red, min(f.trunc, red.trunc, 25))


def sequential_pochhammer(a, b, count, ctx):
    """Oracle: (a; b)_count one mul_binomial at a time, stopping an
    infinite product once the factor exponent plus the valuation reaches
    the truncation."""
    if a.is_zero():
        return ctx.one()
    eb, e, c = ctx.scale(b.exp), ctx.scale(a.exp), a.coeff
    acc = ctx.one()
    k = 0
    while e + acc.val < acc.trunc if count is INF else k < count:
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


def parent_multisum(spec, ctx):
    """Oracle: multisum by prefix products, innermost variable first. The
    rows 1/(d_i; b_i)_k are built up front, the last variable's terms
    +-c*q^e*row go into one ZwSum, and each shorter lattice prefix costs
    one QSeries product of its row with the sum over its completions."""
    m = len(spec.lin)
    if not m:
        return ctx.one()
    A = spec.quad
    for i in range(m):
        if A[i][i] <= 0:
            raise DivergentSpec("quadratic form must have positive diagonal")
        for j in range(m):
            if A[i][j] < 0 or A[i][j] != A[j][i]:
                raise DivergentSpec("quadratic form must be symmetric nonnegative")
    eff = [spec.lin[i] + ctx.scale(spec.coeffs[i].exp) for i in range(m)]

    def var_min(i):
        best, k = 0, 1
        while True:
            v = A[i][i] * k * k + eff[i] * k
            if v < best:
                best = v
            elif 2 * A[i][i] * k + eff[i] > 0:
                break
            k += 1
        return best

    mins = [var_min(i) for i in range(m)]
    bounds = []
    for i in range(m):
        rest, k, last = sum(mins) - mins[i], 0, 0
        while True:
            v = A[i][i] * k * k + eff[i] * k + rest
            if v >= ctx.order and v >= last and 2 * A[i][i] * k + eff[i] > 0:
                break
            last, k = v, k + 1
        bounds.append(k)
    rows = []
    for i in range(m):
        d, b = spec.denom_args[i], spec.denom_bases[i]
        eb, c, e = ctx.scale(b.exp), d.coeff, ctx.scale(d.exp)
        row = [ctx.one()]
        for _ in range(bounds[i]):
            if e == 0 and c == ONE:
                raise ZeroDenominator("multisum denominator has an exact zero factor")
            row.append(div_binomial(row[-1], c, e))
            c, e = c * b.coeff, e + eb
        rows.append(row)
    order = ctx.order
    rest = [sum(mins[i:]) for i in range(m + 1)]
    ks = [0] * m
    trunc = order

    def rec(i, exp_acc, coeff_acc, sign_acc):
        nonlocal trunc
        acc = ZwSum(ctx, exp_acc + rest[i])
        for k in range(bounds[i] + 1):
            ks[i] = k
            cross = sum(2 * A[i][j] * ks[j] * k for j in range(i))
            e = exp_acc + A[i][i] * k * k + eff[i] * k + cross
            if e + rest[i + 1] >= order:
                continue
            c = coeff_acc * spec.coeffs[i].coeff ** k if k else coeff_acc
            sign = sign_acc + spec.signs[i] * k
            if i < m - 1:
                acc.add(rows[i][k] * rec(i + 1, e, c, sign).series())
                continue
            vals = [e if c else order] + [rows[j][ks[j]].val for j in range(m)]
            trunc = min(trunc, chain_trunc(order, [(v, order) for v in vals]))
            acc.add(rows[i][k], -c if sign % 2 else c, e)
        return acc

    return rec(0, 0, ONE, 0).series(trunc)


def _matches_the_parent(spec, ctx):
    """multisum and parent_multisum give the same val, trunc and Z[w] form,
    or both raise ZeroDenominator; returns the oracle's result or None."""
    try:
        expect = parent_multisum(spec, ctx)
    except ZeroDenominator:
        with pytest.raises(ZeroDenominator):
            multisum(spec, ctx)
        return None
    got = multisum(spec, ctx)
    assert (got.val, got.trunc, got.zw) == (expect.val, expect.trunc, expect.zw), (ctx, spec)
    return expect


def test_multisum_matches_the_parent_on_random_specs():
    rng = random.Random(20261019)
    seen = dict.fromkeys(["negative denominator argument", "w part", "zero factor", "short trunc"], 0)
    for _ in range(1000):
        ctx = SeriesContext(rng.choice([1, 2, 3]), rng.randint(1, 30))
        spec = rand_multisum_spec(rng, ctx)
        expect = _matches_the_parent(spec, ctx)
        seen["negative denominator argument"] += any(d.exp < 0 for d in spec.denom_args)
        seen["zero factor"] += expect is None
        seen["w part"] += expect is not None and any(expect.zw[2])
        seen["short trunc"] += expect is not None and expect.trunc < ctx.order
    assert min(seen.values()) >= 50, seen


def test_multisum_matches_the_parent_on_named_sums():
    for name, make in NAMED_SUMS.items():
        for order in (1, 2, 7, 30, 61, 120):
            ctx = SeriesContext(2, order)
            assert _matches_the_parent(make(ctx), ctx) is not None, (name, order)


def rand_negative_rows_spec(rng, ctx):
    """2 or 3 variables without cross terms, negative lin entries and
    denominator arguments below q^0, so the least lattice exponents sit at
    points where two or more rows 1/(d_i; b_i)_k carry a positive val."""
    m, D = rng.choice([2, 3]), ctx.denom
    pool = [ONE, -ONE, OMEGA, CycRat(Fraction(1, 2)), CycRat(2, -1)]
    return MultiSumSpec(
        quad=tuple(tuple(D * rng.randint(1, 2) if i == j else 0 for j in range(m)) for i in range(m)),
        lin=tuple(rng.randint(-3 * D, -D) for _ in range(m)),
        signs=tuple(rng.randint(0, 1) for _ in range(m)),
        denom_args=tuple(mono(rng.choice(pool), Fraction(rng.randint(-D, -1), D)) for _ in range(m)),
        denom_bases=tuple(mono(rng.choice(pool), Fraction(rng.randint(1, D), D)) for _ in range(m)),
        coeffs=tuple(mono(rng.choice(pool), 0) for _ in range(m)),
    )


def test_row_vals_raise_the_lattice_trunc():
    # a lattice point's term c*q^e is known below order + e, and the vals
    # of its rows after the first raise that (chain_trunc); the random
    # specs above almost never have two rows of positive val at the least
    # exponent, these do
    rng = random.Random(20261020)
    raised = 0
    for _ in range(300):
        ctx = SeriesContext(rng.choice([1, 2, 3]), rng.randint(1, 24))
        spec = rand_negative_rows_spec(rng, ctx)
        expect = _matches_the_parent(spec, ctx)
        raised += expect is not None and expect.trunc > ctx.order + min(0, _least_exponent(spec))
    assert raised >= 50, raised


def _least_exponent(spec):
    """The least exponent of a lattice point of a spec without cross
    terms, whose least points lie in 0 <= k_i < 5."""
    m = len(spec.lin)
    return min(
        sum(spec.quad[i][i] * k[i] * k[i] + spec.lin[i] * k[i] for i in range(m))
        for k in itertools.product(range(5), repeat=m)
    )


def scanning_run(a, b, c, top):
    """Oracle for qkernel._negative_run: every k from 0 to top checked in
    turn, as the lattice walks did before they solved the run."""
    live = [k for k in range(top + 1) if a * k * k + b * k + c < 0]
    return range(live[0], live[-1] + 1) if live else range(0)


def test_multisum_matches_the_parent_far_below_q0(monkeypatch):
    # weights far below q^0 put the least point truncs below 0, so the
    # Horner windows end there, far short of the order. Further below, the
    # parent's rows grow too long to build; there multisum's walks, each
    # prefix's live k solved, must match the same walks scanning every k
    # up to the bound.
    rng = random.Random(20261022)
    below = 0
    for _ in range(80):
        ctx = SeriesContext(rng.choice([1, 2, 3]), rng.randint(1, 30))
        spec = rand_multisum_spec(rng, ctx)
        spec = dataclasses.replace(spec, lin=tuple(rng.randint(-60, ctx.denom) for _ in spec.lin))
        expect = _matches_the_parent(spec, ctx)
        below += expect is not None and expect.trunc < 0
    assert below >= 40, below
    far = 0
    for _ in range(40):
        ctx = SeriesContext(rng.choice([1, 2, 3]), rng.randint(1, 30))
        spec = rand_multisum_spec(rng, ctx)
        spec = dataclasses.replace(spec, lin=tuple(rng.randint(-400, ctx.denom) for _ in spec.lin))
        with monkeypatch.context() as patched:
            patched.setattr(qkernel, "_negative_run", scanning_run)
            expect = _outcome(multisum, spec, ctx)
        _same_series(_outcome(multisum, spec, ctx), expect)
        far += not isinstance(expect, type) and expect.trunc < -1000
    assert far >= 25, far


def test_a_weight_far_below_q0_divides_only_below_the_trunc(monkeypatch):
    # F(q^(-150), 2*q, w*q^2) is ten exponents long, val -5700 and trunc
    # -5690, at order 10: no division may run on an empty sum or on a
    # window that reaches past that trunc. ZwSum.div_binomial divides an
    # integer-c step with _recur on the sum's own lists and any other step
    # with _binomials (here every step has c = 1, so none does); the spies
    # sit on all three, the one on div_binomial giving the sum whose window
    # each _recur call divides.
    from qrucible import series
    from qrucible.dsl import elaborate, parse

    his, passes, recurs, dividing = [], [], [], []
    real_div, real_pass, real_recur = series.ZwSum.div_binomial, series._binomials, series._recur

    def div_spy(acc, c, e):
        his.append(acc.hi)
        dividing.append(acc)
        try:
            real_div(acc, c, e)
        finally:
            dividing.pop()

    def pass_spy(order, d, re, om, val, trunc, factors):
        passes.append((len(re), order, trunc))
        return real_pass(order, d, re, om, val, trunc, factors)

    def recur_spy(xs, cr, e):
        recurs.append((len(xs), dividing[-1].val + len(xs) if dividing else None))
        real_recur(xs, cr, e)

    monkeypatch.setattr(series.ZwSum, "div_binomial", div_spy)
    monkeypatch.setattr(series, "_binomials", pass_spy)
    monkeypatch.setattr(series, "_recur", recur_spy)
    x = elaborate(parse("F(q^(-150), 2*q, w*q^2)"), SeriesContext(1, 10))
    assert (x.val, x.trunc) == (-5700, -5690)
    assert his and all(hi <= x.trunc for hi in his)
    assert all(n > 0 and order <= x.trunc and trunc <= x.trunc for n, order, trunc in passes)
    assert recurs and all(n > 0 and end is not None and end <= x.trunc for n, end in recurs)


KR_NINE = [(1, 0, 3), (2, 4, 9), (4, 6, 15), (1, 6, 9), (2, 2, 9), (3, 5, 12), (1, 3, 6), (1, 1, 6), (2, -1, 6)]


@pytest.mark.parametrize("order", [150, 300])
def test_kr_nine_triples_match_the_parent(order):
    ctx = SeriesContext(1, order)
    for u, v, w in KR_NINE:
        spec = f_triple_spec(qpow(u), qpow(v), qpow(w), ctx)
        assert _matches_the_parent(spec, ctx) is not None, (u, v, w)


def _permuted(spec, p):
    """spec with its variables in the order p: variable i is spec's p[i]."""
    return MultiSumSpec(
        quad=tuple(tuple(spec.quad[i][j] for j in p) for i in p),
        lin=tuple(spec.lin[i] for i in p),
        signs=tuple(spec.signs[i] for i in p),
        denom_args=tuple(spec.denom_args[i] for i in p),
        denom_bases=tuple(spec.denom_bases[i] for i in p),
        coeffs=tuple(spec.coeffs[i] for i in p),
    )


def _order_free(spec, ctx):
    """multisum and parent_multisum give the same (val, trunc, zw), or
    raise the same exception, for every permutation of spec's variables;
    returns it."""
    outcomes = []
    for p in itertools.permutations(range(len(spec.lin))):
        for evaluate in (multisum, parent_multisum):
            try:
                x = evaluate(_permuted(spec, p), ctx)
                outcomes.append((x.val, x.trunc, x.zw))
            except ZeroDenominator as exc:
                outcomes.append((type(exc), str(exc)))
    assert all(o == outcomes[0] for o in outcomes), (ctx, spec)
    return outcomes[0]


def test_the_variable_order_does_not_change_a_lattice_sum():
    # multisum runs the variables in ascending bound order and the oracle
    # in the given one, so over all permutations the oracle sees every
    # order; in the negative-rows specs later rows' vals raise a point's
    # trunc, which must not depend on the order of its rows
    rng = random.Random(20261021)
    for _ in range(150):
        ctx = SeriesContext(rng.choice([1, 2, 3]), rng.randint(1, 24))
        _order_free(rand_multisum_spec(rng, ctx), ctx)
    raised = 0
    for _ in range(150):
        ctx = SeriesContext(rng.choice([1, 2, 3]), rng.randint(1, 24))
        spec = rand_negative_rows_spec(rng, ctx)
        out = _order_free(spec, ctx)
        raised += out[0] is not ZeroDenominator and out[1] > ctx.order + min(0, _least_exponent(spec))
    assert raised >= 25, raised
    for make in NAMED_SUMS.values():
        for order in (1, 7, 30, 61):
            ctx = SeriesContext(2, order)
            _order_free(make(ctx), ctx)
    for order in (1, 2, 3, 7, 30, 61, 150):
        ctx = SeriesContext(1, order)
        for u, v, w in KR_NINE:
            _order_free(f_triple_spec(qpow(u), qpow(v), qpow(w), ctx), ctx)


def test_triple_sum_builds_no_q_w_lists(monkeypatch):
    # multisum divides one Z[w] window in place, so f_triple makes no
    # _zw_mul call and builds no Q(w) list until coeffs is read
    from qrucible import series

    calls, products = [], []
    real, real_mul = series._from_zw, series._zw_mul
    monkeypatch.setattr(series, "_from_zw", lambda *a: calls.append(a) or real(*a))
    monkeypatch.setattr(series, "_zw_mul", lambda *a: products.append(a) or real_mul(*a))
    x = f_triple(qpow(1), mono(1, 0), qpow(3), SeriesContext(1, 150))
    assert not calls and not products
    assert x.coeffs and len(calls) == 1


def test_verify_of_a_lattice_sum_leaves_no_reference_cycle():
    # multisum's recursive horner closure refers to itself through its
    # cell; unbroken, that cycle kept every call's step, power and row
    # tables alive until a full gc pass
    import gc

    from qrucible.harness import load_registry, verify

    case = next(c for c in load_registry() if c.name == "kr-conj-1")
    assert verify(case).status == "PASS"
    gc.collect()
    gc.disable()
    try:
        assert verify(case).status == "PASS"
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_pochhammer_matches_sequential_factors():
    rng = random.Random(9)
    for _ in range(60):
        ctx = SeriesContext(rng.choice([1, 2, 3]), rng.randint(1, 40))
        D = ctx.denom
        arg = mono(rng.choice([ONE, -ONE, OMEGA, CycRat(Fraction(1, 2)), CycRat(3, 1)]), Fraction(rng.randint(-3 * D, 3 * D), D))
        base = mono(rng.choice([ONE, -ONE, OMEGA2, CycRat(2)]), Fraction(rng.randint(1, 3 * D), D))
        count = rng.choice([INF, 0, 1, 5, 12])
        assert poch(arg, base, ctx, count) == sequential_pochhammer(arg, base, count, ctx), (arg, base, count)


def test_finite_pochhammer_stops_at_the_order():
    """A finite count with a base exponent >= 0 stops at the first factor
    exponent at or past the order; the result is that of every factor one
    at a time (the full loop), for counts around the order and past it."""
    rng = random.Random(10)
    stopped = 0
    for _ in range(600):
        ctx = SeriesContext(rng.choice([1, 2, 3]), rng.randint(1, 24))
        D = ctx.denom
        arg = mono(rng.choice([ONE, -ONE, OMEGA, CycRat(Fraction(1, 2)), CycRat(3, 1)]), Fraction(rng.randint(-3 * D, 10 * D), D))
        base = mono(rng.choice([ONE, -ONE, OMEGA2, CycRat(2)]), Fraction(rng.randint(-D, 3 * D), D))
        count = max(0, ctx.order // max(1, ctx.scale(base.exp)) + rng.randint(-3, 3))
        assert poch(arg, base, ctx, count) == sequential_pochhammer(arg, base, count, ctx), (arg, base, count)
        eb, e = ctx.scale(base.exp), ctx.scale(arg.exp)
        stopped += eb >= 0 and e + count * eb > ctx.order
    assert stopped > 150
    ctx = SeriesContext(1, 30)
    assert poch(qpow(1), qpow(1), ctx, 10**9) == poch(qpow(1), qpow(1), ctx)


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
        count = rng.choice([INF, 3, 9, 40])
        _agree_below(poch(arg, base, SeriesContext(D, n), count), poch(arg, base, SeriesContext(D, n + k), count))
    for _ in range(12):
        D, n, k = rng.choice([1, 2]), rng.randint(3, 14), rng.randint(1, 8)
        spec = rand_multisum_spec(rng, SeriesContext(D, n))
        _agree_below(multisum(spec, SeriesContext(D, n)), multisum(spec, SeriesContext(D, n + k)))


def test_kr_nine_triples_honest_at_depth():
    for u, v, w in KR_NINE:
        short, long = (f_triple(qpow(u), qpow(v), qpow(w), SeriesContext(1, n)) for n in (150, 174))
        _agree_below(short, long)


def per_factor_phi(uppers, lowers, b, z, ctx):
    """Oracle: the parent's phi loop, each term built one binomial call
    per factor, the uppers, then the lowers, then the implicit
    (b; b)_(n+1), and the terms added by the parent's Q(w) add."""
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
        acc = parent_add(acc, term)
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
    return uppers, lowers, base, arg


def test_phi_matches_per_factor_oracle():
    rng = random.Random(4242)
    checked = raised = 0
    for _ in range(200):
        D = rng.choice([1, 2])
        ctx = SeriesContext(D, rng.randint(1, 30))
        spec = rand_phi_spec(rng, D)
        try:
            want = per_factor_phi(*spec, ctx)
        except (NonSummable, ZeroDenominator) as exc:
            with pytest.raises(type(exc)):
                phi(*spec, ctx)
            raised += 1
            continue
        assert phi(*spec, ctx) == want, spec
        checked += 1
    assert checked > 120 and raised > 10


def test_phi_honest_across_truncations():
    rng = random.Random(31)
    checked = 0
    for _ in range(60):
        D, n, k = rng.choice([1, 2]), rng.randint(1, 24), rng.randint(1, 12)
        spec = rand_phi_spec(rng, D)
        try:
            short = phi(*spec, SeriesContext(D, n))
        except (NonSummable, ZeroDenominator):
            continue
        _agree_below(short, phi(*spec, SeriesContext(D, n + k)))
        checked += 1
    assert checked > 40


# -- Z[w] scalars: the factors against the parent's CycRat factors --------
#
# poch_binomials, poch_rows and phi carry every factor's c as a Z[w]
# triple, each power one integer product from the one before. The oracles
# below list the parent's CycRat factors, every power by `**`; each factor
# must be the triple of the oracle's, with the same None / exception
# outcome, and the series built from them must keep val, trunc and zw.

_C_POOL = [ONE, -ONE, CycRat(2), CycRat(-2), CycRat(Fraction(1, 2)), OMEGA, OMEGA2, CycRat(2, -1)]


def parent_poch_binomials(args, base, count, p, n, ctx):
    """Oracle: the factors (a*b^j, e_a + j*e_b, p) of poch_binomials in
    CycRat, b^j by `**`, listed by the same stopping rule."""
    out = []
    for a in args:
        if a.is_zero():
            continue
        eb, ea = ctx.scale(base.exp), ctx.scale(a.exp)
        if count is INF and eb <= 0:
            raise NonPositiveBaseExponent("infinite product")
        for j in itertools.count() if count is INF else range(count):
            c, e = a.coeff * base.coeff ** j, ea + j * eb
            if e >= max(n, 1) and eb >= 0:
                break
            if e == 0 and c == ONE:
                if p < 0:
                    raise ZeroDenominator("zero factor")
                return None
            out.append((c, e, p))
    return out


def parent_phi_factors(uppers, lowers, base, ctx, n):
    """Oracle: the factors phi applies to term_n, as the parent listed
    them: uppers, lowers, then (b^(n+1), (n+1)*e_b, -1), b^n by `**`."""
    cb, eb = base.coeff, ctx.scale(base.exp)
    bn = cb ** n
    ups = [(u.coeff * bn, ctx.scale(u.exp) + n * eb, 1) for u in uppers if not u.is_zero()]
    lows = [(l.coeff * bn, ctx.scale(l.exp) + n * eb, -1) for l in lowers if not l.is_zero()]
    return ups + lows + [(bn * cb, (n + 1) * eb, -1)]


def rand_param(rng, D, lo=-1):
    """c*q^e with c from the pool and e on the 1/D grid, down to lo."""
    return mono(rng.choice(_C_POOL), Fraction(rng.randint(lo * D, 2 * D), D))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ZeroDenominator, NonPositiveBaseExponent, NonSummable, NotInvertible) as exc:
        return type(exc)


def _same_series(got, want):
    if isinstance(want, type):
        assert got is want
    else:
        assert (got.val, got.trunc, got.zw) == (want.val, want.trunc, want.zw)


def _recorded(monkeypatch):
    """The factor lists qkernel hands to mul_binomials, call by call."""
    calls = []

    def record(x, factors):
        calls.append(list(factors))
        return mul_binomials(x, factors)

    monkeypatch.setattr(qkernel, "mul_binomials", record)
    return calls


def test_zw_factors_match_the_parent_cycrat_factors(monkeypatch):
    rng = random.Random(20261016)
    calls = _recorded(monkeypatch)
    seen = dict.fromkeys(["None", "raised", "listed", "finite eb <= 0", "rows", "phi", "phi raised", "multisum"], 0)
    for _ in range(1000):
        D = rng.choice([1, 2, 3])
        ctx = SeriesContext(D, rng.randint(1, 12))
        base = mono(rng.choice(_C_POOL), Fraction(rng.randint(-D, 2 * D), D))
        count = rng.choice([INF, 0, 1, 2, 3, 5])
        args = [rand_param(rng, D) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.2:  # a parameter that hits 1 = a*b^j exactly
            args.append(base ** -rng.randint(0, 3))
        p, n = rng.choice([1, -1]), rng.randint(0, ctx.order)
        want = _outcome(parent_poch_binomials, args, base, count, p, n, ctx)
        got = _outcome(qkernel.poch_binomials, args, base, count, p, n, ctx)
        if want is None or isinstance(want, type):
            assert got is want
            seen["None" if want is None else "raised"] += 1
        else:
            assert got == zw_factors(want)
            seen["listed"] += 1
            seen["finite eb <= 0"] += count is not INF and base.exp <= 0 and len(want) > 1

        # poch_rows: each row's c, e and Gaussian coefficient, and each step's factors
        x, inverted, nmax = rand_param(rng, D), rng.random() < 0.5, rng.randint(0, 4)
        if count is not INF and base.exp <= 0:
            count = 1
        want = _outcome(parent_poch_rows, x, base, count, inverted, nmax, ctx)
        del calls[:]
        got = _outcome(qkernel.poch_rows, x, base, count, inverted, nmax, ctx)
        if isinstance(want, type):
            assert got is want
        else:
            assert len(got) == len(want)
            for (c, e, g), (wc, we, wg) in zip(got, want):
                assert (c, e) == (_zw_scalar(wc), we)
                _same_series(g, wg)
            b, eb = base.coeff, ctx.scale(base.exp)
            for k, fs in enumerate(calls, 1):
                expect = [(b ** k, k * eb, -1)]
                if count is not INF:
                    a = count + k - 1 if inverted else count - k + 1
                    expect = [] if a == k else expect + [(b ** a, a * eb, 1)]
                assert fs == zw_factors(expect)
            seen["rows"] += 1

        # phi: the factors of every step and the sum they build; a
        # parameter b^-j terminates an upper or zeroes a lower
        pb = mono(base.coeff, abs(base.exp) or 1)
        params = [[rand_param(rng, D) if rng.random() < 0.85 else pb ** -rng.randint(0, 3)
                   for _ in range(rng.randint(0, 3))] for _ in "ul"]
        spec = (params[0], params[1], pb, rand_param(rng, D, 0))
        want = _outcome(per_factor_phi, *spec, ctx)
        del calls[:]
        got = _outcome(qkernel.phi, *spec, ctx)
        _same_series(got, want)
        if isinstance(want, type):
            seen["phi raised"] += 1
        else:
            assert calls == [zw_factors(parent_phi_factors(*spec[:3], ctx, k)) for k in range(len(calls))]
            seen["phi"] += 1

        # multisum: two variables whose weights and denominators are the parameters
        ms = MultiSumSpec(quad=((D, 0), (0, 2 * D)), lin=(rng.randint(-D, D), 0),
                          signs=(rng.randint(0, 1), rng.randint(0, 1)),
                          denom_args=(args[0], rand_param(rng, D)), denom_bases=(pb, qpow(1)),
                          coeffs=(rand_param(rng, D, 0), x))
        seen["multisum"] += _matches_the_parent(ms, ctx) is not None
    assert min(seen.values()) >= 50, seen


# -- phi sums its terms in one Z[w] window --------------------------------
#
# The window's lower end comes from the val recurrence: parameters of
# negative exponent give early terms of negative val (down to -3D here)
# or of less trunc than the order, and a terminating series may have an
# argument of negative exponent, so its vals fall until the last term.


def rand_deep_phi_spec(rng, D):
    """phi parameters with exponents down to -3D; some uppers terminate
    (b^-k) and the argument's exponent runs from -2D."""
    base = mono(rng.choice([ONE, -ONE, OMEGA]), Fraction(rng.randint(1, 2 * D), D))

    def param():
        if rng.random() < 0.15:
            return base ** -rng.randint(0, 4)
        return mono(rng.choice(_C_POOL), Fraction(rng.randint(-3 * D, 2 * D), D))

    uppers = [param() for _ in range(rng.randint(0, 3))]
    lowers = [param() for _ in range(rng.randint(0, 3))]
    return uppers, lowers, base, mono(rng.choice(_C_POOL), Fraction(rng.randint(-2 * D, 3 * D), D))


def test_phi_sums_match_the_parent_loop():
    rng = random.Random(2300)
    seen = dict.fromkeys(["summed", "raised", "negative val", "short trunc", "falling vals"], 0)
    for _ in range(300):
        D = rng.choice([1, 2, 3])
        ctx = SeriesContext(D, rng.randint(1, 30))
        spec = rand_deep_phi_spec(rng, D)
        want = _outcome(per_factor_phi, *spec, ctx)
        _same_series(_outcome(phi, *spec, ctx), want)
        if isinstance(want, type):
            seen["raised"] += 1
            continue
        seen["summed"] += 1
        seen["negative val"] += want.val < 0
        seen["short trunc"] += want.trunc < ctx.order
        g = 1 + len(spec[1]) - len(spec[0])
        seen["falling vals"] += g <= 0 and spec[3].exp < 0
    assert min(seen.values()) >= 10, seen


def test_phi_trunc_stays_honest_with_negative_exponent_parameters():
    """Evaluated at orders N and N + k, phi agrees below the trunc it
    claims at N, and each claimed trunc is the parent's."""
    rng = random.Random(2301)
    seen = dict.fromkeys(["checked", "short trunc", "negative val"], 0)
    for _ in range(200):
        D, n, k = rng.choice([1, 2, 3]), rng.randint(1, 24), rng.randint(1, 12)
        spec = rand_deep_phi_spec(rng, D)
        short, long = (_outcome(phi, *spec, SeriesContext(D, m)) for m in (n, n + k))
        if isinstance(short, type):
            continue
        _agree_below(short, long)
        assert short.trunc == per_factor_phi(*spec, SeriesContext(D, n)).trunc
        assert long.trunc == per_factor_phi(*spec, SeriesContext(D, n + k)).trunc
        seen["checked"] += 1
        seen["short trunc"] += short.trunc < n
        seen["negative val"] += short.val < 0
    assert min(seen.values()) >= 15, seen
