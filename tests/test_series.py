import random
from fractions import Fraction

import pytest

from conftest import rand_series
from qrucible.cyclotomic import CycRat, OMEGA, ONE, ZERO
from qrucible.errors import (
    ContextMismatch,
    ExponentNotRepresentable,
    InsufficientTruncation,
    NotInvertible,
)
from qrucible.series import (
    QSeries,
    SeriesContext,
    _polymul,
    div_binomial,
    equal_to_order,
    first_mismatch,
    mono,
    monomial_to_series,
    mul_binomial,
    qpow,
)


def brute_product_1mqj(nfactors, upto):
    """Oracle: expand prod_{j=1..nfactors} (1 - q^j) with plain lists."""
    poly = [Fraction(1)]
    for j in range(1, nfactors + 1):
        out = [Fraction(0)] * min(upto, len(poly) + j)
        for i, c in enumerate(poly):
            if i < len(out):
                out[i] += c
            if i + j < len(out):
                out[i + j] -= c
        poly = out
    return poly


def schoolbook(a, b, n):
    """Oracle: the first n coefficients of a*b by naive convolution."""
    out = [ZERO] * min(n, len(a) + len(b) - 1)
    for i, x in enumerate(a[: len(out)]):
        for j, y in enumerate(b[: len(out) - i]):
            out[i + j] = out[i + j] + x * y
    return out


def recurrence_inverse(a, n):
    """Oracle: the first n coefficients of 1/a by the term-by-term recurrence."""
    inv0 = a[0].inv()
    out = [inv0]
    for k in range(1, n):
        acc = sum((a[i] * out[k - i] for i in range(1, min(k, len(a) - 1) + 1)), ZERO)
        out.append(-(inv0 * acc))
    return out


def rand_zw_list(rng, length, num=10**30, den=10**20):
    """Q(w) coefficients with zero runs, w-parts, large numerators and
    occasional large denominators."""
    out = []
    while len(out) < length:
        if rng.random() < 0.15:
            out.extend([ZERO] * rng.randint(1, 8))
            continue

        def part():
            d = rng.randint(1, den) if rng.random() < 0.3 else 1
            return Fraction(rng.randint(-num, num), d)

        out.append(CycRat(part(), part() if rng.random() < 0.6 else 0))
    return out[:length]


def test_polymul_matches_schoolbook():
    rng = random.Random(20261018)
    for _ in range(120):
        a = rand_zw_list(rng, rng.randint(1, 60))
        b = rand_zw_list(rng, rng.randint(1, 60))
        full = len(a) + len(b) - 1
        for n in (rng.randint(1, full), full, full + rng.randint(1, 20)):
            assert _polymul(a, b, n) == schoolbook(a, b, n)
    # (M - M*w)(-M + M*w) = 3*M^2*w reaches the kernel's slot bound
    # exactly: every convolution term has the same sign and magnitude
    for bits in range(70):
        for big in (2**bits - 1, 2**bits):
            for length in range(1, 10):
                for sign in (1, -1):
                    a = [CycRat(big, -big)] * length
                    b = [CycRat(-sign * big, sign * big)] * (length + 1)
                    assert _polymul(a, b, 2 * length) == schoolbook(a, b, 2 * length)
    small = [CycRat(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(40)]
    assert _polymul(small, [ZERO, ZERO], 50) == [ZERO] * 41
    assert _polymul(small, [], 50) == []


def test_newton_inverse_matches_recurrence():
    rng = random.Random(41)
    ctx = SeriesContext(2, 80)
    for _ in range(25):
        a = rand_zw_list(rng, rng.randint(1, 40), num=10**6, den=10**3)
        a[0] = a[0] or ONE
        val = rng.randint(-5, 5)
        x = QSeries(ctx, val, a, rng.randint(val + 1, ctx.order))
        n = x.trunc - x.val
        expect = QSeries(ctx, -val, recurrence_inverse(x.coeffs, n), x.trunc - 2 * val)
        assert x.inverse() == expect


def test_products_and_inverses_honest_across_truncations():
    """The same operands known to N and to N+k: results agree below the
    smaller claimed truncation, which never exceeds the larger one."""
    rng = random.Random(5)
    ctx = SeriesContext(1, 120)
    for _ in range(30):
        coeffs = [rand_zw_list(rng, 70, num=50, den=6) for _ in range(2)]
        vals = [rng.randint(-6, 6) for _ in range(2)]
        for c in coeffs:
            c[0] = c[0] or ONE
        n, k = rng.randint(1, 40), rng.randint(1, 30)

        def operands(trunc):
            return [QSeries(ctx, v, c[: trunc - v], trunc) for v, c in zip(vals, coeffs)]

        (x, y), (xk, yk) = operands(max(vals) + n), operands(max(vals) + n + k)
        for short, long in ((x * y, xk * yk), (x.inverse(), xk.inverse()), (y.inverse(), yk.inverse())):
            assert short.trunc <= long.trunc
            assert equal_to_order(short, long, short.trunc)


def test_monomial_to_series_grid():
    ctx2 = SeriesContext(2, 20)
    s = monomial_to_series(mono(1, Fraction(3, 2)), ctx2)
    assert s.val == 3 and s.coeffs == [ONE]
    ctx1 = SeriesContext(1, 20)
    with pytest.raises(ExponentNotRepresentable):
        monomial_to_series(mono(1, Fraction(3, 2)), ctx1)
    w = monomial_to_series(mono(OMEGA, 0), ctx1)
    assert w.val == 0 and w.coeffs == [OMEGA]


def test_mul_basic():
    ctx = SeriesContext(1, 16)
    one_minus_q = ctx.one() - monomial_to_series(qpow(1), ctx)
    one_plus_q = ctx.one() + monomial_to_series(qpow(1), ctx)
    p = one_minus_q * one_plus_q
    assert p.coefficient(0) == ONE
    assert not p.coefficient(1)
    assert p.coefficient(2) == CycRat(-1)
    z = p * ctx.zero()
    assert z.is_zero()


def test_euler_factors_match_pentagonal_oracle():
    # prod_{j<=7} (1-q^j) agrees with the full product below q^8
    ctx = SeriesContext(1, 8)
    acc = ctx.one()
    for j in range(1, 8):
        acc = mul_binomial(acc, ONE, j)
    oracle = brute_product_1mqj(7, 8)
    for e in range(8):
        assert acc.coefficient(e) == CycRat(oracle[e])
    assert [oracle[e] for e in range(8)] == [1, -1, -1, 0, 0, 1, 0, 1]


def test_inverse_examples():
    ctx = SeriesContext(1, 12)
    geo = (ctx.one() - monomial_to_series(qpow(1), ctx)).inverse()
    assert all(geo.coefficient(k) == ONE for k in range(12))
    qinv = monomial_to_series(qpow(1), ctx).inverse()
    assert qinv.val == -1 and qinv.coeffs == [ONE]
    c = monomial_to_series(mono(CycRat(2, 1), 0), ctx).inverse()
    assert c.coefficient(0) == CycRat(2, 1).inv()


def test_inverse_of_zero_raises():
    ctx = SeriesContext(1, 12)
    with pytest.raises(NotInvertible):
        ctx.zero().inverse()


def test_equal_to_order():
    ctx = SeriesContext(1, 12)
    x = (ctx.one() - monomial_to_series(qpow(1), ctx)).inverse()
    assert equal_to_order(x, x, 12)
    y = ctx.one() + monomial_to_series(qpow(1), ctx)
    assert equal_to_order(x, y, 2)
    assert not equal_to_order(x, y, 3)
    assert first_mismatch(x, y, 12) == (2, ONE, CycRat(0))
    with pytest.raises(InsufficientTruncation):
        equal_to_order(x.truncate(5), y, 8)


def test_context_mismatch():
    a = SeriesContext(1, 10).one()
    b = SeriesContext(2, 10).one()
    with pytest.raises(ContextMismatch):
        a + b


def test_div_binomial_is_inverse_of_mul():
    ctx = SeriesContext(1, 24)
    rng = random.Random(7)
    for _ in range(20):
        x = rand_series(rng, ctx)
        c = CycRat(rng.randint(-3, 3), rng.randint(-2, 2))
        e = rng.randint(-3, 5)
        if not c:
            continue
        if e == 0 and c == ONE:
            continue
        y = div_binomial(mul_binomial(x, c, e), c, e)
        upto = min(x.trunc, y.trunc)
        assert equal_to_order(x, y, upto)


def test_ring_axioms_randomized(rng):
    ctx = SeriesContext(2, 14)
    for _ in range(40):
        x, y, z = (rand_series(rng, ctx) for _ in range(3))
        upto = min((x * y) * z, x * (y * z), key=lambda s: s.trunc).trunc
        assert equal_to_order((x * y) * z, x * (y * z), upto)
        assert equal_to_order(x * (y + z), x * y + x * z, min((x * (y + z)).trunc, (x * y + x * z).trunc))
        assert equal_to_order(x + y, y + x, min(x.trunc, y.trunc))
        assert equal_to_order(x * y, y * x, (x * y).trunc)


def test_valuation_additive(rng):
    ctx = SeriesContext(1, 20)
    for _ in range(40):
        x, y = rand_series(rng, ctx), rand_series(rng, ctx)
        if x.is_zero() or y.is_zero():
            continue
        assert (x * y).val == x.val + y.val


def test_inverse_involution(rng):
    ctx = SeriesContext(1, 20)
    for _ in range(30):
        x = rand_series(rng, ctx)
        if x.is_zero():
            continue
        xi = x.inverse()
        prod = x * xi
        assert equal_to_order(prod, ctx.one().truncate(prod.trunc), prod.trunc)
        back = xi.inverse()
        upto = min(x.trunc, back.trunc)
        assert equal_to_order(x, back, upto)


def test_equal_to_order_is_equivalence(rng):
    ctx = SeriesContext(1, 16)
    for _ in range(20):
        x = rand_series(rng, ctx)
        y = x + ctx.monomial(ONE, 9)
        z = x + ctx.monomial(ONE, 12)
        assert equal_to_order(x, x, 9)
        assert equal_to_order(x, y, 9) == equal_to_order(y, x, 9)
        if equal_to_order(x, y, 9) and equal_to_order(y, z, 9):
            assert equal_to_order(x, z, 9)


def test_zero_series_convention():
    ctx = SeriesContext(1, 10)
    z = ctx.zero(7)
    assert z.val == z.trunc == 7 and z.coeffs == []


def test_rendering_mentions_truncation():
    ctx = SeriesContext(2, 9)
    s = ctx.monomial(OMEGA, 3) + ctx.one()
    text = str(s)
    assert "O(q^(9/2))" in text and "q^(3/2)" in text
