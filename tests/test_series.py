import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest

from conftest import parent_add, parent_neg, rand_series, zw_factors
from qrucible import series
from qrucible.cyclotomic import CycRat, OMEGA, OMEGA2, ONE, ZERO
from qrucible.errors import (
    ContextMismatch,
    ExponentNotRepresentable,
    InsufficientTruncation,
    NotInvertible,
)
from qrucible.series import (
    QSeries,
    SeriesContext,
    ZwSum,
    ZW_ONE,
    ZW_ZERO,
    _from_zw,
    _pack,
    _scaled,
    _unpack,
    _zw_inverse,
    _zw_mul,
    _zw_scalar,
    _zw_scale,
    _zw_times,
    _zw_value,
    chain_trunc,
    div_binomial,
    equal_to_order,
    first_mismatch,
    mono,
    monomial_to_series,
    mul_binomial,
    mul_binomials,
    qpow,
    series_sum,
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


def binomial_oracle(x, c, e):
    """Oracle: x * (1 - c*q^e) coefficient by coefficient in Q(w)."""
    if not c:
        return x
    t = min(x.trunc, x.trunc + e)
    if x.is_zero():
        return x.ctx.zero(t)
    lo = min(x.val, x.val + e)
    n = min(t, x.ctx.order) - lo
    if n <= 0:
        return x.ctx.zero(t)
    out = [ZERO] * n
    base = x.val - lo
    for i, a in enumerate(x.coeffs):
        j = base + i
        if j < n:
            out[j] = out[j] + a
    base = x.val + e - lo
    for i, a in enumerate(x.coeffs):
        j = base + i
        if j < n and a:
            out[j] = out[j] - c * a
    return QSeries(x.ctx, lo, out, t)


def div_binomial_oracle(x, c, e):
    """Oracle: x / (1 - c*q^e) by the Q(w) recurrence; for e < 0 the
    factor is -c*q^e*(1 - q^(-e)/c)."""
    if not c:
        return x
    if e == 0:
        if c == ONE:
            raise NotInvertible("division by exact zero factor (1 - 1)")
        return x.mul_monomial((ONE - c).inv(), 0)
    if e < 0:
        ci = c.inv()
        y = x.mul_monomial(-ci, -e)
        return div_binomial_oracle(y, ci, -e)
    if x.is_zero():
        return x
    n = x.trunc - x.val
    out = list(x.coeffs) + [ZERO] * (n - len(x.coeffs))
    for k in range(e, n):
        prev = out[k - e]
        if prev:
            out[k] = out[k] + c * prev
    return QSeries(x.ctx, x.val, out, x.trunc)


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


def _polymul(a: list, b: list, n: int) -> list:
    """Oracle: the first min(n, len(a) + len(b) - 1) coefficients of a*b for
    Q(w) lists a, b, each scaled to Z[w] and the product converted back,
    as the Q(w) product path before it left the series module."""
    if not a or not b or n <= 0:
        return []
    da, ar, ao = _scaled(a[:n])
    db, br, bo = _scaled(b[:n])
    return _from_zw(da * db, *_zw_mul(ar, ao, br, bo, n))


def parent_inverse(x):
    """Oracle: 1/x by Newton iteration on Q(w) lists through _polymul, as
    QSeries.inverse was before it ran on the Z[w] form."""
    a = x.coeffs
    n = x.trunc - x.val
    out = [a[0].inv()]
    while len(out) < n:
        h = len(out)
        m = min(2 * h, n)
        corr = _polymul(out, _polymul(a, out, m)[h:], m - h)
        out += [-c if c else ZERO for c in corr]
        out += [ZERO] * (m - len(out))
    return QSeries(x.ctx, -x.val, out, x.trunc - 2 * x.val)


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


@pytest.mark.parametrize("kb", range(1, 11))
def test_pack_and_unpack_round_trip_the_slot_bounds(kb):
    """At every slot width, a machine word (1, 2, 4, 8 bytes, through
    `array`) or not (one entry at a time), _pack is the arithmetic sum
    xs[i] * 2^(8*kb*i), which holds on any byte order, and _unpack reads
    the n low slots back, whatever lies above them."""
    bias = 1 << (8 * kb - 1)
    rng = random.Random(kb)
    edges = [-bias, -1, 0, 1, bias - 1]
    for xs in (edges, edges[::-1], [rng.randrange(-bias, bias) for _ in range(40)], [-bias] * 7, []):
        p = _pack(xs, kb, bias)
        assert p == sum(x << (8 * kb * i) for i, x in enumerate(xs))
        assert _unpack(p, len(xs), kb, bias) == xs
        assert _unpack(p - (3 << (8 * kb * len(xs))), len(xs), kb, bias) == xs


@pytest.mark.parametrize("bits", [8, 16, 32, 64])
def test_zw_mul_matches_schoolbook_at_slot_width_boundaries(bits, monkeypatch):
    """(M - M*w)(-M + M*w) = 3*M^2*w, so with m = min(len(a), len(b)) the
    product of these lists reaches the kernel's bound 3*m*M^2 exactly. A
    bound just below 2^(bits-1) fits a signed slot of that many bits; one
    at or above it takes the next machine word, or 9 bytes past 64 bits,
    so no slot of 3, 5, 6 or 7 bytes is used."""
    widths = []

    def pack(xs, kb, bias):
        widths.append(kb)
        return _pack(xs, kb, bias)

    monkeypatch.setattr(series, "_pack", pack)
    for m in (1, 2, 5, 13):
        low = math.isqrt((2 ** (bits - 1) - 1) // (3 * m))
        assert 3 * m * low**2 < 2 ** (bits - 1) <= 3 * m * (low + 1) ** 2
        for big, want in ((low, bits // 8), (low + 1, {8: 2, 16: 4, 32: 8, 64: 9}[bits])):
            for sign in (1, -1):
                for a, b in (
                    ([CycRat(big, -big)] * m, [CycRat(-sign * big, sign * big)] * (m + 1)),
                    ([CycRat(sign * big)] * (m + 2), [CycRat(big)] * m),
                ):
                    widths.clear()
                    assert _polymul(a, b, 2 * m + 2) == schoolbook(a, b, 2 * m + 2)
                    assert set(widths) == {want}


def test_newton_inverse_matches_recurrence():
    """The Z[w] Newton inverse equals the Newton iteration on Q(w) lists,
    and on the first draws (large entries) the term-by-term recurrence, in
    val, trunc, coefficients and the canonical Z[w] form, whether the
    input was built from a Q(w) list or by from_zw."""
    rng = random.Random(41)
    seen = {"w lead": 0, "fractional lead": 0, "negative val": 0}
    for k in range(330):
        ctx = SeriesContext(1 + k % 3, 80)
        big = k < 25
        a = rand_zw_list(rng, rng.randint(1, 40), *((10**6, 10**3) if big else (50, 12)))
        a[0] = rng.choice([a[0], rand_factor_coeff(rng), ONE, -ONE]) or ONE
        if rng.random() < 0.3:
            a = [CycRat(c.re) for c in a]
            a[0] = a[0] or CycRat(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        val = rng.randint(-5, 5)
        x = QSeries(ctx, val, a, rng.randint(val + 1, ctx.order))
        if k % 2:
            x = zw_only(x)
        got = x.inverse()
        assert got == parent_inverse(zw_only(x))
        assert got.zw == _scaled(got.coeffs)
        if big:
            n = x.trunc - x.val
            expect = QSeries(ctx, -val, recurrence_inverse(x.coeffs, n), x.trunc - 2 * val)
            assert got == expect
        seen["w lead"] += bool(a[0].om)
        seen["fractional lead"] += a[0].re.denominator > 1
        seen["negative val"] += val < 0
    assert min(seen.values()) > 30, seen


def rand_factor_coeff(rng):
    """A nonzero c: an integer, a rational, w-valued, or a general Q(w)."""
    kind = rng.randrange(5)
    if kind == 0:
        return CycRat(rng.choice([1, -1, 2, -3]))
    if kind == 1:
        return CycRat(Fraction(rng.choice([1, -1, 3, -5]), rng.randint(2, 7)))
    if kind == 2:
        return rng.choice([OMEGA, -OMEGA, CycRat(-1, -1), CycRat(2, 1)])
    if kind == 3:
        return ONE
    return CycRat(Fraction(rng.randint(-4, 4), rng.randint(1, 5)), Fraction(rng.randint(1, 4), rng.randint(1, 5)))


def rand_window_series(rng, ctx):
    """A series with a rational or Q(w) window, sometimes zero, sometimes
    known to less than the context order."""
    val = rng.randint(-8, 8)
    trunc = rng.randint(val + 1, ctx.order) if rng.random() < 0.5 else ctx.order
    if rng.random() < 0.1:
        return ctx.zero(trunc)
    coeffs = rand_zw_list(rng, rng.randint(1, 30), num=20, den=6)
    coeffs[0] = coeffs[0] or ONE
    if rng.random() < 0.4:
        coeffs = [CycRat(c.re) for c in coeffs]
        coeffs[0] = coeffs[0] or ONE
    return QSeries(ctx, val, coeffs, trunc)


def oracle_step(x, c, e, p):
    return binomial_oracle(x, c, e) if p > 0 else div_binomial_oracle(x, c, e)


def test_binomial_pass_matches_cycrat_oracles():
    """val, trunc and every coefficient of the integer pass equal the Q(w)
    loops: rational and w-valued c, e < 0, e == 0 with c != 1, e past the
    window, the zero series."""
    rng = random.Random(77)
    ctx = SeriesContext(2, 40)
    for _ in range(400):
        x = rand_window_series(rng, ctx)
        c = rand_factor_coeff(rng)
        window = max(1, x.trunc - x.val)
        e = rng.choice([0, rng.randint(-12, -1), rng.randint(1, 12), window + rng.randint(0, 5), -window - rng.randint(0, 5)])
        if e == 0 and c == ONE:
            c = OMEGA
        assert mul_binomial(x, c, e) == binomial_oracle(x, c, e)
        assert div_binomial(x, c, e) == div_binomial_oracle(x, c, e)
    x = rand_window_series(rng, ctx)
    assert mul_binomial(x, ONE, 0) == binomial_oracle(x, ONE, 0)
    for e in (-(10**12), 10**12):  # exponents far outside any window
        assert mul_binomial(x, OMEGA, e) == binomial_oracle(x, OMEGA, e)
        assert div_binomial(x, OMEGA, e) == div_binomial_oracle(x, OMEGA, e)
    assert mul_binomial(x, ZERO, 3) is x and div_binomial(x, ZERO, 3) is x
    with pytest.raises(NotInvertible):
        div_binomial(x, ONE, 0)


def test_binomial_factor_lists_match_sequential_oracles():
    rng = random.Random(78)
    ctx = SeriesContext(3, 45)
    for _ in range(150):
        x = rand_window_series(rng, ctx)
        factors = []
        for _ in range(rng.randint(1, 8)):
            c = rand_factor_coeff(rng) if rng.random() < 0.9 else ZERO
            e = rng.randint(-10, 50)
            p = rng.choice([1, -1])
            if e == 0 and c == ONE:
                p = 1
            factors.append((c, e, p))
        expect = x
        for c, e, p in factors:
            expect = oracle_step(expect, c, e, p)
        assert mul_binomials(x, zw_factors(factors)) == expect


def parent_division(zw, n, c, e):
    """The parent pass's recurrence for (re + om*w)/d, padded to a window
    of n, divided by (1 - c*q^e), e > 0: e strided runs for an integer c,
    one entry at a time otherwise."""
    d, re, om = zw
    re, om = list(re) + [0] * (n - len(re)), list(om) + [0] * (n - len(om))
    s, (cr,), (co,) = _scaled([c])
    if s == 1 and not co:
        step = None if cr == 1 else (lambda acc, a: a + cr * acc)
        for xs in (re, om):
            for r in range(e):
                xs[r::e] = accumulate(xs[r::e], step)
        return d, re, om
    big = s ** ((n - 1) // e)
    re, om = [big * a for a in re], [big * b for b in om]
    for k in range(e, n):
        pr, po = re[k - e], om[k - e]
        re[k] += (cr * pr - co * po) // s
        om[k] += ((cr - co) * po + co * pr) // s
    return d * big, re, om


def test_block_recurrence_matches_the_strided_one():
    """Division by (1 - c*q^e) for e from 1 to n + 1, n the window, on
    both sides of e*e == n, equals the parent's strided recurrence: c
    integer, rational or w-valued, series with w parts, through
    mul_binomials and through ZwSum.div_binomial, whose window stays
    order - val long."""
    rng = random.Random(81)
    cs = [ONE, -ONE, CycRat(2), CycRat(Fraction(1, 2)), OMEGA, CycRat(1, 1)]  # 1 + w = -w^2
    sides = {True: 0, False: 0}
    for order in (1, 2, 9, 10, 37, 64):
        ctx = SeriesContext(1, order)
        for c in cs:
            for val in (0, rng.randint(-6, order - 1)):
                n = order - val
                for e in range(1, n + 2):
                    coeffs = rand_zw_list(rng, rng.randint(1, n), num=30, den=4)
                    coeffs[0] = coeffs[0] or OMEGA
                    x = QSeries(ctx, val, coeffs, order)
                    expect = QSeries.from_zw(ctx, val, *parent_division(x.zw, n, c, e), order)
                    assert mul_binomials(x, zw_factors([(c, e, -1)])) == expect, (c, e, n)
                    acc = ZwSum(ctx, val)
                    acc.add(x)
                    acc.div_binomial(_zw_scalar(c), e)
                    assert len(acc.re) == len(acc.om) == order - acc.val
                    assert acc.series() == expect
                    sides[e * e >= n] += e < n
    assert min(sides.values()) > 100, sides


def test_zw_sum_matches_qseries_sums():
    """ZwSum adds c*q^e*x exactly as QSeries.mul_monomial and the parent's
    Q(w) add do, below the order: rational and w-valued c, windows cut by
    the order, terms past the order, the zero series."""
    rng = random.Random(79)
    for _ in range(60):
        ctx = SeriesContext(rng.choice([1, 2]), rng.randint(10, 40))
        lo = rng.randint(-12, 4)
        acc, expect = ZwSum(ctx, lo), ctx.zero()
        for _ in range(rng.randint(0, 6)):
            x = rand_window_series(rng, ctx)
            c = rand_factor_coeff(rng) if rng.random() < 0.9 else ZERO
            e = lo - min(x.val, x.trunc) + rng.randint(0, ctx.order + 4)
            acc.add(x, c, e)
            term = x.mul_monomial(c, e)
            expect = parent_add(expect, QSeries(ctx, term.val, term.coeffs, ctx.order))
        got = acc.series()
        assert got.trunc == ctx.order
        assert equal_to_order(got, expect, ctx.order)
    acc = ZwSum(SeriesContext(1, 10), 2)
    with pytest.raises(ValueError):
        acc.add(QSeries(SeriesContext(1, 10), 1, [ONE], 10))


def rand_sum_operand(rng, ctx, like=None):
    """A series for the sum tests, built by the Q(w) constructor or by
    from_zw: a negative val, a trunc short of the order, the zero series
    (val == trunc), or, given like, one whose leading entries cancel those
    of like, or all of them."""
    if like is not None and not like.is_zero() and rng.random() < 0.25:
        keep = rng.randint(1, len(like.coeffs))
        coeffs = [-c for c in like.coeffs[:keep]] + rand_zw_list(rng, rng.randint(0, 6), num=9, den=4)
        val, trunc = like.val, like.trunc if rng.random() < 0.5 else ctx.order
    else:
        val = rng.randint(-3 * ctx.denom, ctx.order - 1)
        trunc = rng.randint(val, ctx.order) if rng.random() < 0.4 else ctx.order
        big = rng.random() < 0.2
        coeffs = rand_zw_list(rng, rng.randint(0, 25), num=10**15 if big else 9, den=10**6 if big else 4)
    if rng.random() < 0.5:
        return QSeries(ctx, val, coeffs, trunc)
    return QSeries.from_zw(ctx, val, *_scaled(coeffs), trunc)


def _same(got, want):
    assert (got.val, got.trunc, got.zw) == (want.val, want.trunc, want.zw)


def test_sums_match_the_parent_q_w_add():
    """a + b, a - b, -a and n-ary sums of c*q^e*x through one ZwSum keep
    the val, trunc and Z[w] form of the parent's Q(w) merge: operands built
    either way, D = 1, 2, 3, negative vals, zero series, unequal truncs and
    leading entries that cancel."""
    rng = random.Random(2323)
    seen = dict.fromkeys(["zero", "short", "negative val", "cancel", "empty sum"], 0)
    for _ in range(400):
        ctx = SeriesContext(rng.choice([1, 2, 3]), rng.randint(1, 40))
        a = rand_sum_operand(rng, ctx)
        b = rand_sum_operand(rng, ctx, like=a)
        _same(a + b, parent_add(a, b))
        _same(a - b, parent_add(a, parent_neg(b)))
        _same(-a, parent_neg(a))
        _same(a - a, parent_add(a, parent_neg(a)))
        # n-ary sums of c*q^e*x against the parent's mul_monomial and adds
        terms = [(rng.choice([ONE, -ONE, rand_factor_coeff(rng)]), rng.randint(-4, 4), x)
                 for x in [a] + [rand_sum_operand(rng, ctx, like=a) for _ in range(rng.randint(0, 5))]]
        want = ctx.zero()
        for c, e, x in terms:
            want = parent_add(want, x.mul_monomial(c, e))
        got = series_sum(ctx, terms)
        _same(got, want)
        seen["zero"] += a.is_zero() or b.is_zero()
        seen["short"] += min(a.trunc, b.trunc) < ctx.order
        seen["negative val"] += min(a.val, b.val) < 0
        seen["cancel"] += not (a + b).is_zero() and (a + b).val > min(a.val, b.val)
        seen["empty sum"] += got.is_zero()
    assert min(seen.values()) > 20, seen
    with pytest.raises(ContextMismatch):
        SeriesContext(1, 5).one() + SeriesContext(2, 5).one()
    with pytest.raises(ContextMismatch):
        SeriesContext(1, 5).one() - SeriesContext(1, 6).one()
    assert series_sum(SeriesContext(1, 5), []) == SeriesContext(1, 5).zero()


def test_zw_sum_window_covers_its_terms_only():
    """A sum's window runs from its least term to its furthest one, so a
    sum of short series costs their length, not the order; a division
    fills it to the order."""
    ctx = SeriesContext(1, 10**4)
    acc = ZwSum(ctx, -3)
    acc.add(QSeries(ctx, 2, [ONE, OMEGA], ctx.order))
    assert (acc.val, len(acc.re), len(acc.om)) == (2, 2, 2)
    acc.add(QSeries(ctx, -3, [ONE], ctx.order), -ONE)
    acc.add_monomial(ZW_ONE, 5)
    assert (acc.val, len(acc.re), len(acc.om)) == (-3, 9, 9)
    assert (ctx.monomial(ONE, 2) + ctx.monomial(ONE, 3)).zw == (1, [1, 1], [0, 0])
    acc.div_binomial(ZW_ONE, 1)
    assert len(acc.re) == len(acc.om) == ctx.order + 3


def test_chain_trunc_matches_left_to_right_products():
    """chain_trunc gives the trunc of x_0 * x_1 * ... for series known to
    the order or below it, zero series among them, and negative vals."""
    rng = random.Random(80)
    for _ in range(300):
        ctx = SeriesContext(1, rng.randint(1, 30))
        factors = []
        for _ in range(rng.randint(1, 5)):
            trunc = ctx.order if rng.random() < 0.5 else rng.randint(-20, ctx.order)
            if rng.random() < 0.15:
                factors.append(ctx.zero(trunc))
            else:
                factors.append(QSeries(ctx, rng.randint(-15, ctx.order + 3), [OMEGA, ONE], trunc))
        product = factors[0]
        for f in factors[1:]:
            product = product * f
        assert chain_trunc(ctx.order, [(f.val, f.trunc) for f in factors]) == product.trunc


def test_chain_trunc_closed_form_over_a_lattice_point():
    """Over a lattice point's chain, its term's factor (e, O) with e of
    any sign, or (O, O) for a zero term, then rows (v, O) with v in
    [0, O], chain_trunc is O + min(0, V - max v), V the sum of the vals:
    `multisum` computes its trunc by this form."""
    rng = random.Random(30)
    lowered = 0
    for _ in range(3000):
        order = rng.randint(1, 40)
        head = order if rng.random() < 0.15 else rng.randint(-3 * order - 10, 2 * order)
        vals = [head] + [rng.choice([0, order, rng.randint(0, order)]) for _ in range(rng.randint(0, 4))]
        got = chain_trunc(order, [(v, order) for v in vals])
        assert got == order + min(0, sum(vals) - max(vals)), (order, vals)
        lowered += got < order
    assert lowered > 500, lowered


def test_zw_sum_window_ending_below_the_order_is_exact_below_it():
    """A ZwSum whose window ends at hi holds every coefficient below hi
    as the same sum over the window to the order does: adds and divisions
    only move coefficients upward. Dividing the zero sum leaves it zero."""
    rng = random.Random(31)
    ctx = SeriesContext(1, 30)
    for _ in range(200):
        hi = rng.randint(-10, ctx.order)
        ops = []
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.5:
                ops.append(("add", _zw_scalar(rng.choice([ONE, -ONE, OMEGA, CycRat(Fraction(1, 2))])), rng.randint(-20, 35)))
            else:
                ops.append(("div", _zw_scalar(rng.choice([ONE, -ONE, OMEGA2, CycRat(2)])), rng.choice([-3, -1, 1, 2, 5])))
        full, short = ZwSum(ctx, -20), ZwSum(ctx, -20, hi)
        for acc in (full, short):
            for op, c, e in ops:
                acc.add_monomial(c, e) if op == "add" else acc.div_binomial(c, e)
        got = short.series()
        want = full.series(hi)
        assert (got.val, got.trunc, got.zw) == (want.val, want.trunc, want.zw), (hi, ops)
        assert len(short.re) <= max(0, hi - short.val)
    empty = ZwSum(ctx, 0)
    empty.div_binomial(ZW_ONE, -2)
    assert (empty.re, empty.val, empty.series()) == ([], ctx.order, ctx.zero())


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


def parent_mul(x, y):
    """Oracle: the product on Q(w) lists, each operand scaled to Z[w] and
    the product converted back by _polymul, as QSeries.__mul__ was."""
    t = min(x.trunc + y.val, y.trunc + x.val)
    if x.is_zero() or y.is_zero():
        return x.ctx.zero(t)
    lo = x.val + y.val
    n = min(t, x.ctx.order) - lo
    if n <= 0:
        return x.ctx.zero(t)
    return QSeries(x.ctx, lo, _polymul(x.coeffs, y.coeffs, n), t)


def zw_only(x):
    """x rebuilt by from_zw from its triple."""
    return QSeries.from_zw(x.ctx, x.val, *x.zw, x.trunc)


def snapshot(xs):
    return [(d, list(re), list(om)) for d, re, om in (x.zw for x in xs)]


def rand_operands(rng, ctx):
    """Two random series, the first sometimes rebuilt by from_zw."""
    x, y = rand_window_series(rng, ctx), rand_window_series(rng, ctx)
    return (zw_only(x) if rng.random() < 0.5 else x), y


def kernel_results(rng, x, y, ctx):
    """Every kernel on x and y: products, binomial passes, lattice sums,
    a sum that cancels to zero, and one that is zero on a window short of
    the order."""
    factors = [(rand_factor_coeff(rng), rng.randint(-6, 30), rng.choice([1, -1])) for _ in range(3)]
    factors = [(c, e, 1 if e == 0 and c == ONE else p) for c, e, p in factors]
    lo = min(x.val, y.val) - 2
    acc, gone = ZwSum(ctx, lo), ZwSum(ctx, lo)
    acc.add(x, rand_factor_coeff(rng), 2)
    acc.add(y)
    gone.add(x)
    gone.add(x, -ONE)
    results = [x * y, y * x, x * x, mul_binomials(x, zw_factors(factors)), mul_binomials(y, zw_factors([(ONE, 0, 1)]))]
    return results + [acc.series(), acc.series(rng.randint(lo, ctx.order)), gone.series(), gone.series(lo + 3)]


def test_zw_scalar_products_and_inverses_match_cycrat():
    """_zw_times and _zw_inverse equal CycRat's * and inv on random
    elements, w-multiples among them, and return the canonical triple that
    _zw_scalar gives; _zw_value reads a triple back."""
    rng = random.Random(85)
    pool = [rand_factor_coeff, lambda r: r.choice([OMEGA, OMEGA2, -OMEGA, CycRat(0, Fraction(2, 3))]) * rand_factor_coeff(r)]
    for _ in range(2000):
        a, b = (rng.choice(pool)(rng) for _ in range(2))
        za, zb = _zw_scalar(a), _zw_scalar(b)
        assert _zw_times(za, zb) == _zw_scalar(a * b)
        assert _zw_inverse(za) == _zw_scalar(a.inv())
        assert _zw_times(za, _zw_inverse(za)) == ZW_ONE
        assert _zw_value(za) == a
    assert _zw_times(_zw_scalar(CycRat(Fraction(3, 4), 1)), ZW_ZERO) == ZW_ZERO == _zw_scalar(ZERO)


def test_kernel_results_carry_the_canonical_zw_form():
    rng = random.Random(81)
    ctx = SeriesContext(2, 40)
    zeros = 0
    for _ in range(150):
        for r in kernel_results(rng, *rand_operands(rng, ctx), ctx):
            assert r.zw == _scaled(r.coeffs)
            zeros += r.is_zero() and r.trunc < ctx.order
    assert zeros > 100


def test_kernels_leave_operand_zw_lists_alone():
    rng = random.Random(82)
    ctx = SeriesContext(2, 40)
    for _ in range(150):
        x, y = rand_operands(rng, ctx)
        before = snapshot([x, y])
        kernel_results(rng, x, y, ctx)
        assert snapshot([x, y]) == before


def test_products_match_the_q_w_list_product():
    rng = random.Random(83)
    ctx = SeriesContext(2, 40)
    for _ in range(300):
        x, y = rand_window_series(rng, ctx), rand_window_series(rng, ctx)
        if rng.random() < 0.5:
            y = zw_only(y)
        assert x * y == parent_mul(x, y)
    big = QSeries(ctx, -3, rand_zw_list(rng, 60), ctx.order)
    assert big * big == parent_mul(big, big)


def parent_first_mismatch(x, y, up_to):
    """Oracle: first_mismatch's scan over the Q(w) lists, as it read them
    before it compared Z[w] entries."""
    for e in range(min(x.val, y.val), up_to):
        cx = x.coeffs[e - x.val] if 0 <= e - x.val < len(x.coeffs) else ZERO
        cy = y.coeffs[e - y.val] if 0 <= e - y.val < len(y.coeffs) else ZERO
        if cx != cy:
            return (e, cx, cy)
    return None


def test_first_mismatch_matches_the_q_w_scan():
    """Pairs that differ in one entry, only in its rational part or only in
    its w part, by an amount with its own denominator; the entry lies below,
    inside or above x's window, and up_to below or above it."""
    rng = random.Random(84)
    ctx = SeriesContext(2, 40)
    outcomes = {None: 0, "mismatch": 0}
    for k in range(400):
        val = rng.randint(-6, 6)
        a = rand_zw_list(rng, rng.randint(1, 20), num=20, den=6)
        at = rng.randint(-4, len(a) + 4)
        lo, b = min(at, 0), list(a) + [ZERO] * (at + 1 - len(a))
        b = [ZERO] * -lo + b
        part = Fraction(rng.choice([1, -1]) * rng.randint(1, 9), rng.randint(1, 9))
        b[at - lo] = b[at - lo] + (CycRat(part) if k % 2 else CycRat(0, part))
        x, y = QSeries(ctx, val, a, ctx.order), QSeries(ctx, val + lo, b, ctx.order)
        if rng.random() < 0.5:
            x = zw_only(x)
        if rng.random() < 0.5:
            y = zw_only(y)
        up_to = min(ctx.order, val + at + rng.randint(-3, 4))
        for u, v in ((x, y), (y, x)):
            got = first_mismatch(u, v, up_to)
            assert got == parent_first_mismatch(u, v, up_to)
        outcomes["mismatch" if got else None] += 1
    assert min(outcomes.values()) > 100, outcomes


def assert_canonical(x):
    """x stores the canonical triple: d the smallest positive denominator,
    no zero entry at either end (the zero series is (1, [], []) at its
    trunc), and `coeffs` is its Q(w) view."""
    d, re, om = x.zw
    assert d > 0 and math.gcd(d, *re, *om) == 1 and len(re) == len(om)
    if re:
        assert (re[0] or om[0]) and (re[-1] or om[-1]) and x.val + len(re) <= x.trunc
    else:
        assert x.val == x.trunc and d == 1
    assert x.coeffs == _from_zw(d, re, om)


def test_q_w_series_equal_and_hash_as_their_zw_twins():
    """A series built from a Q(w) list is == to the series built by from_zw
    from any Z[w] triple of the same window, hashes the same, and is !=
    to one that differs in the w parts or in d. Both store the canonical
    triple, also where the list has zero ends and entries past the trunc
    (whose denominators must not reach d), and so do the SeriesContext
    helpers, equal to the same window built from a Q(w) list."""
    rng = random.Random(85)
    for k in range(200):
        ctx = SeriesContext(1 + k % 3, 30)
        x = rand_window_series(rng, ctx)
        d, re, om = _scaled(x.coeffs)
        s, pad = rng.randint(1, 12), rng.randint(0, 3)
        twin = QSeries.from_zw(
            ctx, x.val - pad, d * s,
            [0] * pad + [s * r for r in re] + [0] * pad,
            [0] * pad + [s * o for o in om] + [0] * pad,
            x.trunc,
        )
        fresh = QSeries(ctx, x.val, list(x.coeffs), x.trunc)
        assert hash(fresh) == hash(twin)
        assert fresh == twin and twin == fresh
        assert {fresh: k}[twin] == k
        if re:  # a change in the w parts alone, or in d alone, is seen
            assert fresh != QSeries.from_zw(ctx, x.val, d, re, [o + 1 for o in om], x.trunc)
            assert fresh != QSeries.from_zw(ctx, x.val, 2 * d, re, om, x.trunc)
        gap = [ZERO] * (x.trunc - x.val - len(re))
        past = [CycRat(Fraction(1, 7), Fraction(-2, 11))] + rand_zw_list(rng, rng.randint(0, 5), num=9, den=13)
        padded = QSeries(ctx, x.val - pad, [ZERO] * pad + x.coeffs + gap + past, x.trunc)
        assert padded == x and hash(padded) == hash(x) and padded.zw[0] == d
        for y in (x, twin, fresh, padded):
            assert_canonical(y)
    for k in range(300):
        ctx = SeriesContext(1 + k % 3, 30)
        t = rng.choice([None, rng.randint(-5, 40)])
        c = rng.choice([ZERO, rand_factor_coeff(rng), CycRat(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))])
        e = rng.randint(-5, 35)
        cut = ctx.order if t is None else min(t, ctx.order)
        pairs = [
            (ctx.zero(t), QSeries(ctx, 0, [], cut)),
            (ctx.one(), QSeries(ctx, 0, [ONE], ctx.order)),
            (ctx.monomial(c, e, t), QSeries(ctx, e, [c], cut)),
        ]
        for got, want in pairs:
            assert_canonical(got)
            assert got == want and (got.val, got.trunc) == (want.val, want.trunc)
        assert ctx.zero(t).trunc == cut and ctx.monomial(c, e, t).is_zero() == (not c or e >= cut)


def test_mul_monomial_matches_the_zw_scale():
    """x.mul_monomial(c, e), scaled in Q(w), equals the series from_zw
    builds from x's triple scaled by _zw_scale, in val, trunc and zw: the
    oracle for scaling in integers. The series include negative vals,
    truncs short of the order and the zero series; c = 0 gives the zero
    series at trunc + e."""
    rng = random.Random(87)
    seen = dict.fromkeys(["negative val", "short trunc", "zero series", "zero c", "integer", "rational", "w part"], 0)
    for k in range(600):
        ctx = SeriesContext(1 + k % 3, 40)
        x = rand_window_series(rng, ctx)
        if rng.random() < 0.3:
            x = zw_only(x)
        c = rng.choice([
            ZERO,
            CycRat(rng.randint(-9, 9)),
            CycRat(Fraction(rng.randint(-9, 9), rng.randint(2, 9))),
            rand_factor_coeff(rng),
            CycRat(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(rng.randint(1, 9), rng.randint(1, 9))),
        ])
        e = rng.randint(-12, 12)
        got = x.mul_monomial(c, e)
        want = QSeries.from_zw(ctx, x.val + e, *_zw_scale(*x.zw, _zw_scalar(c)), x.trunc + e)
        assert (got.val, got.trunc, got.zw) == (want.val, want.trunc, want.zw)
        assert_canonical(got)
        if not c:
            assert got.is_zero() and got.trunc == min(x.trunc + e, ctx.order)
        seen["negative val"] += x.val < 0 and not x.is_zero()
        seen["short trunc"] += x.trunc < ctx.order
        seen["zero series"] += x.is_zero()
        seen["zero c"] += not c
        seen["integer"] += bool(c) and not c.om and c.re.denominator == 1
        seen["rational"] += not c.om and c.re.denominator > 1
        seen["w part"] += bool(c.om)
    assert min(seen.values()) > 40, seen


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
        equal_to_order(x + ctx.zero(5), y, 8)


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
        assert equal_to_order(prod, ctx.monomial(ONE, 0, prod.trunc), prod.trunc)
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
