import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import parent_poch_rows, rand_cycrat, zseries
from qrucible.cyclotomic import CycRat, OMEGA, OMEGA2, ONE, ZERO
from qrucible.ctengine import (
    MAX_WINDOW,
    PAD,
    ZPochFamily,
    ct_product,
    plan_window,
    triple_sum_ct,
    zmul,
    zproduct,
    zs_one,
    zsubst,
)
from qrucible.dsl import _collect_ct, elaborate, parse
from qrucible.errors import EvalError, NonPositiveBaseExponent, QrucibleError, WindowOverflow
from qrucible.harness import load_registry, verify
from qrucible.qkernel import f_triple, poch
from qrucible.series import Monomial, QSeries, SeriesContext, equal_to_order, mono, qpow
from qrucible.series import _zw_mul, _zw_scalar, _zw_scale

# the contour integrals with their hypergeometric forms, as suite cases
CONTOUR_FORMS = Path(__file__).parent / "data" / "contour_forms.qid"


# -- the dict-of-QSeries row set: the reference for ZSeries ---------------
#
# ZSeries, zmul, zsubst and zproduct as they stood before one Z[w] row set
# held every z-Laurent series: each row a QSeries, each product a loop over
# row pairs, each sum a Q(w) QSeries sum.


class OracleZSeries:
    """Laurent polynomial in z with QSeries coefficients (one context)."""

    def __init__(self, ctx: SeriesContext, terms: dict):
        self.ctx = ctx
        # a zero row known only below a trunc short of the order stays
        self.terms = {d: s for d, s in terms.items() if not s.is_zero() or s.trunc < ctx.order}

    def coefficient(self, deg: int) -> QSeries:
        return self.terms.get(deg, self.ctx.zero())

    def shift(self, deg: int) -> "OracleZSeries":
        return OracleZSeries(self.ctx, {d + deg: s for d, s in self.terms.items()})

    def scale(self, s: QSeries) -> "OracleZSeries":
        return OracleZSeries(self.ctx, {d: c * s for d, c in self.terms.items()})

    def __add__(self, other: "OracleZSeries") -> "OracleZSeries":
        out = dict(self.terms)
        for d, s in other.terms.items():
            out[d] = out[d] + s if d in out else s
        return OracleZSeries(self.ctx, out)


def oracle_zmul(x: OracleZSeries, y: OracleZSeries) -> OracleZSeries:
    """Full Laurent convolution; truncations propagate per coefficient."""
    out: dict = {}
    for dx, sx in x.terms.items():
        for dy, sy in y.terms.items():
            p = sx * sy
            d = dx + dy
            out[d] = out[d] + p if d in out else p
    return OracleZSeries(x.ctx, out)


def oracle_zsubst(x: OracleZSeries, z: Monomial) -> QSeries:
    acc = x.ctx.zero()
    for d, s in x.terms.items():
        zm = z ** d
        acc = acc + s.mul_monomial(zm.coeff, x.ctx.scale(zm.exp))
    return acc


def parent_zproduct(families, ctx: SeriesContext, window: int) -> OracleZSeries:
    """zproduct with its own (den, lo, rows) Z[w] row set and its own
    packed product per family."""
    if window > MAX_WINDOW:
        raise WindowOverflow(f"window {window} exceeds the configured maximum")
    order = ctx.order
    den, lo, rows = 1, 0, {0: (order, [1], [0])}
    for fam in families:
        if fam.zdeg == 0:
            raise WindowOverflow("z-degree-0 factor is not an integrand factor")
        x, k, eb = Monomial(fam.coeff, fam.qexp), fam.count, ctx.scale(fam.base.exp)
        if k is None:
            parts = [(x, max(0, -((ctx.scale(fam.qexp) - order) // eb)))]
        else:
            parts = [(x, k)] if eb > 0 else [(x * fam.base**j, 1) for j in range(k)]
        for x, count in parts:
            if rows:
                den, lo, rows = _parent_times_family(den, lo, rows, x, count, fam, ctx, window)
    return OracleZSeries(ctx, {m: QSeries.from_zw(ctx, lo, den, r, o, t) for m, (t, r, o) in rows.items()})


def _parent_flat(rows: dict, span: int):
    zero = [0] * span
    re, om = [], []
    for j in range(min(rows), max(rows) + 1):
        _, r, o = rows.get(j, (0, zero, zero))
        re += r + zero[len(r) :]
        om += o + zero[len(o) :]
    return re, om


def _parent_times_family(den, lo, rows, x, count, fam, ctx, window):
    order, d, inv = ctx.order, fam.zdeg, fam.inverted
    e, eb = ctx.scale(x.exp), ctx.scale(fam.base.exp)
    top = (window - min(rows)) // d if d > 0 else (max(rows) + window) // -d
    top = top if inv else min(top, count)
    while top > 0 and top * e + (0 if inv else eb * top * (top - 1) // 2) >= order - lo:
        top -= 1
    frows, fden = {}, 1
    for n, (c, en, g) in enumerate(parent_poch_rows(x, fam.base, count, inv, top, ctx)):
        if c and not g.is_zero():
            gd, gr, go = g.zw
            frows[d * n] = (en, *_zw_scale(gd, gr[: order - lo - en], go[: order - lo - en], _zw_scalar(c)))
            fden = math.lcm(fden, frows[d * n][1])
    f0 = min(en for en, *_ in frows.values())
    for k, (en, s, r, o) in frows.items():
        pre, s = [0] * (en - f0), fden // s
        frows[k] = (en, pre + [s * v for v in r], pre + [s * v for v in o])
    span = order - lo + max(len(r) for _, r, _ in frows.values()) - 1
    at0 = min(rows) + min(frows)
    pr, po = _zw_mul(*_parent_flat(rows, span), *_parent_flat(frows, span), (window - at0 + 1) * span)
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


# -- the per-factor product: the reference for zproduct -------------------


@dataclass(frozen=True)
class ZFactor:
    """(1 - coeff * q^qexp * z^zdeg); qexp in scaled units, zdeg != 0."""

    coeff: CycRat
    qexp: int
    zdeg: int


def _apply_factor(x: OracleZSeries, f: ZFactor, lo: int, hi: int, cancelled: list) -> OracleZSeries:
    out = dict(x.terms)
    for d, s in x.terms.items():
        t = d + f.zdeg
        if lo <= t <= hi:
            shifted = s.mul_monomial(-f.coeff, f.qexp)
            out[t] = out[t] + shifted if t in out else shifted
            if out[t].is_zero() and not shifted.is_zero():
                cancelled.append(t)
    return OracleZSeries(x.ctx, out)


def _apply_inverse_factor(x: OracleZSeries, f: ZFactor, lo: int, hi: int,
                          cancelled: list) -> OracleZSeries:
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
    return OracleZSeries(x.ctx, out)


def factor_product(factors, ctx: SeriesContext, window: int, cancelled=None) -> OracleZSeries:
    """Product of (1 - c q^e z^d)^(+-1), one factor at a time, starting from
    1 on [-window, window]; the degrees where a factor cancelled a row to
    zero are appended to `cancelled`."""
    cancelled = [] if cancelled is None else cancelled
    acc = OracleZSeries(ctx, {0: ctx.one()})
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


def oracle_zproduct(families, ctx, window, cancelled=None) -> OracleZSeries:
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


# (q z; q)_inf: an infinite z family, so the window is planned from the
# 1/z supply alone and not capped by the positive-degree families
UNCAPPED = ZPochFamily(ONE, Fraction(1), 1, qpow(1))


def _window(s: QSeries):
    return (s.val, s.trunc, s.coeffs)


def ct_families(text: str) -> list:
    """The z-families of a ct{...} integrand, as `qrucible verify` reads them."""
    families: list = []
    _collect_ct(parse(text).integrand, False, families, [], [])
    return families


def triple_sum_integrand(u: str, v: str, w: str) -> str:
    """The integrand of `triple_sum_ct` for F(u, v, w)."""
    return (f"ct{{qp(1/z, q^2*z; q^2; inf)*qp(-({w})*z^3; q^6; inf)"
            f"/qp(-({u})*z; q; inf)/qp(({v})*z^2; q^4; inf)}}")


def widened_ct(families, ctx: SeriesContext, extra: int) -> QSeries:
    """The constant term with the planned window widened by `extra`
    degrees, narrowed back to ctx as ct_product narrows it."""
    window, margin = plan_window(families, ctx)
    work = SeriesContext(ctx.denom, ctx.order + margin)
    ct = zproduct(families, work, window + extra).coefficient(0)
    return QSeries(ctx, ct.val, list(ct.coeffs), min(ct.trunc, ctx.order))


def assert_cases_pass(pattern: str) -> None:
    cases = load_registry([CONTOUR_FORMS]).select(pattern)
    assert cases
    for case in cases:
        rep = verify(case)
        assert rep.status == "PASS" and rep.proven_order >= case.order, (case.name, rep)


@pytest.fixture
def ctx():
    return SeriesContext(1, 20)


def test_constant_term_picks_degree_zero(ctx):
    x = zseries(ctx, {1: ctx.monomial(ONE, 2), 0: ctx.monomial(CycRat(3), 0),
                      -1: ctx.monomial(ONE, 1)})
    ct = x.coefficient(0)
    assert ct.coefficient(0) == CycRat(3)
    pure = zseries(ctx, {4: ctx.one()})
    assert pure.coefficient(0).is_zero() and pure.coefficient(0).trunc == ctx.order


def test_zero_row_below_the_order_is_kept(ctx):
    # a row known to be 0 only below q^5 keeps that trunc, so neither the
    # row nor a substitution claims coefficients up to the order
    x = zseries(ctx, {0: ctx.zero(5), 1: ctx.one()})
    assert x.coefficient(0).trunc == 5
    assert zsubst(x, qpow(1)).trunc == 5
    assert zmul(x, zs_one(ctx)).coefficient(0).trunc == 5
    # a row that is 0 to the order carries nothing and is dropped
    assert 0 not in zseries(ctx, {0: ctx.zero()}).terms


def test_zmul_laurent_identity(ctx):
    x = zseries(ctx, {1: ctx.one(), 0: ctx.one(), -1: ctx.one()})
    y = zs_one(ctx)
    p = zmul(x, y)
    assert set(p.terms) == {-1, 0, 1}
    b1 = zseries(ctx, {0: ctx.one(), 1: ctx.monomial(-ONE, 1)})   # 1 - qz
    b2 = zseries(ctx, {0: ctx.one(), 1: ctx.monomial(ONE, 1)})    # 1 + qz
    p2 = zmul(b1, b2)
    assert set(p2.terms) == {0, 2}
    assert p2.coefficient(2).coefficient(2) == -ONE


# -- the row set against the dict-of-QSeries oracle -----------------------


def _rows_of(zs) -> dict:
    return {d: _window(s) for d, s in zs.terms.items()}


def _random_series(rng, ctx: SeriesContext) -> QSeries:
    """A series of val -3..4 (below the order) with fractional and w-part coefficients, zero
    runs, and a trunc at or below the order; one in five is zero, known
    below a trunc short of the order or to the order."""
    if rng.random() < 0.2:
        return ctx.zero(rng.choice([ctx.order, rng.randint(-2, ctx.order - 1)]))
    val = rng.randint(-3, min(4, ctx.order - 1))
    coeffs = [rand_cycrat(rng, 5) if rng.random() < 0.7 else ZERO for _ in range(rng.randint(1, 7))]
    return QSeries(ctx, val, coeffs, ctx.order if rng.random() < 0.6 else rng.randint(val, ctx.order))


def _z_values(ctx: SeriesContext) -> list:
    zs = [qpow(1), qpow(-1), mono(OMEGA, 0), Monomial(CycRat(Fraction(-1, 2)), 2)]
    return zs + ([mono(OMEGA2, Fraction(-1, 2))] if ctx.denom == 2 else [])


def test_row_set_matches_dict_of_qseries_oracle():
    # zmul (windowed too), +, shift, scale and zsubst, and a chain of
    # them, in val, trunc and coefficients per row; the draws hold empty
    # sets, gaps between degrees, negative vals, zero rows short of the
    # order and zero scalars
    rng = random.Random(20261019)
    seen = dict.fromkeys(["empty", "gap", "negative val", "zero row", "w part",
                          "zero scalar cuts", "window cuts"], 0)
    for _ in range(400):
        ctx = SeriesContext(rng.choice([1, 2]), rng.randint(3, 12))
        a, b = ({m: _random_series(rng, ctx) for m in rng.sample(range(-5, 6), rng.randint(0, 4))}
                for _ in range(2))
        x, y, ox, oy = zseries(ctx, a), zseries(ctx, b), OracleZSeries(ctx, a), OracleZSeries(ctx, b)
        s, k, top = _random_series(rng, ctx), rng.randint(-3, 3), rng.randint(0, 4)
        p, op = zmul(x, y), oracle_zmul(ox, oy)
        windowed = {d: w for d, w in _rows_of(op).items() if abs(d) <= top}
        assert _rows_of(x) == _rows_of(ox) and _rows_of(zmul(x, y, top)) == windowed
        for got, want in [(p, op), (x + y, ox + oy), (x.shift(k), ox.shift(k)),
                          (x.scale(s), ox.scale(s)), (p.scale(s) + y.shift(k), op.scale(s) + oy.shift(k))]:
            assert _rows_of(got) == _rows_of(want), (a, b, s, k)
        for z in _z_values(ctx):
            assert _window(zsubst(x, z)) == _window(oracle_zsubst(ox, z)), (a, z)
        rows = list(ox.terms.values())
        seen["empty"] += not rows
        seen["gap"] += any(d + 1 not in ox.terms for d in ox.terms) and len(rows) > 1
        seen["negative val"] += any(r.val < 0 for r in rows)
        seen["zero row"] += any(r.is_zero() for r in rows)
        seen["w part"] += any(c.om for r in rows for c in r.coeffs)
        seen["zero scalar cuts"] += s.is_zero() and s.trunc == ctx.order and bool(ox.scale(s).terms)
        seen["window cuts"] += len(windowed) < len(op.terms)
    assert min(seen.values()) >= 10, seen


def test_zproduct_matches_the_parent_on_random_integrands():
    # the ct{} integrands of the honesty generator, at their planned
    # windows and working orders
    from test_honesty import CT_BUDGET, D, _integrand

    rng = random.Random(20261020)
    compared = 0
    for _ in range(300):
        text, order = _integrand(rng), rng.randint(4, 14)
        families = ct_families(text)
        try:
            window, margin = plan_window(families, SeriesContext(D, order))
        except QrucibleError:
            continue
        work = SeriesContext(D, order + margin)
        if window * work.order > CT_BUDGET:
            continue
        assert _rows_of(zproduct(families, work, window)) == _rows_of(
            parent_zproduct(families, work, window)), (order, text)
        compared += 1
    assert compared > 150


def test_zproduct_single_factor(ctx):
    z = zproduct([ZPochFamily(ONE, Fraction(1), 1, qpow(1), count=1)], ctx, window=4)
    assert set(z.terms) == {0, 1}
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
    # there (against an infinite z family, so no cap applies), and the
    # product agrees with the per-factor oracle
    neg = ZPochFamily(ONE, Fraction(-1), -1, qpow(-1), count=3)
    window, margin = plan_window([neg, UNCAPPED], ctx)
    assert window == 4 + PAD and margin > 0
    fams = [shrinking, neg]
    assert _window(ct_product(fams, ctx)) == _window(oracle_ct_product(fams, ctx))


def test_window_planning_lists_only_usable_factors():
    # degree -n draws at most n factors from one family, so a long 1/z
    # family costs no more to plan than an infinite one
    ctx = SeriesContext(1, 20)
    long = ZPochFamily(ONE, Fraction(0), -1, qpow(1), count=10**7)
    inf = ZPochFamily(ONE, Fraction(0), -1, qpow(1))
    assert plan_window([long, UNCAPPED], ctx) == plan_window([inf, UNCAPPED], ctx)
    # a shrinking base's last factors are its cheapest: q^(-10^6) pays for
    # any degree, so no window is enough
    with pytest.raises(WindowOverflow):
        plan_window([ZPochFamily(ONE, Fraction(5), -1, qpow(-1), count=10**6), UNCAPPED], ctx)


def test_margin_counts_the_factors_of_a_shrinking_base():
    # (q z; q^(-1))_4 has the factors q z, z, q^(-1) z and q^(-2) z: the
    # last two can demote a coefficient by q^3 in all
    families = ct_families("ct{qp(q*z; q^(-1); 4)/qp(q^2/z; q; inf)}")
    ctx = SeriesContext(1, 8)
    assert plan_window(families, ctx)[1] == 3
    got = ct_product(families, ctx)
    deep = ct_product(families, SeriesContext(1, 24))
    assert got.trunc == 8
    assert [got.coefficient(k) for k in (6, 7)] == [deep.coefficient(k) for k in (6, 7)] == [3, 4]


@pytest.mark.parametrize("text", [
    # four 1/z families together return from z^-n at 4x the rate of one
    "ct{qp(1/z, 1/z, 1/z, 1/z; q; inf)/qp(q*z, q*z, q*z, q*z; q; inf)}",
    # the inverted q/z family returns from z^-n at cost about n
    "ct{qp(1/z; q; inf)/qp(q*z, q/z; q; inf)}",
])
def test_window_covers_the_whole_negative_supply(text):
    ctx = SeriesContext(1, 40)
    families = ct_families(text)
    window, _ = plan_window(families, ctx)
    got = ct_product(families, ctx)
    wide = widened_ct(families, ctx, 2 * window)
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
    # the integrand as text is the same product
    text = "qp(q^2; q^2; inf)*" + triple_sum_integrand("q^2", "q^(-1)", "q^6")
    assert elaborate(parse(text), ctx) == triple_sum_ct(qpow(2), qpow(-1), qpow(6), ctx)


def test_window_enlargement_stability(ctx):
    # four more degrees on each side of the planned window change nothing
    for text in [
        triple_sum_integrand("q^2", "q^(-1)", "q^6"),
        "ct{qp(q^3*z, q^3*z, z, q/z; q; inf)/qp(q*z, q^2*z, q^2*z; q; inf)}",
    ]:
        families = ct_families(text)
        base = ct_product(families, ctx)
        wider = widened_ct(families, ctx, 4)
        assert equal_to_order(base, wider, min(base.trunc, wider.trunc)), text


def test_phi21_contour_representation():
    assert_cases_pass("phi21-contour")


def test_balanced_integral_two_forms():
    assert_cases_pass("balanced-2phi*")


def test_balanced_integral_degeneration_oracle():
    # b3 = a2/b1 makes the 2phi1 collapse to a q-binomial product: the
    # integral equals (q^2; q)_inf exactly
    assert_cases_pass("balanced-telescopes")


def test_split_2phi2_contour():
    # with paired denominators (b, -b) and alpha product -b1 b^2 q, the
    # integral is a single 2phi2 with lowers (bq, -bq)
    assert_cases_pass("split-contour")


def test_no_negative_supply_raises():
    ctx = SeriesContext(1, 10)
    with pytest.raises(WindowOverflow):
        ct_product([ZPochFamily(ONE, Fraction(1), 1, qpow(1))], ctx)


def test_finite_positive_supply_caps_the_window():
    # (z; q)_3 caps every term at z^3, so the 1/z supply of the
    # denominator, unlimited at q-cost 0, needs no bound of its own; by
    # hand from the Gaussian coefficients the constant term is
    # -q + q^3 + q^4 - q^6
    text = "ct{qp(z; q; 3)/qp(q/z; q^(-1); 2)}"
    ctx = SeriesContext(1, 12)
    families = ct_families(text)
    assert plan_window(families, ctx) == (3, 0)
    got = elaborate(parse(text), ctx)
    assert got == elaborate(parse("-q + q^3 + q^4 - q^6"), ctx) and got.trunc == 12
    for window in (3, 7, 20):
        assert zproduct(families, ctx, window).coefficient(0) == got
        assert oracle_zproduct(families, ctx, window).coefficient(0) == got
    # with no positive degrees the constant term is the degree-0 part, 1
    neg = ZPochFamily(ONE, Fraction(-1), -1, qpow(-1), count=3)
    assert plan_window([neg], ctx)[0] == 0 and ct_product([neg], ctx) == ctx.one()


# (window, margin) of every shipped ct{} side at its stated order and at
# twice it: every one has an infinite z family, so no cap applies
SHIPPED_WINDOWS = {
    "bailey-daum-integral-1": [(12, 0), (15, 0)],
    "bailey-daum-integral-2": [(12, 0), (15, 0)],
    "bailey-daum-integral-3": [(12, 0), (15, 0)],
    "compact-theta-integral": [(10, 0), (13, 0)],
    "ct-2phi2-split-1": [(12, 0), (15, 0)],
    "ct-2phi2-split-2": [(12, 0), (15, 0)],
    "ct-2phi2-split-3": [(12, 0), (15, 0)],
}


def test_shipped_ct_windows_are_unchanged():
    got = {}
    for case in load_registry():
        for text in (case.lhs_text, case.rhs_text):
            if "ct{" in text:
                families = ct_families(text)
                got[case.name] = [plan_window(families, SeriesContext(case.denom, k * case.order))
                                  for k in (1, 2)]
    assert got == SHIPPED_WINDOWS
