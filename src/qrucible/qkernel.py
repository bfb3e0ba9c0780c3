"""q-analysis layer: Pochhammer symbols, basic hypergeometric series,
two-sided theta sums, and quadratic-form multi-sums.

Everything is evaluated as an exact truncated series. Formal summability
replaces analytic convergence: a sum is accepted only if its term
valuations provably grow, and evaluation stops once the term valuation
passes the truncation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cyclotomic import CycRat, ONE
from .errors import (
    DivergentSpec,
    InvalidParameter,
    NonPositiveBaseExponent,
    NonSummable,
    ZeroDenominator,
)
from .series import (
    Monomial,
    QSeries,
    SeriesContext,
    ZwSum,
    chain_trunc,
    div_binomial,
    mono,
    mul_binomial,  # noqa: F401 -- perfbench wraps qkernel.mul_binomial by name
    mul_binomials,
    qpow,
)

INF = None  # Pochhammer count for the full infinite product

_Q = qpow(1)
_Q2 = qpow(2)
_Q3 = qpow(3)
_Q4 = qpow(4)
_Q6 = qpow(6)
_ONE_M = mono(1, 0)


@dataclass(frozen=True)
class PochSpec:
    """(arg; base)_count, count None meaning the infinite product."""

    arg: Monomial
    base: Monomial
    count: Optional[int] = INF


@dataclass(frozen=True)
class PhiSpec:
    """r-phi-s data: upper/lower parameter lists, base, argument."""

    uppers: tuple
    lowers: tuple
    base: Monomial
    arg: Monomial


def _zero_factor_index(arg: Monomial, base: Monomial) -> Optional[int]:
    """Smallest j >= 0 with arg*base^j == 1 exactly, else None."""
    if arg.is_zero() or base.exp == 0:
        return None
    j = -arg.exp / base.exp
    if j.denominator != 1 or j < 0:
        return None
    j = int(j)
    if arg.coeff * base.coeff ** j == ONE:
        return j
    return None


def pochhammer(spec: PochSpec, ctx: SeriesContext) -> QSeries:
    """(a; b)_n as an exact truncated series.

    For n infinite, factors (1 - a*b^j) are included until the factor
    exponent plus the accumulated valuation reaches the truncation, which
    suffices because later factors only touch higher orders. Each factor
    lowers valuation and truncation alike by min(e, 0) and never cancels
    the leading coefficient, so that rule is `e < order`, and the whole
    factor list goes through one binomial pass.
    """
    a, b = spec.arg, spec.base
    if a.is_zero():
        return ctx.one()
    eb = ctx.scale(b.exp)
    e = ctx.scale(a.exp)
    c = a.coeff
    cb = b.coeff
    if spec.count is INF and eb <= 0:
        raise NonPositiveBaseExponent(
            f"infinite product needs base exponent > 0, got {b.exp}"
        )
    factors = []
    while (e < ctx.order) if spec.count is INF else (len(factors) < spec.count):
        if e == 0 and c == ONE:
            return ctx.zero()
        factors.append((c, e, 1))
        c = c * cb
        e += eb
    return mul_binomials(ctx.one(), factors)


def poch(arg: Monomial, base: Monomial, ctx: SeriesContext, count=INF) -> QSeries:
    return pochhammer(PochSpec(arg, base, count), ctx)


def pochhammer_multi(
    args: Sequence[Monomial], base: Monomial, count, ctx: SeriesContext
) -> QSeries:
    """(a_1, ..., a_m; base)_count: the product over all arguments."""
    acc = ctx.one()
    for a in args:
        acc = acc * pochhammer(PochSpec(a, base, count), ctx)
    return acc


def poch_rows(x: Monomial, base: Monomial, count, inverted: bool, nmax: int,
              ctx: SeriesContext) -> list:
    """[(c_n, e_n, g_n) for n <= nmax] with (x*y; base)_count^(-1 if inverted)
    = sum c_n q^(e_n) g_n y^n, by Euler's identities and the Cauchy
    q-binomial theorem (Andrews, The Theory of Partitions, Thms 2.1, 3.3):
    (x; b)_K = sum (-1)^n b^C(n,2) [K, n]_b x^n and 1/(x; b)_K =
    sum [K+n-1, n]_b x^n, [K, n]_b read as 1/(b; b)_n for K = INF.
    g_n is that Gaussian coefficient (val 0, known below the order, one
    binomial pass from g_(n-1)); the base exponent must be positive
    unless count is 1.
    """
    if count is not INF and not inverted:
        nmax = min(nmax, count)
    e, eb, b = ctx.scale(x.exp), ctx.scale(base.exp), base.coeff
    c, en, g = ONE, 0, ctx.one()
    rows = [(c, en, g)]
    for n in range(1, nmax + 1):
        factors = [(b ** n, n * eb, -1)]
        if count is not INF:
            a = count + n - 1 if inverted else count - n + 1
            factors = [] if a == n else factors + [(b ** a, a * eb, 1)]
        g = mul_binomials(g, factors)
        if inverted:
            c, en = c * x.coeff, en + e
        else:
            c, en = -c * x.coeff * b ** (n - 1), en + e + (n - 1) * eb
        rows.append((c, en, g))
    return rows


def phi(spec: PhiSpec, ctx: SeriesContext) -> QSeries:
    """Basic hypergeometric series with the standard implicit (b;b)_n
    denominator factor and the ((-1)^n b^C(n,2))^(1+s-r) convention.

    Terms are built iteratively from the term ratio: each step multiplies
    by the upper binomials and divides by the lower ones in one binomial
    pass, so the cost per term is linear in the window length. A series
    that hits an exact zero upper factor terminates; an exact zero lower
    factor that is not preceded by termination raises ZeroDenominator.
    Non-growing term valuations raise NonSummable.
    """
    uppers, lowers, b, z = spec.uppers, spec.lowers, spec.base, spec.arg
    eb = ctx.scale(b.exp)
    if eb <= 0:
        raise NonPositiveBaseExponent(f"phi base exponent must be > 0, got {b.exp}")
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
    if term_at is None:
        if g < 0:
            raise NonSummable("more upper than lower parameters and no termination")
        if g == 0 and ez <= 0:
            raise NonSummable(f"argument exponent {z.exp} must be positive")

    scaled_uppers = [(u.coeff, ctx.scale(u.exp)) for u in uppers if not u.is_zero()]
    scaled_lowers = [(l.coeff, ctx.scale(l.exp)) for l in lowers if not l.is_zero()]
    # index past which every factor exponent and the term-ratio valuation
    # are strictly positive
    n0 = max([1] + [-e // eb + 1 for _, e in scaled_uppers + scaled_lowers if e <= 0])
    if g > 0:
        while ez + g * n0 * eb <= 0:
            n0 += 1

    acc = ctx.one()
    term = ctx.one()
    n = 0
    while True:
        if n >= n0 and (term.is_zero() or term.val >= ctx.order):
            break
        if term_at is not None and n >= term_at:
            break
        # factors indexed by n build term_(n+1) from term_n: the uppers, the
        # lowers and the implicit (b; b)_(n+1) factor in one binomial pass;
        # an upper one is exactly zero only at n == term_at, which stopped
        # the loop
        bn = cb ** n
        lowers_n = [(c * bn, e + n * eb, -1) for c, e in scaled_lowers]
        if any(fe == 0 and fc == ONE for fc, fe, _ in lowers_n):
            raise ZeroDenominator(f"lower parameter hits an exact zero factor at n={n + 1}")
        factors = [(c * bn, e + n * eb, 1) for c, e in scaled_uppers]
        factors += lowers_n + [(bn * cb, (n + 1) * eb, -1)]
        coeff = z.coeff * (-ONE) ** g * cb ** (n * g)
        term = mul_binomials(term, factors).mul_monomial(coeff, ez + g * n * eb)
        acc = acc + term
        n += 1
        if n > 16 * (ctx.order + 16):
            raise NonSummable("term valuation failed to reach the truncation")
    return acc


def phi_series(uppers, lowers, base, arg, ctx) -> QSeries:
    return phi(PhiSpec(tuple(uppers), tuple(lowers), base, arg), ctx)


def theta_sum(z: Monomial, ctx: SeriesContext, base: Monomial | None = None) -> QSeries:
    """Two-sided theta sum over n of (-1)^n base^C(n,2) z^n.

    The quadratic exponent growth makes both tails finite below any
    truncation; enumeration walks outward until past the vertex and
    beyond the order.
    """
    if z.is_zero():
        raise InvalidParameter("theta sum needs a nonzero monomial")
    b = base if base is not None else _Q
    eb = ctx.scale(b.exp)
    if eb <= 0:
        raise NonPositiveBaseExponent("theta base exponent must be > 0")
    ez = ctx.scale(z.exp)
    cb, cz = b.coeff, z.coeff

    pairs = []

    def emit(n: int) -> int:
        binom = n * (n - 1) // 2
        e = eb * binom + ez * n
        if e < ctx.order:
            c = cb ** binom * cz ** n
            if n % 2:
                c = -c
            pairs.append((e, c))
        return e

    n = 0
    while True:
        e = emit(n)
        if e >= ctx.order and eb * n + ez > 0:
            break
        n += 1
    n = -1
    while True:
        e = emit(n)
        if e >= ctx.order and eb * (1 - n) - ez > 0:
            break
        n -= 1
    return ctx.from_pairs(pairs)


@dataclass(frozen=True)
class MultiSumSpec:
    """Sum over the nonnegative lattice of

        (-1)^(signs.k) q^(k.quad.k + lin.k) prod_i coeffs_i^(k_i)
            / prod_i (denom_args_i; denom_bases_i)_(k_i)

    quad (symmetric) and lin are in scaled exponent units.
    """

    quad: tuple
    lin: tuple
    signs: tuple
    denom_args: tuple
    denom_bases: tuple
    coeffs: tuple


def multisum(spec: MultiSumSpec, ctx: SeriesContext) -> QSeries:
    """Exact sum over all lattice points whose exponent is below the
    truncation; per-variable bounds come from the diagonal of the
    quadratic form, then every term is exponent-filtered exactly.

    The sum runs innermost variable first (Horner form): the terms of the
    last variable go into one ZwSum, and each shorter lattice prefix costs
    one QSeries product of its row 1/(d_i; b_i)_k with the sum over its
    completions, instead of one product per row at every lattice point.
    """
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

    def var_min(i: int) -> int:
        best = 0
        k = 1
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
        rest = sum(mins) - mins[i]
        k = 0
        last = 0
        while True:
            v = A[i][i] * k * k + eff[i] * k + rest
            if v >= ctx.order and v >= last and 2 * A[i][i] * k + eff[i] > 0:
                break
            last = v
            k += 1
        bounds.append(k)

    # rows[i][k] = 1/(d_i; b_i)_k, known to the order
    rows = []
    for i in range(m):
        d, b = spec.denom_args[i], spec.denom_bases[i]
        eb = ctx.scale(b.exp)
        c, e = d.coeff, ctx.scale(d.exp)
        row = [ctx.one()]
        for _ in range(bounds[i]):
            if e == 0 and c == ONE:
                raise ZeroDenominator("multisum denominator has an exact zero factor")
            row.append(div_binomial(row[-1], c, e))
            c = c * b.coeff
            e += eb
        rows.append(row)

    # rest[i]: the least exponent variables i.. can add to a prefix; cross
    # terms are nonnegative, so a prefix whose exponent plus rest reaches
    # the order has no term below it.
    order = ctx.order
    rest = [sum(mins[i:]) for i in range(m + 1)]
    ks = [0] * m
    trunc = order

    def rec(i: int, exp_acc: int, coeff_acc: CycRat, sign_acc: int) -> ZwSum:
        """The terms over all completions of ks[:i], times the rows of
        variables i.., summed from exponent exp_acc + rest[i] up."""
        nonlocal trunc
        acc = ZwSum(ctx, exp_acc + rest[i])
        for k in range(bounds[i] + 1):
            ks[i] = k
            cross = 0
            for j in range(i):
                cross += 2 * A[i][j] * ks[j] * k
            e = exp_acc + A[i][i] * k * k + eff[i] * k + cross
            if e + rest[i + 1] >= order:
                continue
            c = coeff_acc * spec.coeffs[i].coeff ** k if k else coeff_acc
            sign = sign_acc + spec.signs[i] * k
            if i < m - 1:
                # the product is exact below its own trunc, which is never
                # below the trunc its lattice points give the whole sum
                acc.add(rows[i][k] * rec(i + 1, e, c, sign).series())
                continue
            # a lattice point: its trunc is that of c*q^e times its rows
            vals = [e if c else order] + [rows[j][ks[j]].val for j in range(m)]
            trunc = min(trunc, chain_trunc(order, vals))
            acc.add(rows[i][k], -c if sign % 2 else c, e)
        return acc

    return rec(0, 0, ONE, 0).series(trunc)


# -- named multi-sums ---------------------------------------------------

def f_triple_spec(u: Monomial, v: Monomial, w: Monomial, ctx: SeriesContext) -> MultiSumSpec:
    """The three-variable sum with exponent 3k(k-1) + L(L-1), L = i+2j+3k,
    weights u^i v^j w^k and denominators (q;q)_i (q^4;q^4)_j (q^6;q^6)_k.
    """
    D = ctx.denom
    A = ((D, 2 * D, 3 * D), (2 * D, 4 * D, 6 * D), (3 * D, 6 * D, 12 * D))
    lin = (-D, -2 * D, -6 * D)
    return MultiSumSpec(
        quad=A,
        lin=lin,
        signs=(0, 0, 1),
        denom_args=(_Q, _Q4, _Q6),
        denom_bases=(_Q, _Q4, _Q6),
        coeffs=(u, v, w),
    )


def f_triple(u, v, w, ctx) -> QSeries:
    return multisum(f_triple_spec(u, v, w, ctx), ctx)


def capparelli_spec(ctx: SeriesContext) -> MultiSumSpec:
    """Double sum with exponent 2j^2 + 6jk + 6k^2 over (q;q)_j (q^3;q^3)_k."""
    D = ctx.denom
    return MultiSumSpec(
        quad=((2 * D, 3 * D), (3 * D, 6 * D)),
        lin=(0, 0),
        signs=(0, 0),
        denom_args=(_Q, _Q3),
        denom_bases=(_Q, _Q3),
        coeffs=(_ONE_M, _ONE_M),
    )


def _lql_spec(ctx, lin_nat, signs, denom2):
    # shared shape: exponent 2*C(L,2) + 6*C(k,2) + linear, L = i+j+3k,
    # whose quadratic part is L^2 + 3k^2
    D = ctx.denom
    A = (
        (D, D, 3 * D),
        (D, D, 3 * D),
        (3 * D, 3 * D, 12 * D),
    )
    lin = tuple(ctx.scale(Fraction(x)) for x in lin_nat)
    return MultiSumSpec(
        quad=A,
        lin=lin,
        signs=signs,
        denom_args=(_Q, denom2, _Q6),
        denom_bases=(_Q, denom2, _Q6),
        coeffs=(_ONE_M, _ONE_M, _ONE_M),
    )


def tsum_a_spec(ctx: SeriesContext) -> MultiSumSpec:
    """Exponent 2*C(L,2) + 6*C(k,2) + 2i + 3j + 12k over (q;q)_i (q;q)_j
    (q^6;q^6)_k with sign (-1)^j."""
    return _lql_spec(ctx, (1, 2, 6), (0, 1, 0), _Q)


def tsum_b_spec(ctx: SeriesContext) -> MultiSumSpec:
    """Exponent 2*C(L,2) + 6*C(k,2) + i + j + 6k over (q;q)_i (-q;-q)_j
    (q^6;q^6)_k with sign (-1)^(j+k)."""
    return _lql_spec(ctx, (0, 0, 0), (0, 1, 1), mono(-1, 1))


def tsum_c_spec(ctx: SeriesContext) -> MultiSumSpec:
    """Exponent 2*C(L,2) + 6*C(k,2) + 2i + 3j + 12k over (q;q)_i (-q;-q)_j
    (q^6;q^6)_k with sign (-1)^(j+k)."""
    return _lql_spec(ctx, (1, 2, 6), (0, 1, 1), mono(-1, 1))


def tsum_h_spec(ctx: SeriesContext) -> MultiSumSpec:
    """Exponent 2*C(L,2) + 6*C(k,2) + 2i + (3/2)j + 9k over (q;q)_i
    (-q;-q)_j (q^6;q^6)_k with sign (-1)^(j+k); needs an even grid."""
    return _lql_spec(ctx, (1, Fraction(1, 2), 3), (0, 1, 1), mono(-1, 1))


NAMED_SUMS = {
    "capparelli": capparelli_spec,
    "tsum_a": tsum_a_spec,
    "tsum_b": tsum_b_spec,
    "tsum_c": tsum_c_spec,
    "tsum_h": tsum_h_spec,
}
