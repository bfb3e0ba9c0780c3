"""q-analysis layer: Pochhammer symbols, basic hypergeometric series,
two-sided theta sums, and quadratic-form multi-sums.

Everything is evaluated as an exact truncated series. Formal summability
replaces analytic convergence: a sum is accepted only if its term
valuations provably grow, and evaluation stops once the term valuation
passes the truncation order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cyclotomic import ONE
from .errors import (
    DivergentSpec,
    InvalidParameter,
    NonPositiveBaseExponent,
    NonSummable,
    ZeroDenominator,
)
from .series import (
    ZW_ONE,
    ZW_ZERO,
    Monomial,
    QSeries,
    SeriesContext,
    ZwSum,
    _zw_inverse,
    _zw_scalar,
    _zw_times,
    _zw_value,
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


def poch_binomials(args: Sequence[Monomial], base: Monomial, count, p: int, n: int,
                   ctx: SeriesContext):
    """The factors (c, e, p), c a Z[w] triple and e scaled, with
    (a_1, ..., a_m; base)_count^p = prod (1 - c*q^e)^p on a window of n,
    p = 1 or -1, for one `mul_binomials` pass; None where a factor (1 - 1)
    makes the product exactly zero, which raises ZeroDenominator for p = -1.

    Factors (1 - a*b^j) are listed until the count is reached or, with a
    base exponent >= 0 (always so for count infinite), until the factor
    exponent reaches n: the pass keeps a window at its length or shortens
    it, so the later factors never reach it. The listing runs at least to
    exponent 1, past which no factor is exactly zero. Each a*b^j is the
    one before times b, one integer product.
    """
    out, cb = [], _zw_scalar(base.coeff)
    for a in args:
        if a.is_zero():
            continue
        eb, e, c = ctx.scale(base.exp), ctx.scale(a.exp), _zw_scalar(a.coeff)
        if count is INF and eb <= 0:
            raise NonPositiveBaseExponent(
                f"infinite product needs base exponent > 0, got {base.exp}"
            )
        for _ in itertools.count() if count is INF else range(count):
            if e >= max(n, 1) and eb >= 0:
                break
            if e == 0 and c == ZW_ONE:
                if p < 0:
                    raise ZeroDenominator("Pochhammer denominator has an exact zero factor")
                return None
            out.append((c, e, p))
            c = _zw_times(c, cb)
            e += eb
    return out


def pochhammer(args: Sequence[Monomial], base: Monomial, ctx: SeriesContext, count=INF) -> QSeries:
    """(a_1, ..., a_m; base)_count, count INF meaning the infinite product:
    every argument's factors in one binomial pass on 1; the zero series,
    known below the order, where one factor is exactly zero."""
    factors = poch_binomials(args, base, count, 1, ctx.order, ctx)
    return ctx.zero() if factors is None else mul_binomials(ctx.one(), factors)


def poch(arg: Monomial, base: Monomial, ctx: SeriesContext, count=INF) -> QSeries:
    """(a; base)_count as an exact truncated series."""
    return pochhammer([arg], base, ctx, count)


def poch_rows(x: Monomial, base: Monomial, count, inverted: bool, nmax: int,
              ctx: SeriesContext) -> list:
    """[(c_n, e_n, g_n) for n <= nmax] with (x*y; base)_count^(-1 if inverted)
    = sum c_n q^(e_n) g_n y^n, by Euler's identities and the Cauchy
    q-binomial theorem (Andrews, The Theory of Partitions, Thms 2.1, 3.3):
    (x; b)_K = sum (-1)^n b^C(n,2) [K, n]_b x^n and 1/(x; b)_K =
    sum [K+n-1, n]_b x^n, [K, n]_b read as 1/(b; b)_n for K = INF.
    g_n is that Gaussian coefficient (val 0, known below the order, one
    binomial pass from g_(n-1)) and c_n a Z[w] triple; the base exponent
    must be positive unless count is 1.

    Powers run as products: c_n = c_(n-1)*r, r = x or -x*b^(n-1), and
    b^a for a = count +- (n - 1), listed up from its least power.
    """
    if count is not INF and not inverted:
        nmax = min(nmax, count)
    e, eb = ctx.scale(x.exp), ctx.scale(base.exp)
    b, (s, xr, xo) = _zw_scalar(base.coeff), _zw_scalar(x.coeff)
    r = (s, xr, xo) if inverted else (s, -xr, -xo)
    if count is not INF:
        lo = count if inverted else count - nmax + 1
        bas = list(itertools.accumulate([b] * (nmax - 1), _zw_times, initial=_zw_scalar(base.coeff ** lo)))
        bas = bas if inverted else bas[::-1]
    c, en, g, bn = ZW_ONE, 0, ctx.one(), ZW_ONE
    rows = [(c, en, g)]
    for n in range(1, nmax + 1):
        c, bn = _zw_times(c, r), _zw_times(bn, b)
        if inverted:
            en += e
        else:
            en, r = en + e + (n - 1) * eb, _zw_times(r, b)
        factors = [(bn, n * eb, -1)]
        if count is not INF:
            a = count + n - 1 if inverted else count - n + 1
            factors = [] if a == n else factors + [(bas[n - 1], a * eb, 1)]
        g = mul_binomials(g, factors)
        rows.append((c, en, g))
    return rows


def phi(uppers: Sequence[Monomial], lowers: Sequence[Monomial], base: Monomial, arg: Monomial,
        ctx: SeriesContext) -> QSeries:
    """Basic hypergeometric series with the standard implicit (b;b)_n
    denominator factor and the ((-1)^n b^C(n,2))^(1+s-r) convention.

    Terms are built iteratively from the term ratio: each step multiplies
    by the upper binomials and divides by the lower ones in one binomial
    pass, so the cost per term is linear in the window length, and added
    in place into one ZwSum, known below the least term trunc. A series
    that hits an exact zero upper factor terminates; an exact zero lower
    factor that is not preceded by termination raises ZeroDenominator.
    Non-growing term valuations raise NonSummable.
    """
    b, z = base, arg
    eb = ctx.scale(b.exp)
    if eb <= 0:
        raise NonPositiveBaseExponent(f"phi base exponent must be > 0, got {b.exp}")
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

    # the factors that build term_1 from term_0: the uppers, the lowers and
    # the implicit lower b of (b; b)_n, each a parameter times b^0
    cb = _zw_scalar(b.coeff)
    factors = [(_zw_scalar(u.coeff), ctx.scale(u.exp), 1) for u in uppers if not u.is_zero()]
    factors += [(_zw_scalar(l.coeff), ctx.scale(l.exp), -1) for l in lowers if not l.is_zero()]
    factors.append((cb, eb, -1))
    # index past which every factor exponent and the term-ratio valuation
    # are strictly positive
    n0 = max([1] + [-e // eb + 1 for _, e, _ in factors if e <= 0])
    if g > 0:
        while ez + g * n0 * eb <= 0:
            n0 += 1
    # term_(n+1) is term_n times the factors indexed by n and the monomial
    # z*(-1)^g*b^(n*g)*q^(ez + g*n*eb); both step by one power of b per n.
    # The loop adds term_n for n <= last, and the val of term_n is at least
    # v_n, the sum of the shifts of the steps before it: p*e for a factor
    # of exponent e < 0, and the monomial's exponent. Only a series that
    # does not terminate runs past n0 (a zero upper's exponent is <= 0),
    # and there every shift is positive; so the least v_n, the lower end
    # of the sum's window, lies at some n <= min(n0, last).
    cbg, mono_c = _zw_scalar(b.coeff ** g), _zw_scalar(-z.coeff if g % 2 else z.coeff)
    limit = 16 * (ctx.order + 16)
    last = limit + 1 if term_at is None else min(term_at, limit + 1)
    shifts = (sum(p * min(e + n * eb, 0) for _, e, p in factors) + ez + g * n * eb
              for n in range(min(n0, last)))
    acc, term, trunc = ZwSum(ctx, min(itertools.accumulate(shifts, initial=0))), ctx.one(), ctx.order
    acc.add(term)
    for n in range(last):
        if n >= n0 and (term.is_zero() or term.val >= ctx.order):
            break
        # an upper factor is exactly zero only at n == term_at, past the loop
        if any(p < 0 and e == 0 and c == ZW_ONE for c, e, p in factors):
            raise ZeroDenominator(f"lower parameter hits an exact zero factor at n={n + 1}")
        term = mul_binomials(term, factors).mul_monomial(_zw_value(mono_c), ez + g * n * eb)
        acc.add(term)
        trunc = min(trunc, term.trunc)
        factors = [(_zw_times(c, cb), e + eb, p) for c, e, p in factors]
        mono_c = _zw_times(mono_c, cbg)
    else:
        if last > limit:
            raise NonSummable("term valuation failed to reach the truncation")
    return acc.series(trunc)


def theta_sum(z: Monomial, ctx: SeriesContext) -> QSeries:
    """Two-sided theta sum over n of (-1)^n q^C(n,2) z^n.

    The quadratic exponent growth makes both tails finite below any
    truncation; enumeration walks outward from n = 0 and from n = -1
    until past the vertex and beyond the order, each weight (-z)^n the
    one before times (-z)^(+-1), and the terms are added in one ZwSum.
    """
    if z.is_zero():
        raise InvalidParameter("theta sum needs a nonzero monomial")
    eb, ez, mz = ctx.denom, ctx.scale(z.exp), _zw_scalar(-z.coeff)

    def exp(n: int) -> int:
        return eb * (n * (n - 1) // 2) + ez * n

    terms = []
    for n, step, r in ((0, 1, mz), (-1, -1, _zw_inverse(mz))):
        k = ZW_ONE if step > 0 else r
        # past the vertex the exponents grow: stop at the first past the order
        while (e := exp(n)) < ctx.order or exp(n + step) <= e:
            if e < ctx.order:
                terms.append((k, e))
            n, k = n + step, _zw_times(k, r)
    acc = ZwSum(ctx, min(e for _, e in terms))
    for k, e in terms:
        acc.add_monomial(k, e)
    return acc.series()


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


def _negative_run(a: int, b: int, c: int, top: int) -> range:
    """The k in [0, top] with a*k*k + b*k + c < 0, for a > 0: one run,
    strictly between the roots of the convex quadratic. math.isqrt puts
    each end at most one step outside the run, and each is then moved in
    to the first k where the quadratic is negative."""
    disc = b * b - 4 * a * c
    if disc <= 0:
        return range(0)
    r = math.isqrt(disc)
    lo, hi = (-b - r) // (2 * a), (-b + r + 1) // (2 * a)  # the run lies in [lo, hi]
    while lo <= hi and (a * lo + b) * lo + c >= 0:
        lo += 1
    while hi >= lo and (a * hi + b) * hi + c >= 0:
        hi -= 1
    lo, hi = max(lo, 0), min(hi, top)
    return range(lo, hi + 1) if lo <= hi else range(0)


def multisum(spec: MultiSumSpec, ctx: SeriesContext) -> QSeries:
    """Exact sum over all lattice points whose exponent is below the
    truncation; per-variable bounds come from the diagonal of the
    quadratic form, then every term is exponent-filtered exactly.

    Row k of variable i, 1/(d_i; b_i)_k, is row k-1 divided by
    (1 - d_i*b_i^(k-1)), so each variable's sum sum_k row_k*T_k is
    evaluated by Horner's rule (Knuth, TAOCP vol. 2, 4.6.4) as
    T_0 + (T_1 + (T_2 + ...)/(1 - d*b))/(1 - d): k runs down to 0, one
    ZwSum is divided in place by that step's binomial, and T_k
    is added, the inner variable's sum or +-c*q^e at a lattice point. No
    row and no product of series is built.

    The trunc T comes first, in integers. Over a lattice point's chain,
    its term c*q^e and its rows, each known to the order O, with row vals
    in [0, O] and val O for a zero term, chain_trunc is
    O + min(0, V - max v), V the sum of the vals: only a nonzero term at
    e < 0 lowers T. The Horner windows then end at T, not at O, and a
    prefix at or past T is skipped; each division and add only moves
    coefficients upward, so every coefficient below T is still exact.

    Each prefix's live k are solved, not scanned up to the bound. The
    exponent e(k) = exp_acc + A_ii*k^2 + lin*k at the prefix's next
    variable is a convex quadratic in k, so the k with e(k) + rest < T
    form one run, found with math.isqrt (`_negative_run`). Horner adds
    its terms over that run and divides from its top down to k = 0. The
    trunc walk, while T still falls, visits the run of
    O + e(k) + V - max v + rest < T, V and max v over the prefix's rows:
    each row val is at least 0, so a point trunc is at least that, and no
    point outside the run lowers T.

    The variables run in ascending bound order, ties in the given order,
    the shortest chain outermost. Its divisions are then the only ones
    on the full window from the sum's least exponent; the long chains
    run innermost, on windows that start at their prefix's exponent.
    The order cannot change the sum: its coefficients are exact, and a
    lattice point's trunc does not depend on the order of its rows.
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

    p = sorted(range(m), key=bounds.__getitem__)
    A = [[A[i][j] for j in p] for i in p]
    fields = (eff, mins, bounds, spec.signs, spec.denom_args, spec.denom_bases, spec.coeffs)
    eff, mins, bounds, signs, args, bases, coeffs = ([xs[i] for i in p] for xs in fields)

    # per variable i and k <= bounds[i], as Z[w] triples stepped by one
    # product each: the binomial (c, e) that takes row k to row k+1, the
    # signed weight ((-1)^signs_i*coeffs_i)^k, and the val of row k (a
    # factor with e < 0 raises it by -e, up to the order)
    order = ctx.order
    steps, powers, row_vals = [], [], []
    for i in range(m):
        d, b = args[i], bases[i]
        c, e, eb = _zw_scalar(d.coeff), ctx.scale(d.exp), ctx.scale(b.exp)
        cb, w = _zw_scalar(b.coeff), coeffs[i].coeff
        w = _zw_scalar(-w if signs[i] % 2 else w)
        step, power, row_val = [], [ZW_ONE], [0]
        for _ in range(bounds[i]):
            if e == 0 and c == ZW_ONE:
                raise ZeroDenominator("multisum denominator has an exact zero factor")
            step.append((c, e))
            power.append(_zw_times(power[-1], w))
            row_val.append(min(order, row_val[-1] - (min(e, 0) if c != ZW_ZERO else 0)))
            c = _zw_times(c, cb)
            e += eb
        steps.append(step)
        powers.append(power)
        row_vals.append(row_val)

    # rest[i]: the least exponent variables i.. can add to a prefix; cross
    # terms are nonnegative, so a prefix whose exponent plus rest reaches
    # a bound has no term below it.
    rest = [sum(mins[i:]) for i in range(m + 1)]
    ks = [0] * m
    trunc = order

    def lowest(i: int, exp_acc: int, vs: int, vmax: int) -> None:
        """Lower trunc to the least point trunc over the completions of
        ks[:i], whose rows' vals so far sum to vs, at most vmax."""
        nonlocal trunc
        lin = eff[i] + sum(2 * A[i][j] * ks[j] for j in range(i))
        for k in _negative_run(A[i][i], lin, exp_acc + order + vs - vmax + rest[i + 1] - trunc, bounds[i]):
            ks[i] = k
            e, v = exp_acc + (A[i][i] * k + lin) * k, row_vals[i][k]
            t = order + e + vs + v - max(vmax, v)  # vs - vmax only grows with more rows
            if t + rest[i + 1] >= trunc or powers[i][k] == ZW_ZERO:
                continue
            if i < m - 1:
                lowest(i + 1, e, vs + v, max(vmax, v))
            else:
                trunc = t

    def horner(i: int, exp_acc: int, coeff_acc: tuple) -> ZwSum:
        """The terms over all completions of ks[:i], times the rows of
        variables i.., summed from exponent exp_acc + rest[i] up to trunc."""
        acc = ZwSum(ctx, exp_acc + rest[i], trunc)
        lin = eff[i] + sum(2 * A[i][j] * ks[j] for j in range(i))
        live = _negative_run(A[i][i], lin, exp_acc + rest[i + 1] - trunc, bounds[i])
        top = live.stop - 1  # -1 where no k is live
        for k in range(top, -1, -1):
            if k < top:
                acc.div_binomial(*steps[i][k])
            if k < live.start:
                continue
            ks[i] = k
            e = exp_acc + (A[i][i] * k + lin) * k
            c = _zw_times(coeff_acc, powers[i][k])
            if i < m - 1:
                acc.add(horner(i + 1, e, c))
            else:
                acc.add_monomial(c, e)
        return acc

    lowest(0, 0, 0, 0)
    acc = horner(0, 0, ZW_ONE)
    del lowest, horner  # each refers to itself through its cell: break those cycles now, not in a gc pass
    return acc.series(trunc)


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
