"""Fixed-size layer probes, each checked against an independent answer.

Operands are fixed formulas, not drawn from the workload seed, so a
probe measures the same work on every run. Series results are checked
with plain integer (or `Fraction`) convolutions over the (re, om) pairs,
which share no code with `CycRat` or `QSeries`.
"""

from __future__ import annotations

import operator
import statistics
import time
from fractions import Fraction

from qrucible.cyclotomic import CycRat
from qrucible.ortho import genfun_lhs, genfun_rhs_coeff
from qrucible.qkernel import capparelli_spec, f_triple, multisum, poch
from qrucible.ctengine import triple_sum_ct, zsubst
from qrucible.series import QSeries, SeriesContext, div_binomial, first_mismatch, qpow

SIZES = (50, 200, 1000)
RATIONAL_SIZE = 200
_OMEGA = CycRat(0, 1)


def _timed(fn, repeat: int):
    """(median ms, last result) over `repeat` calls."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times), out


def _repeat_for(n: int) -> int:
    return 7 if n <= 50 else 3 if n <= 200 else 1


# -- operands ------------------------------------------------------------


def _integral(n: int, salt: int) -> list:
    """Dense Z[w] coefficients in [-2, 2], constant term 1 (a unit)."""
    out = [(1, 0)]
    for k in range(1, n):
        out.append((((k * k + salt) % 5) - 2, ((3 * k + 2 * salt) % 5) - 2))
    return out


def _invertible(n: int) -> list:
    """(1 - w q)/(1 - q) = 1 + (1 - w)(q + q^2 + ...): dense, and so is its
    inverse (1 - q)/(1 - w q), with coefficients bounded like the product
    sides of the registry rather than growing into big integers."""
    return [(1, 0)] + [(1, -1)] * (n - 1)


def _rational(n: int) -> list:
    out = [(Fraction(1, 2), Fraction(0))]
    for k in range(1, n):
        out.append((Fraction(k % 7 - 3, 1 + k % 4), Fraction(k % 5 - 2, 1 + k % 3)))
    return out


def _series(ctx: SeriesContext, pairs: list) -> QSeries:
    return QSeries(ctx, 0, [CycRat(a, b) for a, b in pairs], ctx.order)


def _pairs(s: QSeries, n: int) -> list:
    return [(c.re, c.om) for c in (s.coefficient(e) for e in range(n))]


# -- independent arithmetic on (re, om) pair lists -------------------------


def _conv(xs: list, ys: list, n: int) -> list:
    xs = xs[:n] + [0] * (n - len(xs))
    ys = ys[:n] + [0] * (n - len(ys))
    return [sum(map(operator.mul, xs[: k + 1], ys[k::-1])) for k in range(n)]


def _zw_mul(x: list, y: list, n: int) -> list:
    """Truncated product in Z[w][q] (or Q(w)[q]) with w^2 = -1 - w."""
    xa, xb = [a for a, _ in x], [b for _, b in x]
    ya, yb = [a for a, _ in y], [b for _, b in y]
    aa, bb = _conv(xa, ya, n), _conv(xb, yb, n)
    ab, ba = _conv(xa, yb, n), _conv(xb, ya, n)
    return [(aa[k] - bb[k], ab[k] + ba[k] - bb[k]) for k in range(n)]


def _one(n: int) -> list:
    return [(1, 0)] + [(0, 0)] * (n - 1)


# -- probes --------------------------------------------------------------


def series_probes(sizes=SIZES, rational_size=RATIONAL_SIZE) -> dict:
    """name -> (ms, ok) for mul, inverse and div_binomial."""
    out = {}
    for n in sizes:
        ctx = SeriesContext(1, n)
        xp, yp = _integral(n, 1), _integral(n, 2)
        ip = _invertible(n)
        x, y = _series(ctx, xp), _series(ctx, yp)
        r = _repeat_for(n)
        ms, p = _timed(lambda: x * y, r)
        out[f"series.mul_n{n}_ms"] = (ms, _pairs(p, n) == _zw_mul(xp, yp, n))
        ms, inv = _timed(_series(ctx, ip).inverse, r)
        out[f"series.inverse_n{n}_ms"] = (ms, _zw_mul(ip, _pairs(inv, n), n) == _one(n))
        ms, d = _timed(lambda: div_binomial(x, _OMEGA, 1), r)
        out[f"series.div_binomial_n{n}_ms"] = (ms, _undo_div(_pairs(d, n)) == xp)

    n = rational_size
    ctx = SeriesContext(1, n)
    xp, rp = _integral(n, 1), _rational(n)
    x, rs = _series(ctx, xp), _series(ctx, rp)
    r = _repeat_for(n)
    ms, p = _timed(lambda: x * rs, r)
    out[f"series.mul_rational_n{n}_ms"] = (ms, _pairs(p, n) == _zw_mul(xp, rp, n))
    ms, inv = _timed(rs.inverse, r)
    out[f"series.inverse_rational_n{n}_ms"] = (
        ms,
        _zw_mul(rp, _pairs(inv, n), n) == _one(n),
    )
    ms, d = _timed(lambda: div_binomial(rs, _OMEGA, 1), r)
    out[f"series.div_binomial_rational_n{n}_ms"] = (ms, _undo_div(_pairs(d, n)) == rp)
    return out


def _undo_div(d: list) -> list:
    """d * (1 - w q), the inverse of the div_binomial probe."""
    out = [d[0]]
    for k in range(1, len(d)):
        a, b = d[k - 1]
        # w * (a + b w) = -b + (a - b) w
        out.append((d[k][0] + b, d[k][1] - (a - b)))
    return out


def cyclotomic_probes(count: int = 2000, batches: int = 5) -> dict:
    """name -> (ns per op, ok) on integral and on rational operands."""
    ints = [
        (((7 * i) % 101) - 50 or 1, ((13 * i + 5) % 101) - 50 or 1) for i in range(count + 1)
    ]
    rats = [
        (Fraction(a, 1 + i % 7), Fraction(b, 1 + (3 * i) % 11)) for i, (a, b) in enumerate(ints)
    ]
    out = {}
    for label, comps in (("", ints), ("_rational", rats)):
        xs = [CycRat(a, b) for a, b in comps]
        pairs = list(zip(xs, xs[1:]))
        want_mul = [
            (a * c - b * d, a * d + b * c - b * d) for (a, b), (c, d) in zip(comps, comps[1:])
        ]
        want_add = [(a + c, b + d) for (a, b), (c, d) in zip(comps, comps[1:])]
        for op, fn, want in (
            ("mul", lambda: [a * b for a, b in pairs], want_mul),
            ("add", lambda: [a + b for a, b in pairs], want_add),
            ("inv", lambda: [a.inv() for a, _ in pairs], None),
        ):
            ns = []
            for _ in range(batches):
                t0 = time.perf_counter_ns()
                got = fn()
                ns.append((time.perf_counter_ns() - t0) / count)
            if want is None:
                # x * x^-1 = 1, multiplied out with plain Fractions
                ok = all(
                    (a * v.re - b * v.om, a * v.om + b * v.re - b * v.om) == (1, 0)
                    for (a, b), v in zip(comps, got)
                )
            else:
                ok = [(v.re, v.om) for v in got] == want
            out[f"cyclotomic.{op}{label}_ns"] = (statistics.median(ns), ok)
    return out


def _pentagonal(n: int) -> list:
    """Euler: (q;q)_inf = sum_k (-1)^k q^(k(3k-1)/2) over all integers k."""
    out = [0] * n
    k = 0
    while k * (3 * k - 1) // 2 < n:
        for j in {k, -k}:
            e = j * (3 * j - 1) // 2
            if e < n:
                out[e] = -1 if k % 2 else 1
        k += 1
    return out


def _agree(x: QSeries, y: QSeries, floor: int) -> bool:
    up_to = min(x.trunc, y.trunc)
    return up_to >= floor and first_mismatch(x, y, up_to) is None


def kernel_probes(qq_size: int = 1000, sum_size: int = 100, ct_size: int = 50) -> dict:
    """name -> (ms, ok) for whole kernel entry points."""
    q = qpow
    out = {}

    ctx = SeriesContext(1, qq_size)
    ms, e = _timed(lambda: poch(q(1), q(1), ctx), 1)
    want = [(c, 0) for c in _pentagonal(qq_size)]
    out[f"qkernel.qq_inf_n{qq_size}_ms"] = (ms, e.trunc == qq_size and _pairs(e, qq_size) == want)

    ctx = SeriesContext(1, sum_size)
    ms, lhs = _timed(lambda: f_triple(q(1), q(0), q(3), ctx), 3)
    rhs = poch(q(3), q(12), ctx) * (poch(q(1), q(4), ctx) * poch(q(2), q(4), ctx)).inverse()
    out["qkernel.f_triple_ms"] = (ms, _agree(lhs, rhs, sum_size))

    ms, lhs = _timed(lambda: multisum(capparelli_spec(ctx), ctx), 3)
    rhs = (poch(q(3), q(6), ctx) * poch(q(2), q(12), ctx) * poch(q(10), q(12), ctx)).inverse()
    out["qkernel.capparelli_ms"] = (ms, _agree(lhs, rhs, sum_size))

    ctx = SeriesContext(1, ct_size)
    ms, lhs = _timed(lambda: triple_sum_ct(q(1), q(0), q(3), ctx), 3)
    out["ctengine.triple_sum_ct_ms"] = (ms, _agree(lhs, f_triple(q(1), q(0), q(3), ctx), ct_size))

    # the shipped case rogers-genfun-5, cgf(5; 4; q; q^2) to order 40; the
    # t^4 coefficient loses 8 orders to q^(-1) terms, so work at order 48
    ctx = SeriesContext(1, 48)
    ms, coeffs = _timed(lambda: genfun_lhs(5, q(1), 4, ctx), 3)
    lhs = zsubst(coeffs[4], q(2))
    rhs = zsubst(genfun_rhs_coeff(5, 4, q(1), ctx), q(2))
    out["ortho.genfun_lhs5_ms"] = (ms, _agree(lhs, rhs, 40))
    return out


def run_all() -> dict:
    out = cyclotomic_probes()
    out.update(series_probes())
    out.update(kernel_probes())
    return out
