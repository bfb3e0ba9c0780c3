import random
from fractions import Fraction

import pytest

from qrucible.ctengine import ZSeries, zsum
from qrucible.cyclotomic import CycRat, ONE, ZERO
from qrucible.dsl import Token
from qrucible.errors import ContextMismatch, ParseError
from qrucible.qkernel import INF
from qrucible.series import QSeries, SeriesContext, _zw_scalar, mul_binomials


def rand_cycrat(rng: random.Random, height: int = 6) -> CycRat:
    def frac():
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    return CycRat(frac(), frac())


def rand_series(rng: random.Random, ctx: SeriesContext, max_val: int = 3) -> QSeries:
    val = rng.randint(-max_val, max_val)
    n = rng.randint(0, min(8, ctx.order - val))
    coeffs = [rand_cycrat(rng, 4) for _ in range(n)]
    return QSeries(ctx, val, coeffs, ctx.order)


def zseries(ctx: SeriesContext, terms: dict) -> ZSeries:
    """The row set of {z-degree: QSeries}."""
    return zsum(ctx, [ZSeries(ctx, {m: (s.trunc, *s.zw[1:])}, s.zw[0], s.val)
                      for m, s in terms.items()])


def parent_add(x: QSeries, y: QSeries) -> QSeries:
    """Oracle: x + y merged on Q(w) lists, as QSeries.__add__ was before
    every sum went through one ZwSum."""
    if x.ctx != y.ctx:
        raise ContextMismatch(f"{x.ctx} vs {y.ctx}")
    t = min(x.trunc, y.trunc)
    if x.is_zero():
        return QSeries(y.ctx, y.val, list(y.coeffs), t)
    if y.is_zero():
        return QSeries(x.ctx, x.val, list(x.coeffs), t)
    lo = min(x.val, y.val)
    hi = min(t, max(x.val + len(x.coeffs), y.val + len(y.coeffs)))
    out = [ZERO] * max(0, hi - lo)
    for i, c in enumerate(x.coeffs):
        j = x.val + i - lo
        if j < len(out):
            out[j] = c
    for i, c in enumerate(y.coeffs):
        j = y.val + i - lo
        if j < len(out):
            out[j] = out[j] + c
    return QSeries(x.ctx, lo, out, t)


def parent_neg(x: QSeries) -> QSeries:
    """Oracle: -x on the Q(w) list."""
    return QSeries(x.ctx, x.val, [-c for c in x.coeffs], x.trunc)


def zw_factors(factors) -> list:
    """Binomial factors (c, e, p) with each CycRat c as its Z[w] triple,
    the one factor form `mul_binomials` takes."""
    return [(_zw_scalar(c), e, p) for c, e, p in factors]


def parent_poch_rows(x, base, count, inverted, nmax, ctx) -> list:
    """Oracle: qkernel.poch_rows with CycRat scalars, each power by `**`,
    as it was before the rows carried Z[w] triples."""
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
        g = mul_binomials(g, zw_factors(factors))
        if inverted:
            c, en = c * x.coeff, en + e
        else:
            c, en = -c * x.coeff * b ** (n - 1), en + e + (n - 1) * eb
        rows.append((c, en, g))
    return rows


def parent_tokenize(text: str) -> list:
    """Oracle: dsl.tokenize as a loop over characters, as it was before
    the lexer became one compiled pattern."""
    digits = "0123456789"
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch in digits:
            j = i
            while j < n and text[j] in digits:
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:
                raise ParseError(f"integer of {j - i} digits is too long", line, col) from None
            toks.append(Token("NUM", value, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    out.append(text[j + 1])
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string", line, col)
            toks.append(Token("STR", "".join(out), line, col))
            start, i = i, j + 1
            if (nl := text.count("\n", start, i)):
                line += nl
                col = i - text.rindex("\n", start, i)
            else:
                col += i - start
            continue
        if ch in "^*/+-()[]{};,=":
            toks.append(Token("PUNCT", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("EOF", None, line, col))
    return toks


class BoundExceeded(Exception):
    """Partition enumeration beyond the configured safety bound."""


def partition_count(n: int, *, modulus=None, residues=None, min_gap: int = 0, bound: int = 5000) -> int:
    """Oracle: the number of partitions of n, by brute-force enumeration.

    modulus/residues restrict parts to given residue classes; min_gap
    demands successive parts differ by at least that much (1 = distinct
    parts, 2 = no repeated or consecutive parts). An independent check
    of product-side coefficients.
    """
    if n < 0:
        return 0
    if n > bound:
        raise BoundExceeded(f"partition_count bound {bound} exceeded by n={n}")
    allowed = None if modulus is None else frozenset(r % modulus for r in (residues or range(modulus)))
    cache: dict = {}

    def count(remaining: int, min_part: int) -> int:
        if remaining == 0:
            return 1
        key = (remaining, min_part)
        if key not in cache:
            cache[key] = sum(count(remaining - p, p + min_gap) for p in range(min_part, remaining + 1)
                             if allowed is None or p % modulus in allowed)
        return cache[key]

    return count(n, 1)


@pytest.fixture
def rng():
    return random.Random(20260808)


def rogers_half_sum_text(n: int, a: str) -> str:
    """DSL text of the cube dissection of C_n(-1/2; a | q), the Rogers
    polynomial at z = w:

        sum_l (a^3; q^3)_l (1/a; q)_(n-3l) / ((q^3; q^3)_l (q; q)_(n-3l)) a^(n-3l).
    """
    return " + ".join(
        f"qp(({a})^3; q^3; {l})*qp(1/({a}); q; {n - 3 * l})"
        f"/(qp(q^3; q^3; {l})*qp(q; q; {n - 3 * l}))*({a})^{n - 3 * l}"
        for l in range(n // 3 + 1)
    )


def rogers_half_4phi3_text(n: int, a: str) -> str:
    """DSL text of C_n(-1/2; a | q) as a balanced 4phi3 in base q^3."""
    return (
        f"qp(1/({a}); q; {n})/qp(q; q; {n})*({a})^{n}"
        f"*phi([q^({-n}), q^({1 - n}), q^({2 - n}), ({a})^3];"
        f" [({a})*q^({1 - n}), ({a})*q^({2 - n}), ({a})*q^({3 - n})]; q^3; q^3)"
    )
