import random
from fractions import Fraction

import pytest

from qrucible.ctengine import ZSeries, zsum
from qrucible.cyclotomic import CycRat
from qrucible.series import QSeries, SeriesContext


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
