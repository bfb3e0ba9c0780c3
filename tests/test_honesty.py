"""Honesty on inputs nobody wrote by hand: a side elaborated at order N
and at N + 6*D must not lose truncation, and every coefficient below the
lower truncation must agree. A side whose evaluation SKIPs (a kernel
error) is not compared. Every shipped side is held to agreement below
the lower truncation too, at its stated order and 12*D above it."""

import random
from fractions import Fraction

from qrucible.ctengine import plan_window
from qrucible.dsl import Poch, Product, as_monomial, elaborate, parse
from qrucible.errors import QrucibleError
from qrucible.harness import load_registry
from qrucible.qkernel import PochSpec
from qrucible.series import SeriesContext
from test_ctengine import ct_families
from test_qkernel import sequential_pochhammer

D = 2
STEP = 6 * D
# integrands whose planned window times working order exceeds this are
# not evaluated: the cost of a few of them would dominate the test
CT_BUDGET = 3000

_COEFFS = ["", "-", "w*", "-w2*", "2*", "(1+w)*"]
_BASES = ["q^(-1)", "-q", "q^(1/2)"]


def _family(rng) -> str:
    base = rng.choice(_BASES)
    counts = ["1", "2", "3", "4"] + ([] if base == "q^(-1)" else ["inf", "inf"])
    e = Fraction(rng.randint(-2, 4), 2)
    d = rng.choice([1, -1, 2, -2, 3, -3])
    return f"qp({rng.choice(_COEFFS)}q^({e})*z^({d}); {base}; {rng.choice(counts)})"


def _integrand(rng) -> str:
    fams = [_family(rng) for _ in range(rng.randint(1, 3))]
    num = [f for f in fams if rng.random() < 0.6] or ["1"]
    den = [f for f in fams if f not in num]
    return "ct{" + "*".join(num) + "".join("/" + f for f in den) + "}"


_PARAMS = ["q^(-1)", "-q^(-1)", "w*q^(-1)", "q^(-1/2)", "q", "-q^(1/2)", "w2*q^2"]
_ZS = ["q^(-1)", "w", "-q^(1/2)", "q"]
_POLY_BASES = ["q", "q^(1/2)", "q^2"]


def _polynomial(rng) -> str:
    a, z = rng.choice(_PARAMS), rng.choice(_ZS)
    kind = rng.choice("rac")
    if kind == "r":
        return f"rc({rng.randint(0, 6)}; {a}; {rng.choice(_POLY_BASES)}; {z})"
    if kind == "a":
        rest = ", ".join(rng.choice(_PARAMS) for _ in range(3))
        return f"awp({rng.randint(0, 4)}; {a}, {rest}; {rng.choice(_POLY_BASES)}; {z})"
    return f"cgf({rng.randint(1, 5)}; {rng.randint(0, 5)}; {a}; {z})"


def _over_claims(text: str, order: int):
    """None if the side SKIPs, else whether order and order + STEP
    disagree below the lower truncation or the truncation drops."""
    expr = parse(text)
    try:
        lo = elaborate(expr, SeriesContext(D, order))
        hi = elaborate(expr, SeriesContext(D, order + STEP))
    except QrucibleError:
        return None
    return lo.trunc > hi.trunc or _disagree(lo, hi, lo.trunc)


def _disagree(lo, hi, up_to: int) -> bool:
    """Whether two series of one side, elaborated at different orders,
    differ at an exponent below up_to."""
    return any(lo.coefficient(j) != hi.coefficient(j)
               for j in range(min(lo.val, hi.val), up_to))


def _within_budget(text: str, order: int) -> bool:
    try:
        window, margin = plan_window(ct_families(text), SeriesContext(D, order + STEP))
    except QrucibleError:
        return True  # SKIPs in elaboration
    return window * (order + STEP + margin) <= CT_BUDGET


def test_random_ct_integrands_never_over_claim():
    rng = random.Random(20261018)
    evaluated, bad = 0, []
    for _ in range(400):
        text, order = _integrand(rng), rng.randint(4, 12)
        if not _within_budget(text, order):
            continue
        verdict = _over_claims(text, order)
        evaluated += verdict is not None
        if verdict:
            bad.append((order, text))
    assert not bad
    assert evaluated > 150


def test_polynomials_at_inverse_q_parameters_never_over_claim():
    rng = random.Random(20261019)
    # q^3 of the t^4 coefficient of form 3 read 3 at order 16 where it is 5/2
    cases = [("cgf(3; 4; q^(-1); q^(-1))", 16)]
    cases += [(_polynomial(rng), rng.randint(6, 14)) for _ in range(50)]
    evaluated, bad = 0, []
    for text, order in cases:
        verdict = _over_claims(text, order)
        evaluated += verdict is not None
        if verdict:
            bad.append((order, text))
    assert not bad
    assert evaluated > 40


def test_cgf5_at_inverse_q_keeps_the_truncs_of_a_zero_scalar():
    # form 5 at a = w*q^(-1) scales rows of negative val by a series that
    # is zero to the order; each such row stays, known below that series'
    # trunc plus its val. A product that dropped them read this side as
    # zero below q^4, where its q^2 coefficient is 2 - w
    text = "cgf(5; 2; w*q^(-1); q^(-1))"
    side = elaborate(parse(text), SeriesContext(D, 8))
    assert (side.val, side.trunc) == (0, 0)
    assert _over_claims(text, 8) is False


_POCH_COEFFS = ["", "-", "w*", "-w2*", "2*", "1/2*", "(1+w)*", "-1/3*"]
_INF_BASES = ["q", "-q", "w*q", "q^2", "2*q"]
_FINITE_BASES = ["1/2", "-1", "q^(-1)", "w2*q^(-1)", "q", "-q^2"]
_CO_FACTORS = ["q^(-1)", "(1 + q)", "2*q", "(1 - w*q^2)", "(q - q)"]


def _poch_text(rng, denom: int) -> str:
    """qp(...) with 1 to 3 arguments, negative exponents among them, an
    infinite count or a finite one whose base exponent may be <= 0."""
    args = ", ".join(
        f"{rng.choice(_POCH_COEFFS)}q^({Fraction(rng.randint(-3 * denom, 4 * denom), denom)})"
        for _ in range(rng.randint(1, 3))
    )
    if rng.random() < 0.5:
        return f"qp({args}; {rng.choice(_INF_BASES)}; inf)"
    return f"qp({args}; {rng.choice(_FINITE_BASES)}; {rng.randint(0, 6)})"


def _quotient_text(rng, denom: int) -> str:
    """A product or quotient of Pochhammers with the odd co-factor, the
    denominators sometimes grouped in parentheses."""
    def factor():
        return rng.choice(_CO_FACTORS) if rng.random() < 0.2 else _poch_text(rng, denom)

    num = [factor() for _ in range(rng.randint(0, 3))] or ["1"]
    den = [factor() for _ in range(rng.randint(0, 3))]
    if len(den) > 1 and rng.random() < 0.5:
        return "*".join(num) + "/(" + "*".join(den) + ")"
    return "*".join(num) + "".join("/" + f for f in den)


def chain_elaborate(e, ctx):
    """The parent's elaboration of a product side: one series per
    Pochhammer argument (`sequential_pochhammer`), the product of those,
    and the factors multiplied left to right, an inverted one through
    inverse()."""
    if isinstance(e, Product):
        (_, first), *rest = e.factors
        acc = chain_elaborate(first, ctx)
        for inverted, x in rest:
            f = chain_elaborate(x, ctx)
            acc = acc * (f.inverse() if inverted else f)
        return acc
    if isinstance(e, Poch):
        base, acc = as_monomial(e.base), ctx.one()
        for a in e.args:
            acc = acc * sequential_pochhammer(PochSpec(as_monomial(a), base, e.count), ctx)
        return acc
    return elaborate(e, ctx)


def test_pochhammer_quotients_match_the_chain_and_never_over_claim():
    """One binomial pass per product side against the chain it replaces:
    the same val and coefficients below the smaller trunc, a trunc never
    below the chain's, the same SKIPs, and agreement at N and N + 6*D
    below the claimed trunc."""
    rng = random.Random(20261019)
    compared = gained = 0
    for _ in range(2400):
        denom = rng.choice([1, 2, 3])
        text, order = _quotient_text(rng, denom), rng.randint(2, 12) * denom
        expr = parse(text)
        try:
            ref = chain_elaborate(expr, SeriesContext(denom, order))
        except QrucibleError:
            ref = None
        try:
            lo = elaborate(expr, SeriesContext(denom, order))
            hi = elaborate(expr, SeriesContext(denom, order + 6 * denom))
        except QrucibleError:
            assert ref is None, text
            continue
        assert ref is not None, text
        assert lo.trunc >= ref.trunc, text
        assert ref.is_zero() or lo.val == ref.val, text
        assert not _disagree(lo, ref, ref.trunc), text
        assert lo.trunc <= hi.trunc and not _disagree(lo, hi, lo.trunc), text
        compared += 1
        gained += lo.trunc > ref.trunc
    assert compared > 2000 and gained > 100, (compared, gained)


def test_shipped_sides_agree_across_orders():
    sides, bad = 0, []
    for case in load_registry():
        for text in (case.lhs_text, case.rhs_text):
            expr = parse(text)
            lo = elaborate(expr, SeriesContext(case.denom, case.order))
            hi = elaborate(expr, SeriesContext(case.denom, case.order + 12 * case.denom))
            sides += 1
            if _disagree(lo, hi, min(lo.trunc, hi.trunc)):
                bad.append((case.name, text))
    assert sides == 198 and not bad
