import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qrucible.cyclotomic import CycRat, OMEGA2, ONE
from qrucible.dsl import (
    AWPoly,
    CT,
    GenfunCoeff,
    IntPower,
    NamedSum,
    Neg,
    Omega,
    Phi,
    Poch,
    Product,
    QPower,
    Rational,
    RogersC,
    Sum,
    Theta,
    Token,
    TripleF,
    ZPower,
    as_monomial,
    elaborate,
    parse,
    tokenize,
    unparse,
)
from qrucible.errors import EvalError, MonomialExpected, ParseError, UnknownSymbol
from qrucible.series import SeriesContext, equal_to_order


def test_parse_poch():
    assert parse("qp(q;q;inf)") == Poch((QPower(Fraction(1)),), QPower(Fraction(1)), None)
    assert parse("qp(q; q; 3)").count == 3


def test_parse_monomial_product():
    assert parse("q^(3/2)*w2") == Product(((False, QPower(Fraction(3, 2))), (False, Omega(2))))


def test_parse_phi_head():
    e = parse("phi([q^(3/4)*w, -q^(3/4)*w]; [-q^(3/2)]; q; q^(1/2)*w2)")
    assert isinstance(e, Phi)
    assert len(e.uppers) == 2 and len(e.lowers) == 1
    assert e.uppers[1] == Product(((False, Neg(QPower(Fraction(3, 4)))), (False, Omega(1))))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("qp(q; q; ")
    assert err.value.line == 1 and err.value.col >= 9
    with pytest.raises(UnknownSymbol):
        parse("frobnicate + 1")
    with pytest.raises(ParseError):
        parse("1 + ")
    with pytest.raises(ParseError):
        parse("1 1")
    with pytest.raises(ParseError) as err:
        parse("q^(1/0)")
    assert (err.value.line, err.value.col) == (1, 6)
    # digits are ASCII: "²" and "١" pass str.isdigit, and int() rejects
    # the one and reads the other as 1
    for text, col in (("q^²", 3), ("١+q", 1), ("q^(1/٢)", 6)):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse(text)
        assert (err.value.line, err.value.col) == (1, col), text
    with pytest.raises(ParseError, match="integer of 5000 digits is too long") as err:
        parse("q + " + "1" * 5000)
    assert (err.value.line, err.value.col) == (1, 5)
    # a string spanning lines moves every later position down by its newlines
    with pytest.raises(ParseError) as err:
        tokenize('"a\nbc\nd" q\n  $')
    assert (err.value.line, err.value.col) == (4, 3)
    assert tokenize('"ab\ncd" q')[1] == Token("IDENT", "q", 2, 5)


def test_print_examples():
    assert unparse(Poch((QPower(Fraction(1)),), QPower(Fraction(1)), None)) == "qp(q; q; inf)"
    assert unparse(parse("q^(-1)")) == "q^(-1)"
    assert unparse(parse("-q")) == "-q"
    assert unparse(parse("1/2")) == "1/2"


def test_print_is_idempotent_on_registry():
    from qrucible.harness import load_registry

    for case in load_registry():
        for text in (case.lhs_text, case.rhs_text):
            assert unparse(parse(text)) == text


def test_registry_sides_print_as_recorded():
    # every shipped side prints exactly as the recorded canonical text, so
    # a change of the printer shows here and not only in its own round trip
    from qrucible.harness import load_registry

    path = Path(__file__).resolve().parent / "data" / "shipped-suite-sides.json"
    recorded = json.loads(path.read_text(encoding="utf-8"))
    sides = [
        {"name": c.name, "lhs_text": c.lhs_text, "rhs_text": c.rhs_text}
        for c in load_registry()
    ]
    assert len(sides) == 99
    assert sides == recorded


def test_long_chains_parse_print_and_elaborate():
    # a chain is one n-ary node, so 500 operands cost no recursion
    ctx = SeriesContext(1, 5)
    for text, value in (
        ("+".join(["q"] * 500), "500*q"),
        ("q" + "-q+q" * 250, "q"),
        ("*".join(["w"] * 500), "w2"),  # 500 = 2 mod 3
        ("q" + "/w*w" * 250, "q"),
    ):
        e = parse(text)
        assert len(e.terms if isinstance(e, Sum) else e.factors) >= 500
        assert unparse(e) == text
        assert equal_to_order(elaborate(e, ctx), elaborate(parse(value), ctx), 5)


def _gen(rng: random.Random, depth: int):
    leaf_kinds = ("num", "q", "w", "z")
    kinds = leaf_kinds if depth <= 0 else (
        "num", "q", "w", "add", "sub", "mul", "div", "neg", "pow",
        "qp", "phi", "F", "named", "theta", "ct", "rc", "awp", "cgf",
    )
    k = rng.choice(kinds)
    if k == "num":
        return Rational(rng.randint(0, 12))
    if k == "q":
        e = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4)))
        return QPower(e)
    if k == "w":
        return Omega(rng.choice((1, 2)))
    if k == "z":
        return ZPower(rng.choice((-3, -1, 1, 2)))
    sub = lambda: _gen(rng, depth - 1)
    if k in ("add", "sub", "mul", "div"):
        # canonical shape: a first operand of the same kind is spliced in,
        # as the parser continues a parenthesized chain
        node = Sum if k in ("add", "sub") else Product
        first = sub()
        if isinstance(first, node):
            items = list(first.terms if node is Sum else first.factors)
        else:
            items = [(False, first)]
        items.append((k in ("sub", "div"), sub()))
        while rng.random() < 0.3:
            items.append((rng.random() < 0.5, sub()))
        return node(tuple(items))
    if k == "neg":
        return Neg(sub())
    if k == "pow":
        base = sub()
        while isinstance(base, (QPower, ZPower, IntPower)):
            base = Rational(rng.randint(0, 9))
        return IntPower(base, rng.randint(-3, 5))
    if k == "qp":
        nargs = rng.randint(1, 3)
        count = None if rng.random() < 0.6 else rng.randint(0, 9)
        return Poch(tuple(sub() for _ in range(nargs)), sub(), count)
    if k == "phi":
        return Phi(
            tuple(sub() for _ in range(rng.randint(0, 3))),
            tuple(sub() for _ in range(rng.randint(0, 3))),
            sub(), sub(),
        )
    if k == "F":
        return TripleF(sub(), sub(), sub())
    if k == "named":
        return NamedSum(rng.choice(("capparelli", "tsum_a", "tsum_b", "tsum_c", "tsum_h")))
    if k == "theta":
        return Theta(sub())
    if k == "ct":
        return CT(sub())
    if k == "rc":
        return RogersC(rng.randint(0, 9), sub(), sub(), sub())
    if k == "awp":
        return AWPoly(rng.randint(0, 9), sub(), sub(), sub(), sub(), sub(), sub())
    if k == "cgf":
        return GenfunCoeff(rng.randint(1, 5), rng.randint(0, 6), sub(), sub())
    raise AssertionError(k)


def test_roundtrip_fuzz_1200_asts():
    rng = random.Random(987654)
    for i in range(1200):
        ast = _gen(rng, rng.randint(0, 6))
        text = unparse(ast)
        back = parse(text)
        assert back == ast, f"case {i}: {text}"
        assert unparse(back) == text


def test_as_monomial():
    m = as_monomial(parse("-q^(3/2)*w2"))
    assert m.coeff == -OMEGA2 and m.exp == Fraction(3, 2)
    assert as_monomial(parse("0")).is_zero()
    assert as_monomial(parse("w-w2")).coeff == CycRat(1, 2)
    assert as_monomial(parse("q+q")) == as_monomial(parse("2*q"))
    assert as_monomial(parse("q-q+w*0")).is_zero()
    with pytest.raises(MonomialExpected):
        as_monomial(parse("1+q"))
    # the reason names the sum that does not fold, not the whole parameter
    with pytest.raises(MonomialExpected, match=r"^expected a monomial, got 1\+q\+w\*q\^2$"):
        as_monomial(parse("2*(1+q+w*q^2)^600"))


def test_elaborate_partition_gf():
    ctx = SeriesContext(1, 7)
    s = elaborate(parse("1/qp(q, q^4; q^5; inf)"), ctx)
    assert [s.coefficient(k).re for k in range(7)] == [1, 1, 1, 1, 2, 2, 3]


def test_elaborate_constant():
    ctx = SeriesContext(1, 5)
    s = elaborate(parse("2+3"), ctx)
    assert s.coefficient(0) == CycRat(5)


def test_elaborate_triple_sum_identity():
    ctx = SeriesContext(1, 40)
    lhs = elaborate(parse("F(q, 1, q^3)"), ctx)
    rhs = elaborate(parse("qp(q^3; q^12; inf)/qp(q, q^2; q^4; inf)"), ctx)
    assert equal_to_order(lhs, rhs, 40)


def test_elaborate_error_carries_path():
    ctx = SeriesContext(1, 10)
    with pytest.raises(EvalError) as err:
        elaborate(parse("1/(q-q)"), ctx)
    assert "at Product.1:" in str(err.value)
    with pytest.raises(EvalError) as err2:
        elaborate(parse("qp(q^(1/2); q; inf)"), ctx)  # off-grid exponent
    assert "Poch" in str(err2.value)


def test_elaborate_matches_direct_kernel_calls():
    # random Pochhammer/phi ASTs elaborate to exactly what the kernel
    # computes when called directly with the folded monomials
    from qrucible.qkernel import phi, pochhammer
    from qrucible.series import Monomial, mono

    rng = random.Random(5150)
    ctx = SeriesContext(1, 25)

    def rand_mono_ast(lo=-2, hi=4):
        e = rng.randint(lo, hi)
        node = QPower(Fraction(e)) if e else Rational(1)
        if rng.random() < 0.3:
            node = Product(((False, node), (False, Omega(rng.choice((1, 2))))))
        if rng.random() < 0.4:
            node = Neg(node)
        return node

    for _ in range(60):
        args = tuple(rand_mono_ast() for _ in range(rng.randint(1, 3)))
        base = QPower(Fraction(rng.randint(1, 3)))
        count = None if rng.random() < 0.5 else rng.randint(0, 6)
        ast = Poch(args, base, count)
        got = elaborate(ast, ctx)
        want = pochhammer([as_monomial(a) for a in args], as_monomial(base), ctx, count)
        assert equal_to_order(got, want, min(got.trunc, want.trunc))

    for _ in range(30):
        uppers = tuple(rand_mono_ast(0, 3) for _ in range(rng.randint(0, 2)))
        lowers = tuple(Neg(QPower(Fraction(rng.randint(1, 3)))) for _ in range(rng.randint(0, 2)))
        if len(uppers) > len(lowers) + 1:
            continue
        arg = QPower(Fraction(rng.randint(1, 3)))
        ast = Phi(uppers, lowers, QPower(Fraction(1)), arg)
        got = elaborate(ast, ctx)
        want = phi(
            [as_monomial(a) for a in uppers],
            [as_monomial(a) for a in lowers],
            as_monomial(QPower(Fraction(1))),
            as_monomial(arg),
            ctx,
        )
        assert equal_to_order(got, want, min(got.trunc, want.trunc))


def test_int_power_takes_square_and_multiply_products(monkeypatch):
    from qrucible.series import QSeries

    calls = []
    mul = QSeries.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(QSeries, "__mul__", counted)
    ctx = SeriesContext(1, 12)
    for k in (2, -1, 3, 1, 4, 7, 8, 13, 10**9):
        calls.clear()
        elaborate(parse(f"(1-q)^({k})"), ctx)
        # one squaring per bit below the top one, one product per set bit
        assert len(calls) == len(bin(abs(k))) - 3 + bin(abs(k)).count("1") - 1, k
    monkeypatch.undo()
    assert elaborate(parse("(1-q)^2"), ctx).coeffs == [ONE, CycRat(-2), ONE]
    inv = elaborate(parse("(1-q)^(-1)"), ctx)
    assert inv.coeffs == [ONE] * 12 and inv.trunc == 12
    assert elaborate(parse("(1-q)^0"), ctx) == ctx.one()


def _rand_base_text(rng):
    """DSL text of a series with w parts, a negative val, a window short of
    the order, or none at all."""
    coeffs = ["1", "-2", "1/3", "w", "w2", "(2*w-1)", "(-3/2*w)"]
    terms = [
        f"{rng.choice(coeffs)}*q^({rng.randint(-4, 8)}/2)" for _ in range(rng.randint(1, 4))
    ]
    text = "(" + " + ".join(terms) + ")"
    kind = rng.randrange(4)
    if kind == 1:
        text = f"{text}/(q^({rng.randint(1, 3)}/2) + q^2)"
    if kind == 2:
        text = f"q^(-{rng.randint(1, 4)}/2)*(q - q)"
    return text


def test_int_power_matches_left_to_right_chain():
    """val, trunc and coefficients of x^k equal those of k - 1 products
    left to right (of 1/x for k < 0), for k up to 12."""
    rng = random.Random(6060)
    seen = {"negative val": 0, "zero": 0, "short": 0}
    for _ in range(500):
        ctx = SeriesContext(2, rng.randint(4, 24))
        text, k = _rand_base_text(rng), rng.choice([-1, 1]) * rng.randint(0, 12)
        x = elaborate(parse(text), ctx)
        if k < 0 and x.is_zero():
            continue
        base = x.inverse() if k < 0 else x
        chain = ctx.one() if k == 0 else base
        for _ in range(abs(k) - 1):
            chain = chain * base
        got = elaborate(parse(f"({text})^({k})"), ctx)
        assert got == chain, (text, k)
        seen["negative val"] += base.val < 0
        seen["zero"] += base.is_zero()
        seen["short"] += base.trunc < ctx.order
    assert min(seen.values()) > 40, seen


def test_const_fold_powers_match_repeated_products():
    # a power folds to the term of the product of its |k| copies (or of
    # their inverses); a zero base inverts to an error, a multi-term one
    # raises at once, whatever its power
    from qrucible.dsl import _term

    def fold(text):
        try:
            return _term(parse(text))
        except MonomialExpected as exc:
            return str(exc).split(":")[0]

    rng = random.Random(6061)
    atoms = ["0", "2", "-1/3", "w", "w2", "q", "q^(-3/2)", "z", "z^(-2)", "(w-w2)", "(q+q)", "(z-2*z)"]
    for _ in range(400):
        text = "*".join(rng.choice(atoms) for _ in range(rng.randint(1, 3)))
        k = rng.randint(-6, 12)
        copies = "*".join([f"({text})"] * k) if k >= 0 else "1" + f"/({text})" * -k
        assert fold(f"({text})^({k})") == fold(copies or "1"), (text, k)
    for text in ("1+z", "q - w*z^2", "1+q-q", "(1+q)*0"):
        for k in (-2, 0, 3, 1000):
            with pytest.raises(MonomialExpected, match="expected a monomial"):
                _term(parse(f"({text})^({k})"))


def test_huge_powers_and_counts_elaborate_at_once():
    import time

    ctx = SeriesContext(1, 30)
    for text, same_as in (
        ("(1+q)^1000000000", None),
        ("w^1000000000", "w"),
        ("qp(w^1000000000; q; inf)", "qp(w; q; inf)"),
        ("qp(q; q; 1000000000)", "qp(q; q; inf)"),
    ):
        t0 = time.perf_counter()
        got = elaborate(parse(text), ctx)
        assert time.perf_counter() - t0 < 1.0, text
        if same_as:
            assert got == elaborate(parse(same_as), ctx), text
    big = elaborate(parse("(1+q)^1000000000"), ctx)
    n = 10**9
    assert [big.coefficient(j).re for j in range(4)] == [1, n, n * (n - 1) // 2, n * (n - 1) * (n - 2) // 6]


def test_int_power_of_negative_valuation_is_honest():
    # (q^(-1) + 1)^3 at orders N and N + 6 agrees below the smaller trunc
    text = "(q^(-1)+1)^3"
    for n in (4, 9, 15):
        low = elaborate(parse(text), SeriesContext(1, n))
        high = elaborate(parse(text), SeriesContext(1, n + 6))
        assert [low.coefficient(k) for k in range(-3, low.trunc)] == [
            high.coefficient(k) for k in range(-3, low.trunc)
        ]
        assert low.coeffs == [ONE, CycRat(3), CycRat(3), ONE][: low.trunc + 3]


def test_genfun_coefficient_with_a_truncated_zero_row_is_honest():
    # a z-row of the t^4 coefficient is 0 below its trunc only; dropping it
    # made order 16 claim q^3 with coefficient 3, where it is 5/2
    text = "cgf(3; 4; q^(-1); q^(-1))"
    low = elaborate(parse(text), SeriesContext(2, 16))
    high = elaborate(parse(text), SeriesContext(2, 40))
    assert high.coefficient(6) == CycRat(Fraction(5, 2))
    assert low.trunc <= 6
    assert [low.coefficient(k) for k in range(low.val, low.trunc)] == [
        high.coefficient(k) for k in range(low.val, low.trunc)
    ]


def test_elaborate_ct_with_shift():
    # CT(z * P(z)) picks the z^(-1) coefficient of P
    ctx = SeriesContext(1, 12)
    picked = elaborate(parse("ct{z*qp(1/z; q; inf)}"), ctx)
    # coefficient of z^(-1) in (1/z;q)_inf is -(sum of q^j) ... leading -1
    assert picked.coefficient(0) == -ONE


def test_grammar_file_names_the_parser_heads():
    # docs/grammar.ebnf is the one statement of the grammar; its call and
    # named productions must list exactly the heads the parser accepts
    import re
    from pathlib import Path

    from qrucible.dsl import _HEADS

    ebnf = (Path(__file__).resolve().parent.parent / "docs" / "grammar.ebnf").read_text()
    heads = set()
    for rule in ("call", "named"):
        body = re.search(rf"^{rule}\s*=(.*?)(?=^\S)", ebnf, re.M | re.S).group(1)
        heads |= set(re.findall(r'"([A-Za-z_]\w*)"', body))
    assert heads == _HEADS
