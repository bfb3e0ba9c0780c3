import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import parent_add, parent_neg, parent_tokenize
from qrucible.cyclotomic import CycRat, OMEGA2, ONE
from qrucible.dsl import (
    _CALLS,
    _FIELD_KINDS,
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
    # a comment advances the column, so the end of input after one is
    # positioned past it, not at its '#'
    with pytest.raises(ParseError, match=r"expected ';' \(line 1, column 15\)"):
        parse("qp(q; q # note")


def _lex(tokenize, text):
    """The tokens of text, or the message and position of its ParseError."""
    try:
        return tokenize(text)
    except ParseError as err:
        return (type(err), str(err), err.line, err.col)


# Fragments the fuzz strings are drawn from. Those that lex: ASCII
# punctuation and digits, letters past ASCII, closed strings with escapes
# and newlines, comments, tabs and CR. Those that raise: other ASCII
# punctuation, non-ASCII digits, an unclosed string, a form feed and a
# literal past the digit limit.
_LEX_CLEAN = [*"^*/+-()[]{};,=", *"0123456789", *"aqzw", "é", "ℤ", "_", "Ω", "x²", "é1", "_9",
              "w2", "qp", "inf", " ", "  ", "\t", "\r", "\n", "\r\n", "#", "# note", "# é ℤ\n",
              '"ab"', '"a\\"b"', '"a\\\\"', '"x\ny"', '"\\\n"', '"é\\q"', "12", "007", "9" * 40]
_LEX_HOSTILE = [*"!$%&'.:<>?@\\`|~", "²", "١", "٢", "½", "\f", '"', '"open', None]


def _lex_fuzz_text(rng: random.Random) -> str:
    hostile = rng.choice([0.0, 0.02, 0.1])
    limit = sys.get_int_max_str_digits()
    parts = []
    for _ in range(rng.randint(0, 30)):
        part = rng.choice(_LEX_HOSTILE if rng.random() < hostile else _LEX_CLEAN)
        if part is None:  # a literal just past the digit limit
            part = "1" * (limit + rng.randint(1, 3))
        parts.append(part)
    return "".join(parts)


def test_tokenize_matches_the_character_loop_on_2500_fuzz_strings():
    # the compiled pattern gives the tokens, or the ParseError message and
    # position, of the loop over characters it replaced
    rng = random.Random(20261020)
    outcomes = {"tokens": 0, "unexpected character": 0, "unterminated string": 0, "too long": 0}
    for i in range(2500):
        text = _lex_fuzz_text(rng)
        got, want = _lex(tokenize, text), _lex(parent_tokenize, text)
        assert got == want, f"case {i}: {text!r}"
        for kind in outcomes:
            outcomes[kind] += isinstance(want, list) if kind == "tokens" else kind in str(want)
    # every kind of outcome is drawn, each error many times
    assert outcomes["tokens"] > 1000 and min(outcomes.values()) >= 10, outcomes


def test_the_lexer_word_class_is_isalnum_or_underscore_on_every_code_point():
    # the pattern reads an identifier as \w+, which the character loop
    # read as str.isalnum() or "_"; both come from the interpreter's
    # Unicode tables, so this is checked on each supported interpreter
    from qrucible.dsl import _LEXEME

    assert r"(?P<IDENT>\w+)" in _LEXEME.pattern
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\w", everything) == [c for c in everything if c.isalnum() or c == "_"]


def test_tokenize_matches_the_character_loop_on_the_shipped_suites():
    suites = sorted((Path(__file__).resolve().parent.parent / "src" / "qrucible" / "suites").glob("*.qid"))
    assert len(suites) == 6
    for path in suites:
        text = path.read_text(encoding="utf-8")
        assert tokenize(text) == parent_tokenize(text), path.name


def test_token_keeps_its_fields_and_equality():
    t = Token("NUM", 3, 1, 2)
    assert (t.kind, t.value, t.line, t.col) == ("NUM", 3, 1, 2)
    assert t == Token("NUM", 3, 1, 2) and t != Token("NUM", 3, 1, 3)
    assert repr(t) == "Token(kind='NUM', value=3, line=1, col=2)"


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


# A random field of each kind in dsl._FIELD_KINDS, given a generator of
# subexpressions
_FIELD_GEN = {
    "E": lambda rng, sub: sub(),
    "Z": lambda rng, sub: sub(),
    "I": lambda rng, sub: rng.randint(0, 9),
    "C": lambda rng, sub: None if rng.random() < 0.6 else rng.randint(0, 9),
    "A": lambda rng, sub: tuple(sub() for _ in range(rng.randint(1, 3))),
    "L": lambda rng, sub: tuple(sub() for _ in range(rng.randint(0, 3))),
}


def _gen(rng: random.Random, depth: int):
    leaf_kinds = ("num", "q", "w", "z")
    kinds = leaf_kinds if depth <= 0 else (
        "num", "q", "w", "add", "sub", "mul", "div", "neg", "pow", "named", "ct", *_CALLS,
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
    if k == "named":
        return NamedSum(rng.choice(("capparelli", "tsum_a", "tsum_b", "tsum_c", "tsum_h")))
    if k == "ct":
        return CT(sub())
    # a call head: its node with a random field of each kind, so a head
    # added to dsl._CALLS is drawn here with no edit
    node = _CALLS[k]
    return node(*(_FIELD_GEN[kind](rng, sub) for _, _, kind in node._spec.fields))


def test_roundtrip_fuzz_1200_asts():
    assert set(_FIELD_GEN) == set(_FIELD_KINDS)
    rng = random.Random(987654)
    heads = set()
    for i in range(1200):
        ast = _gen(rng, rng.randint(0, 6))
        text = unparse(ast)
        back = parse(text)
        assert back == ast, f"case {i}: {text}"
        assert unparse(back) == text
        heads |= {h for h, node in _CALLS.items() if f"{node.__name__}(" in repr(ast)}
    assert heads == set(_CALLS)


def test_call_nodes_keep_their_public_shape():
    # the node classes are generated from their _call lines; each is a
    # frozen dataclass of qrucible.dsl with the fields it had when each
    # was written out by hand
    import dataclasses
    import pickle

    import qrucible.dsl as dsl

    assert {node.__name__: [f.name for f in dataclasses.fields(node)] for node in _CALLS.values()} == {
        "Poch": ["args", "base", "count"],
        "Phi": ["uppers", "lowers", "base", "arg"],
        "TripleF": ["u", "v", "w"],
        "Theta": ["z"],
        "RogersC": ["n", "a", "base", "z"],
        "AWPoly": ["n", "a", "b", "c", "d", "base", "z"],
        "GenfunCoeff": ["variant", "n", "a", "z"],
    }
    for node in (Poch, Phi, TripleF, Theta, RogersC, AWPoly, GenfunCoeff):
        assert getattr(dsl, node.__name__) is node and node.__module__ == "qrucible.dsl"
    e = AWPoly(2, QPower(Fraction(1)), Rational(1), Rational(2), Rational(3), QPower(Fraction(1)), ZPower(1))
    assert e == parse("awp(2; q, 1, 2, 3; q; z)") and hash(e) == hash(parse(unparse(e)))
    assert pickle.loads(pickle.dumps(e)) == e
    assert repr(Theta(Rational(0))) == "Theta(z=Rational(value=0))"
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.n = 3


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


def test_n_ary_sums_match_the_parent_pairwise_q_w_adds():
    """A Sum of n terms, added in one Z[w] window, keeps the val, trunc and
    Z[w] form of n - 1 pairwise adds on Q(w) lists left to right: terms
    with w parts, negative vals, windows short of the order, zero terms
    and leading entries that cancel."""
    rng = random.Random(2302)
    seen = {"negative val": 0, "short": 0, "cancel": 0, "zero": 0}
    for _ in range(300):
        ctx = SeriesContext(2, rng.randint(4, 24))
        texts = [_rand_base_text(rng) for _ in range(rng.randint(2, 6))]
        ops = [rng.choice("+-") for _ in texts[1:]]
        r = rng.random()
        if r < 0.3:  # the first term's entries cancel where no other term reaches
            texts, ops = texts + texts[:1], ops + ["-"]
        elif r < 0.45:  # t - t
            texts, ops = texts[:1] * 2, ["-"]
        e = parse(texts[0] + "".join(f" {op} {t}" for op, t in zip(ops, texts[1:])))
        assert isinstance(e, Sum) and len(e.terms) >= len(texts)
        try:
            terms = [elaborate(x, ctx) for _, x in e.terms]
        except EvalError:  # a divisor zero on its window
            with pytest.raises(EvalError):
                elaborate(e, ctx)
            continue
        want = terms[0]
        for (negated, _), x in zip(e.terms[1:], terms[1:]):
            want = parent_add(want, parent_neg(x) if negated else x)
        got = elaborate(e, ctx)
        assert (got.val, got.trunc, got.zw) == (want.val, want.trunc, want.zw), texts
        seen["negative val"] += got.val < 0
        seen["short"] += got.trunc < ctx.order
        seen["cancel"] += got.val > min(x.val for x in terms)
        seen["zero"] += got.is_zero()
    assert min(seen.values()) > 15, seen


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


def test_z_to_the_zero_is_one():
    # a ZPower leaf folds through as_monomial like a q-power: z^0 is the
    # constant 1, inside ct{} or not, and z^d with d != 0 is no constant
    ctx = SeriesContext(1, 20)
    for text, plain in [
        ("z^0", "1"),
        ("ct{z^0*qp(z; q; inf)*qp(q/z; q; inf)}", "ct{qp(z; q; inf)*qp(q/z; q; inf)}"),
        ("ct{qp(q*z^0; q; inf)*z^0}", "qp(q; q; inf)"),
    ]:
        got, want = elaborate(parse(text), ctx), elaborate(parse(plain), ctx)
        assert (got.val, got.trunc, got.zw) == (want.val, want.trunc, want.zw), text
    for text in ["z^2", "z^(-1)", "z"]:
        with pytest.raises(EvalError, match=r"not a constant expression: z"):
            elaborate(parse(text), ctx)


def test_z_powers_whose_degrees_cancel_are_one():
    # outside ct{} as inside it: a product's z-powers whose degrees total
    # 0 multiply to 1, and a total of any other degree raises at the
    # first z-power, as a lone z-power does
    ctx = SeriesContext(1, 5)
    for text, plain in [
        ("z^2*z^(-2)", "1"),
        ("z/z", "1"),
        ("q*z^2*qp(q; q; inf)*3/z^2", "q*qp(q; q; inf)*3"),
        ("ct{z^2*z^(-2)}", "1"),
    ]:
        got, want = elaborate(parse(text), ctx), elaborate(parse(plain), ctx)
        assert (got.val, got.trunc, got.zw) == (want.val, want.trunc, want.zw), text
    for text, where in [("z^2*z^(-1)", "Product.0: not a constant expression: z^2"), ("w*q/z*z^2", "Product.2: not a constant expression: z")]:
        with pytest.raises(EvalError) as err:
            elaborate(parse(text), ctx)
        assert str(err.value) == f"at {where}", text


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
