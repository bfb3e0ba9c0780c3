"""Expression language in which every registry identity is declared.

The grammar is infix with function heads so that suite files double as
readable documentation. It is stated once, in `docs/grammar.ebnf`.
`w` is the primitive cube root of unity, `w2` its square; exponents are
integers or parenthesized rationals such as q^(3/2) and q^(-1). An
operator chain is one n-ary Sum or Product node, whose first operand is
never a node of the same kind. Printing is canonical: parse(unparse(e))
is structurally e, and unparse(parse(s)) is a fixpoint after one pass.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, make_dataclass
from fractions import Fraction
from functools import partial, reduce
from operator import mul
from typing import NamedTuple, Optional

from .cyclotomic import CycRat, ONE, _text, omega_power
from .errors import EvalError, MonomialExpected, NotInvertible, ParseError, QrucibleError, UnknownSymbol
from .series import Monomial, QSeries, SeriesContext, monomial_to_series, mul_binomials, series_sum
from .series import ZW_ZERO, _zw_value, binomial_bounds, chain_trunc
from . import qkernel
from . import ctengine
from . import ortho


# -- AST -----------------------------------------------------------------
#
# Nodes are frozen and slotted: a case loaded from a suite keeps the trees
# of both its sides for as long as the registry lives.


@dataclass(frozen=True, slots=True)
class Rational:
    value: int  # nonnegative; signs and fractions are Neg/Product nodes


@dataclass(frozen=True, slots=True)
class Omega:
    power: int  # 1 or 2


@dataclass(frozen=True, slots=True)
class QPower:
    exp: Fraction


@dataclass(frozen=True, slots=True)
class ZPower:
    deg: int


@dataclass(frozen=True, slots=True)
class Neg:
    arg: object


@dataclass(frozen=True, slots=True)
class Sum:
    terms: tuple  # (negated, expr) pairs, left to right; the first is not negated


@dataclass(frozen=True, slots=True)
class Product:
    factors: tuple  # (inverted, expr) pairs, left to right; the first is not inverted


def _operands(e) -> tuple:
    return e.terms if isinstance(e, Sum) else e.factors


@dataclass(frozen=True, slots=True)
class IntPower:
    base: object
    exp: int


@dataclass(frozen=True, slots=True)
class NamedSum:
    name: str


@dataclass(frozen=True, slots=True)
class CT:
    integrand: object


# -- call heads ----------------------------------------------------------
#
# Each call head is stated once, by its `_call` line: the fields of its
# node in order as `name:kind`, each after the ',' or ';' that comes
# before it in the text, and the kernel that elaborates the node as
# kernel(*folded fields, ctx); qp's lists the binomial factors of its
# Pochhammer, given `_product`'s power and window before ctx. Each kind
# gives the Parser method that reads a field, the function that prints
# it, and its fold: E expression (a monomial), I integer, C count
# (integer or inf), A one or more expressions, L bracketed list, Z the
# expression a polynomial is taken at. Fields fold in order, and the
# first that fails names the SKIP; A and Z reach the kernel unfolded,
# since qp folds its base before its args and a polynomial's faults are
# named before its z's: z folds first, but one that fails is left to
# fold again after the polynomial is built in z.
_FIELD_KINDS = {
    "E": ("parse_expr", lambda e: unparse(e), lambda e: as_monomial(e)),
    "I": ("parse_int", str, lambda n: n),
    "C": ("parse_count", lambda n: "inf" if n is None else str(n), lambda n: n),
    "A": ("parse_exprs", lambda es: ", ".join(map(unparse, es)), lambda es: es),
    "L": ("parse_list", lambda es: f"[{', '.join(map(unparse, es))}]",
          lambda es: [as_monomial(e) for e in es]),
    "Z": ("parse_expr", lambda e: unparse(e), lambda e: e),
}


class _Spec(NamedTuple):
    head: str
    fields: list  # (separator before it or "", name, kind) per field, in order
    kernel: object


_CALLS: dict = {}  # head -> node class


def _call(head: str, name: str, spec: str, kernel) -> type:
    """The frozen node class of a call head, its fields as in spec."""
    fields = re.findall(r"([,;]?)\s*(\w+):([A-Z])", spec)
    node = make_dataclass(name, [f for _, f, _ in fields], frozen=True, slots=True,
                          namespace={"_spec": _Spec(head, fields, kernel)})
    node.__module__ = __name__
    _CALLS[head] = node
    return node


def _at(build, z, ctx) -> QSeries:
    """The polynomial build(point) of a Z-kind head at z. Where z folds to
    a nonzero monomial on the grid, it is built at z and read off its
    degree-0 row; otherwise it is built in z (point None) before z folds
    again, so its own fault is named before z's."""
    try:
        point = as_monomial(z)
        ctx.scale(point.exp)
    except QrucibleError:
        point = None
    if point is None or point.is_zero():
        return ctengine.zsubst(build(None), as_monomial(z))
    return build(point).coefficient(0)


Poch = _call("qp", "Poch", "args:A; base:E; count:C", lambda args, base, count, p, n, ctx:
             qkernel.poch_binomials([as_monomial(a) for a in args], base, count, p, n, ctx))
Phi = _call("phi", "Phi", "uppers:L; lowers:L; base:E; arg:E", qkernel.phi)
TripleF = _call("F", "TripleF", "u:E, v:E, w:E", qkernel.f_triple)
Theta = _call("theta", "Theta", "z:E", qkernel.theta_sum)
RogersC = _call("rc", "RogersC", "n:I; a:E; base:E; z:Z", lambda n, a, base, z, ctx:
                _at(lambda p: ortho.rogers_poly(n, ortho.RogersParam(a, base), ctx, p), z, ctx))
AWPoly = _call("awp", "AWPoly", "n:I; a:E, b:E, c:E, d:E; base:E; z:Z", lambda n, a, b, c, d, base, z, ctx:
               _at(lambda p: ortho.aw_poly(n, ortho.AWParam(a, b, c, d, base), ctx, p), z, ctx))
GenfunCoeff = _call("cgf", "GenfunCoeff", "variant:I; n:I; a:E; z:Z", lambda variant, n, a, z, ctx:
                    _at(lambda p: ortho.genfun_lhs(variant, a, n, ctx, p)[n], z, ctx))

# ct{...} and the named sums, such as capparelli(), are special forms
_HEADS = {*_CALLS, "ct", *qkernel.NAMED_SUMS}


# -- lexer ---------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # NUM IDENT STR PUNCT EOF
    value: object
    line: int
    col: int


# One alternative per lexeme, tried in order. Digits are ASCII only:
# str.isdigit also takes "²", which int() rejects, and "١", read as 1. A
# word is \w+, which is str.isalnum() or "_" per character; one that does
# not start with a letter or "_" is refused at its first character. A
# string may span lines and takes any character after a backslash. The
# last alternative takes the character no other does, so every character
# is matched and an unmatched '"' is an unterminated string.
_LEXEME = re.compile(
    r'(?P<SKIP>[ \t\r]+|#[^\n]*)|(?P<PUNCT>[\^*/+\-()\[\]{};,=])|(?P<NUM>[0-9]+)|(?P<IDENT>\w+)'
    r'|(?P<NL>\n)|(?P<STR>"(?:[^"\\]|\\.)*")|(?P<BAD>.)',
    re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
# a Token from its 4-tuple, skipping the Python-level __new__ of a NamedTuple
_token = partial(tuple.__new__, Token)


def _past_digit_limit(x: Fraction) -> bool:
    """Whether x's numerator or denominator has more digits than the
    interpreter converts between int and str, the most a literal may have."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return limit > 0 and any(n.bit_length() > 3 * limit and abs(n) >= 10**limit
                             for n in (x.numerator, x.denominator))


def tokenize(text: str) -> list:
    """Tokens with 1-based line and column; a column counts characters
    since the line's start, tabs and comments included."""
    toks = []
    line, bol = 1, 0  # bol: the offset at which the line starts
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        if kind == "NL":
            line, bol = line + 1, m.end()
            continue
        value, col = m.group(), m.start() - bol + 1
        if kind == "IDENT":
            if not (value[0].isalpha() or value[0] == "_"):
                raise ParseError(f"unexpected character {value[0]!r}", line, col)
        elif kind == "NUM":
            try:
                value = int(value)
            except ValueError:  # past the interpreter's digit limit for int <-> str
                raise ParseError(f"integer of {len(value)} digits is too long", line, col) from None
        elif kind == "STR":
            toks.append(_token((kind, _ESCAPE.sub(r"\1", value[1:-1]), line, col)))
            if (nl := value.count("\n")):
                line, bol = line + nl, m.start() + value.rindex("\n") + 1
            continue
        elif kind == "BAD":
            raise ParseError("unterminated string" if value == '"' else f"unexpected character {value!r}", line, col)
        toks.append(_token((kind, value, line, col)))
    toks.append(Token("EOF", None, line, len(text) - bol + 1))
    return toks


# -- parser --------------------------------------------------------------


# Deepest nesting of parentheses, unary minus, powers and call arguments
# the parser accepts. Parsing, printing and elaboration recurse once per
# level, so this keeps all three far from the interpreter's stack limit.
# An operator chain is one n-ary node whatever its length, so it does
# not count.
MAX_NESTING = 100


class Parser:
    def __init__(self, tokens: list, pos: int = 0):
        self.toks = tokens
        self.pos = pos
        self.depth = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def error(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def expect(self, value: str) -> Token:
        t = self.peek()
        if t.kind == "PUNCT" and t.value == value:
            return self.next()
        self.error(f"expected {value!r}")

    def at(self, value: str) -> bool:
        t = self.peek()
        return t.kind == "PUNCT" and t.value == value

    def eat(self, value: str) -> bool:
        if self.at(value):
            self.next()
            return True
        return False

    def nested(self, parse):
        """parse() one nesting level deeper; past MAX_NESTING levels a
        positioned ParseError instead of a RecursionError."""
        if self.depth >= MAX_NESTING:
            self.error(f"expression nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    # expression grammar

    def parse_expr(self):
        return self.parse_chain(Sum, self.parse_term, "+-")

    def parse_term(self):
        return self.parse_chain(Product, self.parse_unary, "*/")

    def parse_chain(self, node, operand, ops):
        """One `node` for a left-associative chain `x op y op ...`; the
        second operator of `ops` flags its operand. A first operand that
        is already a `node` (parenthesized) is continued, so (a+b)+c and
        a+b+c give the same tree."""
        e = operand()
        items = None
        while (t := self.peek()).kind == "PUNCT" and t.value in ops:
            self.next()
            if items is None:
                items = list(_operands(e)) if type(e) is node else [(False, e)]
            items.append((t.value == ops[1], operand()))
        return e if items is None else node(tuple(items))

    def parse_unary(self):
        if self.eat("-"):
            return Neg(self.nested(self.parse_unary))
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if not self.at("^"):
            return base
        caret = self.next()
        e = self.nested(self.parse_exponent)
        if isinstance(base, ZPower) and e.denominator != 1:
            self.error("z exponent must be an integer")
        if isinstance(base, (QPower, ZPower)):
            e *= base.exp if isinstance(base, QPower) else base.deg
            if _past_digit_limit(e):  # its printed form would not read back
                raise ParseError("exponent has more digits than a number may have", caret.line, caret.col)
            return QPower(e) if isinstance(base, QPower) else ZPower(int(e))
        if e.denominator != 1:
            self.error("fractional power of a non-monomial")
        return IntPower(base, int(e))

    def parse_exponent(self) -> Fraction:
        if self.eat("("):
            sign = -1 if self.eat("-") else 1
            t = self.peek()
            if t.kind != "NUM":
                self.error("expected a number in exponent")
            num = self.next().value
            den = 1
            if self.eat("/"):
                t = self.peek()
                if t.kind != "NUM":
                    self.error("expected a denominator in exponent")
                if t.value == 0:
                    self.error("zero denominator in exponent")
                den = self.next().value
            self.expect(")")
            return Fraction(sign * num, den)
        t = self.peek()
        if t.kind == "NUM":
            return Fraction(self.next().value)
        self.error("expected an exponent")

    def parse_atom(self):
        t = self.peek()
        if t.kind == "NUM":
            return Rational(self.next().value)
        if t.kind == "PUNCT" and t.value == "(":
            self.next()
            e = self.nested(self.parse_expr)
            self.expect(")")
            return e
        if t.kind != "IDENT":
            self.error("expected an expression")
        name = t.value
        if name == "q":
            self.next()
            return QPower(Fraction(1))
        if name == "w":
            self.next()
            return Omega(1)
        if name == "w2":
            self.next()
            return Omega(2)
        if name == "z":
            self.next()
            return ZPower(1)
        if name in _HEADS:
            return self.nested(self.parse_call)
        raise UnknownSymbol(f"unknown symbol {name!r}", t.line, t.col)

    def parse_int(self) -> int:
        t = self.peek()
        if t.kind != "NUM":
            self.error("expected an integer")
        return self.next().value

    def parse_count(self) -> Optional[int]:
        t = self.peek()
        if t.kind == "IDENT" and t.value == "inf":
            self.next()
            return None
        return self.parse_int()

    def parse_exprs(self) -> tuple:
        items = [self.parse_expr()]
        while self.eat(","):
            items.append(self.parse_expr())
        return tuple(items)

    def parse_list(self) -> tuple:
        self.expect("[")
        items = () if self.at("]") else self.parse_exprs()
        self.expect("]")
        return items

    def parse_call(self):
        head = self.next().value
        if head == "ct":
            self.expect("{")
            inner = self.parse_expr()
            self.expect("}")
            return CT(inner)
        self.expect("(")
        if head in qkernel.NAMED_SUMS:
            self.expect(")")
            return NamedSum(head)
        node = _CALLS[head]
        fields = []
        for sep, _, kind in node._spec.fields:
            if sep:
                self.expect(sep)
            fields.append(getattr(self, _FIELD_KINDS[kind][0])())
        self.expect(")")
        return node(*fields)


def parse(text: str):
    """Parse a single expression; the whole text must be consumed."""
    p = Parser(tokenize(text))
    e = p.parse_expr()
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError("trailing input after expression", t.line, t.col)
    return e


# -- printer -------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4


def _prec(e) -> int:
    if isinstance(e, Sum):
        return _PREC_ADD
    if isinstance(e, Product):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_UNARY
    return _PREC_ATOM


def _exp_str(e: Fraction) -> str:
    s = _text(e)  # an exponent product may pass the int-to-str digit limit
    return s if e.denominator == 1 and e >= 0 else f"({s})"


def _wrap(e, min_prec: int) -> str:
    s = unparse(e)
    return f"({s})" if _prec(e) < min_prec else s


def unparse(e) -> str:
    """Canonical text; parse(unparse(e)) == e."""
    if isinstance(e, Rational):
        return str(e.value)
    if isinstance(e, Omega):
        return "w" if e.power == 1 else "w2"
    if isinstance(e, QPower):
        return "q" if e.exp == 1 else f"q^{_exp_str(e.exp)}"
    if isinstance(e, ZPower):
        return "z" if e.deg == 1 else f"z^{_exp_str(Fraction(e.deg))}"
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _PREC_UNARY)
    if isinstance(e, (Sum, Product)):
        prec = _prec(e)
        ops = "+-" if prec == _PREC_ADD else "*/"
        (_, first), *rest = _operands(e)
        out = [_wrap(first, prec)]
        for flagged, x in rest:
            out += ops[flagged], _wrap(x, prec + 1)
        return "".join(out)
    if isinstance(e, IntPower):
        return f"{_wrap(e.base, _PREC_ATOM)}^{_exp_str(Fraction(e.exp))}"
    if isinstance(e, NamedSum):
        return f"{e.name}()"
    if isinstance(e, CT):
        return f"ct{{{unparse(e.integrand)}}}"
    spec = getattr(e, "_spec", None)
    if spec is None:
        raise TypeError(f"not an expression node: {e!r}")
    args = "".join((sep and sep + " ") + _FIELD_KINDS[kind][1](getattr(e, f))
                   for sep, f, kind in spec.fields)
    return f"{spec.head}({args})"


# -- elaboration ---------------------------------------------------------

_ZERO_TERM = (CycRat(0), Fraction(0), 0)
_ONE_TERM = (ONE, Fraction(0), 0)


def _term(e) -> tuple:
    """Fold a constant expression, in which z may appear, to its single
    term (coefficient, q-exponent, z-degree); zero is _ZERO_TERM. A sum
    adds like terms and raises once two unlike ones survive."""
    if isinstance(e, Rational):
        return CycRat(e.value), Fraction(0), 0
    if isinstance(e, Omega):
        return omega_power(e.power), Fraction(0), 0
    if isinstance(e, QPower):
        return ONE, e.exp, 0
    if isinstance(e, ZPower):
        return ONE, Fraction(0), e.deg
    if isinstance(e, Neg):
        c, qe, d = _term(e.arg)
        return -c, qe, d
    if isinstance(e, Sum):
        c, qe, d = _ZERO_TERM
        for negated, x in e.terms:
            c2, qe2, d2 = _term(x)
            if not c:
                c, qe, d = -c2 if negated else c2, qe2, d2
            elif c2:
                if (qe2, d2) != (qe, d):
                    raise MonomialExpected(f"expected a monomial, got {unparse(e)}")
                c = c - c2 if negated else c + c2
                c, qe, d = (c, qe, d) if c else _ZERO_TERM
        return c, qe, d
    if isinstance(e, Product):
        out = _ONE_TERM
        for inverted, x in e.factors:
            t = _term(x)
            out = _times(out, _inverse(t, x) if inverted else t)
        return out
    if isinstance(e, IntPower):
        t = _term(e.base)
        c, qe, d = _inverse(t, e.base) if e.exp < 0 else t
        k = abs(e.exp)
        return c**k, qe * k, d * k
    raise MonomialExpected(f"not a constant expression: {unparse(e)}")


def _times(a: tuple, b: tuple) -> tuple:
    c = a[0] * b[0]
    return (c, a[1] + b[1], a[2] + b[2]) if c else _ZERO_TERM


def _inverse(t: tuple, e) -> tuple:
    """The inverse of the term t that e folds to."""
    c, qe, d = t
    if not c:
        raise MonomialExpected(f"non-monomial divisor: {unparse(e)}")
    return c.inv(), -qe, -d


def as_monomial(e) -> Monomial:
    """Fold a parameter expression to a single monomial c*q^e."""
    c, qe, d = _term(e)
    if d:
        raise MonomialExpected(f"not a constant expression: {unparse(e)}")
    return Monomial(c, qe)


def _collect_ct(e, inverted, families, scalars, shift) -> tuple:
    """Split a multiplicative integrand into Pochhammer families in z and
    scalar factors; return the term `shift` times its bare z-monomial
    factors."""
    if isinstance(e, Product):
        for inv, x in e.factors:
            shift = _collect_ct(x, inverted != inv, families, scalars, shift)
        return shift
    if isinstance(e, Poch):
        base = as_monomial(e.base)
        for arg in e.args:
            c, qe, d = _term(arg)
            if d == 0:
                scalars.append((Poch((arg,), e.base, e.count), inverted))
            else:
                families.append(
                    ctengine.ZPochFamily(c, qe, d, base, inverted, e.count)
                )
        return shift
    t = _term(e)
    if t[2] == 0:
        scalars.append((e, inverted))
        return shift
    return _times(shift, _inverse(t, e) if inverted else t)


def elaborate(e, ctx: SeriesContext, _path: str = "") -> QSeries:
    """Recursive evaluation through the kernel; errors carry the AST path."""
    try:
        return _elaborate(e, ctx, _path or type(e).__name__)
    except EvalError:
        raise
    except QrucibleError as exc:
        raise EvalError(_path or type(e).__name__, exc) from exc


def _elaborate(e, ctx, path) -> QSeries:
    def sub(child, tag):
        return elaborate(child, ctx, f"{path}.{tag}")

    if isinstance(e, (Rational, Omega, QPower, ZPower)):
        return monomial_to_series(as_monomial(e), ctx)
    if isinstance(e, Neg):
        return -sub(e.arg, "arg")
    if isinstance(e, Sum):
        return series_sum(ctx, [(-ONE if neg else ONE, 0, sub(x, i)) for i, (neg, x) in enumerate(e.terms)])
    if isinstance(e, Product):
        return _product(_flat_factors(e, path, False), ctx)
    if isinstance(e, IntPower):
        base = sub(e.base, "base")
        k = e.exp
        if k < 0:
            base = _wrap_err(base.inverse, path)
            k = -k
        if not k:
            return ctx.one()
        # square-and-multiply over the bits of k below its top one: the
        # val, trunc and coefficients of k - 1 products left to right
        out = base
        for bit in bin(k)[3:]:
            out = out * out * base if bit == "1" else out * out
        return out
    if isinstance(e, Poch):
        return _product([(path, False, e)], ctx)
    if isinstance(e, NamedSum):
        spec = qkernel.NAMED_SUMS[e.name](ctx)
        return qkernel.multisum(spec, ctx)
    if isinstance(e, CT):
        return _elaborate_ct(e, ctx, path)
    if hasattr(e, "_spec"):
        return _kernel(e, ctx)
    raise MonomialExpected(f"cannot elaborate node {type(e).__name__}")


def _flat_factors(e: Product, path: str, inverted: bool):
    """(path, inverted, node) for each factor of e, left to right, the
    factors of nested products in their place."""
    for i, (inv, x) in enumerate(e.factors):
        if isinstance(x, Product):
            yield from _flat_factors(x, f"{path}.{i}", inverted != inv)
        else:
            yield f"{path}.{i}", inverted != inv, x


def _without_unit_z(factors) -> list:
    """The factors (path, inverted, node) of a product, less its z-powers
    where their degrees total 0: z^2*z^(-2) is 1, as in ct{}. Otherwise
    they stay, and the first z-power raises at its path."""
    factors = list(factors)
    degs = [-x.deg if inv else x.deg for _, inv, x in factors if isinstance(x, ZPower)]
    return [f for f in factors if not isinstance(f[2], ZPower)] if degs and not sum(degs) else factors


def _product(factors, ctx, rest=()) -> QSeries:
    """The product of the series in rest and of each factor (path,
    inverted, node) to the power -1 if inverted. The factors that are not
    Pochhammers are elaborated left to right. Every Pochhammer factor,
    inverted or not, is applied in one binomial pass, numerators first,
    to the product of those of val <= 0, and those of val > 0 multiply in
    last. In that order the vals of the partial products first fall, then
    rise, so capping each partial trunc at the order costs no more than
    capping the whole product's. An exactly zero Pochhammer makes the
    product exactly zero, known to the order; where it is inverted it
    raises at its path, so 0/0 never cancels."""
    pochs, rest = [], list(rest)
    for path, inverted, x in _without_unit_z(factors):
        if isinstance(x, Poch):
            pochs.append((path, -1 if inverted else 1, x))
            continue
        f = elaborate(x, ctx, path)
        rest.append(_wrap_err(f.inverse, path) if inverted else f)
    acc = reduce(mul, [f for f in rest if f.val <= 0] or [ctx.one()])
    num, den, zero = [], [], False
    for path, p, x in pochs:
        fs = _wrap_err(_kernel, path, x, p, acc.trunc - acc.val, ctx)
        zero = zero or fs is None
        (num if p > 0 else den).extend(fs or ())
    if zero:
        return ctx.zero()
    return reduce(mul, [f for f in rest if f.val > 0], mul_binomials(acc, num + den))


def _fold(e) -> list:
    """The fields of a call node, in field order, each folded by its kind."""
    return [_FIELD_KINDS[kind][2](getattr(e, f)) for _, f, kind in e._spec.fields]


def _kernel(e, *args):
    """The kernel of e's head on its folded fields, then args."""
    return e._spec.kernel(*_fold(e), *args)


def _wrap_err(fn, path, *args):
    try:
        return fn(*args)
    except EvalError:
        raise
    except QrucibleError as exc:
        raise EvalError(path, exc) from exc


def _elaborate_ct(e: CT, ctx, path) -> QSeries:
    families: list = []
    scalars: list = []
    c, qe, d = _collect_ct(e.integrand, False, families, scalars, _ONE_TERM)
    # ct{z^d * P} is the coefficient of z^(-d) in P
    if families:
        ct = ctengine.ct_product(families, ctx, degree=-d)
    else:
        ct = ctx.one() if d == 0 else ctx.zero()
    out = ct.mul_monomial(c, ctx.scale(qe))
    return _product([(f"{path}.scalar", inv, x) for x, inv in scalars], ctx, [out])


# -- precision plan --------------------------------------------------------
#
# A plan is (lo, lead, t) for the series x a node elaborates to: t >= the
# trunc of x, and lo <= the val of the exact value x stands for (every
# coefficient of x below its trunc is that value's), -inf where unknown
# and inf for an exact zero. Where lead is not None, the exact value is
# lead*q^lo + higher terms, so the val of x is min(lo, trunc). Each node
# applies its elaboration's rules to those bounds. A node the plan cannot
# see through plans (-inf, None, N), N the order, which holds for every
# series known below the order.


def plan_loss(e, ctx: SeriesContext) -> int:
    """How many scaled orders elaborate(e, ctx) loses, ctx.order minus its
    trunc, read off the AST before anything is built. It is never more
    than the elaboration shows, and 0 where the side errs or the plan
    cannot see through it: phi, multisums, theta, ct{}, and polynomials
    whose parameter exponents are negative."""
    try:
        return ctx.order - _plan(e, ctx)[2]
    except QrucibleError:
        return 0


def _hi(plan) -> int:
    """An upper bound on the val of the series: at most its trunc."""
    lo, lead, t = plan
    return t if lead is None else min(lo, t)


def _plan(e, ctx) -> tuple:
    order = ctx.order
    if isinstance(e, (Rational, Omega, QPower)):
        m = as_monomial(e)
        return (math.inf, None, order) if m.is_zero() else (ctx.scale(m.exp), m.coeff, order)
    if isinstance(e, Neg):
        lo, lead, t = _plan(e.arg, ctx)
        return lo, None if lead is None else -lead, t
    if isinstance(e, Sum):
        terms = [_plan(Neg(x) if negated else x, ctx) for negated, x in e.terms]
        lo, t = min(p[0] for p in terms), min(p[2] for p in terms)
        least = [p[1] for p in terms if p[0] == lo]
        if lo == math.inf or None in least:
            return lo, None, t
        lead = sum(least[1:], least[0])
        # leads that cancel leave a val above lo, on the grid
        return (lo, lead, t) if lead else (lo + 1, None, t)
    if isinstance(e, Product):
        return _plan_product(_flat_factors(e, "", False), ctx)
    if isinstance(e, Poch):
        return _plan_product([("", False, e)], ctx)
    if isinstance(e, IntPower):
        base, k = _plan(e.base, ctx), e.exp
        if k < 0:
            base, k = _plan_inverse(base, order), -k
        out = base if k else (0, ONE, order)
        for bit in bin(k)[3:]:
            out = _plan_chain([out, out, base] if bit == "1" else [out, out], order)
        return out
    if isinstance(e, (RogersC, AWPoly, GenfunCoeff)):
        return _plan_poly(e, ctx)
    return -math.inf, None, order


def _plan_chain(parts, order: int) -> tuple:
    """The plan of the product of parts, multiplied left to right."""
    if len(parts) == 1:
        return parts[0]
    t = chain_trunc(order, [(_hi(p), p[2]) for p in parts])
    if any(p[0] == math.inf for p in parts):
        return math.inf, None, t
    leads = [p[1] for p in parts]
    return sum(p[0] for p in parts), None if None in leads else reduce(mul, leads), t


def _plan_inverse(plan, order: int) -> tuple:
    """QSeries.inverse: the val negates and the trunc drops by twice it;
    an exact zero raises, as its series is zero on its window."""
    lo, lead, t = plan
    if lo == math.inf:
        raise NotInvertible("series is zero on its window")
    return -_hi(plan), None if lead is None else lead.inv(), min(order, t - 2 * lo)


def _plan_product(factors, ctx, rest=()) -> tuple:
    """The plan of `_product`, its factors split by their planned vals."""
    order, pochs, rest = ctx.order, [], list(rest)
    for _, inverted, x in _without_unit_z(factors):
        if isinstance(x, Poch):
            pochs.append((x, -1 if inverted else 1))
            continue
        f = _plan(x, ctx)
        rest.append(_plan_inverse(f, order) if inverted else f)
    lo, lead, t = _plan_chain([f for f in rest if _hi(f) <= 0] or [(0, ONE, order)], order)
    # on a window of 1 the factors listed are those of exponent <= 0 (and
    # all of a finite count on a base of exponent < 0), the only ones
    # that move a val, a leading coefficient or a trunc
    num, den = [], []
    for x, p in pochs:
        fs = _kernel(x, p, 1, ctx)
        if fs is None:
            return math.inf, None, order
        (num if p > 0 else den).extend(fs)
    for c, e, p in num + den:
        if c == ZW_ZERO or e > 0:
            continue
        c = _zw_value(c)
        if e < 0:
            # (1 - c*q^e)^p = (-c*q^e)^p * (1 - q^(-e)/c)^p
            _, t = binomial_bounds(lo, t, e, p, order)
            lo += p * e
            lead = None if lead is None else lead * (-c if p > 0 else -c.inv())
        elif lead is not None:
            lead = lead * (ONE - c if p > 0 else (ONE - c).inv())
    return _plan_chain([(lo, lead, t)] + [f for f in rest if _hi(f) > 0], order)


def _plan_poly(e, ctx) -> tuple:
    """`zsubst`'s trunc over rows m = +-n, where every row of the
    polynomial is known to the order at val >= 0 and rows +-n are nonzero:
    the base exponent is positive, no parameter exponent is negative (for
    cgf, a's is positive, and over 1/2 for form 5, whose passes read
    -a^2 q^(-1)), and no factor of the leading coefficient is exactly
    zero: (a; b)_n for C_n(x; a|b), (abcd b^(n-1); b)_n for p_n. That is
    the trunc of the z-Laurent build; the build at z that `_at` makes
    where z folds keeps each trunc of a power of z exactly, so on it the
    plan may over-pad but never under-pads."""
    order = ctx.order
    if isinstance(e, GenfunCoeff):
        variant, n, a, z = _fold(e)
        seen = variant in range(1, 6) and a.exp > (Fraction(1, 2) if variant == 5 else 0)
    else:
        n, *params, base, z = _fold(e)
        seen = base.exp > 0 and all(x.exp >= 0 for x in params)
        if seen and n:
            lead = reduce(mul, params) * base ** (n - 1) if len(params) > 1 else params[0]
            j = qkernel._zero_factor_index(lead, base)
            seen = j is None or j >= n
    if not seen:
        return -math.inf, None, order
    z = as_monomial(z)
    t = ctengine.subst_trunc([(n, order), (-n, order)], z, ctx)
    return -abs(ctx.scale(n * z.exp)), None, t
