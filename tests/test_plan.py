"""The precision plan (`dsl.plan_loss`) against elaboration: exact on
every shipped side, never more than elaboration shows on random sides,
and one elaboration per side for the cases whose sides lose orders."""

import math
import random

import pytest

from qrucible import dsl
from qrucible.dsl import elaborate, parse, plan_loss
from qrucible.errors import QrucibleError
from qrucible.harness import load_registry, parse_suite, verify
from qrucible.series import SeriesContext
from test_honesty import _polynomial, _quotient_text

# the cases whose sides lose orders at their stated orders, with the
# working order (scaled) the escalation loop reached for them
ESCALATING = {
    "rogers-aw-embed-1": 60, "rogers-aw-embed-2": 70,
    "rogers-aw-embed-3": 58, "rogers-aw-embed-4": 59,
    "rogers-genfun-1": 52, "rogers-genfun-2": 52, "rogers-genfun-3": 100,
    "rogers-genfun-4": 52, "rogers-genfun-5": 52,
    "rogers-cube-root": 45,
    "quintuple-1": 65, "quintuple-2": 67, "quintuple-3": 65, "quintuple-spec-1": 65,
}


def _loss(expr, ctx):
    """ctx.order minus the trunc of the elaborated side, None if it errs."""
    try:
        return ctx.order - elaborate(expr, ctx).trunc
    except QrucibleError:
        return None


def test_planned_loss_equals_the_elaborated_loss_on_every_shipped_side():
    registry = load_registry()
    runs = [(c, 1, 1) for c in registry] + [(c, 2, 1) for c in registry]
    runs += [(registry.get(name), 1, 3) for name in ESCALATING]
    lossy = set()
    for case, denom, times in runs:
        d = math.lcm(case.denom, denom)
        ctx = SeriesContext(d, case.order * (d // case.denom) * times)
        for expr in (case.lhs(), case.rhs()):
            planned = plan_loss(expr, ctx)
            assert planned == _loss(expr, ctx), (case.name, denom, times)
            if planned:
                lossy.add(case.name)
    assert lossy == set(ESCALATING)


_ATOMS = ["q^(-1)", "(1 + q)", "(q - q)", "(1 - q^(-1))", "(q^(-1) + q)", "(w - w2)",
          "q^(-2)*(1 - q)", "(1 + q)^(-2)", "(q^(-1) - 1)^2", "1/(qp(q; q; inf) - 1)",
          "q^(12)", "q^(9)/(1 - q^(-2))"]


def _compound(rng, depth: int, denom: int) -> str:
    """Sums, products, quotients and powers of Pochhammer quotients,
    polynomials and small sides whose vals the plan has to track."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        k = rng.random()
        if k < 0.4:
            return _quotient_text(rng, denom)
        return _polynomial(rng) if k < 0.5 else rng.choice(_ATOMS)
    a, b = _compound(rng, depth - 1, denom), _compound(rng, depth - 1, denom)
    if r < 0.55:
        return f"({a} {rng.choice('+-')} {b})"
    if r < 0.85:
        return f"({a}){rng.choice('*/')}({b})"
    return f"({a})^({rng.choice([-2, -1, 2, 3])})"


def test_planned_loss_never_exceeds_the_elaborated_loss_on_random_sides():
    rng = random.Random(20261020)
    # polynomials whose rows +-n are exactly zero: no row shift to plan
    sides = [("rc(3; 1; q; q)", 1, 10), ("awp(1; w, w, w, 1; q; q^(-1))", 1, 10)]
    for _ in range(400):
        denom = rng.choice([1, 2, 3])
        sides.append((_quotient_text(rng, denom), denom, rng.randint(2, 12) * denom))
    sides += [(_polynomial(rng), 2, rng.randint(6, 14)) for _ in range(60)]
    for _ in range(300):
        denom = rng.choice([1, 2])
        sides.append((_compound(rng, 3, denom), denom, rng.randint(2, 10) * denom))
    exact = lossy = 0
    for text, denom, order in sides:
        expr, ctx = parse(text), SeriesContext(denom, order)
        loss = _loss(expr, ctx)
        if loss is None:
            continue
        planned = plan_loss(expr, ctx)
        assert 0 <= planned <= loss, (order, text)
        exact += loss > 0 and planned == loss
        lossy += loss > 0
    # the plan sees through most sides that lose orders
    assert lossy > 200 and exact > 0.7 * lossy


@pytest.mark.parametrize("side, path", [
    ("1/0", "Product.1"), ("0^(-1)", "IntPower"), ("1/(qp(1; q; 2) + 0)", "Product.1"),
])
def test_inverses_of_exact_zeros_skip_with_their_own_reason(side, path):
    # the plan of an exact zero's inverse is no loss, not an infinite one
    case = parse_suite(f'identity "zero" {{ lhs = {side}; rhs = 1; D = 1; order = 10; }}')[0]
    assert plan_loss(case.lhs(), SeriesContext(1, 10)) == 0
    report = verify(case)
    assert (report.status, report.skip_reason) == ("SKIP", f"at {path}: series is zero on its window")


def _elaborations(monkeypatch) -> list:
    """The working order of every side elaborated from here on."""
    orders, elaborate_side = [], dsl.elaborate

    def recorded(e, ctx, _path=""):
        if not _path:
            orders.append(ctx.order)
        return elaborate_side(e, ctx, _path)

    monkeypatch.setattr(dsl, "elaborate", recorded)
    return orders


def test_escalating_cases_elaborate_each_side_once(monkeypatch):
    registry = load_registry()
    orders = _elaborations(monkeypatch)
    for name, working in ESCALATING.items():
        orders.clear()
        report = verify(registry.get(name))
        assert report.status == "PASS"
        assert orders == [working, working], name


def test_a_side_the_plan_cannot_see_through_still_escalates(monkeypatch):
    # phi - 1 has val 1, which the plan does not see, so the inverse loses
    # 2 orders in elaboration and none in the plan: the loop pads 2 + 4
    side = "1/(phi([]; []; q; q) - 1)"
    case = parse_suite(f'identity "opaque" {{ lhs = {side}; rhs = {side}; D = 1; order = 20; }}')[0]
    assert plan_loss(case.lhs(), SeriesContext(1, 20)) == 0
    orders = _elaborations(monkeypatch)
    report = verify(case)
    assert orders == [20, 20, 26, 26]
    assert (report.status, report.proven_order) == ("PASS", 24)
