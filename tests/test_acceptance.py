"""Acceptance criteria, one test per criterion.

Every comparison is exact (the arithmetic is rational), so "order N"
means all coefficients with exponent below N agree identically. Each test
prints a single pass/fail line; run with -s to see them.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import partition_count, rand_cycrat, rand_series, rogers_half_4phi3_text, rogers_half_sum_text
from test_ctengine import CONTOUR_FORMS, ct_families, triple_sum_integrand, widened_ct
from qrucible.cyclotomic import CycRat, OMEGA, OMEGA2, ONE, ZERO
from qrucible.ctengine import ct_product, triple_sum_ct
from qrucible.errors import QrucibleError
from qrucible.harness import load_registry, verify
from qrucible.ortho import (
    AWParam,
    RogersParam,
    aw_poly,
    genfun_lhs,
    genfun_rhs_coeff,
    rogers_poly,
)
from qrucible.qkernel import f_triple, poch, pochhammer
from qrucible.series import (
    SeriesContext,
    equal_to_order,
    first_mismatch,
    mono,
    monomial_to_series,
    qpow,
)
from qrucible import dsl

HALF = Fraction(1, 2)


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2}] FAIL  {text}")
        raise
    print(f"[criterion {num:2}] PASS  {text}")


@pytest.fixture(scope="module")
def registry():
    return load_registry()


KR_NINE = ["kr-conj-5", "kr-conj-5a", "kr-conj-3", "kr-conj-1", "kr-conj-2",
           "kr-conj-6a", "kr-conj-4", "kr-conj-6", "kr-conj-4a"]

KR_PARAMS = [
    (qpow(1), mono(1, 0), qpow(3)),
    (qpow(2), qpow(4), qpow(9)),
    (qpow(4), qpow(6), qpow(15)),
    (qpow(1), qpow(6), qpow(9)),
    (qpow(2), qpow(2), qpow(9)),
    (qpow(3), qpow(5), qpow(12)),
    (qpow(1), qpow(3), qpow(6)),
    (qpow(1), qpow(1), qpow(6)),
    (qpow(2), qpow(-1), qpow(6)),
]


def test_criterion_1_nine_kanade_russell_identities(registry):
    with criterion(1, "nine Kanade-Russell identities to order q^50, each < 30 s"):
        for name in KR_NINE:
            case = registry.get(name)
            assert case.order == 50 and case.denom == 1
            t0 = time.perf_counter()
            rep = verify(case)
            took = time.perf_counter() - t0
            assert rep.status == "PASS" and rep.proven_order >= 50, name
            assert took < 30.0, (name, took)


def test_criterion_2_rogers_ramanujan_with_partition_oracle(registry):
    with criterion(2, "Rogers-Ramanujan pair to order q^60; product side matches "
                      "the partition oracle for n <= 40"):
        for name in ("rogers-ramanujan-1", "rogers-ramanujan-2"):
            rep = verify(registry.get(name))
            assert rep.status == "PASS" and rep.proven_order >= 60, name
        ctx = SeriesContext(1, 41)
        p1 = pochhammer([qpow(1), qpow(4)], qpow(5), ctx).inverse()
        p2 = pochhammer([qpow(2), qpow(3)], qpow(5), ctx).inverse()
        for n in range(41):
            assert p1.coefficient(n).re == partition_count(n, modulus=5, residues=(1, 4))
            assert p2.coefficient(n).re == partition_count(n, modulus=5, residues=(2, 3))
            # the sum side of the first identity counts gap >= 2 partitions
            assert p1.coefficient(n).re >= 0


def test_criterion_3_contour_representation_of_the_triple_sum():
    with criterion(3, "constant-term representation equals the triple sum for all "
                      "nine parameter sets to order q^30"):
        ctx = SeriesContext(1, 30)
        for u, v, w in KR_PARAMS:
            ct = triple_sum_ct(u, v, w, ctx)
            ms = f_triple(u, v, w, ctx)
            assert ct.trunc >= 30 and ms.trunc >= 30
            assert equal_to_order(ct, ms, 30), (u.exp, v.exp, w.exp)


def test_criterion_4_contour_integral_evaluations():
    with criterion(4, "2phi1 contour representation, balanced integral (both "
                      "forms), and the split 2phi2 at 3 sampled parameter sets "
                      "each, order q^25"):
        cases = load_registry([CONTOUR_FORMS])
        assert len(cases) == 13
        for case in cases:
            rep = verify(case)
            assert rep.status == "PASS" and rep.proven_order >= 25, case.name


def test_criterion_5_single_series_reductions(registry):
    with criterion(5, "the five reduction families at u in {q, q^2, q^3} to "
                      "order q^30"):
        for fam in (1, 2, 3, 4, 5):
            for u in ("q", "q2", "q3"):
                case = registry.get(f"f-reduction-{fam}-{u}")
                rep = verify(case)
                assert rep.status == "PASS", (fam, u)
                assert rep.proven_order >= 30 * case.denom, (fam, u)


def test_criterion_6_classical_toolkit(registry):
    with criterion(6, "Euler, q-binomial (both forms), Bailey-Daum, q-Gauss, "
                      "Heine-type transform, triple product at 4 points, "
                      "quintuple at 3 points plus 3 specializations, order q^60"):
        cases = registry.group("preliminaries")
        assert len(cases) == 17
        for case in cases:
            rep = verify(case)
            assert rep.status == "PASS", case.name
            assert rep.proven_order >= 60 * case.denom, case.name


def test_criterion_7_lattice_sums(registry):
    with criterion(7, "Capparelli to order q^100; the four factored triple sums "
                      "to order q^50"):
        rep = verify(registry.get("capparelli"))
        assert rep.status == "PASS" and rep.proven_order >= 100
        for name in ("triple-sum-1", "triple-sum-2", "triple-sum-3"):
            rep = verify(registry.get(name))
            assert rep.status == "PASS" and rep.proven_order >= 50, name
        case = registry.get("triple-sum-half")
        rep = verify(case)
        assert case.denom == 2
        assert rep.status == "PASS" and rep.proven_order >= 100


def test_criterion_8_quarter_grid_single_sums(registry):
    with criterion(8, "the five one-variable theorems on the quarter grid, "
                      "100 scaled units (q^25)"):
        for name in ("single-sum-6a", "single-sum-4", "single-sum-6",
                     "single-sum-4a", "single-sum-new"):
            case = registry.get(name)
            assert case.denom == 4
            rep = verify(case)
            assert rep.status == "PASS" and rep.proven_order >= 100, name


def _zs_equal(x, y, upto):
    for d in set(x.terms) | set(y.terms):
        cx, cy = x.coefficient(d), y.coefficient(d)
        if not equal_to_order(cx, cy, min(cx.trunc, cy.trunc, upto)):
            return False
    return True


def test_criterion_9_orthogonal_polynomial_suite():
    with criterion(9, "AW symmetry (24 permutations, n <= 5), the four Rogers "
                      "embeddings (n <= 6), five generating-function lemmas "
                      "(n <= 6), cube-root values (n <= 12), balanced 4phi3 "
                      "restatement (n <= 8)"):
        ctx = SeriesContext(2, 36)
        params = (qpow(1), mono(-1, 1), mono(1, HALF), mono(-1, HALF))
        for n in range(6):
            ref = aw_poly(n, AWParam(*params, qpow(1)), ctx)
            for perm in permutations(range(4)):
                got = aw_poly(n, AWParam(*(params[i] for i in perm), qpow(1)), ctx)
                assert _zs_equal(ref, got, 30), (n, perm)

        from qrucible.series import Monomial
        from conftest import zseries
        from qrucible.ctengine import zmul

        ctx2 = SeriesContext(2, 70)
        q = qpow(1)
        a = qpow(1)
        a2 = a ** 2
        half = Monomial(ONE, HALF)
        for n in range(7):
            lhs = rogers_poly(n, RogersParam(a2, q), ctx2)
            pn = aw_poly(n, AWParam(a, -a, a * half, -(a * half), q), ctx2)
            pref = poch(a2 ** 2, q, ctx2, n) * (
                poch(q, q, ctx2, n) * poch(-a2, q, ctx2, n)
                * poch(a2 * half, q, ctx2, n) * poch(-(a2 * half), q, ctx2, n)
            ).inverse()
            assert _zs_equal(lhs, pn.scale(pref), 55), ("embed1", n)
            lhs2 = rogers_poly(n, RogersParam(a2, qpow(2)), ctx2)
            pn2 = aw_poly(n, AWParam(a, -a, half, -half, q), ctx2)
            pref2 = poch(a2, q, ctx2, n) * (
                poch(qpow(2), qpow(2), ctx2, n) * poch(a2 * q, qpow(2), ctx2, n)
            ).inverse()
            assert _zs_equal(lhs2, pn2.scale(pref2), 55), ("embed2", n)

        ctx1 = SeriesContext(1, 60)
        for n in range(7):
            lhs = rogers_poly(2 * n, RogersParam(a, q), ctx1)
            pn = aw_poly(n, AWParam(a, a * q, mono(-1, 0), mono(-1, 1), qpow(2)), ctx1)
            sq = zseries(ctx1, {2 * d: s for d, s in pn.terms.items()})
            pref = poch(a2, qpow(2), ctx1, n) * (
                poch(q, q, ctx1, 2 * n) * poch(-a, q, ctx1, 2 * n)
            ).inverse()
            assert _zs_equal(lhs, sq.scale(pref), 40), ("embed3", n)
            lhs = rogers_poly(2 * n + 1, RogersParam(a, q), ctx1)
            pn = aw_poly(n, AWParam(a, a * q, mono(-1, 1), mono(-1, 2), qpow(2)), ctx1)
            sq = zseries(ctx1, {2 * d: s for d, s in pn.terms.items()})
            hx = CycRat(Fraction(1, 2))
            xfac = zseries(ctx1, {1: ctx1.monomial(hx, 0), -1: ctx1.monomial(hx, 0)})
            pref = (poch(a2, qpow(2), ctx1, n + 1) * (
                poch(q, q, ctx1, 2 * n + 1) * poch(-a, q, ctx1, 2 * n + 1)
            ).inverse()).mul_monomial(CycRat(2), 0)
            assert _zs_equal(lhs, zmul(sq, xfac).scale(pref), 40), ("embed4", n)

        ctx3 = SeriesContext(2, 70)
        for variant in (1, 2, 3, 4, 5):
            coeffs = genfun_lhs(variant, qpow(1), 6, ctx3)
            for n in range(7):
                rhs = genfun_rhs_coeff(variant, n, qpow(1), ctx3)
                assert _zs_equal(coeffs[n], rhs, 50), (variant, n)

        for av in ("q", "q^2", "w*q"):
            for n in range(13):
                lhs = dsl.elaborate(dsl.parse(f"rc({n}; {av}; q; w)"), ctx3)
                rhs = dsl.elaborate(dsl.parse(rogers_half_sum_text(n, av)), ctx3)
                assert equal_to_order(lhs, rhs, min(lhs.trunc, rhs.trunc, 55)), (av, n)

        ctx4 = SeriesContext(1, 70)
        for n in range(9):
            lhs = dsl.elaborate(dsl.parse(f"rc({n}; w*q; q; w)"), ctx4)
            rhs = dsl.elaborate(dsl.parse(rogers_half_4phi3_text(n, "w*q")), ctx4)
            assert equal_to_order(lhs, rhs, min(lhs.trunc, rhs.trunc, 40)), n


# every (family, specialization) the transformation suite checks, in
# suite order
REGISTRY_TRANSFORM_MAP = {
    "sextic-a-1": ("sextic_a", {"a": "q"}),
    "sextic-a-2": ("sextic_a", {"a": "q^2"}),
    "sextic-b-1": ("sextic_b", {"a": "q"}),
    "sextic-b-2": ("sextic_b", {"a": "q^2"}),
    "sextic-c-1": ("sextic_c", {"a": "q"}),
    "sextic-c-2": ("sextic_c", {"a": "q^2"}),
    "sextic-d-1": ("sextic_d", {"a": "q^2"}),
    "sextic-d-2": ("sextic_d", {"a": "q^3"}),
    "quadratic-a-1": ("quadratic_a", {"a": "q", "z": "q^2", "t": "q^3"}),
    "quadratic-a-2": ("quadratic_a", {"a": "q", "z": "q", "t": "q^3"}),
    "quadratic-a-3": ("quadratic_a", {"a": "q^2", "z": "q", "t": "q^4"}),
    "quadratic-jain-1": ("quadratic_jain", {"a": "q", "z": "q", "t": "q^2"}),
    "quadratic-jain-2": ("quadratic_jain", {"a": "q", "z": "q^2", "t": "q^3"}),
    "quadratic-jain-3": ("quadratic_jain", {"a": "q^2", "z": "q", "t": "q^2"}),
    "quartic-1": ("quartic", {"a": "q", "t": "q"}),
    "quartic-2": ("quartic", {"a": "q", "t": "q^2"}),
    "quartic-3": ("quartic", {"a": "q^2", "t": "q"}),
    "koornwinder-1-1": ("koornwinder1", {"a": "q", "t": "q"}),
    "koornwinder-1-2": ("koornwinder1", {"a": "q", "t": "q^2"}),
    "koornwinder-1-3": ("koornwinder1", {"a": "q^2", "t": "q"}),
    "koornwinder-2-1": ("koornwinder2", {"a": "q", "t": "q"}),
    "koornwinder-2-2": ("koornwinder2", {"a": "q", "t": "q^2"}),
    "koornwinder-2-3": ("koornwinder2", {"a": "q^2", "t": "q"}),
    "gessel-stanton-1-1": ("gs_analytic1", {"a": "q", "c": "q", "x": "q"}),
    "gessel-stanton-1-2": ("gs_analytic1", {"a": "q^2", "c": "q", "x": "q"}),
    "gessel-stanton-1-3": ("gs_analytic1", {"a": "q", "c": "q", "x": "q^3"}),
    "gessel-stanton-2-1": ("gs_analytic2", {"a": "q", "c": "q", "x": "q^(1/2)"}),
    "gessel-stanton-2-2": ("gs_analytic2", {"a": "q^2", "c": "q", "x": "q^(1/2)"}),
    "gessel-stanton-2-3": ("gs_analytic2", {"a": "q", "c": "q", "x": "q^(3/2)"}),
}


def test_criterion_10_transformation_suite(registry):
    with criterion(10, "four sextic transforms at 2 summable specializations, "
                       "quadratic/quartic/Koornwinder/Gessel-Stanton at 3 each, "
                       "order q^30"):
        cases = registry.group("transforms")
        assert len(cases) == 29
        assert [c.name for c in cases] == list(REGISTRY_TRANSFORM_MAP)
        assert len({family for family, _ in REGISTRY_TRANSFORM_MAP.values()}) == 11
        for case in cases:
            rep = verify(case)
            assert rep.status == "PASS" and rep.proven_order >= case.order, (
                case.name, rep.status, rep.mismatch, rep.skip_reason)


def test_criterion_11_property_suites():
    with criterion(11, "field axioms, series ring axioms, product recurrence "
                       "and splitting, inverse correctness, parser fuzz "
                       "(>= 1000 ASTs), window-enlargement stability"):
        rng = random.Random(424242)
        for _ in range(300):
            x, y, z = (rand_cycrat(rng) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x * y).norm() == x.norm() * y.norm()
            if x:
                assert x * x.inv() == ONE
        assert OMEGA * OMEGA * OMEGA == ONE and ONE + OMEGA + OMEGA2 == ZERO

        ctx = SeriesContext(2, 14)
        for _ in range(50):
            x, y, z = (rand_series(rng, ctx) for _ in range(3))
            l = (x * y) * z
            r = x * (y * z)
            assert equal_to_order(l, r, min(l.trunc, r.trunc))
            l2 = x * (y + z)
            r2 = x * y + x * z
            assert equal_to_order(l2, r2, min(l2.trunc, r2.trunc))

        ctx2 = SeriesContext(1, 30)
        for _ in range(15):
            a = mono(CycRat(rng.choice([-2, -1, 1, 2])), rng.randint(-2, 3))
            b = qpow(rng.randint(1, 3))
            n = rng.randint(0, 5)
            lhs = poch(a, b, ctx2, n + 1)
            rhs = poch(a, b, ctx2, n) * (
                ctx2.one() - monomial_to_series(a * b ** n, ctx2))
            assert equal_to_order(lhs, rhs, min(lhs.trunc, rhs.trunc))
            full = poch(a, b, ctx2)
            split = poch(a, b, ctx2, n) * poch(a * b ** n, b, ctx2)
            assert equal_to_order(full, split, min(full.trunc, split.trunc))

        for _ in range(30):
            x = rand_series(rng, ctx)
            if x.is_zero():
                continue
            p = x * x.inverse()
            assert equal_to_order(p, SeriesContext(2, 14).monomial(ONE, 0, p.trunc), p.trunc)

        from test_dsl import _gen
        for i in range(1000):
            ast = _gen(rng, rng.randint(0, 6))
            text = dsl.unparse(ast)
            assert dsl.parse(text) == ast, f"fuzz case {i}"

        ctx3 = SeriesContext(1, 20)
        for u, v, w in [("q", "1", "q^3"), ("q^2", "q^(-1)", "q^6")]:
            families = ct_families(triple_sum_integrand(u, v, w))
            base = ct_product(families, ctx3)
            wide = widened_ct(families, ctx3, 4)
            assert equal_to_order(base, wide, min(base.trunc, wide.trunc))


# -- mutation check -------------------------------------------------------


def _bump_nth_qpower(node, skip):
    """Replace the (skip+1)-th q-power leaf with exponent+1; returns
    (new_node, remaining_skip, found). Walks dataclass fields and tuples,
    which include the (flag, expr) operands of Sum and Product."""
    if isinstance(node, dsl.QPower):
        if skip == 0:
            return dsl.QPower(node.exp + 1), -1, True
        return node, skip - 1, False
    import dataclasses

    if isinstance(node, tuple):
        children = list(node)
    elif dataclasses.is_dataclass(node):
        children = [getattr(node, f.name) for f in dataclasses.fields(node)]
    else:
        return node, skip, False
    for i, child in enumerate(children):
        new, skip, found = _bump_nth_qpower(child, skip)
        if found:
            children[i] = new
            if isinstance(node, tuple):
                return tuple(children), -1, True
            return type(node)(*children), -1, True
    return node, skip, False


def test_criterion_12_mutation_detection(registry):
    with criterion(12, "perturbing one product-side exponent flips every "
                       "registry case to FAIL with a minimal first mismatch"):
        exempt = set()
        for case in registry:
            cap = min(case.order, 25 * case.denom)
            base = verify(case, order=cap)
            assert base.status == "PASS", case.name
            if _both_sides_zero(case, cap):
                exempt.add(case.name)
                continue
            rhs_ast = case.rhs()
            flipped = False
            for skip in range(40):
                mutated, _, found = _bump_nth_qpower(rhs_ast, skip)
                if not found:
                    break
                mutated_case = type(case)(
                    name=case.name,
                    lhs_text=case.lhs_text,
                    rhs_text=dsl.unparse(mutated),
                    denom=case.denom,
                    order=case.order,
                    tags=case.tags,
                    ref=case.ref,
                    source=case.source,
                )
                rep = verify(mutated_case, order=cap)
                if rep.status == "FAIL":
                    m = rep.mismatch
                    assert m is not None and m.lhs != m.rhs, case.name
                    assert m.exponent * case.denom < cap, case.name
                    # the reported exponent is minimal by construction of the
                    # coefficient scan; cross-check it against a direct
                    # elaboration of both sides
                    ctxm = SeriesContext(case.denom, cap)
                    left = dsl.elaborate(mutated_case.lhs(), ctxm)
                    right = dsl.elaborate(mutated_case.rhs(), ctxm)
                    upto = min(left.trunc, right.trunc, cap)
                    mm = first_mismatch(left, right, upto)
                    assert mm is not None, case.name
                    assert Fraction(mm[0], case.denom) == m.exponent, case.name
                    flipped = True
                    break
            assert flipped, f"no detectable mutation for {case.name}"
        # the z=q^2 triple-product case is identically 0 = 0; no exponent
        # bump can make a zero product nonzero, so it is the one exemption
        assert exempt == {"jacobi-triple-1"}


def _both_sides_zero(case, cap):
    ctx = SeriesContext(case.denom, cap)
    try:
        left = dsl.elaborate(case.lhs(), ctx)
        right = dsl.elaborate(case.rhs(), ctx)
    except QrucibleError:
        return False
    return left.is_zero() and right.is_zero()
