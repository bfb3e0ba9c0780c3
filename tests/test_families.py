"""Classical formulas at random parameters: truths the program did not
compute (Gasper-Rahman, Basic Hypergeometric Series, 2nd ed., App. II-III).

Every other randomized test compares the program with itself (order N
against N + k, a fast path against the parent's path), and a convention
shared by both paths, such as the ((-1)^n b^C(n,2))^(1+s-r) factor of
`phi` or a Pochhammer with a negative exponent, passes them all. Here
each instance is a summation or transformation formula in DSL text, its
parameters monomials c*q^e with c in {+-1, +-2, 1/2, w, w^2} and e on the
1/D grid, D in {1, 2, 3}, the base among them. `verify` must PASS it or
SKIP it for an admissibility condition (a non-positive argument or base
exponent, an exact zero factor), and the same case with q^(k/D) added to
the rhs, k below the order, must FAIL at exactly k/D: no false PASS, no
false FAIL.
"""

import random
import re
import time
from fractions import Fraction

from qrucible.harness import IdentityCase, verify

COEFFS = ["1", "-1", "2", "-2", "1/2", "w", "w2"]
ADMISSIBILITY = re.compile(r"must be positive|exact zero factor")
FAMILIES = ["q-binomial", "q-gauss", "q-chu-vandermonde", "heine", "heine-2", "heine-3", "jacobi-triple"]


def monomial(rng, D, lo, hi):
    """c*q^(k/D) as parenthesized DSL text, lo <= k <= hi."""
    return f"(({rng.choice(COEFFS)})*q^({rng.randint(lo, hi)}/{D}))"


def family_instance(rng, D):
    """(family, lhs, rhs) of one formula at random parameters, base p."""
    p = monomial(rng, D, 1, 2 * D)
    a, b, c = (monomial(rng, D, -D, 2 * D) for _ in range(3))
    z = monomial(rng, D, -D, 3 * D)
    n = rng.randint(0, 4)
    family = rng.choice(FAMILIES)
    if family == "q-binomial":
        # (II.3), with its limits (II.1) a = 0 and (II.2), the 0phi0 whose
        # terms carry (-1)^n p^C(n,2)
        form = rng.randrange(3)
        if form == 0:
            return family, f"phi([{a}]; []; {p}; {z})", f"qp({a}*{z}; {p}; inf)/qp({z}; {p}; inf)"
        if form == 1:
            return family, f"phi([0]; []; {p}; {z})", f"1/qp({z}; {p}; inf)"
        return family, f"phi([]; []; {p}; {z})", f"qp({z}; {p}; inf)"
    if family == "q-gauss":
        # (II.8) and its limit (II.5), a 1phi1 with (-1)^n p^C(n,2)
        if rng.random() < 0.5:
            return (family, f"phi([{a}, {b}]; [{c}]; {p}; {c}/({a}*{b}))",
                    f"qp({c}/{a}, {c}/{b}; {p}; inf)/qp({c}, {c}/({a}*{b}); {p}; inf)")
        return family, f"phi([{a}]; [{c}]; {p}; {c}/{a})", f"qp({c}/{a}; {p}; inf)/qp({c}; {p}; inf)"
    if family == "q-chu-vandermonde":
        # (II.6) and (II.7), terminating at p^(-n)
        if rng.random() < 0.5:
            return (family, f"phi([{p}^(-{n}), {b}]; [{c}]; {p}; {p})",
                    f"qp({c}/{b}; {p}; {n})*{b}^{n}/qp({c}; {p}; {n})")
        return (family, f"phi([{p}^(-{n}), {b}]; [{c}]; {p}; {c}*{p}^{n}/{b})",
                f"qp({c}/{b}; {p}; {n})/qp({c}; {p}; {n})")
    if family == "jacobi-triple":
        # Jacobi's triple product, the two-sided sum in base q: theta(z) has no
        # other base
        return family, f"theta({z})", f"qp(q, {z}, q/{z}; q; inf)"
    lhs = f"phi([{a}, {b}]; [{c}]; {p}; {z})"
    if family == "heine-2":
        # Heine's second transformation (III.2)
        return (family, lhs, f"qp({c}/{b}, {b}*{z}; {p}; inf)/qp({c}, {z}; {p}; inf)"
                f"*phi([{a}*{b}*{z}/{c}, {b}]; [{b}*{z}]; {p}; {c}/{b})")
    if family == "heine-3":
        # Heine's third transformation (III.3)
        return (family, lhs, f"qp({a}*{b}*{z}/{c}; {p}; inf)/qp({z}; {p}; inf)"
                f"*phi([{c}/{a}, {c}/{b}]; [{c}]; {p}; {a}*{b}*{z}/{c})")
    # Heine's first transformation (III.1)
    return (family, lhs,
            f"qp({b}, {a}*{z}; {p}; inf)/qp({c}, {z}; {p}; inf)*phi([{c}/{b}, {z}]; [{a}*{z}]; {p}; {b})")


def test_formula_families_pass_or_skip_and_catch_perturbations():
    rng = random.Random(20261016)
    t0 = time.perf_counter()
    seen = {}
    for i in range(1200):
        D = rng.choice([1, 2, 3])
        family, lhs, rhs = family_instance(rng, D)
        order = rng.randint(3 * D, 10 * D)
        case = IdentityCase(f"{family}-{i}", lhs, rhs, D, order, (), "")
        report = verify(case)
        if report.status == "SKIP":
            assert ADMISSIBILITY.search(report.skip_reason), (case, report.skip_reason)
        else:
            assert report.status == "PASS" and report.proven_order >= order, (case, report)
            k = rng.randrange(order)
            bad = verify(IdentityCase(case.name, lhs, f"({rhs}) + q^({k}/{D})", D, order, (), ""))
            assert bad.status == "FAIL" and bad.mismatch.exponent == Fraction(k, D), (case, k, bad)
        seen[family, report.status] = seen.get((family, report.status), 0) + 1
    assert time.perf_counter() - t0 < 15
    for family in FAMILIES:
        assert seen.get((family, "PASS"), 0) >= 30, seen
