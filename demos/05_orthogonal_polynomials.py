"""Rogers and Askey-Wilson polynomials as symmetric Laurent objects.

x is never a variable here: every polynomial lives in z with
x = (z + 1/z)/2 implicit, and the expression language evaluates it at a
monomial z, rc(n; a; q; z) and awp(n; a, b, c, d; q; z). That makes the
z <-> 1/z symmetry and the parameter symmetry of the Askey-Wilson family
directly testable.
"""

from qrucible import SeriesContext, elaborate, equal_to_order, load_registry, parse, verify

ctx = SeriesContext(2, 40)


def ev(text):
    return elaborate(parse(text), ctx)


def agree(x, y):
    return equal_to_order(x, y, min(x.trunc, y.trunc))


# C_3(x; q^3 | q) at z = q: a Laurent polynomial in z, so the same value at 1/z.
c3 = ev("rc(3; q^3; q; q)")
print("C_3 at z = q:", c3)
print("C_3 symmetric in z <-> 1/z:", agree(c3, ev("rc(3; q^3; q; q^(-1))")))

# Askey-Wilson polynomials are symmetric in all four parameters.
p3 = ev("awp(3; q, -q, q^(1/2), -q^(1/2); q; q)")
print("AW parameter symmetry:", agree(p3, ev("awp(3; q^(1/2), q, -q^(1/2), -q; q; q)")))

# At z = w, a primitive cube root of unity (x = -1/2), the Rogers
# polynomial rc(n; a; q; w) dissects into a finite cube-indexed sum:
#   sum_l (a^3;q^3)_l (1/a;q)_(n-3l) / ((q^3;q^3)_l (q;q)_(n-3l)) a^(n-3l).
a, n = "w*q", 9
dissection = " + ".join(
    f"qp(({a})^3; q^3; {l})*qp(1/({a}); q; {n - 3 * l})"
    f"/(qp(q^3; q^3; {l})*qp(q; q; {n - 3 * l}))*({a})^{n - 3 * l}"
    for l in range(n // 3 + 1)
)
lhs = ev(f"rc({n}; {a}; q; w)")
print("cube-root dissection:", equal_to_order(lhs, ev(dissection), 36))

# The quartic transform, checked exactly at a summable specialization
# stated as data in suites/transforms.qid.
rep = verify(load_registry().get("quartic-2"))
print("quartic transform:", rep.status, f"to order {rep.proven_order}")
