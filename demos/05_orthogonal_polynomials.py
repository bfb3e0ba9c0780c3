"""Rogers and Askey-Wilson polynomials as symmetric Laurent objects.

x is never a variable here: every polynomial lives in z with
x = (z + 1/z)/2 implicit, which makes the z <-> 1/z symmetry and the
parameter symmetry of the Askey-Wilson family directly testable.
"""

from fractions import Fraction

from qrucible import SeriesContext, elaborate, equal_to_order, load_registry, mono, parse, qpow, verify
from qrucible.ortho import AWParam, RogersParam, aw_poly, rogers_poly

ctx = SeriesContext(2, 40)
q = qpow(1)

# C_2(x; a | q) has Laurent degrees {2, 0, -2}, symmetric in z <-> 1/z.
c2 = rogers_poly(2, RogersParam(qpow(3), q), ctx)
print("C_2 degrees:", sorted(c2.terms))

# Askey-Wilson polynomials are symmetric in all four parameters.
params = (qpow(1), mono(-1, 1), mono(1, Fraction(1, 2)), mono(-1, Fraction(1, 2)))
p3 = aw_poly(3, AWParam(*params, q), ctx)
shuffled = AWParam(params[2], params[0], params[3], params[1], q)
p3s = aw_poly(3, shuffled, ctx)
same = all(
    equal_to_order(p3.coefficient(d), p3s.coefficient(d), 30)
    for d in set(p3.terms) | set(p3s.terms)
)
print("AW parameter symmetry:", same)

# At z = w, a primitive cube root of unity (x = -1/2), the Rogers
# polynomial rc(n; a; q; w) dissects into a finite cube-indexed sum:
#   sum_l (a^3;q^3)_l (1/a;q)_(n-3l) / ((q^3;q^3)_l (q;q)_(n-3l)) a^(n-3l).
a, n = "w*q", 9
dissection = " + ".join(
    f"qp(({a})^3; q^3; {l})*qp(1/({a}); q; {n - 3 * l})"
    f"/(qp(q^3; q^3; {l})*qp(q; q; {n - 3 * l}))*({a})^{n - 3 * l}"
    for l in range(n // 3 + 1)
)
lhs = elaborate(parse(f"rc({n}; {a}; q; w)"), ctx)
rhs = elaborate(parse(dissection), ctx)
print("cube-root dissection:", equal_to_order(lhs, rhs, 36))

# The quartic transform, checked exactly at a summable specialization
# stated as data in suites/transforms.qid.
rep = verify(load_registry().get("quartic-2"))
print("quartic transform:", rep.status, f"to order {rep.proven_order}")
