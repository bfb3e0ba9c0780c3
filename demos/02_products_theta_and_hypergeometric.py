"""Pochhammer products, theta sums, and basic hypergeometric series.

The evaluator accepts any monomial parameters c*q^e (c in Q(w), rational
e), decides summability formally from valuation growth, and refuses
divergent input instead of guessing. The identities below are suite
text, as the shipped suites state theirs.
"""

from qrucible import SeriesContext, elaborate, parse, verify
from qrucible.errors import EvalError
from qrucible.harness import parse_suite

SUITE = """
# the q-binomial theorem: sum (a;q)_n / (q;q)_n z^n = (az;q)_inf / (z;q)_inf
identity "q-binomial" { lhs = phi([q^2]; []; q; q); rhs = qp(q^3; q; inf)/qp(q; q; inf); D = 1; order = 24; }

# Jacobi's triple product: the two-sided theta sum against the product
identity "triple-product-q^2" { lhs = theta(q^2); rhs = qp(q, q^2, q^(-1); q; inf); D = 1; order = 23; }
identity "triple-product--q" { lhs = theta(-q); rhs = qp(q, -q, -1; q; inf); D = 1; order = 23; }
identity "triple-product-wq" { lhs = theta(w*q); rhs = qp(q, w*q, w2; q; inf); D = 1; order = 23; }

# q-Gauss on the half grid, (a, b, c) = (q^(1/2), -q, w*q^3)
identity "q-gauss" {
  lhs = phi([q^(1/2), -q]; [w*q^3]; q; -w*q^(3/2));
  rhs = qp(w*q^(5/2), -w*q^2; q; inf)/qp(w*q^3, -w*q^(3/2); q; inf);
  D = 2; order = 30;
}
"""

for case in parse_suite(SUITE):
    rep = verify(case)
    print(f"{rep.name}: {rep.status} to order {rep.proven_order}/{rep.denom}")

# theta at z=1 collapses: every term cancels against its mirror.
ctx = SeriesContext(1, 24)
print("theta(1) vanishes:", elaborate(parse("theta(1)"), ctx).is_zero())

# A series whose argument does not shrink is rejected, not mis-summed.
try:
    elaborate(parse("phi([q]; []; q; 1)"), ctx)
except EvalError as exc:
    print("rejected as expected:", exc)
