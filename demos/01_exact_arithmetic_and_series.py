"""Exact coefficients and truncated q-series.

Every number in this library is an element a + b*w of Q(w), with w a
primitive cube root of unity and exact rational components: identities
are verified coefficient-by-coefficient with zero tolerance, so floats
never appear. Series are truncated Laurent-Puiseux series on a 1/D
exponent grid, and each value knows the order up to which it is proven.
Series are written in the expression language that suite files use.
"""

from qrucible import SeriesContext, elaborate, parse
from qrucible.cyclotomic import CycRat, OMEGA, OMEGA2

# The coefficient field: w^2 folds to -1 - w, so representations are unique.
print("w * w          =", OMEGA * OMEGA)
print("w^3            =", OMEGA * OMEGA * OMEGA)
print("1 + w + w^2    =", CycRat(1) + OMEGA + OMEGA2)
print("1/(1+w)        =", CycRat(1, 1).inv())

# A context fixes the exponent grid (denominator D) and the working order.
ctx = SeriesContext(1, 16)

# (q; q)_inf opens the door: its coefficients are the pentagonal-number
# signs, +1 and -1 at e = k(3k-1)/2, zero elsewhere.
euler = elaborate(parse("qp(q; q; inf)"), ctx)
print("\n(q;q)_inf =", euler)

# Multiplying by the inverse recovers exactly 1 (up to the proven order).
print("(q;q)_inf * 1/(q;q)_inf =", elaborate(parse("qp(q; q; inf)/qp(q; q; inf)"), ctx))

# Fractional exponents live on finer grids.
half = SeriesContext(2, 12)
print("\nq^(3/2) on the half grid:", elaborate(parse("q^(3/2)"), half))
print("(q^(1/2); q^(1/2))_2 =", elaborate(parse("qp(q^(1/2); q^(1/2); 2)"), half))
