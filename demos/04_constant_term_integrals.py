"""Contour integrals as constant terms of z-Laurent expansions.

A positively oriented contour separating 0 from all poles picks out the
z-degree-0 coefficient of the integrand's Laurent expansion, so the
integral becomes exact series algebra: denominator factors expand as
geometric series in z, the 1/z factors supply negative degrees at a
q-cost that grows with the degree, and the cheapest way the whole 1/z
supply can pay for a degree bounds the z-window needed below any
truncation order.
"""

from qrucible import SeriesContext, equal_to_order, f_triple, mono, phi_series, qpow
from qrucible.ctengine import balanced_theta_ct, phi21_contour, triple_sum_ct

ctx = SeriesContext(1, 30)
q = qpow(1)

# The triple sum F(u,v,w) equals (q^2;q^2)_inf times the constant term of
#   (1/z, q^2 z; q^2)_inf (-w z^3; q^6)_inf / ((-uz; q)_inf (v z^2; q^4)_inf).
u, v, w = qpow(1), qpow(6), qpow(9)
print("contour = lattice sum:",
      equal_to_order(triple_sum_ct(u, v, w, ctx), f_triple(u, v, w, ctx), 30))

# The 2phi1 has its own contour representation.
a, b, c, t = qpow(1), qpow(2), qpow(3), qpow(1)
print("contour = 2phi1:      ",
      equal_to_order(phi21_contour(a, b, c, t, ctx),
                     phi_series([a, b], [c], q, t, ctx), 30))

# The balanced two-over-three integral; with beta_3 = alpha_2/beta_1 the
# series side telescopes to a bare product, a handy independent oracle.
from qrucible.qkernel import poch

ct = balanced_theta_ct([qpow(2), qpow(3)], [qpow(1), qpow(2), qpow(2)], ctx)
oracle = poch(qpow(2), q, ctx)
print("balanced CT telescopes:", equal_to_order(ct, oracle, 30))

# Enlarging the z-window never changes a coefficient: the window policy
# is falsifiable, and falsification is cheap.
wide = triple_sum_ct(u, v, w, ctx, pad=8)
print("window enlargement:    ",
      equal_to_order(wide, triple_sum_ct(u, v, w, ctx), 30))
