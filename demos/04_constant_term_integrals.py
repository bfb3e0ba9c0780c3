"""Contour integrals as constant terms of z-Laurent expansions.

A positively oriented contour separating 0 from all poles picks out the
z-degree-0 coefficient of the integrand's Laurent expansion, so the
integral becomes exact series algebra: denominator factors expand as
geometric series in z, the 1/z factors supply negative degrees at a
q-cost that grows with the degree, and the cheapest way the whole 1/z
supply can pay for a degree bounds the z-window needed below any
truncation order.

Each integral below is ct{...} text, as a suite file states it.
"""

from qrucible import SeriesContext, elaborate, equal_to_order, parse

ctx = SeriesContext(1, 30)


def ev(text, at=ctx):
    return elaborate(parse(text), at)


# The triple sum F(u,v,w) equals (q^2;q^2)_inf times the constant term of
#   (1/z, q^2 z; q^2)_inf (-w z^3; q^6)_inf / ((-uz; q)_inf (v z^2; q^4)_inf),
# here at (u, v, w) = (q, q^6, q^9).
triple = ("qp(q^2; q^2; inf)*ct{qp(1/z, q^2*z; q^2; inf)*qp(-q^9*z^3; q^6; inf)"
          "/qp(-q*z; q; inf)/qp(q^6*z^2; q^4; inf)}")
print("contour = lattice sum:", equal_to_order(ev(triple), ev("F(q, q^6, q^9)"), 30))

# The 2phi1 has its own contour representation,
#   2phi1(a, b; c; q, t) = (q;q)_inf / (c, t; q)_inf
#     * CT[(abz, cz, qz/t, t/z; q)_inf / (az, bz, cz/t; q)_inf],
# here at (a, b, c, t) = (q, q^2, q^3, q).
phi21 = ("qp(q; q; inf)/qp(q^3, q; q; inf)"
         "*ct{qp(q^3*z, q^3*z, z, q/z; q; inf)/qp(q*z, q^2*z, q^2*z; q; inf)}")
print("contour = 2phi1:      ", equal_to_order(ev(phi21), ev("phi([q, q^2]; [q^3]; q; q)"), 30))

# The balanced two-over-three integral (alpha_1 alpha_2 = beta_1 beta_2
# beta_3); with beta_3 = alpha_2/beta_1 the series side telescopes to a
# bare product, a handy independent oracle.
balanced = "ct{qp(q^2*z, q^3*z, q*z, 1/z; q; inf)/qp(q*z, q^2*z, q^2*z; q; inf)}"
print("balanced CT telescopes:", equal_to_order(ev(balanced), ev("qp(q^2; q; inf)"), 30))

# A higher order widens the z-window and the working margin; no proven
# coefficient may change, so the window policy is falsifiable, and
# falsification is cheap.
low, deep = ev(triple), ev(triple, SeriesContext(1, 45))
print("window enlargement:    ",
      [low.coefficient(k) for k in range(30)] == [deep.coefficient(k) for k in range(30)])
