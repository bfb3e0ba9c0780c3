"""Rogers-Ramanujan-type identities: lattice sums against product sides.

F(u,v,w) is the triple sum with quadratic exponent 3k(k-1) + L(L-1),
L = i + 2j + 3k, weights u^i v^j w^k over (q;q)_i (q^4;q^4)_j (q^6;q^6)_k.
Nine specializations factor into infinite products. The shipped suites
state them, with the Capparelli double sum and the Rogers-Ramanujan
identities, as data; this demo verifies some of them by name, then
confronts a product side with a brute-force partition count.
"""

from functools import lru_cache

from qrucible import SeriesContext, elaborate, load_registry, parse, verify

registry = load_registry()
for name in ("kr-conj-5", "kr-conj-4a", "capparelli", "rogers-ramanujan-1", "rogers-ramanujan-2"):
    case = registry.get(name)
    rep = verify(case)
    print(f"{name}: {case.lhs_text} = {case.rhs_text}: {rep.status} to order {rep.proven_order}")


# The first Rogers-Ramanujan product counts partitions into parts
# congruent to +-1 mod 5, and its sum side counts partitions whose parts
# differ by at least 2; an exhaustive enumeration counts both.
@lru_cache(maxsize=None)
def partitions(n, least, gap, residues):
    """Partitions of n into parts >= least, successive parts at least gap
    apart, each part's residue mod 5 in residues."""
    return (n == 0) + sum(partitions(n - p, p + gap, gap, residues)
                          for p in range(least, n + 1) if p % 5 in residues)


prod = elaborate(parse("1/qp(q, q^4; q^5; inf)"), SeriesContext(1, 12))
coeffs = [int(prod.coefficient(n).re) for n in range(12)]
counts = [partitions(n, 1, 0, (1, 4)) for n in range(12)]
print("product coefficients:", coeffs)
print("partition counts:    ", counts)
print("counts agree:        ", coeffs == counts)
print("gap-2 counts agree:  ", [partitions(n, 1, 2, tuple(range(5))) for n in range(12)] == counts)
