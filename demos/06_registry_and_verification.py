"""The declarative identity registry and the verification runner.

Identities are data: each suite entry declares both sides in a small
expression language, the exponent grid D, the order to prove, tags, and
a literature reference. The runner elaborates both sides and compares
exactly; a failure pinpoints the first differing coefficient.
"""

from qrucible.dsl import elaborate, parse, unparse
from qrucible.harness import load_registry, parse_suite, run_suite, verify
from qrucible.series import SeriesContext

# Round-trippable syntax: parse . unparse is the identity.
text = "qp(q^3; q^12; inf)/qp(q, q^2; q^4; inf)"
print("canonical form:", unparse(parse(text)))

# Elaborate any expression directly.
ctx = SeriesContext(1, 12)
print("series:", elaborate(parse(text), ctx))

# The shipped registry: 99 cases over six groups.
registry = load_registry()
print("registry size:", len(registry))
print("section5 group:", [c.name for c in registry.select("section5")])

# Verify one case and inspect the report.
rep = verify(registry.get("kr-conj-5"))
print(f"{rep.name}: {rep.status} to order {rep.proven_order}/{rep.denom} "
      f"({rep.elapsed_ms:.0f} ms)")

# A wrong identity fails with the first mismatching coefficient.
broken = parse_suite(
    'identity "broken" { lhs = phi([]; [0]; q; q); '
    'rhs = 1/qp(q, q^3; q^5; inf); D = 1; order = 20; ref = "wrong"; }'
)[0]
rep = verify(broken)
print(f"{rep.name} is rejected: {rep.status == 'FAIL'}, first mismatch at "
      f"q^({rep.mismatch.exponent}): {rep.mismatch.lhs} vs {rep.mismatch.rhs}")

# The same machinery drives the CLI:
#   qrucible verify --filter section5 --json report.json
code, reports = run_suite(pattern="triple-sum-*")
print("triple sums:", [(r.name, r.status) for r in reports], "exit", code)
