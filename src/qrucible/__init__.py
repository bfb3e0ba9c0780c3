"""qrucible: an exact kernel for q-series and a verifier for
Rogers-Ramanujan-type identities.

Coefficients live in Q(w) (w a primitive cube root of unity) over exact
rationals; series are truncated Laurent-Puiseux series on a 1/D exponent
grid. Identities are declared as data in a small expression language and
checked coefficient-by-coefficient with zero tolerance.
"""

from .cyclotomic import CycRat, OMEGA, OMEGA2, omega_power
from .series import (
    Monomial,
    QSeries,
    SeriesContext,
    equal_to_order,
    first_mismatch,
    mono,
    monomial_to_series,
    qpow,
)
from .qkernel import (
    INF,
    MultiSumSpec,
    f_triple,
    multisum,
    phi,
    poch,
    pochhammer,
    theta_sum,
)
from .dsl import elaborate, parse, unparse
from .harness import (
    IdentityCase,
    Registry,
    VerifyReport,
    load_registry,
    run_suite,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "CycRat",
    "OMEGA",
    "OMEGA2",
    "omega_power",
    "Monomial",
    "QSeries",
    "SeriesContext",
    "equal_to_order",
    "first_mismatch",
    "mono",
    "monomial_to_series",
    "qpow",
    "INF",
    "MultiSumSpec",
    "f_triple",
    "multisum",
    "phi",
    "poch",
    "pochhammer",
    "theta_sum",
    "elaborate",
    "parse",
    "unparse",
    "IdentityCase",
    "Registry",
    "VerifyReport",
    "load_registry",
    "run_suite",
    "verify",
    "__version__",
]
