"""The benchmark's workloads, their known answers and seeded mutants.

Every workload is one closed loop in one process: `run_suite` over a
selection of the shipped registry, repeated. The seed only picks the
mutants, so the timed passes do the same work on every seed.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from qrucible import Registry, run_suite


@dataclass(frozen=True)
class Workload:
    name: str
    pattern: Optional[str]  # case glob passed to run_suite; None = every case
    order: Optional[int]  # order override in scaled units; None = stated order
    jobs: int
    mutants: int  # seeded mutants checked per run


# why each was chosen: perfbench/README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("registry", None, None, 1, 10),
        Workload("kr-nine-deep", "kr-nine", 150, 1, 3),
        Workload("registry-jobs2", None, None, 2, 10),
    )
}


def requested_order(w: Workload, case) -> int:
    return case.order if w.order is None else w.order


def make_mutants(w: Workload, registry: Registry, seed: int) -> list:
    """[(mutant case, expected mismatch exponent)] for this seed.

    A mutant adds q^(k/D) to the rhs with 0 <= k < the requested order,
    so it must FAIL with its first mismatch at exactly k/D.
    """
    rng = random.Random(seed)
    cases = registry.select(w.pattern)
    out = []
    for case in rng.sample(cases, min(w.mutants, len(cases))):
        k = rng.randrange(requested_order(w, case))
        mutant = dataclasses.replace(
            case,
            name=f"{case.name}+q^({k}/{case.denom})",
            rhs_text=f"({case.rhs_text}) + q^({k}/{case.denom})",
        )
        out.append((mutant, Fraction(k, case.denom)))
    return out


@dataclass
class PassResult:
    wall_s: float
    rows: list  # one dict per case: name, status, provenOrder, ms, ok
    reports: list

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.rows)


def _row(report, ok: bool) -> dict:
    return {
        "name": report.name,
        "status": report.status,
        "provenOrder": report.proven_order,
        "ms": report.elapsed_ms,
        "ok": ok,
    }


def _error_rows(names, exc: Exception) -> list:
    return [{"name": n, "status": f"ERROR {exc!r}", "provenOrder": 0, "ms": 0.0, "ok": False}
            for n in names]


def _run(w: Workload, registry: Registry):
    t0 = time.perf_counter()
    _, reports = run_suite(registry=registry, pattern=w.pattern, order=w.order, jobs=w.jobs)
    return time.perf_counter() - t0, reports


def run_pass(w: Workload, registry: Registry) -> PassResult:
    """One timed run_suite call; every verdict is checked: each shipped
    case must PASS with provenOrder at least the requested order."""
    cases = registry.select(w.pattern)
    try:
        wall, reports = _run(w, registry)
    except Exception as exc:  # a crash in the program under test fails the pass
        return PassResult(0.0, _error_rows([c.name for c in cases], exc), [])
    rows = []
    for case, r in zip(cases, reports):
        ok = (
            r.name == case.name
            and r.status == "PASS"
            and r.proven_order >= requested_order(w, case)
        )
        rows.append(_row(r, ok))
    if len(reports) != len(cases):
        rows.append({"name": "<count>", "status": f"{len(reports)} of {len(cases)}",
                     "provenOrder": 0, "ms": 0.0, "ok": False})
    return PassResult(wall, rows, reports)


def run_mutants(w: Workload, registry: Registry, seed: int) -> list:
    """Rows for the seeded mutants; each must FAIL at exactly k/D."""
    mutants = make_mutants(w, registry, seed)
    reg = Registry([m for m, _ in mutants])
    plain = dataclasses.replace(w, pattern=None)
    try:
        _, reports = _run(plain, reg)
    except Exception as exc:
        return _error_rows([m.name for m, _ in mutants], exc)
    rows = []
    for (mutant, exponent), r in zip(mutants, reports):
        ok = (
            r.name == mutant.name
            and r.status == "FAIL"
            and r.mismatch is not None
            and r.mismatch.exponent == exponent
        )
        row = _row(r, ok)
        row["expect"] = str(exponent)
        row["got"] = str(r.mismatch.exponent) if r.mismatch else None
        rows.append(row)
    return rows
