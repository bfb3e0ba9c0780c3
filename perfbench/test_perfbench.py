"""The benchmark's own tests: python3 -m pytest perfbench

They use small selections of the registry and small probe sizes, so they
run in well under a minute.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import probes  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from qrucible import Registry, load_registry  # noqa: E402
from workloads import WORKLOADS, Workload, make_mutants, run_mutants  # noqa: E402

# one case per layer that carries weight: multisum (kr-conj-5), the
# constant-term engine with an escalation (ct-2phi2-split-3), the
# generating functions (rogers-genfun-1) and phi (rogers-ramanujan-1)
SAMPLE = ("kr-conj-5", "ct-2phi2-split-3", "rogers-genfun-1", "rogers-ramanujan-1")
EXACT = (
    "series.mul.calls",
    "series.mul.coeff_products",
    "series.mul.operand_coeffs",
    "series.mul.operand_coeffs_integral",
    "series.inverse.calls",
    "qkernel.pochhammer.calls",
    "qkernel.multisum.series_muls",
    "ctengine.zmul.calls",
    "ctengine.window_sum",
    "ctengine.margin_sum",
    "harness.escalation_rounds",
)


def _sample_registry() -> Registry:
    reg = load_registry()
    return Registry([reg.get(name) for name in SAMPLE])


def _traced(jobs: int):
    w = Workload("sample", None, None, jobs, 0)
    rec = spans.Recorder()
    patches = spans.install_pool_probe(rec) if jobs > 1 else []
    try:
        return run.traced_pass(w, _sample_registry(), rec)
    finally:
        spans.uninstall(patches)


def test_exact_counts_repeat_between_traced_runs():
    first, second = _traced(1), _traced(1)
    assert first[0].failed == 0 and second[0].failed == 0
    for name in EXACT:
        assert first[2][name] == second[2][name], name
    # the sample exercises every counter; no shipped case needs a ct margin
    assert all(first[2][name] > 0 for name in EXACT if name != "ctengine.margin_sum"), first[2]


def test_pool_workers_report_the_same_counts_as_serial():
    serial, pooled = _traced(1), _traced(2)
    assert pooled[0].failed == 0
    assert len(pooled[1]) == 1 + len(SAMPLE)  # this process, then one list per case
    for name in EXACT:
        assert serial[2][name] == pooled[2][name], name


def test_self_times_fit_in_the_traced_wall_time():
    result, span_lists, _, load_s = _traced(1)
    table = spans.layer_table(span_lists)
    assert sum(row["self_s"] for row in table.values()) <= result.wall_s + load_s
    for row in table.values():
        assert 0 <= row["self_s"] <= row["incl_s"] + 1e-9


def test_recursive_entries_count_once():
    rec = spans.Recorder()

    def fact(n):
        return 1 if n <= 1 else n * wrapped(n - 1)

    wrapped = spans._spanned(rec, "fact", fact)
    assert wrapped(5) == 120
    assert [s[0] for s in rec.spans] == ["fact"]


def test_uninstall_restores_every_entry_point():
    from qrucible import dsl, qkernel, series

    before = (series.QSeries.__mul__, qkernel.mul_binomial, dsl.elaborate)
    patches = spans.install(spans.Recorder())
    assert qkernel.mul_binomial is series.mul_binomial is not before[1]
    spans.uninstall(patches)
    assert (series.QSeries.__mul__, qkernel.mul_binomial, dsl.elaborate) == before


def test_reference_samples_ride_on_reports():
    from qrucible import harness

    case = load_registry().get("rogers-ramanujan-1")
    patches = refclock.install()
    try:
        first, second = harness.verify(case), harness.verify(case)
    finally:
        spans.uninstall(patches)
    assert first.status == "PASS" and first.refclock[2] > 0
    assert first.ref == case.ref  # the report's own fields are untouched
    assert second.refclock[2] is None  # the next sample is not due yet
    assert not hasattr(harness.verify(case), "refclock")


def test_cases_are_measured_against_nearby_samples():
    class Report:
        def __init__(self, pid, start, took, ms):
            self.refclock, self.elapsed_ms = (pid, start, took), ms

    reports = [
        Report(1, 0.0, 0.010, 100.0),
        Report(1, 0.2, None, 100.0),
        Report(1, 5.0, 0.020, 100.0),
        Report(2, 0.1, 0.040, 100.0),  # another process: never mixed in
    ]
    assert refclock.local_units(reports) == [0.010, 0.010, 0.020, 0.040]
    assert refclock.samples(reports) == [0.010, 0.020, 0.040]


def test_mutants_follow_the_seed_and_fail_exactly():
    reg = load_registry()
    w = WORKLOADS["kr-nine-deep"]
    a, b = make_mutants(w, reg, 7), make_mutants(w, reg, 7)
    assert [(m.rhs_text, e) for m, e in a] == [(m.rhs_text, e) for m, e in b]
    assert all(0 <= e < w.order for _, e in a)
    small = Workload("small", "rogers-ramanujan-*", None, 1, 2)
    rows = run_mutants(small, reg, 3)
    assert len(rows) == 2 and all(r["ok"] for r in rows), rows


def test_probes_pass_their_independent_checks_at_small_sizes():
    results = probes.cyclotomic_probes(count=40, batches=1)
    results.update(probes.series_probes(sizes=(6, 17), rational_size=9))
    results.update(probes.kernel_probes(qq_size=40, sum_size=30, ct_size=20))
    assert all(ok for _, ok in results.values()), results


def test_independent_references():
    assert probes._pentagonal(13) == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]
    x = probes._integral(9, 1)
    assert probes._zw_mul(x, probes._one(9), 9) == x
    # (1 - w q) * (1 + w q) = 1 - w^2 q^2 = 1 + (1 + w) q^2
    assert probes._zw_mul([(1, 0), (0, -1)], [(1, 0), (0, 1)], 3) == [(1, 0), (0, 0), (1, 1)]
    d = [(Fraction(1), Fraction(0))] * 4
    assert probes._undo_div(d)[1] == (1, -1)  # 1 - w


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "registry", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
