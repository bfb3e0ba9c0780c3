"""The benchmark under perfbench/ reaches into the package by name: its
probes and workloads import kernel functions, and its span recorder
wraps entry points by attribute. Each of those names must resolve, so a
renamed or deleted function fails here and not in a benchmark run. The
test only reads perfbench."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["probes", "workloads"])
def test_benchmark_modules_import(name):
    _load(name)


def test_benchmark_entry_points_resolve():
    from qrucible import harness

    entries = _load("spans")._entry_points()
    assert entries
    for name, holder, attr, _, _ in entries:
        assert callable(getattr(holder, attr, None)), name
    # the pool probe wraps the worker of run_suite by name
    assert callable(harness._verify_worker)


def test_mul_counter_reads_either_coefficient_form():
    # the traced benchmark counts the operands of each product from their
    # Q(w) view, the same whether a series was built from a Q(w) list or
    # by from_zw
    from fractions import Fraction

    from qrucible.cyclotomic import OMEGA, ONE, ZERO, CycRat
    from qrucible.series import QSeries, SeriesContext

    ctx = SeriesContext(2, 30)
    zw = [QSeries.from_zw(ctx, 1, 6, [2, 0, -30, 0], [12, 0, 0, 6], 30),
          QSeries.from_zw(ctx, -2, 1, [1, 4, 0, 0, 7], [0, -1, 0, 3, 0], 20)]
    q_w = [QSeries(ctx, 1, [CycRat(Fraction(1, 3), 2), ZERO, CycRat(-5), OMEGA], 30),
           QSeries(ctx, -2, [ONE, CycRat(4, -1), ZERO, 3 * OMEGA, CycRat(7)], 20)]
    spans = _load("spans")
    counts = []
    for pair in (zw, q_w):
        rec = spans.Recorder()
        spans._mul_before(rec, pair)
        counts.append(rec.counts)
    assert counts[0] == counts[1]
    assert counts[0]["series.mul.coeff_products"] > 0
    assert counts[0]["series.mul.operand_coeffs_integral"] == 8
