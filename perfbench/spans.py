"""Outside-in span recorder for qrucible's layers.

`install` wraps each layer's public entry points in every `qrucible`
namespace that holds them (`qkernel` and `ortho` import `mul_binomial`,
`div_binomial` and `zmul` by name) and in the class for `QSeries`
methods. Each call becomes a span [name, start, end, parent]. A call
made while a span of the same name is open is not recorded, so a
recursive entry point counts once, at its outermost call. Self time is
a span's duration minus the durations of its child spans.

Counters that describe the work (coefficient products, integrality,
escalation rounds, windows and margins) are taken at the same
boundaries. They are computed inside a child span named `trace.count`,
so their cost never lands in a layer's self time.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time
from collections import Counter

_perf = time.perf_counter


class Recorder:
    """Spans and exact counters of one process, kept in memory."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.open = set()
        self.counts = Counter()

    def drain(self):
        """(spans, counts) recorded so far; the recorder starts empty again."""
        out = (self.spans, dict(self.counts))
        self.reset()
        return out

    def enter(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        self.open.add(name)
        self.counts[name + ".calls"] += 1
        span[1] = _perf()
        return span

    def leave(self, span: list) -> None:
        span[2] = _perf()
        self.stack.pop()
        self.open.discard(span[0])


def _spanned(rec: Recorder, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name in rec.open:
            return fn(*args, **kwargs)
        span = rec.enter(name)
        try:
            state = _counted(rec, before, rec, args) if before else None
            result = fn(*args, **kwargs)
            if after:
                _counted(rec, after, rec, args, result, state)
            return result
        finally:
            rec.leave(span)

    return wrapper


def _counted(rec: Recorder, hook, *args):
    span = rec.enter("trace.count")
    try:
        return hook(*args)
    finally:
        rec.leave(span)


# -- counters ------------------------------------------------------------


def _mul_before(rec: Recorder, args):
    """Coefficient products the schoolbook product of the operands
    performs, and how many operand coefficients lie in Z[w]."""
    x, y = args
    c = rec.counts
    c["series.mul.operand_coeffs"] += len(x.coeffs) + len(y.coeffs)
    c["series.mul.operand_coeffs_integral"] += sum(
        1
        for s in (x.coeffs, y.coeffs)
        for a in s
        if a.re.denominator == 1 and a.om.denominator == 1
    )
    if "qkernel.multisum" in rec.open:
        c["qkernel.multisum.series_muls"] += 1
    if not x.coeffs or not y.coeffs:
        return
    t = min(x.trunc + y.val, y.trunc + x.val)
    n = min(t, x.ctx.order) - (x.val + y.val)
    nonzero = [0]
    for b in y.coeffs:
        nonzero.append(nonzero[-1] + (1 if b else 0))
    blen = len(y.coeffs)
    c["series.mul.coeff_products"] += sum(
        nonzero[min(blen, n - i)] for i, a in enumerate(x.coeffs) if a and i < n
    )


def _plan_after(rec: Recorder, args, result, state):
    window, margin = result
    rec.counts["ctengine.window_sum"] += window
    rec.counts["ctengine.margin_sum"] += margin


def _verify_before(rec: Recorder, args):
    return rec.counts["dsl.elaborate.calls"]


def _verify_after(rec: Recorder, args, result, before):
    # verify elaborates both sides once per round; rounds past the first
    # are escalations to a larger working order
    rounds = (rec.counts["dsl.elaborate.calls"] - before + 1) // 2
    rec.counts["harness.escalation_rounds"] += max(0, rounds - 1)


# -- installation ----------------------------------------------------------


def _entry_points():
    from qrucible import ctengine, dsl, harness, ortho, qkernel, series

    QS = series.QSeries
    return [
        ("series.mul", QS, "__mul__", _mul_before, None),
        ("series.inverse", QS, "inverse", None, None),
        ("series.add", QS, "__add__", None, None),
        ("series.mul_monomial", QS, "mul_monomial", None, None),
        ("series.mul_binomial", series, "mul_binomial", None, None),
        ("series.div_binomial", series, "div_binomial", None, None),
        ("qkernel.pochhammer", qkernel, "pochhammer", None, None),
        ("qkernel.phi", qkernel, "phi", None, None),
        ("qkernel.multisum", qkernel, "multisum", None, None),
        ("qkernel.theta_sum", qkernel, "theta_sum", None, None),
        ("ctengine.ct_product", ctengine, "ct_product", None, None),
        ("ctengine.plan_window", ctengine, "plan_window", None, _plan_after),
        ("ctengine.zproduct", ctengine, "zproduct", None, None),
        ("ctengine.zmul", ctengine, "zmul", None, None),
        ("ortho.genfun_lhs", ortho, "genfun_lhs", None, None),
        ("ortho.aw_poly", ortho, "aw_poly", None, None),
        ("ortho.rogers_poly", ortho, "rogers_poly", None, None),
        ("dsl.parse", dsl, "parse", None, None),
        ("dsl.elaborate", dsl, "elaborate", None, None),
        ("harness.load_registry", harness, "load_registry", None, None),
        ("harness.verify", harness, "verify", _verify_before, _verify_after),
    ]


def _replace_everywhere(orig, new, patches: list) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "qrucible" or mod_name.startswith("qrucible.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)
                patches.append((mod, attr, orig))


def install(rec: Recorder) -> list:
    """Wrap every entry point; returns the patches for `uninstall`."""
    patches = []
    for name, holder, attr, before, after in _entry_points():
        orig = getattr(holder, attr)
        wrapped = _spanned(rec, name, orig, before, after)
        if isinstance(holder, type):
            setattr(holder, attr, wrapped)
            patches.append((holder, attr, orig))
        else:
            _replace_everywhere(orig, wrapped, patches)
    return patches


def uninstall(patches: list) -> None:
    for holder, attr, orig in reversed(patches):
        setattr(holder, attr, orig)


def install_pool_probe(rec: Recorder) -> list:
    """Wrap the pool worker of `run_suite` so each report comes back with
    the worker's pid and peak RSS, and the spans and counts the worker
    recorded for it (empty unless `install` ran first).

    The worker is found by name when the pool unpickles it, so this needs
    workers forked from this process (the `fork` start method).
    """
    from qrucible import harness

    orig = harness._verify_worker

    @functools.wraps(orig)
    def worker(payload):
        rec.reset()  # drop whatever the fork copied from the parent
        report = orig(payload)
        report.bench = {
            "pid": os.getpid(),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "trace": rec.drain(),
        }
        return report

    harness._verify_worker = worker
    return [(harness, "_verify_worker", orig)]


# -- aggregation -----------------------------------------------------------


def layer_table(span_lists) -> dict:
    """name -> {"calls", "incl_s", "self_s"} over several span lists
    (one per process or per case)."""
    table: dict = {}
    for spans in span_lists:
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            row = table.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += (end - start) - child[i]
    return table
