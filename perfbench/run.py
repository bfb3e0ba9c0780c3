"""qrucible benchmark: time to a verdict over the shipped identity suites.

    python3 perfbench/run.py --workload registry --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One workload per process. With `--trace 0` the run repeats the
workload's `run_suite` pass for about `--seconds` and reports the
end-to-end metrics, times in ref units (see refclock.py). With
`--trace 1` it runs one untraced and one traced pass plus the
fixed-size layer probes, whatever `--seconds` says, and reports the
per-layer metrics. Every verdict is checked against its known answer.
The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 iff
every check held. `--workload all` runs each workload in a fresh
process and prints one row per workload. A full record of each run,
with one row per case, is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import refclock
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_RUNS = 8
WORKLOAD_NAMES = ("registry", "kr-nine-deep", "registry-jobs2")

# import plus load_registry in a fresh interpreter; prints seconds and case count
_SETUP_SNIPPET = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from qrucible import load_registry\n"
    "n = len(load_registry())\n"
    "print(time.perf_counter() - t0, n)\n"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- run record ------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qrucible").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".qid", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _environment(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- end-to-end measurement --------------------------------------------------


def setup_samples(expected_cases: int, runs: int) -> list:
    """Seconds of import plus load_registry in each of `runs` fresh interpreters."""
    times = []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_SNIPPET, str(SRC)], cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, cases = out.stdout.split()
        if int(cases) != expected_cases:
            raise RuntimeError(f"setup loaded {cases} cases, expected {expected_cases}")
        times.append(float(seconds))
    return times


def _pool_rss_mb(passes) -> float:
    """Largest sum over one pass's workers of their peak RSS."""
    best = 0
    for p in passes:
        peaks: dict = {}
        for r in p.reports:
            info = r.bench
            peaks[info["pid"]] = max(peaks.get(info["pid"], 0), info["maxrss_kb"])
        best = max(best, sum(peaks.values()))
    return best / 1024.0


def run_timed(w, registry, seconds: float) -> list:
    """Repeat the pass while another one would end no more than half a
    pass after `seconds`, so a run lasts `seconds` on average."""
    from workloads import run_pass

    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(w, registry))
        now = time.perf_counter()
        if passes[-1].failed or (now - start) + (now - t0) / 2 >= seconds:
            return passes


def _net_wall(w, p):
    """(pass wall seconds without the reference blocks, the same in ref units).

    The blocks ran inside the pass, spread over w.jobs processes."""
    refs = refclock.samples(p.reports) or [0.0]
    wall = p.wall_s - sum(refs) / w.jobs
    return wall, wall / (statistics.mean(refs) or 1.0)


def _median_p90(xs: list):
    if not xs:
        return 0.0, 0.0
    return statistics.median(xs), (statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0])


def end_to_end(w, registry, args, record):
    """Timed passes, then the mutants; setup is sampled before and after
    so that its median spans the run."""
    from workloads import run_mutants

    setup = setup_samples(len(registry), SETUP_RUNS // 2)
    patches = refclock.install()
    try:
        passes = run_timed(w, registry, args.seconds)
    finally:
        spans.uninstall(patches)
    mutant_rows = run_mutants(w, registry, args.seed)
    setup += setup_samples(len(registry), SETUP_RUNS - SETUP_RUNS // 2)

    walls, walls_ref, ms, ms_ref, refs_all = [], [], [], [], []
    for p in passes:
        refs = refclock.samples(p.reports)
        if not refs:  # the pass crashed; its rows already count as failed
            continue
        refs_all += refs
        wall, wall_ref = _net_wall(w, p)
        walls.append(wall)
        walls_ref.append(wall_ref)
        for row, unit in zip(p.rows, refclock.local_units(p.reports)):
            if row["ok"]:
                ms.append(row["ms"])
                ms_ref.append(row["ms"] / 1000.0 / unit)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mb = peak_kb / 1024.0 + (_pool_rss_mb(passes) if w.jobs > 1 else 0.0)
    p50, p90 = _median_p90(ms)
    p50_ref, p90_ref = _median_p90(ms_ref)
    record["passes"] = [{"wall_s": p.wall_s, "rows": p.rows} for p in passes]
    record["mutants"] = mutant_rows
    record["setup_samples_s"] = setup
    record["seconds"] = {
        "wall_s": statistics.median(walls) if walls else 0.0,
        "case_ms_p50": p50,
        "case_ms_p90": p90,
        "case_samples": len(ms),
        "ref_block_ms": 1000.0 * statistics.mean(refs_all) if refs_all else 0.0,
        "ref_samples": len(refs_all),
    }
    metrics = {
        "wall_ref": (statistics.median(walls_ref) if walls_ref else 0.0, "ref"),
        "case_ref_p50": (p50_ref, "ref"),
        "case_ref_p90": (p90_ref, "ref"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    rows = [row for p in passes for row in p.rows] + mutant_rows
    return metrics, rows


# -- per-layer measurement ---------------------------------------------------


def _pool_metrics(w, result, wall: float) -> dict:
    case_s = sum(r.elapsed_ms for r in result.reports) / 1000.0
    longest = max((r.elapsed_ms for r in result.reports), default=0.0) / 1000.0 or 1.0
    return {
        "harness.pool.parallel_efficiency": (case_s / (w.jobs * wall or 1.0), "ratio"),
        "harness.pool.idle_s": (w.jobs * wall - case_s, "s"),
        "harness.pool.makespan_over_longest_case": (wall / longest, "ratio"),
    }


def traced_pass(w, registry, rec):
    """load_registry and one pass with every layer entry point wrapped.

    Returns the pass, the span lists (this process first, then one per
    pool task), the merged counts and the load_registry seconds.
    """
    from qrucible import harness
    from workloads import run_pass

    patches = spans.install(rec)
    patches += refclock.install()  # outermost, so no span holds a reference block
    try:
        t0 = time.perf_counter()
        harness.load_registry()
        load_s = time.perf_counter() - t0
        result = run_pass(w, registry)
    finally:
        spans.uninstall(patches)
    own_spans, own_counts = rec.drain()
    span_lists = [own_spans]
    counts = Counter(own_counts)
    for r in result.reports:
        if hasattr(r, "bench"):
            child_spans, child_counts = r.bench["trace"]
            span_lists.append(child_spans)
            counts.update(child_counts)
    return result, span_lists, counts, load_s


def per_layer(w, registry, args, record, rec) -> dict:
    import probes
    from workloads import run_mutants, run_pass

    patches = refclock.install()
    try:
        plain = run_pass(w, registry)
    finally:
        spans.uninstall(patches)
    traced, span_lists, counts, load_s = traced_pass(w, registry, rec)
    # the two passes compared in ref units, so a change of machine speed
    # between them cancels
    plain_s, plain_ref = _net_wall(w, plain)
    overhead = _net_wall(w, traced)[1] / plain_ref - 1.0
    table = spans.layer_table(span_lists)
    self_sum = sum(row["self_s"] for row in table.values())
    mutant_rows = run_mutants(w, registry, args.seed)
    probe_results = probes.run_all()

    def t(name, key):
        return table.get(name, {}).get(key, 0.0)

    def c(name):
        return counts.get(name, 0)

    metrics = {name: (value, name.rsplit("_", 1)[1]) for name, (value, _) in probe_results.items()}
    operand_coeffs = c("series.mul.operand_coeffs")
    metrics.update({
        "series.mul.self_s": (t("series.mul", "self_s"), "s"),
        "series.mul.calls": (c("series.mul.calls"), "count"),
        "series.mul.coeff_products": (c("series.mul.coeff_products"), "count"),
        "series.inverse.self_s": (t("series.inverse", "self_s"), "s"),
        "series.inverse.calls": (c("series.inverse.calls"), "count"),
        "series.mul_binomial.self_s": (t("series.mul_binomial", "self_s"), "s"),
        "series.div_binomial.self_s": (t("series.div_binomial", "self_s"), "s"),
        "series.add.self_s": (t("series.add", "self_s"), "s"),
        "series.mul_monomial.self_s": (t("series.mul_monomial", "self_s"), "s"),
        "series.coeff_integral_share": (
            c("series.mul.operand_coeffs_integral") / operand_coeffs if operand_coeffs else 1.0,
            "ratio",
        ),
        "qkernel.pochhammer.incl_s": (t("qkernel.pochhammer", "incl_s"), "s"),
        "qkernel.pochhammer.calls": (c("qkernel.pochhammer.calls"), "count"),
        "qkernel.phi.incl_s": (t("qkernel.phi", "incl_s"), "s"),
        "qkernel.multisum.incl_s": (t("qkernel.multisum", "incl_s"), "s"),
        "qkernel.multisum.series_muls": (c("qkernel.multisum.series_muls"), "count"),
        "ctengine.ct_product.incl_s": (t("ctengine.ct_product", "incl_s"), "s"),
        "ctengine.zproduct.self_s": (t("ctengine.zproduct", "self_s"), "s"),
        "ctengine.zmul.calls": (c("ctengine.zmul.calls"), "count"),
        "ctengine.window_sum": (c("ctengine.window_sum"), "count"),
        "ctengine.margin_sum": (c("ctengine.margin_sum"), "count"),
        "ortho.genfun_lhs.incl_s": (t("ortho.genfun_lhs", "incl_s"), "s"),
        "ortho.aw_poly.incl_s": (t("ortho.aw_poly", "incl_s"), "s"),
        "ortho.rogers_poly.incl_s": (t("ortho.rogers_poly", "incl_s"), "s"),
        "dsl.parse.self_s": (t("dsl.parse", "self_s"), "s"),
        "dsl.elaborate.self_s": (t("dsl.elaborate", "self_s"), "s"),
        "harness.escalation_rounds": (c("harness.escalation_rounds"), "count"),
        "harness.load_registry_s": (load_s, "s"),
        "trace.overhead_s": (overhead * plain_s, "s"),
        "trace.overhead_share": (overhead, "ratio"),
    })
    metrics.update(_pool_metrics(w, plain, plain_s))

    # self times can only exceed wall time if spans overlap, which one
    # process cannot do; a pool has w.jobs processes
    fits = self_sum <= w.jobs * (traced.wall_s + load_s) + 1e-6
    probe_rows = [
        {"name": name, "status": "PASS" if ok else "FAIL", "value": value, "ok": ok}
        for name, (value, ok) in probe_results.items()
    ]
    trace_row = {"name": "trace.self_sum_s", "status": f"{self_sum:.3f}", "ok": fits}
    record["passes"] = [
        {"traced": False, "wall_s": plain.wall_s, "rows": plain.rows},
        {"traced": True, "wall_s": traced.wall_s, "rows": traced.rows},
    ]
    record["mutants"] = mutant_rows
    record["probes"] = probe_rows
    record["layers"] = table
    record["counts"] = dict(counts)
    record["trace_self_sum_s"] = self_sum
    _write_spans(span_lists, record)
    rows = plain.rows + traced.rows + mutant_rows + probe_rows + [trace_row]
    return metrics, rows


def _write_spans(span_lists, record) -> None:
    path = RESULTS / (record["stem"] + "-spans.json.gz")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(span_lists, fh)
    record["spans_file"] = path.name


# -- entry points ------------------------------------------------------------


def run_one(args) -> int:
    import qrucible
    from qrucible import load_registry
    from workloads import WORKLOADS

    if not Path(qrucible.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported qrucible from {qrucible.__file__}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if w.jobs > 1 and multiprocessing.get_start_method() != "fork":
        print("perfbench: pool workloads need the fork start method", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": w.name,
        "environment": _environment(args),
        "stem": f"{w.name}-seed{args.seed}-trace{args.trace}",
    }
    registry = load_registry()
    rec = spans.Recorder()
    patches = spans.install_pool_probe(rec) if w.jobs > 1 else []
    try:
        if args.trace:
            metrics, rows = per_layer(w, registry, args, record, rec)
        else:
            metrics, rows = end_to_end(w, registry, args, record)
    finally:
        spans.uninstall(patches)
    failed = sum(not row["ok"] for row in rows)
    record.update(
        attempted=len(rows),
        failed=failed,
        verdict_error_rate=failed / len(rows),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    (RESULTS / (record["stem"] + ".json")).write_text(json.dumps(record, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{name:44} {value:>16.6g} {unit}")
    for name, value in record.get("seconds", {}).items():
        print(f"  {name:42} {value:>16.6g}")
    print(f"{w.name}: {len(rows)} checks, {failed} wrong; record in "
          f"{(RESULTS / record['stem']).relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process; one row per workload."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = out.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.stderr.write(out.stderr)
            results[name] = None
        status = status or out.returncode
    names = next(
        (list(r["metrics"].items()) for r in results.values() if r), []
    )
    header = ["workload"] + [f"{n} [{m['unit']}]" for n, m in names]
    header += ["verdict_error_rate", "attempted"]
    print("\t".join(header))
    for name, r in results.items():
        if r is None:
            print(f"{name}\t<no result>")
            status = status or 1
            continue
        cells = [name] + [f"{r['metrics'][n]['value']:.6g}" for n, _ in names]
        cells += [f"{r['failed'] / r['attempted']:.6g}", str(r["attempted"])]
        print("\t".join(cells))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qrucible" / "__init__.py").is_file():
        print(f"perfbench: no qrucible sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.pop("QRUCIBLE_SUITE_DIR", None)  # always the shipped suites
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
