import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qrucible.cli import main as cli_main
from qrucible.errors import BoundExceeded, ParseError, SuiteError
from qrucible.dsl import MAX_NESTING
from qrucible.harness import (
    IdentityCase,
    Registry,
    load_registry,
    parse_suite,
    partition_count,
    reports_to_json,
    run_suite,
    verify,
)

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
SUITE_DIR = SRC_DIR / "qrucible" / "suites"
SHIPPED_REPORT = Path(__file__).resolve().parent / "data" / "shipped-suite-report.json"
CT_ORDER50_REPORT = Path(__file__).resolve().parent / "data" / "ct-order50-report.json"


@pytest.fixture(scope="module")
def registry():
    return load_registry()


def test_verify_rogers_ramanujan(registry):
    case = registry.get("rogers-ramanujan-1")
    rep = verify(case, order=30)
    assert rep.status == "PASS" and rep.proven_order >= 30


def test_verify_detects_perturbation():
    text = """
    identity "broken" {
      lhs = phi([]; [0]; q; q);
      rhs = 1/qp(q, q^5; q^5; inf);
      D = 1;
      order = 20;
      ref = "deliberately wrong product side";
    }
    """
    case = parse_suite(text)[0]
    rep = verify(case)
    assert rep.status == "FAIL"
    assert rep.mismatch is not None
    # exponent 4 is where q^4 vs q^5 in the product first differ
    assert rep.mismatch.exponent == 4
    assert rep.mismatch.lhs != rep.mismatch.rhs


def test_verify_skip_on_evaluator_error():
    text = """
    identity "nonsummable" {
      lhs = phi([q]; []; q; 1);
      rhs = 1;
      D = 1;
      order = 10;
      ref = "argument exponent zero is rejected";
    }
    """
    case = parse_suite(text)[0]
    rep = verify(case)
    assert rep.status == "SKIP" and "exponent" in rep.skip_reason


def test_filter_section5_selects_exactly_the_lattice_sums(registry):
    names = sorted(c.name for c in registry.select("section5"))
    assert names == [
        "capparelli",
        "triple-sum-1",
        "triple-sum-2",
        "triple-sum-3",
        "triple-sum-half",
    ]


EXPECTED_NAMES = sorted(
    ["euler-qexp-1", "euler-qexp-2", "q-binomial", "q-binomial-quad",
     "bailey-daum", "q-gauss", "heine-2phi2"]
    + [f"jacobi-triple-{k}" for k in (1, 2, 3, 4)]
    + [f"quintuple-{k}" for k in (1, 2, 3)]
    + [f"quintuple-spec-{k}" for k in (1, 2, 3)]
    + ["rogers-ramanujan-1", "rogers-ramanujan-2"]
    + [f"kr-conj-{k}" for k in ("5", "5a", "3", "1", "2", "6a", "4", "6", "4a")]
    + [f"f-reduction-{fam}-{u}" for fam in (1, 2, 3, 4, 5) for u in ("q", "q2", "q3")]
    + [f"ct-2phi2-split-{k}" for k in (1, 2, 3)]
    + [f"single-sum-{k}" for k in ("6a", "4", "6", "4a", "new")]
    + ["capparelli", "triple-sum-1", "triple-sum-2", "triple-sum-3", "triple-sum-half"]
    + [f"bailey-daum-integral-{k}" for k in (1, 2, 3)]
    + ["compact-theta-integral"]
    + [f"rogers-aw-embed-{k}" for k in (1, 2, 3, 4)]
    + [f"rogers-genfun-{k}" for k in (1, 2, 3, 4, 5)]
    + ["rogers-cube-root"]
    + [f"sextic-{fam}-{k}" for fam in "abcd" for k in (1, 2)]
    + [f"quadratic-a-{k}" for k in (1, 2, 3)]
    + [f"quadratic-jain-{k}" for k in (1, 2, 3)]
    + [f"quartic-{k}" for k in (1, 2, 3)]
    + [f"koornwinder-{fam}-{k}" for fam in (1, 2) for k in (1, 2, 3)]
    + [f"gessel-stanton-{fam}-{k}" for fam in (1, 2) for k in (1, 2, 3)]
)


def test_registry_covers_the_whole_in_scope_list(registry):
    assert sorted(c.name for c in registry) == EXPECTED_NAMES
    assert len(registry) == 99
    groups = {t for c in registry for t in c.tags}
    assert {"preliminaries", "kanade-russell", "section5", "contour", "ortho",
            "transforms"} <= groups
    for c in registry:
        assert any(
            g in c.tags
            for g in ("preliminaries", "kanade-russell", "section5", "contour",
                      "ortho", "transforms")
        ), c.name


def test_every_case_parses_and_has_ref(registry):
    for c in registry:
        assert c.ref, c.name
        c.lhs()
        c.rhs()
        assert c.order > 0 and c.denom >= 1


def test_json_report_schema(tmp_path, registry):
    import jsonschema

    code, reports = run_suite(pattern="rogers-ramanujan-*", order=20, registry=registry)
    payload = json.loads(reports_to_json(reports))
    schema = json.loads(
        (Path(__file__).resolve().parent.parent / "src" / "qrucible" / "schema"
         / "verify-report.schema.json").read_text()
    )
    jsonschema.validate(payload, schema)
    assert code == 0 and len(payload) == 2


def test_json_determinism(registry):
    _, r1 = run_suite(pattern="kr-conj-5", order=15, registry=registry)
    _, r2 = run_suite(pattern="kr-conj-5", order=15, registry=registry)

    def strip(text):
        data = json.loads(text)
        for item in data:
            item.pop("elapsedMs")
        return json.dumps(data, sort_keys=True)

    assert strip(reports_to_json(r1)) == strip(reports_to_json(r2))


def test_parallel_matches_serial(registry):
    code1, serial = run_suite(pattern="jacobi-triple-*", order=25, registry=registry)
    code2, para = run_suite(pattern="jacobi-triple-*", order=25, jobs=2, registry=registry)
    assert code1 == code2 == 0
    assert [r.name for r in serial] == [r.name for r in para]
    assert [r.status for r in serial] == [r.status for r in para]
    # pooled reports hold the case's strings, as serial ones do
    assert all(p.name is s.name and p.ref is s.ref for s, p in zip(serial, para))


def test_strict_mode_fails_on_skip():
    text = """
    identity "nonsummable" {
      lhs = phi([q]; []; q; 1);
      rhs = 1;
      D = 1;
      order = 10;
      ref = "";
    }
    """
    reg = Registry(parse_suite(text))
    code, _ = run_suite(registry=reg)
    strict_code, _ = run_suite(registry=reg, strict=True)
    assert code == 0 and strict_code == 1


def test_duplicate_names_rejected():
    text = (
        'identity "x" { lhs = 1; rhs = 1; D = 1; order = 5; }\n'
        'identity "x" { lhs = 1; rhs = 1; D = 1; order = 5; }\n'
    )
    with pytest.raises(ValueError):
        Registry(parse_suite(text))


def test_partition_count_examples():
    assert partition_count(0, modulus=5, residues=(1, 4)) == 1
    assert partition_count(4, modulus=5, residues=(1, 4)) == 2
    assert partition_count(6, modulus=5, residues=(1, 4)) == 3
    # gap-2 condition: no repeated or consecutive parts: {6}, {5,1}, {4,2}
    assert partition_count(6, min_gap=2) == 3
    with pytest.raises(BoundExceeded):
        partition_count(10, bound=5)


def test_suite_dir_env_override(tmp_path, monkeypatch):
    suite = tmp_path / "mini.qid"
    suite.write_text(
        'identity "mini" { lhs = 1+q; rhs = 1+q; D = 1; order = 5; '
        'tags = ["misc"]; ref = "trivial"; }\n'
    )
    monkeypatch.setenv("QRUCIBLE_SUITE_DIR", str(tmp_path))
    reg = load_registry()
    assert [c.name for c in reg] == ["mini"]
    code, reports = run_suite()
    assert code == 0 and reports[0].name == "mini"


def test_cli_verify_with_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli_main([
        "verify", "--filter", "rogers-ramanujan-1", "--order", "20",
        "--json", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "PASS rogers-ramanujan-1" in printed
    data = json.loads(out.read_text())
    assert data[0]["name"] == "rogers-ramanujan-1"
    assert data[0]["status"] == "PASS"


def test_cli_exit_code_on_failure(tmp_path):
    bad = tmp_path / "bad.qid"
    bad.write_text(
        'identity "wrong" { lhs = 1+q; rhs = 1+q^2; D = 1; order = 5; ref = ""; }\n'
    )
    code = cli_main(["verify", "--suite", str(bad)])
    assert code == 1


def test_suite_zero_exponent_denominator_is_a_parse_error(tmp_path, capsys):
    text = 'identity "x" { lhs = q^(1/0); rhs = 1; D = 1; order = 5; }\n'
    with pytest.raises(ParseError) as err:
        parse_suite(text)
    assert (err.value.line, err.value.col) == (1, 27)
    bad = tmp_path / "bad.qid"
    bad.write_text(text)
    assert cli_main(["verify", "--suite", str(bad)]) == 2
    assert "line 1, column 27" in capsys.readouterr().err


def test_cli_filter_selecting_no_case_is_a_usage_error(capsys):
    assert cli_main(["verify", "--filter", "no-such-case*"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "qrucible: error: --filter 'no-such-case*' selects no case\n"
    assert captured.out == ""


def test_cli_unreadable_suite_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "nope.qid"
    binary = tmp_path / "binary.qid"
    binary.write_bytes(b"\xff\xfe identity")
    for path in (missing, binary):
        assert cli_main(["verify", "--suite", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"qrucible: error: cannot read suite {path}: "), err
    with pytest.raises(SuiteError, match="No such file or directory"):
        load_registry([missing])


def test_cli_bad_suite_error_names_the_file(tmp_path, capsys):
    good = tmp_path / "good.qid"
    good.write_text('identity "ok" { lhs = 1+q; rhs = 1+q; D = 1; order = 5; }\n')
    bad = tmp_path / "bad.qid"
    bad.write_text('identity "x" {\n  lhs = 1 + q^(1/0); rhs = 1; D = 1; order = 5; }\n')
    assert cli_main(["verify", "--suite", str(good), "--suite", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"qrucible: error: {bad}: zero denominator in exponent (line 2, column 18)\n"
    )


def test_cli_missing_field_error_names_the_entry(tmp_path, capsys):
    # the error points at the entry's name, not at the last token read
    bad = tmp_path / "short.qid"
    bad.write_text('identity "ok" { lhs = q; rhs = q; D = 1; order = 5; }\n'
                   '\n  identity "x" {\n  lhs = q;\n  rhs = q;\n  D = 1;\n}\n')
    assert cli_main(["verify", "--suite", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"qrucible: error: {bad}: identity 'x' missing field 'order' (line 3, column 12)\n"
    )


def test_cli_unwritable_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    assert cli_main(["verify", "--filter", "rogers-ramanujan-1", "--json", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # refused before any case ran
    assert err == f"qrucible: error: cannot write --json {path}: No such file or directory\n"


def test_deep_nesting_is_a_positioned_error(tmp_path, capsys):
    limit = MAX_NESTING
    deep_parens = "(" * (limit + 1) + "q" + ")" * (limit + 1)
    deep_minus = "-" * (limit + 1) + "q"
    for lhs in (deep_parens, deep_minus, "(" * 200 + "q" + ")" * 200, "-" * 3000 + "q"):
        bad = tmp_path / "deep.qid"
        bad.write_text(f'identity "deep" {{\n  lhs = {lhs}; rhs = q; D = 1; order = 5; }}\n')
        assert cli_main(["verify", "--suite", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"qrucible: error: {bad}: expression nested deeper than {limit} levels (line 2, column "), err
    at_limit = tmp_path / "limit.qid"
    lhs = "(" * limit + "q" + ")" * limit
    at_limit.write_text(f'identity "limit" {{ lhs = {lhs}; rhs = {"-" * limit}q; D = 1; order = 5; }}\n')
    assert cli_main(["verify", "--suite", str(at_limit)]) == 0
    for lhs, status in ((deep_minus, "SKIP"), ("-" * 600 + "q", "SKIP"), ("-" * limit + "q", "PASS")):
        report = verify(IdentityCase("deep", lhs, "q", 1, 5, (), ""))
        assert report.status == status, report
    assert "nested deeper" in verify(IdentityCase("deep", deep_parens, "q", 1, 5, (), "")).skip_reason


def test_long_flat_chain_verifies(tmp_path, capsys):
    # one n-ary node per chain: no recursion per operator
    suite = tmp_path / "flat.qid"
    lhs = "+".join(["q"] * 500)
    suite.write_text(f'identity "flat" {{ lhs = {lhs}; rhs = 500*q; D = 1; order = 5; }}\n')
    assert cli_main(["verify", "--suite", str(suite)]) == 0
    assert "PASS flat" in capsys.readouterr().out


def test_suite_counts_below_one_are_positioned_errors(tmp_path, capsys):
    # D = 0 divided by zero in verify and order = 0 failed in SeriesContext
    for key in ("D", "order"):
        counts = {"D": 1, "order": 5, key: 0}
        text = (
            f'identity "x" {{ lhs = q; rhs = q; D = {counts["D"]}; '
            f'order = {counts["order"]}; }}\n'
        )
        col = text.index(f"{key} = 0") + len(key) + 4
        with pytest.raises(ParseError) as err:
            parse_suite(text)
        assert (err.value.line, err.value.col) == (1, col)
        bad = tmp_path / "zero.qid"
        bad.write_text(text)
        assert cli_main(["verify", "--suite", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"qrucible: error: {bad}: {key} must be at least 1 (line 1, column {col})\n"
        )


def test_suite_field_given_twice_is_a_positioned_error(tmp_path, capsys):
    # the first lhs used to be dropped without a word
    text = 'identity "x" {\n  lhs = 1+q;\n  lhs = 1;\n  rhs = 1; D = 1; order = 5; }\n'
    with pytest.raises(ParseError) as err:
        parse_suite(text)
    assert (err.value.line, err.value.col) == (3, 3)
    bad = tmp_path / "twice.qid"
    bad.write_text(text)
    assert cli_main(["verify", "--suite", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"qrucible: error: {bad}: field 'lhs' given twice (line 3, column 3)\n"
    )


def test_duplicate_identity_names_across_suites_are_usage_errors(tmp_path, capsys):
    entry = 'identity "x" { lhs = 1; rhs = 1; D = 1; order = 5; }\n'
    a, b, both = tmp_path / "a.qid", tmp_path / "b.qid", tmp_path / "both.qid"
    a.write_text(entry)
    b.write_text(entry)
    both.write_text(entry + entry)
    for files in ([a, b], [both]):
        message = f"{files[-1]}: duplicate identity name 'x' (first in {files[0]})"
        with pytest.raises(SuiteError) as err:
            load_registry(files)
        assert str(err.value) == message
        args = [arg for f in files for arg in ("--suite", str(f))]
        assert cli_main(["verify", *args]) == 2
        assert capsys.readouterr().err == f"qrucible: error: {message}\n"


def test_cli_rejects_non_positive_counts(capsys):
    for option in ("--order", "--denom", "--jobs"):
        for value in ("0", "-1", "x"):
            with pytest.raises(SystemExit) as exc:
                cli_main(["verify", "--filter", "rogers-ramanujan-1", option, value])
            assert exc.value.code == 2, (option, value)
            err = capsys.readouterr().err
            assert f"argument {option}: expected a positive integer" in err


def test_full_shipped_suite_passes(registry):
    code, reports = run_suite(jobs=2, strict=True, registry=registry)
    assert code == 0
    assert len(reports) == len(registry)
    assert all(r.status == "PASS" for r in reports)
    # deterministic merge: reports follow case order, not completion order
    assert [r.name for r in reports] == [c.name for c in registry]
    # a kernel change keeps the report byte for byte, apart from the times
    items = json.loads(reports_to_json(reports))
    for item in items:
        del item["elapsedMs"]
    assert json.dumps(items, indent=2) + "\n" == SHIPPED_REPORT.read_text(encoding="utf-8")


def test_contour_cases_at_order_50_match_the_pinned_report(tmp_path, capsys):
    # the constant-term engine at twice the stated orders, pinned as
    # `verify --filter 'contour*' --order 50 --json` wrote it before the
    # whole-family products, times removed
    path = tmp_path / "ct50.json"
    assert cli_main(["verify", "--filter", "contour*", "--order", "50", "--json", str(path)]) == 0
    capsys.readouterr()
    items = json.loads(path.read_text(encoding="utf-8"))
    for item in items:
        del item["elapsedMs"]
    assert json.dumps(items, indent=2) + "\n" == CT_ORDER50_REPORT.read_text(encoding="utf-8")


def test_cross_evaluator_coherence():
    """For each of the nine product identities, the lattice sum, its
    constant-term representation, and the applicable single-series
    reduction agree pairwise."""
    from qrucible.ctengine import triple_sum_ct
    from qrucible.dsl import elaborate, parse
    from qrucible.qkernel import f_triple
    from qrucible.series import SeriesContext, equal_to_order, mono, qpow

    reductions = {
        # (u, v, w) exponents -> reduction rhs text (family, u documented)
        (1, 0, 3): "qp(-1, q*w2; q^2; inf)*phi([q^(-1)*w, -q*w]; [-1]; q^2; q*w2)",
        (2, 4, 9): "qp(-q^2, q*w2; q^2; inf)*phi([q*w, -q*w]; [-q^2]; q^2; q*w2)",
        (4, 6, 15): "qp(-q^4, q*w2; q^2; inf)*phi([q^2*w, -q^2*w]; [-q^4]; q^2; q*w2)",
        (1, 6, 9): "qp(-q^2, q*w2; q^2; inf)*phi([-w, q^2*w]; [-q^2]; q^2; q*w2)",
        (2, 2, 9): "qp(q^6; q^4; inf)*phi([q*w, q*w2]; [q^3, -q^3]; q^2; -q^2)",
        (3, 5, 12): "qp(-q^3, q*w2; q^2; inf)*phi([q^(3/2)*w, -q^(3/2)*w]; [-q^3]; q^2; q*w2)",
        (1, 3, 6): "qp(-q, q*w2; q^2; inf)*phi([q^(1/2)*w, -q^(1/2)*w]; [-q]; q^2; q*w2)",
        (1, 1, 6): "qp(q^5; q^4; inf)*phi([q*w, q*w2]; [q^(5/2), -q^(5/2)]; q^2; -q)",
        (2, -1, 6): "qp(q^3; q^4; inf)*phi([q^(-1)*w, q^(-1)*w2]; [q^(3/2), -q^(3/2)]; q^2; -q^3)",
    }
    for (eu, ev, ew), rhs_text in reductions.items():
        denom = 2 if "/2)" in rhs_text else 1
        ctx = SeriesContext(denom, 20 * denom)
        u = qpow(eu) if eu else mono(1, 0)
        v = qpow(ev) if ev else mono(1, 0)
        w = qpow(ew)
        ms = f_triple(u, v, w, ctx)
        ct = triple_sum_ct(u, v, w, ctx)
        red = elaborate(parse(rhs_text), ctx)
        upto = min(ms.trunc, ct.trunc, red.trunc, 20 * denom)
        assert equal_to_order(ms, ct, upto), (eu, ev, ew)
        assert equal_to_order(ms, red, upto), (eu, ev, ew)
        assert equal_to_order(ct, red, upto), (eu, ev, ew)


def test_quartic_and_koornwinder_share_a_left_side(registry):
    # the quartic transform and both Koornwinder companions restate the
    # same 2phi1, so their right sides must agree with each other
    from qrucible.dsl import elaborate
    from qrucible.series import SeriesContext, equal_to_order

    ctx = SeriesContext(1, 30)
    quartic, k1, k2 = (
        elaborate(registry.get(name).rhs(), ctx)
        for name in ("quartic-2", "koornwinder-1-2", "koornwinder-2-2")
    )
    assert equal_to_order(quartic, k1, 30)
    assert equal_to_order(k1, k2, 30)
    assert equal_to_order(quartic, k2, 30)


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qrucible.cli", "verify", "--filter", "kr-conj-5",
         "--order", "12"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))},
    )
    assert proc.returncode == 0
    assert "PASS kr-conj-5" in proc.stdout


def test_cli_kernel_domain_errors_end_without_traceback(tmp_path):
    # each of these used to end in a traceback with exit code 1
    suite = tmp_path / "hostile.qid"
    suite.write_text(
        'identity "theta-zero" { lhs = theta(0); rhs = 1; D = 1; order = 5; }\n'
        'identity "cgf-zero" { lhs = cgf(0; 2; q; z); rhs = 1; D = 1; order = 5; }\n'
        'identity "cgf-seven" { lhs = cgf(7; 2; q; z); rhs = 1; D = 1; order = 5; }\n'
        # base 0: p_2(q, q, q, q | 0) at z = q, from the generating function
        'identity "awp-base-zero" { lhs = awp(2; q, q, q, q; 0; q);'
        ' rhs = q^(-2)*(1-q^2)^3; D = 1; order = 5; }\n'
    )
    proc = subprocess.run(
        [sys.executable, "-m", "qrucible.cli", "verify", "--suite", str(suite)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))},
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("SKIP theta-zero  (at Theta: theta sum needs a nonzero monomial")
    assert lines[1].startswith("SKIP cgf-zero  (at GenfunCoeff: unknown generating-function variant 0")
    assert lines[2].startswith("SKIP cgf-seven  (at GenfunCoeff: unknown generating-function variant 7")
    assert lines[3].startswith("PASS awp-base-zero")
    assert lines[4] == "4 cases: 1 pass, 0 fail, 3 skip"
