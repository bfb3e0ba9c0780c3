import concurrent.futures
import dataclasses
import json
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import BoundExceeded, partition_count
from qrucible import dsl
from qrucible.cli import main as cli_main
from qrucible.errors import ParseError, SuiteError
from qrucible.dsl import MAX_NESTING
from qrucible.harness import (
    MAX_ORDER,
    IdentityCase,
    Registry,
    load_registry,
    parse_suite,
    reports_to_json,
    run_suite,
    verify,
)

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
SUITE_DIR = SRC_DIR / "qrucible" / "suites"
SHIPPED_REPORT = Path(__file__).resolve().parent / "data" / "shipped-suite-report.json"
CT_ORDER50_REPORT = Path(__file__).resolve().parent / "data" / "ct-order50-report.json"
KR_NINE_ORDER150_REPORT = Path(__file__).resolve().parent / "data" / "kr-nine-order150-report.json"
KR_NINE_ORDER1000_REPORT = Path(__file__).resolve().parent / "data" / "kr-nine-order1000-report.json"
DENOM2_REPORT = Path(__file__).resolve().parent / "data" / "shipped-suite-denom2-report.json"
DEEP_REPORT = Path(__file__).resolve().parent / "data" / "shipped-suite-deep-report.json"
BIG_COEFFICIENT = Path(__file__).resolve().parent / "data" / "big-coefficient.qid"
HUGE_ORDER = Path(__file__).resolve().parent / "data" / "huge-order.qid"
HOSTILE_NUMBERS = Path(__file__).resolve().parent / "data" / "hostile-numbers.qid"
MULTI_TERM_PARAMETER = Path(__file__).resolve().parent / "data" / "multi-term-parameter.qid"
MULTI_FAULT_CALLS = Path(__file__).resolve().parent / "data" / "multi-fault-calls.qid"


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


@pytest.mark.parametrize("side, path", [
    ("1/qp(1; q; 3)", "Product.1"),
    ("qp(1; q; 3)/qp(1; q; 3)", "Product.1"),  # 0/0 never cancels to 1
    ("1/qp(q^(-2); q; inf)", "Product.1"),
    ("1/qp(2; 1/2; 4)", "Product.1"),
    ("2/(qp(q; q; inf)*qp(1; q; 3))", "Product.1.1"),
    ("ct{qp(z; q; inf)*qp(q/z; q; inf)/qp(1; q; 2)}", "CT.scalar"),
])
def test_zero_pochhammer_denominators_skip_at_the_factor(side, path):
    case = parse_suite(f'identity "zero-den" {{ lhs = {side}; rhs = 1; D = 1; order = 10; }}')[0]
    rep = verify(case)
    assert rep.status == "SKIP"
    assert rep.skip_reason == f"at {path}: Pochhammer denominator has an exact zero factor"


def test_zero_pochhammer_numerators_make_the_side_zero():
    case = parse_suite('identity "zero-num" { lhs = q^(-1)*qp(1; q; 3)*qp(q^(-2); q; 2); rhs = 0;'
                       ' D = 1; order = 10; }')[0]
    rep = verify(case)
    assert rep.status == "PASS" and rep.proven_order == 10


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
    fail = verify(IdentityCase("wrong", "1+q", "1+q+w*q^2", 1, 5, (), ""))
    skip = verify(IdentityCase("nonsummable", "phi([q]; []; q; 1)", "1", 1, 5, (), ""))
    payload = json.loads(reports_to_json(reports + [fail, skip]))
    schema = json.loads(
        (Path(__file__).resolve().parent.parent / "src" / "qrucible" / "schema"
         / "verify-report.schema.json").read_text()
    )
    jsonschema.validate(payload, schema)
    assert code == 0 and len(payload) == 4
    assert all("firstMismatch" not in item and "skipReason" not in item for item in payload[:2])
    assert payload[2]["firstMismatch"] == {"exponent": "2", "lhs": "0", "rhs": "w"}
    assert "skipReason" not in payload[2] and "firstMismatch" not in payload[3]
    assert payload[3]["status"] == "SKIP" and "exponent" in payload[3]["skipReason"]


def test_a_mismatch_at_or_past_the_target_is_a_pass():
    # the side loses 3 orders, so the working order is 10 + 3 + 4 and both
    # sides are known past the target: q^11 lies beyond what was asked
    side = "qp(2*q^(-3); q; inf)"
    for extra, proven in (("q^11", 11), ("q^10", 10), ("q^9", None)):
        report = verify(IdentityCase("past", side, f"{side} + {extra}", 1, 10, (), ""))
        if proven is None:
            assert report.status == "FAIL" and report.proven_order == 9
        else:
            assert (report.status, report.proven_order) == ("PASS", proven), report


def test_sides_short_of_the_target_every_round_skip(monkeypatch):
    # a side the plan cannot see through, which each round returns one
    # order short of the target: verify escalates and then gives up
    rounds = []

    def elaborate(expr, ctx):
        rounds.append(ctx.order)
        return ctx.zero(9)

    monkeypatch.setattr(dsl, "elaborate", elaborate)
    report = verify(IdentityCase("short", "q", "q", 1, 10, (), ""))
    assert (report.status, report.skip_reason) == ("SKIP", "escalation failed to reach order 10")
    assert rounds == [10, 10, 15, 15, 20, 20, 25, 25, 30, 30, 35, 35]


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


def _mutants(registry, seed: int, count: int) -> list:
    """[(mutant, k/D)]: loaded cases whose rhs gains q^(k/D), built with
    dataclasses.replace as the benchmark builds its mutants."""
    rng = random.Random(seed)
    out = []
    for case in rng.sample(registry.cases, count):
        k = rng.randrange(case.order)
        mutant = dataclasses.replace(case, name=f"{case.name}+q^({k}/{case.denom})",
                                     rhs_text=f"({case.rhs_text}) + q^({k}/{case.denom})")
        out.append((mutant, Fraction(k, case.denom)))
    return out


@pytest.mark.parametrize("jobs", [1, 2])
def test_mutants_built_by_replace_fail_at_exactly_their_exponent(registry, jobs):
    # a case made by replace parses its own text: a side carried over
    # from the loaded case would verify the unmutated identity and PASS
    mutants = _mutants(registry, 20261020, 8)
    code, reports = run_suite(registry=Registry([m for m, _ in mutants]), jobs=jobs)
    assert code == 1
    assert [(r.name, r.status, r.mismatch.exponent) for r in reports] == [
        (m.name, "FAIL", k) for m, k in mutants]


def test_a_case_with_malformed_text_skips_with_its_parse_error(registry):
    hand_built = IdentityCase("malformed", "qp(q; q; ", "1", 1, 5, (), "")
    replaced = dataclasses.replace(registry.get("rogers-ramanujan-1"), rhs_text="1 +")
    for case in (hand_built, replaced):
        report = verify(case)
        assert report.status == "SKIP" and report.skip_reason.startswith("parse: "), report
    assert verify(hand_built).skip_reason == "parse: expected an integer (line 1, column 10)"


def _no_parse(*args):
    raise AssertionError("a side was parsed after the suites were loaded")


@pytest.mark.parametrize("jobs", [
    1,
    pytest.param(2, marks=pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                             reason="the patch reaches forked workers only")),
])
def test_verify_parses_no_side_of_a_loaded_case(monkeypatch, jobs):
    registry = load_registry()
    monkeypatch.setattr(dsl, "parse", _no_parse)
    monkeypatch.setattr(dsl, "tokenize", _no_parse)
    code, reports = run_suite(registry=registry, jobs=jobs)
    assert code == 0 and len(reports) == 99
    assert all(r.status == "PASS" for r in reports)


def test_a_loaded_case_carries_the_sides_its_texts_parse_to(monkeypatch):
    recorded = json.loads((Path(__file__).resolve().parent / "data" / "shipped-suite-sides.json")
                          .read_text(encoding="utf-8"))
    registry = load_registry()
    monkeypatch.setattr(dsl, "parse", _no_parse)
    carried = [(c.name, c.lhs(), c.rhs()) for c in registry]
    # pickling ships the sides, as the pool does
    shipped = [(c.name, c.lhs(), c.rhs()) for c in pickle.loads(pickle.dumps(registry.cases))]
    monkeypatch.undo()
    want = [(r["name"], dsl.parse(r["lhs_text"]), dsl.parse(r["rhs_text"])) for r in recorded]
    assert carried == shipped == want and len(want) == 99
    # the carried sides are outside the fields: equality, hash and repr
    # are those of a case made from the same fields
    case = registry.get("rogers-ramanujan-1")
    bare = IdentityCase(**{f.name: getattr(case, f.name) for f in dataclasses.fields(case)})
    assert case == bare and hash(case) == hash(bare) and repr(case) == repr(bare)


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


def test_cli_run_with_no_case_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # a missing suite directory, an empty one and an empty suite file each
    # end before any case runs, so a strict run that verifies nothing fails
    empty_dir, empty_file = tmp_path / "empty", tmp_path / "empty.qid"
    empty_dir.mkdir()
    empty_file.write_text("")
    for where, argv in [(tmp_path / "missing", []), (empty_dir, []),
                        (SUITE_DIR, ["--suite", str(empty_file)])]:
        monkeypatch.setenv("QRUCIBLE_SUITE_DIR", str(where))
        assert cli_main(["verify", "--strict", *argv]) == 2
        out, err = capsys.readouterr()
        shown = empty_file if argv else where / "*.qid"
        assert (out, err) == ("", f"qrucible: error: {shown} holds no case\n")


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


ORDER_LIMIT_REASON = f"exceeds the limit {MAX_ORDER} (scaled units)"


def _skips_at_the_order_limit(run):
    """run() -> reports; each is a SKIP naming the order limit, all within
    a second: no series is built at the working order asked for."""
    t0 = time.perf_counter()
    reports = run()
    assert time.perf_counter() - t0 < 1.0
    assert reports and all(r.status == "SKIP" and ORDER_LIMIT_REASON in r.skip_reason for r in reports)


def test_an_order_option_above_the_limit_skips(registry, capsys):
    # this --order ended in an OverflowError traceback in the binomial pass
    huge = 99999999999999999999
    _skips_at_the_order_limit(lambda: run_suite(pattern="rogers-ramanujan-1", order=huge, registry=registry)[1])
    assert cli_main(["verify", "--strict", "--filter", "rogers-ramanujan-1", "--order", str(huge)]) == 1
    assert f"working order {huge} {ORDER_LIMIT_REASON}" in capsys.readouterr().out


def test_a_denom_option_above_the_limit_skips(registry):
    # rogers-ramanujan-1 states order 60 on D = 1: D = 2000 asks for 120000
    _skips_at_the_order_limit(lambda: run_suite(pattern="rogers-ramanujan-1", denom=2000, registry=registry)[1])


def test_a_suite_order_above_the_limit_skips(capsys):
    # huge-order.qid asks for qp(q; q; inf) at an order that grew memory
    # without end, for as long as the process was let run
    _skips_at_the_order_limit(lambda: run_suite(files=[HUGE_ORDER])[1])
    assert cli_main(["verify", "--strict", "--suite", str(HUGE_ORDER)]) == 1
    capsys.readouterr()
    # the limit itself is a working order like any other
    text = 'identity "at-limit" {{ lhs = 1 + q; rhs = q + 1; D = 1; order = {}; }}'
    assert run_suite(registry=Registry(parse_suite(text.format(MAX_ORDER))))[1][0].status == "PASS"
    _skips_at_the_order_limit(lambda: run_suite(registry=Registry(parse_suite(text.format(MAX_ORDER + 1))))[1])


def test_a_planned_pad_above_the_limit_skips_before_anything_is_built(monkeypatch):
    # the side loses one order, so the first working order is 99999 + 1 + 4
    def elaborate(*args):
        raise AssertionError("a series was built")

    monkeypatch.setattr(dsl, "elaborate", elaborate)
    side = "qp(2*q^(-1); q; inf)"
    case = parse_suite(f'identity "padded" {{ lhs = {side}; rhs = {side}; D = 1; order = 99999; }}')[0]
    report = verify(case)
    assert report.status == "SKIP"
    assert report.skip_reason == f"working order 100004 {ORDER_LIMIT_REASON}"


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


def test_shipped_suite_on_the_refined_grid_matches_the_pinned_report(registry):
    # every case on D = lcm(D, 2), pinned as `verify --denom 2 --json`
    # wrote it before the working orders were planned, times removed
    code, reports = run_suite(denom=2, jobs=2, strict=True, registry=registry)
    assert code == 0
    items = json.loads(reports_to_json(reports))
    for item in items:
        del item["elapsedMs"]
    assert json.dumps(items, indent=2) + "\n" == DENOM2_REPORT.read_text(encoding="utf-8")


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


def _kr_nine_report(registry, order: int) -> str:
    """The kr-nine cases at the order, as `verify --json` writes them,
    times removed."""
    code, reports = run_suite(pattern="kr-nine", order=order, registry=registry)
    assert code == 0
    items = json.loads(reports_to_json(reports))
    for item in items:
        del item["elapsedMs"]
    return json.dumps(items, indent=2) + "\n"


def test_kr_nine_at_order_150_matches_the_pinned_report(registry):
    # the lattice sums at three times the stated orders, pinned as
    # `verify --filter 'kr-nine*' --order 150 --json` wrote it before the
    # sums were evaluated by Horner's rule
    assert _kr_nine_report(registry, 150) == KR_NINE_ORDER150_REPORT.read_text(encoding="utf-8")


def test_kr_nine_at_order_1000_matches_the_pinned_report(registry):
    # the lattice sums at twenty times the stated orders, pinned as
    # `verify --filter 'kr-nine*' --order 1000 --json` wrote it while the
    # variables still ran in the order each spec lists them
    assert _kr_nine_report(registry, 1000) == KR_NINE_ORDER1000_REPORT.read_text(encoding="utf-8")


def test_every_case_at_three_times_its_order_matches_the_pinned_report(registry):
    # every shipped case at three times its stated order, pinned from
    # `verify(case, 3 * case.order)` over the registry before sums went
    # through one Z[w] window, times removed
    items = json.loads(reports_to_json([verify(c, 3 * c.order) for c in registry]))
    for item in items:
        del item["elapsedMs"]
    assert json.dumps(items, indent=2) + "\n" == DEEP_REPORT.read_text(encoding="utf-8")


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


def test_numbers_past_the_digit_limit_and_non_ascii_digits_are_positioned_errors(tmp_path):
    # each of these ended in a ValueError traceback, or read "١" as 1
    for text, at in (
        ("q^²", "(line 2, column 11)"),
        ("١+q", "(line 2, column 9)"),
        ("q + " + "1" * 5000, "(line 2, column 13)"),
    ):
        bad = tmp_path / "bad.qid"
        bad.write_text(f'identity "x" {{\n  lhs = {text}; rhs = q; D = 1; order = 5; }}\n', encoding="utf-8")
        with pytest.raises(SuiteError) as err:
            load_registry([bad])
        assert str(err.value).endswith(at), err.value
    with pytest.raises(SuiteError, match=r"unexpected character '²' \(line 15, column 11\)"):
        load_registry([HOSTILE_NUMBERS])


def test_an_exponent_product_past_the_digit_limit_is_a_positioned_parse_error(tmp_path, capsys):
    # (q^N)^N with N of 3000 digits is q^(N^2), 6000 digits: it loaded, but
    # its printed side did not read back, so the case SKIPped at a position
    # in the printed text; now the suite fails to load at the second ^
    n = "7" * 3000
    bad = tmp_path / "product.qid"
    head = f'identity "x" {{ lhs = (q^{n})'
    bad.write_text(f"{head}^({n}); rhs = 0; D = 1; order = 5; }}\n")
    with pytest.raises(SuiteError) as err:
        load_registry([bad])
    assert str(err.value).startswith(str(bad))
    assert str(err.value).endswith(f"more digits than a number may have (line 1, column {len(head) + 1})")
    assert cli_main(["verify", "--suite", str(bad)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    # the limit is the lexer's: a product of as many digits as a literal
    # may have loads, one more digit does not
    limit = sys.get_int_max_str_digits()
    fits, past = "9" * limit, "5" + "0" * (limit - 1)
    assert load_registry([_suite(tmp_path, f"(q^{fits})^1")]).get("x").lhs_text == f"q^{Decimal(fits)}"
    with pytest.raises(SuiteError, match="more digits than a number may have"):
        load_registry([_suite(tmp_path, f"(q^{past})^2")])
    with pytest.raises(SuiteError, match="more digits than a number may have"):
        load_registry([_suite(tmp_path, f"(z^{past})^(-2)")])


def test_a_folded_exponent_past_the_digit_limit_is_a_skip():
    # two q-powers of a parameter fold to one exponent of 4301 digits, off
    # the grid: formatting it for the error raised ValueError, a traceback
    n = "9" * sys.get_int_max_str_digits()
    report = verify(IdentityCase("x", f"qp(q^({n}/7)*q^({n}/7); q; inf)", "1", 1, 5, (), ""))
    assert report.status == "SKIP" and report.skip_reason.endswith("/7 not on the 1/1 grid")


def _suite(tmp_path, lhs: str) -> Path:
    path = tmp_path / "one.qid"
    path.write_text(f'identity "x" {{ lhs = {lhs}; rhs = 0; D = 1; order = 5; }}\n')
    return path


def test_multi_term_parameters_skip_at_once():
    # both expanded the polynomial (10 and 25 s) before they were refused
    t0 = time.perf_counter()
    code, reports = run_suite(files=[MULTI_TERM_PARAMETER])
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert [r.skip_reason for r in reports] == [
        "at Poch: expected a monomial, got 1+q",
        "at Poch: expected a monomial, got 1+q+w*q^2",
    ]


def test_a_call_with_two_faulty_fields_skips_on_the_one_folded_first():
    # qp folds its base before its args; phi, rc and awp fold their fields
    # in order; rc, awp and cgf fold z first, but a z that does not fold is
    # folded again only after the polynomial is built, so its fault is named
    code, reports = run_suite(files=[MULTI_FAULT_CALLS])
    assert code == 0
    assert [(r.name, r.status, r.skip_reason) for r in reports] == [
        ("qp-base-before-args", "SKIP", "at Poch: expected a monomial, got 2+q"),
        ("qp-base-before-z-arg", "SKIP", "at Poch: expected a monomial, got 1+q"),
        ("phi-uppers-before-lowers", "SKIP", "at Phi: expected a monomial, got 1+q"),
        ("rc-a-before-base", "SKIP", "at RogersC: expected a monomial, got 1+q"),
        ("awp-z-not-constant", "SKIP", "at AWPoly: not a constant expression: z"),
        ("cgf-variant-before-z", "SKIP", "at GenfunCoeff: unknown generating-function variant 0"),
    ]


class _InlinePool:
    """A ProcessPoolExecutor that records its max_workers and runs each
    task in this process."""

    sizes: list = []

    def __init__(self, max_workers=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("jobs, workers", [(2, 2), (4, 4), (5, 4), (100000, 4)])
def test_the_pool_has_no_more_workers_than_cases(monkeypatch, registry, jobs, workers):
    # with the fork start method every worker is forked at the first
    # submit; a real pool is never asked for a large --jobs here
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    code, reports = run_suite(pattern="jacobi-triple-*", jobs=jobs, registry=registry)
    assert code == 0 and len(reports) == 4 and _InlinePool.sizes == [workers]


@pytest.mark.parametrize("side, outcome", [
    ("rc(2; q; q; 0)", ("SKIP", "at RogersC: inverse of 0 in Q(w)")),
    ("awp(2; q, q^2, q^3, q^4; q; 0)", ("SKIP", "at AWPoly: inverse of 0 in Q(w)")),
    ("cgf(1; 2; q; 0)", ("SKIP", "at GenfunCoeff: inverse of 0 in Q(w)")),
    ("cgf(7; 2; q; 0)", ("SKIP", "at GenfunCoeff: unknown generating-function variant 7")),
    ("rc(0; q; q; 0)", ("PASS", None)),
    ("rc(2; q; q; 1 + q)", ("SKIP", "at RogersC: expected a monomial, got 1+q")),
    ("awp(1; q, q, q, q; q; q^(1/2))", ("SKIP", "at AWPoly: exponent 1/2 not on the 1/1 grid")),
    ("rc(0; q; q; q^(1/2))", ("PASS", None)),
])
def test_a_polynomial_at_a_z_it_cannot_be_built_at_keeps_its_outcome(side, outcome):
    # z = 0, a z that is no monomial and one off the grid are not built
    # at: the polynomial is built in z and z folds after it, so a fault of
    # the polynomial (variant 7) is named before z's, and a polynomial
    # with no row z^m that z cannot take passes
    case = parse_suite(f'identity "at-z" {{ lhs = {side}; rhs = 1; D = 1; order = 5; }}')[0]
    report = verify(case)
    assert (report.status, report.skip_reason) == outcome


def _big_rational(text: str) -> Fraction:
    # Decimal reads and converts digit strings past the int-to-str limit
    n, _, d = text.partition("/")
    return Fraction(int(Decimal(n)), int(Decimal(d or "1")))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_big_coefficient_mismatch_is_a_fail_without_traceback(tmp_path, jobs):
    # coefficients past 4300 digits, where str(int) raises: the mismatch
    # is a FAIL with exit code 1 carrying the exact digits, in the pool too
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "qrucible.cli", "verify", "--suite", str(BIG_COEFFICIENT),
         "--jobs", jobs, "--json", str(report)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))},
    )
    assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stdout.startswith("FAIL big-coefficient  (first mismatch at q^(29): 2817")
    mm = {r["name"]: r["firstMismatch"] for r in json.loads(report.read_text())}
    assert mm["big-coefficient"]["exponent"] == "29" and mm["big-coefficient"]["rhs"] == "0"
    assert _big_rational(mm["big-coefficient"]["lhs"]) == 2**15000
    w = mm["big-coefficient-w"]
    re, om = w["lhs"].removesuffix("*w").split(" - ")
    assert (w["exponent"], _big_rational(w["rhs"])) == ("2", Fraction(1, 3**10000))
    assert (_big_rational(re), _big_rational(om)) == (Fraction(1, 3**10000), Fraction(2**15000, 3**10000))


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patch reaches forked workers only")
def test_a_killed_pool_worker_ends_its_cases_as_skips(tmp_path, monkeypatch, capsys):
    # a worker that died mid-case broke the pool: run_suite raised
    # BrokenProcessPool, and the CLI printed a traceback
    from qrucible import harness

    real = harness.verify

    def verify(case, *args):
        if case.name == "killed":
            os._exit(1)
        return real(case, *args)

    monkeypatch.setattr(harness, "verify", verify)
    names = ["before", "killed", "after-1", "after-2"]
    suite = tmp_path / "pool.qid"
    suite.write_text("".join(f'identity "{name}" {{ lhs = qp(q; q; inf); rhs = qp(q; q; inf); D = 1; order = 8; }}\n'
                             for name in names))
    ended = "the worker process ended before the case finished"
    code, reports = run_suite(files=[suite], jobs=2)
    assert code == 0 and [r.name for r in reports] == names
    assert reports[1].status == "SKIP" and reports[1].skip_reason == ended
    assert all(r.status == "PASS" or (r.status == "SKIP" and r.skip_reason == ended) for r in reports)
    assert cli_main(["verify", "--suite", str(suite), "--jobs", "2", "--strict"]) == 1
    out = capsys.readouterr()
    assert f"SKIP killed  ({ended}, 0 ms)" in out.out.splitlines() and "Traceback" not in out.err
