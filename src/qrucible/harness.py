"""Identity registry, suite files, the verification runner and its JSON
reports.

Suite files declare one identity per block:

    identity "rogers-ramanujan-1" {
      lhs = ...;
      rhs = ...;
      D = 1;
      order = 60;
      tags = ["kanade-russell"];
      ref = "Rogers 1894 / Ramanujan";
    }

`order` is in scaled units (multiples of 1/D). A case loaded from a suite
carries the ASTs its canonical side texts were printed from, so verifying
it, here or in a pool worker, parses nothing; a case built by hand or by
`dataclasses.replace` parses its texts on first use.

Verification elaborates both sides and compares coefficients exactly.
Negative exponents genuinely cost precision, so before anything is built
a precision plan (`dsl.plan_loss`) reads off each side's AST how many
orders its elaboration will lose; where one loses, the working order
starts that far, plus a pad of 4, above the requested one. Where a side
still returns less proven truncation than requested (a node the plan
cannot see through), the context is escalated and the case re-run, so a
PASS always proves at least the requested order.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import dsl
from .cyclotomic import render
from .errors import ParseError, QrucibleError, SuiteError
from .series import SeriesContext, first_mismatch

_MAX_ESCALATIONS = 6
# The largest working order (scaled units) a case is elaborated at. It lies
# far above every shipped and deep run (600 at most) and stops an absurd
# order before a window that long is listed; it is not a time budget.
MAX_ORDER = 10**5


@dataclass(frozen=True)
class IdentityCase:
    name: str
    lhs_text: str
    rhs_text: str
    denom: int
    order: int  # scaled units: coefficients proven for exponents < order/denom
    tags: tuple
    ref: str
    source: str = "<memory>"

    def lhs(self):
        return self._side("_lhs", self.lhs_text)

    def rhs(self):
        return self._side("_rhs", self.rhs_text)

    def _side(self, key: str, text: str):
        """A side's AST, kept in the instance dict outside the fields, so
        equality, hash, repr and dataclasses.replace ignore it and pickling
        ships it: `parse_suite` stores the tree it printed the text from,
        and any other case parses its text on first use."""
        expr = self.__dict__.get(key)
        if expr is None:
            expr = self.__dict__[key] = dsl.parse(text)
        return expr

    def matches(self, pattern: str) -> bool:
        from fnmatch import fnmatchcase

        if fnmatchcase(self.name, pattern):
            return True
        return any(fnmatchcase(t, pattern) for t in self.tags)


@dataclass(frozen=True)
class Mismatch:
    exponent: Fraction
    lhs: str
    rhs: str


@dataclass
class VerifyReport:
    name: str
    status: str  # PASS | FAIL | SKIP
    proven_order: int  # scaled units
    denom: int
    mismatch: Optional[Mismatch]
    elapsed_ms: float
    ref: str
    skip_reason: Optional[str] = None


class Registry:
    """Ordered identity list; selection is by glob on name or tags."""

    def __init__(self, cases: Sequence[IdentityCase]):
        self.cases = list(cases)
        seen = {}
        for c in self.cases:
            if c.name in seen:
                raise ValueError(f"duplicate identity name {c.name!r}")
            seen[c.name] = c

    def __len__(self) -> int:
        return len(self.cases)

    def __iter__(self):
        return iter(self.cases)

    def get(self, name: str) -> IdentityCase:
        for c in self.cases:
            if c.name == name:
                return c
        raise KeyError(name)

    def select(self, pattern: Optional[str]) -> list:
        if not pattern:
            return list(self.cases)
        return [c for c in self.cases if c.matches(pattern)]

    def group(self, tag: str) -> list:
        return [c for c in self.cases if tag in c.tags]


# -- suite files ---------------------------------------------------------


def parse_suite(text: str, source: str = "<string>") -> list:
    """Parse a suite file into identity cases."""
    toks = dsl.tokenize(text)
    p = dsl.Parser(toks)
    cases = []
    while p.peek().kind != "EOF":
        t = p.next()
        if t.kind != "IDENT" or t.value != "identity":
            raise ParseError("expected 'identity'", t.line, t.col)
        t = p.next()
        if t.kind != "STR":
            raise ParseError("expected a quoted identity name", t.line, t.col)
        name, at = t.value, (t.line, t.col)
        p.expect("{")
        fields = {}
        while not p.at("}"):
            key_tok = p.next()
            if key_tok.kind != "IDENT":
                raise ParseError("expected a field name", key_tok.line, key_tok.col)
            key = key_tok.value
            if key in fields:
                raise ParseError(f"field {key!r} given twice", key_tok.line, key_tok.col)
            p.expect("=")
            if key in ("lhs", "rhs"):
                fields[key] = p.parse_expr()
            elif key in ("D", "order"):
                t = p.next()
                if t.kind != "NUM":
                    raise ParseError(f"{key} must be an integer", t.line, t.col)
                if t.value < 1:
                    raise ParseError(f"{key} must be at least 1", t.line, t.col)
                fields[key] = t.value
            elif key == "tags":
                p.expect("[")
                tags = []
                if not p.at("]"):
                    while True:
                        t = p.next()
                        if t.kind != "STR":
                            raise ParseError("tags must be strings", t.line, t.col)
                        tags.append(t.value)
                        if not p.eat(","):
                            break
                p.expect("]")
                fields["tags"] = tuple(tags)
            elif key == "ref":
                t = p.next()
                if t.kind != "STR":
                    raise ParseError("ref must be a string", t.line, t.col)
                fields["ref"] = t.value
            else:
                raise ParseError(f"unknown field {key!r}", key_tok.line, key_tok.col)
            p.expect(";")
        p.expect("}")
        for req in ("lhs", "rhs", "D", "order"):
            if req not in fields:
                raise ParseError(f"identity {name!r} missing field {req!r}", *at)
        case = IdentityCase(
            name=name,
            lhs_text=dsl.unparse(fields["lhs"]),
            rhs_text=dsl.unparse(fields["rhs"]),
            denom=fields["D"],
            order=fields["order"],
            tags=fields.get("tags", ()),
            ref=fields.get("ref", ""),
            source=source,
        )
        case.__dict__.update(_lhs=fields["lhs"], _rhs=fields["rhs"])
        cases.append(case)
    return cases


def default_suite_dir() -> Path:
    env = os.environ.get("QRUCIBLE_SUITE_DIR")
    if env:
        return Path(env)
    return Path(__file__).parent / "suites"


def load_registry(files: Optional[Sequence] = None) -> Registry:
    """Cases of the given suite files, or of the default suite directory.

    A file that cannot be read or does not parse, or that repeats an
    identity name, raises `SuiteError` naming the file.
    """
    if files:
        paths = [Path(f) for f in files]
    else:
        paths = sorted(default_suite_dir().glob("*.qid"))
    cases = []
    first_seen = {}
    for path in paths:
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise SuiteError(f"cannot read suite {path}: {reason}") from exc
        try:
            parsed = parse_suite(text, str(path))
        except ParseError as exc:
            raise SuiteError(f"{path}: {exc}") from exc
        for case in parsed:
            if case.name in first_seen:
                raise SuiteError(
                    f"{path}: duplicate identity name {case.name!r}"
                    f" (first in {first_seen[case.name]})"
                )
            first_seen[case.name] = path
        cases.extend(parsed)
    return Registry(cases)


# -- verification --------------------------------------------------------


def verify(
    case: IdentityCase,
    order: Optional[int] = None,
    denom: Optional[int] = None,
) -> VerifyReport:
    """Compare both sides exactly up to the case order (zero tolerance).

    The first working order is the scaled target plus the planned pad:
    L + 4 where the plan says a side loses L > 0 orders, 0 where neither
    loses. A round whose sides still fall short of the target escalates
    by the shortfall plus 4 and re-runs, at most _MAX_ESCALATIONS rounds.

    Evaluator errors become a SKIP carrying the reason; the CLI's strict
    mode turns those into failures. So does a working order above
    MAX_ORDER, the planned pad included, before elaboration.
    """
    t0 = time.perf_counter()
    eff_denom = case.denom if denom is None else math.lcm(case.denom, denom)
    factor = eff_denom // case.denom
    target = (case.order if order is None else order) * factor

    def done(status, proven, mm=None, reason=None):
        ms = (time.perf_counter() - t0) * 1000.0
        return VerifyReport(case.name, status, proven, eff_denom, mm, ms, case.ref, reason)

    try:
        lhs_expr = case.lhs()
        rhs_expr = case.rhs()
    except QrucibleError as exc:
        return done("SKIP", 0, reason=f"parse: {exc}")

    at_target = SeriesContext(eff_denom, target)
    loss = max(dsl.plan_loss(lhs_expr, at_target), dsl.plan_loss(rhs_expr, at_target))
    pad = loss + 4 if loss else 0
    for _ in range(_MAX_ESCALATIONS):
        if target + pad > MAX_ORDER:
            reason = f"working order {target + pad} exceeds the limit {MAX_ORDER} (scaled units)"
            return done("SKIP", 0, reason=reason)
        ctx = SeriesContext(eff_denom, target + pad)
        try:
            left = dsl.elaborate(lhs_expr, ctx)
            right = dsl.elaborate(rhs_expr, ctx)
        except QrucibleError as exc:
            return done("SKIP", 0, reason=str(exc))
        avail = min(left.trunc, right.trunc)
        if avail >= target:
            mm = first_mismatch(left, right, avail)
            if mm is None:
                return done("PASS", avail)
            e, cl, cr = mm
            if e >= target:
                # disagreement only beyond the requested order
                return done("PASS", e)
            return done(
                "FAIL", e, Mismatch(Fraction(e, eff_denom), render(cl), render(cr))
            )
        pad += (target - avail) + 4
    return done("SKIP", 0, reason=f"escalation failed to reach order {target}")


def _verify_worker(payload):
    return verify(*payload)


def run_suite(
    files: Optional[Sequence] = None,
    pattern: Optional[str] = None,
    order: Optional[int] = None,
    denom: Optional[int] = None,
    jobs: int = 1,
    strict: bool = False,
    registry: Optional[Registry] = None,
):
    """Verify the selected cases; exit code 0 iff everything demanded passed.

    Reports are ordered by case order regardless of completion order. A
    case whose pool worker ended before sending its report (killed, say)
    is a SKIP that says so; the reports already sent are kept.
    """
    reg = registry if registry is not None else load_registry(files)
    cases = reg.select(pattern)
    if jobs > 1 and len(cases) > 1:
        payloads = [(c, order, denom) for c in cases]
        # imported here: a serial run does not load the pool machinery
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        reports = []
        # the pool starts all its workers at the first submit, so no more
        # than there are cases
        with ProcessPoolExecutor(max_workers=min(jobs, len(cases))) as pool:
            futures = [pool.submit(_verify_worker, p) for p in payloads]
            for c, f in zip(cases, futures):
                try:
                    reports.append(f.result())
                except BrokenProcessPool:  # a worker was killed: its case and the unsent ones
                    d = c.denom if denom is None else math.lcm(c.denom, denom)
                    reason = "the worker process ended before the case finished"
                    reports.append(VerifyReport(c.name, "SKIP", 0, d, None, 0.0, c.ref, reason))
        for c, r in zip(cases, reports):
            # each report comes back with its own copies of these strings;
            # sharing the case's makes held reports cost what serial ones do
            r.name, r.ref, r.status = c.name, c.ref, sys.intern(r.status)
    else:
        reports = [verify(c, order, denom) for c in cases]
    bad = any(r.status == "FAIL" for r in reports)
    if strict:
        bad = bad or any(r.status != "PASS" for r in reports)
    return (1 if bad else 0), reports


def reports_to_json(reports: Sequence[VerifyReport]) -> str:
    out = []
    for r in reports:
        item = {
            "name": r.name,
            "status": r.status,
            "provenOrder": r.proven_order,
            "denom": r.denom,
            "elapsedMs": round(r.elapsed_ms, 3),
            "paperRef": r.ref,
        }
        if r.mismatch is not None:
            item["firstMismatch"] = {
                "exponent": str(r.mismatch.exponent),
                "lhs": r.mismatch.lhs,
                "rhs": r.mismatch.rhs,
            }
        if r.skip_reason:
            item["skipReason"] = r.skip_reason
        out.append(item)
    return json.dumps(out, indent=2)
