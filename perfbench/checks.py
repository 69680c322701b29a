"""Output checks against closed forms, never against frozen engine output.

Each check takes a command's exit code and standard output and returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import re
from math import comb
from typing import Callable, Optional

from tanaka.jsonio import (
    AlgebraInputError,
    emit_g0_generators,
    emit_result_document,
    parse_algebra,
    parse_g0,
    parse_result,
)

Check = Callable[[int, str], list]


def heisenberg_dim(n: int, k: int) -> int:
    """dim g^k of heisenberg(2n+1) with der0: monomials of weighted degree

    k+2 in 2n weight-1 variables and one weight-2 variable.
    """
    d = k + 2
    return sum(comb(d - 2 * j + 2 * n - 1, 2 * n - 1) for j in range(d // 2 + 1))


def abelian_gl_dim(n: int, k: int) -> int:
    """dim g^k of abelian(n) with gl: n * C(n+k, k+1)."""
    return n * comb(n + k, k + 1)


def _exit_ok(code: int) -> list:
    return [] if code == 0 else [f"exit code {code}"]


def g0_generators(algebra_doc: str, count: int) -> Check:
    """der0 --format json: `count` generators that round-trip byte-identically."""
    def check(code: int, out: str) -> list:
        problems = _exit_ok(code)
        try:
            spec = parse_g0(out, parse_algebra(algebra_doc).algebra)
        except AlgebraInputError as exc:
            return problems + [f"unparsable generators document: {exc}"]
        if emit_g0_generators(spec.generators) != out:
            problems.append("generators document does not round-trip byte-identically")
        if len(spec.generators) != count:
            problems.append(f"dim der0 {len(spec.generators)}, expected {count}")
        return problems
    return check


def prolong_result(dim_g0: int, dims: list, order: Optional[int] = None,
                   bound: Optional[int] = None) -> Check:
    """prolong --format json: round trip, then dims, order and bound.

    dims lists the computed levels g^1, g^2, ...; order None means the
    run must truncate at len(dims).
    """
    def check(code: int, out: str) -> list:
        problems = _exit_ok(code)
        try:
            doc = parse_result(out)
        except AlgebraInputError as exc:
            return problems + [f"unparsable result document: {exc}"]
        if emit_result_document(doc) != out:
            problems.append("result document does not round-trip byte-identically")
        status = {"kind": "truncated" if order is None else "finite",
                  "order": order, "max_degree": doc["status"]["max_degree"]}
        got = {"status": doc["status"], "dim_g0": doc["dim_g0"],
               "dims": doc["dims"], "bound": doc.get("bound")}
        want = {"status": status, "dim_g0": dim_g0, "dims": dims, "bound": bound}
        for key in want:
            if got[key] != want[key]:
                problems.append(f"{key} {got[key]}, expected {want[key]}")
        return problems
    return check


def tower_dims(dims: list, bound: Optional[int]) -> Check:
    """tower text table: the g^n column and the bound line."""
    def check(code: int, out: str) -> list:
        problems = _exit_ok(code)
        lines = out.splitlines()
        rows = [line.split() for line in lines[1:] if line[:1].isdigit()]
        got = [int(row[1]) for row in rows]
        if got != dims:
            problems.append(f"g^n column {got}, expected {dims}")
        last = f"dim bound = {bound}" if bound is not None else f"truncated at {len(dims)}"
        if lines[-1:] != [last]:
            problems.append(f"last line is not {last!r}")
        return problems
    return check


def torsion_passes(code: int, out: str) -> list:
    """torsion text report: both kernel identities hold."""
    problems = _exit_ok(code)
    verdicts = [line for line in out.splitlines() if ": " in line and
                line.rsplit(": ", 1)[1] in ("PASS", "FAIL")]
    if len(verdicts) != 2 or any(v.endswith("FAIL") for v in verdicts):
        problems.append(f"kernel identities not both PASS: {verdicts}")
    return problems


def same_as(reference: str, check: Check) -> Check:
    """Output equal to the reference text, plus the given closed-form check."""
    def combined(code: int, out: str) -> list:
        problems = check(code, out)
        if out != reference:
            problems.append("output differs from the catalog preset's")
        return problems
    return combined


def selftest_passed(cases: int) -> Check:
    """selftest summary: the filtered suite ran `cases` cases, and no suite,

    whatever the size of the catalog, reports a failure.
    """
    pattern = re.compile(rf"filtered: {cases} cases, \d+ checks, 0 failures\n"
                         r"catalog: \d+ cases, \d+ checks, 0 failures\n"
                         r"all suites passed\n")

    def check(code: int, out: str) -> list:
        problems = _exit_ok(code)
        if not pattern.fullmatch(out):
            problems.append(f"unexpected selftest summary {out!r}")
        return problems
    return check


def check_valid(code: int, out: str) -> list:
    """check --format json: a valid, fundamental algebra."""
    problems = _exit_ok(code)
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return problems + ["check output is not JSON"]
    if not (doc.get("valid") and doc.get("fundamental")):
        problems.append(f"not valid and fundamental: {doc.get('violations')}")
    return problems
