"""Command-line driver.

Exit codes are a stable contract: 0 success, 1 domain failure (invalid
or non-fundamental algebra, failed identity, unreachable level, failing
self-test, a result number too long to write), 2 input error (unreadable
file, malformed document, unknown preset, out-of-range option).

All numbers are printed exactly: dimensions as integers, rationals as
num/den. The json format of `prolong` round-trips through parse_result
byte-identically.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Callable, Optional, TextIO

from . import catalog, selftest, torsion
from .jsonio import (
    AlgebraInputError,
    LoadedAlgebra,
    OutputBudgetError,
    _within_cap,
    emit_g0_generators,
    emit_result,
    generator_doc,
    parse_algebra,
    parse_g0,
)
from .lie import G0Spec, GradedLieAlgebra, der0_basis, is_fundamental, resolve_g0

if TYPE_CHECKING:
    from .prolong import ProlongationResult


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise AlgebraInputError(f"cannot read {path}: {exc}") from exc


def _load_algebra(args: argparse.Namespace) -> LoadedAlgebra:
    source = args.source
    if source is None:
        raise AlgebraInputError(f"{args.command} needs an algebra (preset:NAME or a path)")
    if source.startswith("preset:"):
        name = source[len("preset:"):]
        try:
            return LoadedAlgebra(name, catalog.make_algebra(name), ())
        except ValueError as exc:
            raise AlgebraInputError(str(exc)) from exc
    loaded = parse_algebra(_read_text(source))
    return loaded if loaded.name else LoadedAlgebra(source, loaded.algebra, loaded.violations)


def _require_valid(loaded: LoadedAlgebra) -> Optional[int]:
    """Gate of der0 and the prolonging commands: an invalid algebra exits 1

    with its violations on stderr; None means proceed.
    """
    if not loaded.violations:
        return None
    for v in loaded.violations:
        print(f"violation: {v}", file=sys.stderr)
    print(f"invalid algebra: {loaded.name}", file=sys.stderr)
    return 1


def _require_usable(loaded: LoadedAlgebra) -> Optional[int]:
    """Shared gate for the prolonging commands: valid, then fundamental;

    None means proceed.
    """
    failed = _require_valid(loaded)
    if failed is None and not is_fundamental(loaded.algebra):
        print(f"not fundamental: {loaded.name}", file=sys.stderr)
        return 1
    return failed


def _resolve_g0(args: argparse.Namespace, alg: GradedLieAlgebra):
    if args.g0.startswith("file:"):
        spec = parse_g0(_read_text(args.g0[len("file:"):]), alg)
    else:
        try:
            spec = G0Spec(args.g0)
        except ValueError as exc:
            raise AlgebraInputError(str(exc)) from exc
    try:
        return resolve_g0(spec, alg)
    except ValueError as exc:
        raise AlgebraInputError(str(exc)) from exc


def _base_dim(args: argparse.Namespace, alg: GradedLieAlgebra) -> int:
    dim_m = alg.space.total_dim
    if args.base_dim is None:
        return dim_m
    if args.base_dim < dim_m:
        raise AlgebraInputError(
            f"--base-dim {args.base_dim} is smaller than dim m = {dim_m}")
    return args.base_dim


def _run_prolong(args: argparse.Namespace, loaded: LoadedAlgebra) -> ProlongationResult:
    # the public name: the function, loaded with its layer on first call
    from . import prolong

    g0 = _resolve_g0(args, loaded.algebra)
    return prolong(loaded.algebra, g0, max_degree=args.max_degree)


def cmd_check(args: argparse.Namespace, out: TextIO) -> int:
    loaded = _load_algebra(args)
    alg = loaded.algebra
    fundamental = not loaded.violations and is_fundamental(alg)
    if args.fmt == "json":
        doc = {
            "name": loaded.name,
            "dim": alg.space.total_dim,
            "valid": not loaded.violations,
            "fundamental": fundamental,
            "violations": list(loaded.violations),
        }
        print(json.dumps(doc, indent=2), file=out)
    else:
        degs = alg.space.degrees
        print(f"{loaded.name}: dim m = {alg.space.total_dim}, "
              f"degrees {degs[0]}..{degs[-1]}", file=out)
        for v in loaded.violations:
            print(f"violation: {v}", file=out)
        if loaded.violations:
            print("invalid", file=out)
        elif not fundamental:
            print("valid", file=out)
            print("not fundamental", file=out)
        else:
            print("valid", file=out)
            print("fundamental", file=out)
    return 0 if fundamental else 1


_SLICE = 1 << 16


def _write_document(text: str, out: TextIO) -> None:
    """Write an emitted document in slices of _SLICE characters.

    A text stream encodes what it is given in one piece, so one write
    of the whole document would hold a second copy of it as bytes. The
    document is rendered before this is called, so an OutputBudgetError
    leaves out empty.
    """
    for start in range(0, len(text), _SLICE):
        out.write(text[start:start + _SLICE])


def cmd_der0(args: argparse.Namespace, out: TextIO) -> int:
    loaded = _load_algebra(args)
    failed = _require_valid(loaded)
    if failed is not None:
        return failed
    basis = der0_basis(loaded.algebra)
    if args.fmt == "json":
        _write_document(emit_g0_generators(basis), out)
        return 0
    docs = [generator_doc(gen) for gen in basis]  # an over-long number fails before any output
    print(f"dim der0 = {len(basis)}", file=out)
    for i, doc in enumerate(docs, start=1):
        print(f"D{i}: " + "; ".join(f"{d}: {rows}" for d, rows in doc.items()), file=out)
    return 0


def _finite_lines(result: ProlongationResult, base_dim: int) -> list[str]:
    from . import order_and_bound

    order, bound = order_and_bound(result, base_dim)
    _within_cap(bound)  # base_dim and every dim are at most the bound
    dims = [len(result.g0)] + [result.dim_g(s) for s in range(1, order + 1)]
    head = f"order {order}"
    if any(dims):
        head += "; dims " + " ".join(f"g{i}={d}" for i, d in enumerate(dims))
    head += f"; bound {bound}"
    terms = " + ".join(str(t) for t in [base_dim] + dims)
    return [head, f"bound = dim(M) + Σ dim(g^i) = {terms} = {bound}"]


def cmd_prolong(args: argparse.Namespace, out: TextIO) -> int:
    loaded = _load_algebra(args)
    failed = _require_usable(loaded)
    if failed is not None:
        return failed
    base_dim = _base_dim(args, loaded.algebra)
    result = _run_prolong(args, loaded)
    if args.fmt == "json":
        _write_document(emit_result(result, base_dim), out)
        return 0
    if result.status.kind == "finite":
        for line in _finite_lines(result, base_dim):
            print(line, file=out)
    else:
        dims = ",".join(str(d) for d in result.dims)
        print(f"truncated at {result.status.max_degree}; dims {dims}", file=out)
    return 0


def cmd_torsion(args: argparse.Namespace, out: TextIO) -> int:
    loaded = _load_algebra(args)
    failed = _require_usable(loaded)
    if failed is not None:
        return failed
    result = _run_prolong(args, loaded)
    n = args.level
    try:
        report = torsion.kernel_reports(result, n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.fmt == "json":
        doc = {
            "level": report.level,
            "dim_tor": report.dim_tor,
            "rank": report.rank,
            "dim_w": report.dim_w,
            "dim_domain": report.dim_domain,
            "dim_g_next": report.dim_g_next,
            "dim_gl_tail": report.dim_gl_tail,
            "gl_kernel_matches": report.gl_kernel_matches,
            "hom_injective": report.hom_injective,
            "messages": list(report.messages),
        }
        print(json.dumps(doc, indent=2), file=out)
        return 0 if report.passed else 1
    s = n + 1
    print(f"dim Tor^{s} = {report.dim_tor}", file=out)
    print(f"rank ∂^{s} = {report.rank}", file=out)
    print(f"dim W^{s} = {report.dim_w}", file=out)
    verdict = "PASS" if report.gl_kernel_matches else "FAIL"
    if n == 0:
        print(f"Ker ∂ = gl_2 + g^1: {verdict}", file=out)
    else:
        print(f"Ker ∂^{s} = gl_{s + 1} + g^{s}: {verdict}", file=out)
        hom = "PASS" if report.hom_injective else "FAIL"
        print(f"∂^{s} injective on Hom(g^i, g^{n}): {hom}", file=out)
    for msg in report.messages:
        print(f"note: {msg}", file=out)
    return 0 if report.passed else 1


def cmd_tower(args: argparse.Namespace, out: TextIO) -> int:
    loaded = _load_algebra(args)
    failed = _require_usable(loaded)
    if failed is not None:
        return failed
    base_dim = _base_dim(args, loaded.algebra)
    result = _run_prolong(args, loaded)
    report = torsion.tower_report(result, base_dim)
    for n in (report.base_dim, report.bound or 0, *(r.dim_total for r in report.rows)):
        _within_cap(n)  # the numbers base_dim enters, before any output
    if args.fmt == "json":
        doc = {
            "base_dim": report.base_dim,
            "kind": report.kind,
            "order": report.order,
            "dim_g0": report.dim_g0,
            "rows": [{
                "n": r.n,
                "dim_g": r.dim_g,
                "dim_structure_group": r.dim_structure_group,
                "dim_group_product": r.dim_group_product,
                "dim_tor": r.dim_tor,
                "rank": r.rank,
                "dim_w": r.dim_w,
                "dim_total": r.dim_total,
            } for r in report.rows],
            "bound": report.bound,
        }
        print(json.dumps(doc, indent=2), file=out)
        return 0
    header = ("n", "g^n", "struct", "product", "Tor", "rank", "W", "total")
    table = [header]
    for r in report.rows:
        row = (r.n, r.dim_g, r.dim_structure_group, r.dim_group_product,
               r.dim_tor, r.rank, r.dim_w, r.dim_total)
        table.append(tuple(str(x) for x in row))
    widths = [max(len(str(row[c])) for row in table) for c in range(len(header))]
    truncated = report.kind == "truncated"
    for i, row in enumerate(table):
        line = "  ".join(str(cell).rjust(w) for cell, w in zip(row, widths))
        if truncated and i == len(table) - 1:
            line += "  truncated"
        print(line, file=out)
    if report.bound is not None:
        print(f"dim bound = {report.bound}", file=out)
    else:
        print(f"truncated at {result.status.max_degree}", file=out)
    return 0


def cmd_selftest(args: argparse.Namespace, out: TextIO) -> int:
    reports = [selftest.run_filtered_suite(args.seed), selftest.run_catalog_suite()]
    for rep in reports:
        print(f"{rep.name}: {rep.cases} cases, {rep.checks} checks, "
              f"{len(rep.failures)} failures", file=out)
    bad = [rep for rep in reports if not rep.passed]
    if bad:
        print(f"first counterexample: {bad[0].failures[0]}", file=out)
        return 1
    print("all suites passed", file=out)
    return 0


COMMANDS: dict[str, Callable[[argparse.Namespace, TextIO], int]] = {
    "check": cmd_check,
    "der0": cmd_der0,
    "prolong": cmd_prolong,
    "torsion": cmd_torsion,
    "tower": cmd_tower,
    "selftest": cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tanaka",
        description="Prolongation, torsion, and filtered-calculus computations "
                    "on graded Lie algebras, in exact rational arithmetic.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("source", nargs="?", default=None,
                        help="algebra: preset:NAME or a JSON file path")
    parser.add_argument("--g0", default="der0",
                        help="degree-0 part: a preset name or file:PATH")
    parser.add_argument("--max-degree", type=int, default=10)
    parser.add_argument("--base-dim", type=int, default=None)
    parser.add_argument("--level", type=int, default=0,
                        help="torsion level n (reports the level n+1 map)")
    parser.add_argument("--format", dest="fmt", choices=("text", "json"),
                        default="text")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.max_degree < 1:
            raise AlgebraInputError("--max-degree must be at least 1")
        if args.level < 0:
            raise AlgebraInputError("--level must be non-negative")
        return COMMANDS[args.command](args, sys.stdout)
    except AlgebraInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OutputBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

if __name__ == "__main__":
    sys.exit(main())
