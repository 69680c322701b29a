"""JSON documents for algebras, degree-0 choices, and prolongation runs.

Algebra files list structure constants on both orientations of every
basis pair; the parser treats a pair whose two orientations disagree
as an antisymmetry violation to report, not as a malformed document,
so that any single corrupted constant in a well-formed file surfaces
through validation rather than a parse failure. Genuinely malformed
input (bad syntax, unknown labels, non-negative degrees, floating
point numbers) raises AlgebraInputError.

All emitters produce one canonical byte form: keys in a fixed order,
degrees ascending, bracket entries sorted by basis-index pair with
the mirrored orientation adjacent, rationals as ints when integral
and "num/den" strings otherwise (never floats). Parsing an emitted
document and re-emitting it reproduces the bytes exactly.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Mapping, Optional, Sequence

from ._record import record
from .exact_linear import Matrix
from .graded import GradedSpace, HomogeneousMap
from .lie import G0Spec, GradedLieAlgebra, validate
from .prolong import ProlongationResult, order_and_bound


class AlgebraInputError(Exception):
    """Malformed document: syntax, schema, or unknown references."""


def _fail(msg: str) -> "AlgebraInputError":
    return AlgebraInputError(msg)


def _as_int(obj: Any, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise _fail(f"{where}: expected an integer, got {obj!r}")
    return obj


def parse_rational(obj: Any, where: str) -> Fraction:
    """int, "num/den" string, or {"num": .., "den": ..}; floats rejected."""
    if isinstance(obj, bool):
        raise _fail(f"{where}: expected a rational, got {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, float):
        raise _fail(f"{where}: floating point is not accepted, use num/den")
    if isinstance(obj, str):
        if not re.fullmatch(r"-?\d+(/\d+)?", obj):
            raise _fail(f"{where}: bad rational string {obj!r}")
        try:
            return Fraction(obj)
        except ZeroDivisionError as exc:
            raise _fail(f"{where}: zero denominator in {obj!r}") from exc
    if isinstance(obj, dict):
        extra = set(obj) - {"num", "den"}
        if extra:
            raise _fail(f"{where}: unexpected keys {sorted(extra)}")
        num = _as_int(obj.get("num", None), f"{where}.num")
        den = _as_int(obj.get("den", 1), f"{where}.den")
        if den == 0:
            raise _fail(f"{where}: zero denominator")
        return Fraction(num, den)
    raise _fail(f"{where}: expected a rational, got {type(obj).__name__}")


def emit_rational(q: Fraction) -> Any:
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _fail(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") \
            from exc


# the scalars of a document, and how json.dumps writes each of them
_LEAVES = {
    str: json.encoder.encode_basestring,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _dumps(obj: Any) -> str:
    """json.dumps(obj, indent=2, ensure_ascii=False) + "\\n", byte for byte,

    for documents of dicts with string keys, lists and the _LEAVES
    scalars. A list of scalars is written in one join.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(obj: Any, nl: str, out: list[str]) -> None:
    """Append obj; nl is the line break and indent of its own nesting."""
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        out.append(leaf(obj))
        return
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        out.append(json.dumps(obj))
        return
    inner = nl + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            out.append((sep if i else inner) + _LEAVES[str](key) + ": ")
            _write(value, inner, out)
        out.append(nl + "}")
    elif set(map(type, obj)) <= _LEAVES.keys():
        out.append("[" + inner + sep.join([_LEAVES[type(x)](x) for x in obj]) + nl + "]")
    else:
        out.append("[")
        for i, value in enumerate(obj):
            out.append(sep if i else inner)
            _write(value, inner, out)
        out.append(nl + "]")


def _parse_matrix(obj: Any, rows: int, cols: int, where: str) -> Matrix:
    if not isinstance(obj, list) or len(obj) != rows \
            or any(not isinstance(r, list) or len(r) != cols for r in obj):
        raise _fail(f"{where}: expected a {rows}x{cols} matrix")
    return Matrix.from_rows(
        [[parse_rational(e, f"{where}[{i}][{j}]") for j, e in enumerate(row)]
         for i, row in enumerate(obj)], cols)


def _emit_matrix(m: Matrix) -> list:
    return [[emit_rational(row[j]) if j in row else 0 for j in range(m.cols)] for row in m.sparse]


@record
class LoadedAlgebra:
    """Parse result: the algebra (when a table could be assembled) and

    the validation violations found along the way.
    """

    name: str
    algebra: Optional[GradedLieAlgebra]
    violations: tuple[str, ...]


def _parse_degrees(obj: Any) -> GradedSpace:
    if not isinstance(obj, dict) or not obj:
        raise _fail("degrees: expected a non-empty object")
    by_degree: dict[int, list[str]] = {}
    seen: set[str] = set()
    for key, labels in obj.items():
        try:
            d = int(key)
        except ValueError as exc:
            raise _fail(f"degrees: bad degree key {key!r}") from exc
        if d >= 0:
            raise _fail(f"degrees: degree {d} is not negative")
        if not isinstance(labels, list) or not labels:
            raise _fail(f"degrees[{key}]: expected a non-empty list of labels")
        for lbl in labels:
            if not isinstance(lbl, str) or not lbl:
                raise _fail(f"degrees[{key}]: bad label {lbl!r}")
            if lbl in seen:
                raise _fail(f"degrees: duplicate label {lbl!r}")
            seen.add(lbl)
        by_degree[d] = list(labels)
    return GradedSpace.make(by_degree)


def parse_algebra(text: str) -> LoadedAlgebra:
    """Read an algebra document; structural problems raise

    AlgebraInputError, mathematical ones land in violations.
    """
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise _fail("top level: expected an object")
    extra = set(doc) - {"name", "degrees", "brackets"}
    if extra:
        raise _fail(f"top level: unexpected keys {sorted(extra)}")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise _fail("name: expected a string")
    space = _parse_degrees(doc.get("degrees"))

    entries = doc.get("brackets", [])
    if not isinstance(entries, list):
        raise _fail("brackets: expected a list")
    known = {space.label_of_index(i) for i in range(space.total_dim)}
    raw: dict[tuple[str, str], dict[str, Fraction]] = {}
    violations: list[str] = []
    for idx, entry in enumerate(entries):
        where = f"brackets[{idx}]"
        if not isinstance(entry, dict) or set(entry) != {"left", "right", "value"}:
            raise _fail(f"{where}: expected keys left, right, value")
        left, right = entry["left"], entry["right"]
        for lbl in (left, right):
            if not isinstance(lbl, str) or lbl not in known:
                raise _fail(f"{where}: unknown basis label {lbl!r}")
        if not isinstance(entry["value"], list):
            raise _fail(f"{where}.value: expected a list")
        value: dict[str, Fraction] = {}
        for t, term in enumerate(entry["value"]):
            tw = f"{where}.value[{t}]"
            if not isinstance(term, dict) or set(term) - {"basis", "num", "den"}:
                raise _fail(f"{tw}: expected keys basis, num, den")
            basis = term.get("basis")
            if not isinstance(basis, str) or basis not in known:
                raise _fail(f"{tw}: unknown basis label {basis!r}")
            if basis in value:
                raise _fail(f"{tw}: repeated basis label {basis!r}")
            num = _as_int(term.get("num"), f"{tw}.num")
            den = _as_int(term.get("den", 1), f"{tw}.den")
            if den == 0:
                raise _fail(f"{tw}: zero denominator")
            value[basis] = Fraction(num, den)
        value = {b: q for b, q in value.items() if q != 0}
        if (left, right) in raw:
            raise _fail(f"{where}: duplicate entry for ({left}, {right})")
        raw[(left, right)] = value

    table: dict[tuple[str, str], dict[str, Fraction]] = {}
    for (left, right), value in raw.items():
        if left == right:
            if value:
                violations.append(f"antisymmetry fails on ({left}, {right})")
            continue
        mirror = raw.get((right, left))
        if mirror is not None:
            negated = {b: -q for b, q in mirror.items()}
            if negated != value:
                if (right, left) not in table and (left, right) not in table:
                    violations.append(f"antisymmetry fails on ({left}, {right})")
        key = (left, right) if space.index_of_label(left) < space.index_of_label(right) \
            else (right, left)
        if key not in table:
            table[key] = value if key == (left, right) \
                else {b: -q for b, q in value.items()}

    algebra = GradedLieAlgebra.from_bracket_dict(space, table)
    violations.extend(validate(algebra))
    return LoadedAlgebra(name, algebra, tuple(violations))


def emit_algebra(alg: GradedLieAlgebra, name: str = "") -> str:
    """Canonical document with both orientations of every nonzero pair."""
    return _dumps(_algebra_doc(alg, name))


def _algebra_doc(alg: GradedLieAlgebra, name: str) -> dict:
    space = alg.space
    degrees = {str(d): list(space.labels(d)) for d in space.degrees}
    brackets = []
    for a in range(space.total_dim):
        for b in range(a + 1, space.total_dim):
            terms = [{"basis": space.label_of_index(i),
                      "num": e.numerator, "den": e.denominator}
                     for i, e in sorted(alg.bracket_row(a, b).items())]
            if not terms:
                continue
            mirrored = [{"basis": t["basis"], "num": -t["num"], "den": t["den"]}
                        for t in terms]
            brackets.append({"left": space.label_of_index(a),
                             "right": space.label_of_index(b), "value": terms})
            brackets.append({"left": space.label_of_index(b),
                             "right": space.label_of_index(a), "value": mirrored})
    return {"name": name, "degrees": degrees, "brackets": brackets}


def parse_g0(obj: Any, algebra: GradedLieAlgebra) -> G0Spec:
    """Degree-0 document: {"preset": .., "form": ..} or {"generators": [..]}."""
    if isinstance(obj, str):
        obj = _load_json(obj)
    if not isinstance(obj, dict):
        raise _fail("g0 document: expected an object")
    space = algebra.space
    if "preset" in obj:
        extra = set(obj) - {"preset", "form"}
        if extra:
            raise _fail(f"g0 document: unexpected keys {sorted(extra)}")
        preset = obj["preset"]
        if not isinstance(preset, str):
            raise _fail("g0 preset: expected a string")
        form = None
        if "form" in obj:
            n1 = space.dim(-1)
            form = _parse_matrix(obj["form"], n1, n1, "g0 form")
        try:
            return G0Spec(preset, form=form)
        except ValueError as exc:
            raise _fail(str(exc)) from exc
    if "generators" not in obj or set(obj) != {"generators"}:
        raise _fail("g0 document: expected either a preset or generators")
    gens = obj["generators"]
    if not isinstance(gens, list):
        raise _fail("g0 generators: expected a list")
    maps = []
    for i, gen in enumerate(gens):
        where = f"g0 generators[{i}]"
        if not isinstance(gen, dict):
            raise _fail(f"{where}: expected an object keyed by degree")
        blocks = {}
        for key, rows in gen.items():
            try:
                d = int(key)
            except ValueError as exc:
                raise _fail(f"{where}: bad degree key {key!r}") from exc
            n = space.dim(d)
            if n == 0:
                raise _fail(f"{where}: no component of degree {d}")
            blocks[d] = _parse_matrix(rows, n, n, f"{where}[{key}]")
        maps.append(HomogeneousMap.make(space, space, 0, blocks))
    try:
        return G0Spec(generators=tuple(maps))
    except ValueError as exc:
        raise _fail(str(exc)) from exc


def emit_g0_generators(maps: Sequence[HomogeneousMap]) -> str:
    return _dumps({"generators": [generator_doc(g) for g in maps]})


def generator_doc(g: HomogeneousMap) -> dict:
    """The nonempty blocks of a homogeneous map, keyed by source degree."""
    doc = {}
    for d in g.source.degrees:
        block = g.block(d)
        if block.rows and block.cols:
            doc[str(d)] = _emit_matrix(block)
    return doc


def _level_doc(result: ProlongationResult, s: int) -> dict:
    level = result.level(s)
    return {"degree": s, "dim": level.dim, "basis": [generator_doc(a) for a in level.basis]}


def result_document(result: ProlongationResult,
                    base_dim: Optional[int] = None) -> dict:
    """Plain-data form of a prolongation run, ready for _dumps."""
    dim_m = result.negative.space.total_dim
    if base_dim is None:
        base_dim = dim_m
    doc = {
        "algebra": _algebra_doc(result.negative, ""),
        "g0": {"generators": [generator_doc(g) for g in result.g0]},
        "status": {
            "kind": result.status.kind,
            "order": result.status.order,
            "max_degree": result.status.max_degree,
        },
        "dim_g0": len(result.g0),
        "dims": list(result.dims),
        "levels": [_level_doc(result, s) for s in range(1, result.depth + 1)],
        "base_dim": base_dim,
    }
    if result.status.kind == "finite":
        doc["bound"] = order_and_bound(result, base_dim)[1]
    return doc


def emit_result(result: ProlongationResult, base_dim: Optional[int] = None) -> str:
    return _dumps(result_document(result, base_dim))


def _check_level_doc(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict) or set(obj) != {"degree", "dim", "basis"}:
        raise _fail(f"{where}: expected keys degree, dim, basis")
    _as_int(obj["degree"], f"{where}.degree")
    _as_int(obj["dim"], f"{where}.dim")
    if not isinstance(obj["basis"], list) or len(obj["basis"]) != obj["dim"]:
        raise _fail(f"{where}.basis: expected {obj['dim']} entries")
    basis = []
    for i, gen in enumerate(obj["basis"]):
        if not isinstance(gen, dict):
            raise _fail(f"{where}.basis[{i}]: expected an object keyed by degree")
        blocks = {}
        for key, rows in gen.items():
            try:
                int(key)
            except ValueError as exc:
                raise _fail(f"{where}.basis[{i}]: bad degree key {key!r}") from exc
            if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
                raise _fail(f"{where}.basis[{i}][{key}]: expected a matrix")
            blocks[key] = [[emit_rational(parse_rational(
                e, f"{where}.basis[{i}][{key}]")) for e in row] for row in rows]
        basis.append(blocks)
    return {"degree": obj["degree"], "dim": obj["dim"], "basis": basis}


def parse_result(text: str) -> dict:
    """Validate an emitted prolongation document; returns the canonical

    plain-data form, so emit_result_document(parse_result(s)) == s for
    any s this module emitted.
    """
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise _fail("top level: expected an object")
    required = {"algebra", "g0", "status", "dim_g0", "dims", "levels", "base_dim"}
    if set(doc) - (required | {"bound"}) or required - set(doc):
        raise _fail(f"top level: expected keys {sorted(required)} and optional bound")
    loaded = parse_algebra(json.dumps(doc["algebra"]))
    if loaded.violations:
        raise _fail(f"algebra part is invalid: {loaded.violations[0]}")
    parse_g0(doc["g0"], loaded.algebra)
    status = doc["status"]
    if not isinstance(status, dict) or set(status) != {"kind", "order", "max_degree"}:
        raise _fail("status: expected keys kind, order, max_degree")
    if status["kind"] not in ("finite", "truncated"):
        raise _fail(f"status.kind: unexpected value {status['kind']!r}")
    if status["order"] is not None:
        _as_int(status["order"], "status.order")
    _as_int(status["max_degree"], "status.max_degree")
    _as_int(doc["dim_g0"], "dim_g0")
    _as_int(doc["base_dim"], "base_dim")
    if "bound" in doc:
        _as_int(doc["bound"], "bound")
    if not isinstance(doc["dims"], list):
        raise _fail("dims: expected a list")
    for d in doc["dims"]:
        _as_int(d, "dims entry")
    if not isinstance(doc["levels"], list):
        raise _fail("levels: expected a list")
    out = dict(doc)
    out["levels"] = [_check_level_doc(lv, f"levels[{i}]")
                     for i, lv in enumerate(doc["levels"])]
    return out


def emit_result_document(doc: Mapping[str, Any]) -> str:
    return _dumps(dict(doc))
