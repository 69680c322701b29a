"""JSON documents for algebras, degree-0 choices, and prolongation runs.

Algebra files list structure constants on both orientations of every
basis pair; the parser treats a pair whose two orientations disagree
as an antisymmetry violation to report, not as a malformed document,
so that any single corrupted constant in a well-formed file surfaces
through validation rather than a parse failure. Genuinely malformed
input (bad syntax, unknown labels, non-negative degrees, floating
point numbers, integers of more than 4300 digits) raises
AlgebraInputError. The digit cap is the package's own, equal to
CPython's default int_max_str_digits: longer integers are rejected
even where the interpreter is configured to convert them. The
emitters hold to the same cap, so every document they write parses
back: a rational with a longer numerator or denominator raises
OutputBudgetError.

A homogeneous map is written one way everywhere: an object keyed by
source degree, each value the matrix of one block. The emitters put the
`Matrix` blocks themselves in the document (`_map_doc`), and the writer
renders each one straight from its sparse rows, so no per-cell list is
built; `generator_doc` is the plain-data form of the same object, lists
of rows, as `parse_result` returns it. One parser reads a map back
(`_parse_maps`), checking every block's shape against (source, target,
degree); it reads the g^0 generators against m and each level basis of
a result against the tower space below it.

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
from numbers import Rational
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence

from ._record import record
from .exact_linear import NO_TERMS, Matrix
from .graded import GradedSpace, HomogeneousMap
from .lie import G0Spec, GradedLieAlgebra, validate

if TYPE_CHECKING:
    from .prolong import ProlongationResult


class AlgebraInputError(Exception):
    """Malformed document: syntax, schema, or unknown references."""


class OutputBudgetError(Exception):
    """A result holds a number too long for a document to carry."""


# CPython's default int_max_str_digits, applied whatever the
# interpreter's own setting is
_MAX_DIGITS = 4300
_DIGIT_BOUND = 10 ** _MAX_DIGITS  # the least int of more than _MAX_DIGITS digits


def _check_digits(digits: str, where: str) -> None:
    if len(digits) - digits.startswith("-") > _MAX_DIGITS:
        raise AlgebraInputError(f"{where}: more than {_MAX_DIGITS} digits")


def _as_int(obj: Any, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise AlgebraInputError(f"{where}: expected an integer, got {obj!r}")
    return obj


def parse_rational(obj: Any, where: str) -> Fraction:
    """int, "num/den" string, or {"num": .., "den": ..}; floats rejected."""
    if isinstance(obj, bool):
        raise AlgebraInputError(f"{where}: expected a rational, got {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, float):
        raise AlgebraInputError(f"{where}: floating point is not accepted, use num/den")
    if isinstance(obj, str):
        if not re.fullmatch(r"-?\d+(/\d+)?", obj):
            raise AlgebraInputError(f"{where}: bad rational string {obj!r}")
        for digits in obj.split("/"):
            _check_digits(digits, where)
        try:
            return Fraction(obj)
        except ZeroDivisionError as exc:
            raise AlgebraInputError(f"{where}: zero denominator in {obj!r}") from exc
    if isinstance(obj, dict):
        extra = set(obj) - {"num", "den"}
        if extra:
            raise AlgebraInputError(f"{where}: unexpected keys {sorted(extra)}")
        num = _as_int(obj.get("num", None), f"{where}.num")
        den = _as_int(obj.get("den", 1), f"{where}.den")
        if den == 0:
            raise AlgebraInputError(f"{where}: zero denominator")
        return Fraction(num, den)
    raise AlgebraInputError(f"{where}: expected a rational, got {type(obj).__name__}")


def _within_cap(q: Rational) -> Rational:
    """q, a Fraction or an int, if a document can carry it."""
    if abs(q.numerator) >= _DIGIT_BOUND or q.denominator >= _DIGIT_BOUND:
        raise OutputBudgetError(f"a coefficient of the result has more than {_MAX_DIGITS} digits")
    return q


def emit_rational(q: Fraction) -> Any:
    q = _within_cap(q)
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _parse_int(digits: str) -> int:
    _check_digits(digits, "integer literal")
    return int(digits)


def _load_json(text: str) -> Any:
    try:
        return json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise AlgebraInputError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


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
    scalars. A list of scalars is written in one join, and a Matrix as
    the list of its rows of emitted rationals.
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
    if type(obj) is Matrix:
        out.append(_matrix_text(obj, nl))
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


def _matrix_text(m: Matrix, nl: str) -> str:
    """What _write makes of _emit_matrix(m), one string per row. The zero

    rows, nearly all rows of a level basis, share one string.
    """
    inner = nl + "  "
    zeros = ["0"] * m.cols

    def line(cells: list[str]) -> str:
        return "[" + inner + "  " + ("," + inner + "  ").join(cells) + inner + "]" if cells else "[]"

    def cells_of(row: dict[int, Fraction]) -> list[str]:
        cells = zeros.copy()
        for j, q in row.items():
            cell = emit_rational(q)
            cells[j] = _LEAVES[type(cell)](cell)
        return cells

    blank = line(zeros)
    rows = [line(cells_of(row)) if row else blank for row in m.sparse]
    return "[" + inner + ("," + inner).join(rows) + nl + "]" if rows else "[]"


def _parse_matrix(obj: Any, rows: int, cols: int, where: str) -> Matrix:
    if not isinstance(obj, list) or len(obj) != rows \
            or any(not isinstance(r, list) or len(r) != cols for r in obj):
        raise AlgebraInputError(f"{where}: expected a {rows}x{cols} matrix")
    sparse = []
    for i, row in enumerate(obj):
        terms = {}
        for j, e in enumerate(row):
            if type(e) is int and not e:  # the literal 0, nearly every cell of a level basis
                continue
            q = parse_rational(e, f"{where}[{i}][{j}]")
            if q:
                terms[j] = q
        sparse.append(terms or NO_TERMS)
    return Matrix(tuple(sparse), cols)


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
        raise AlgebraInputError("degrees: expected a non-empty object")
    by_degree: dict[int, list[str]] = {}
    seen: set[str] = set()
    for key, labels in obj.items():
        try:
            d = int(key)
        except ValueError as exc:
            raise AlgebraInputError(f"degrees: bad degree key {key!r}") from exc
        if d >= 0:
            raise AlgebraInputError(f"degrees: degree {d} is not negative")
        if not isinstance(labels, list) or not labels:
            raise AlgebraInputError(f"degrees[{key}]: expected a non-empty list of labels")
        for lbl in labels:
            if not isinstance(lbl, str) or not lbl:
                raise AlgebraInputError(f"degrees[{key}]: bad label {lbl!r}")
            if lbl in seen:
                raise AlgebraInputError(f"degrees: duplicate label {lbl!r}")
            seen.add(lbl)
        by_degree[d] = list(labels)
    return GradedSpace.make(by_degree)


def parse_algebra(text: str) -> LoadedAlgebra:
    """Read an algebra document; structural problems raise

    AlgebraInputError, mathematical ones land in violations.
    """
    return _read_algebra(_load_json(text))


def _read_algebra(doc: Any) -> LoadedAlgebra:
    if not isinstance(doc, dict):
        raise AlgebraInputError("top level: expected an object")
    extra = set(doc) - {"name", "degrees", "brackets"}
    if extra:
        raise AlgebraInputError(f"top level: unexpected keys {sorted(extra)}")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise AlgebraInputError("name: expected a string")
    space = _parse_degrees(doc.get("degrees"))

    entries = doc.get("brackets", [])
    if not isinstance(entries, list):
        raise AlgebraInputError("brackets: expected a list")
    known = {space.label_of_index(i) for i in range(space.total_dim)}
    seen: set[tuple[str, str]] = set()
    # the pair in basis order -> (index of its first entry, value in that order)
    table: dict[tuple[str, str], tuple[int, dict[str, Fraction]]] = {}
    flagged: dict[int, str] = {}  # entry index -> its antisymmetry violation
    for idx, entry in enumerate(entries):
        where = f"brackets[{idx}]"
        if not isinstance(entry, dict) or set(entry) != {"left", "right", "value"}:
            raise AlgebraInputError(f"{where}: expected keys left, right, value")
        left, right = entry["left"], entry["right"]
        for lbl in (left, right):
            if not isinstance(lbl, str) or lbl not in known:
                raise AlgebraInputError(f"{where}: unknown basis label {lbl!r}")
        if not isinstance(entry["value"], list):
            raise AlgebraInputError(f"{where}.value: expected a list")
        value: dict[str, Fraction] = {}
        for t, term in enumerate(entry["value"]):
            tw = f"{where}.value[{t}]"
            if not isinstance(term, dict) or set(term) - {"basis", "num", "den"}:
                raise AlgebraInputError(f"{tw}: expected keys basis, num, den")
            basis = term.get("basis")
            if not isinstance(basis, str) or basis not in known:
                raise AlgebraInputError(f"{tw}: unknown basis label {basis!r}")
            if basis in value:
                raise AlgebraInputError(f"{tw}: repeated basis label {basis!r}")
            value[basis] = parse_rational({k: v for k, v in term.items() if k != "basis"}, tw)
        value = {b: q for b, q in value.items() if q != 0}
        if (left, right) in seen:
            raise AlgebraInputError(f"{where}: duplicate entry for ({left}, {right})")
        seen.add((left, right))
        if left == right:
            if value:
                flagged[idx] = f"antisymmetry fails on ({left}, {right})"
            continue
        if space.index_of_label(left) < space.index_of_label(right):
            pair, oriented = (left, right), value
        else:
            pair, oriented = (right, left), {b: -q for b, q in value.items()}
        first, agreed = table.setdefault(pair, (idx, oriented))
        if agreed != oriented:
            # the first entry is this one's mirror, and is the one named
            flagged[first] = f"antisymmetry fails on ({right}, {left})"

    algebra = GradedLieAlgebra.from_bracket_dict(
        space, {pair: value for pair, (_, value) in table.items()})
    violations = [flagged[i] for i in sorted(flagged)] + validate(algebra)
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
                      "num": _within_cap(e).numerator, "den": e.denominator}
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


def _parse_maps(obj: Any, source: GradedSpace, target: GradedSpace, degree: int,
                where: str) -> list[HomogeneousMap]:
    """The one reader of map documents: a list of maps in Hom^degree(source,

    target), each an object keyed by source degree as generator_doc
    writes it, each block checked against its shape. Absent blocks are
    zero.
    """
    if not isinstance(obj, list):
        raise AlgebraInputError(f"{where}: expected a list")
    maps = []
    for i, gen in enumerate(obj):
        here = f"{where}[{i}]"
        if not isinstance(gen, dict):
            raise AlgebraInputError(f"{here}: expected an object keyed by degree")
        blocks = {}
        for key, rows in gen.items():
            try:
                d = int(key)
            except ValueError as exc:
                raise AlgebraInputError(f"{here}: bad degree key {key!r}") from exc
            shape = (target.dim(d + degree), source.dim(d))
            if 0 in shape:
                raise AlgebraInputError(f"{here}: no component of degree {d}")
            blocks[d] = _parse_matrix(rows, *shape, f"{here}[{key}]")
        maps.append(HomogeneousMap.make(source, target, degree, blocks))
    return maps


def parse_g0(obj: Any, algebra: GradedLieAlgebra) -> G0Spec:
    """Degree-0 document: {"preset": .., "form": ..} or {"generators": [..]};

    an empty generator list, as emit_g0_generators([]) writes it, is the
    zero g^0.
    """
    if isinstance(obj, str):
        obj = _load_json(obj)
    if not isinstance(obj, dict):
        raise AlgebraInputError("g0 document: expected an object")
    space = algebra.space
    if "preset" in obj:
        extra = set(obj) - {"preset", "form"}
        if extra:
            raise AlgebraInputError(f"g0 document: unexpected keys {sorted(extra)}")
        preset = obj["preset"]
        if not isinstance(preset, str):
            raise AlgebraInputError("g0 preset: expected a string")
        form = None
        if "form" in obj:
            n1 = space.dim(-1)
            form = _parse_matrix(obj["form"], n1, n1, "g0 form")
        try:
            return G0Spec(preset, form=form)
        except ValueError as exc:
            raise AlgebraInputError(str(exc)) from exc
    if set(obj) != {"generators"}:
        raise AlgebraInputError("g0 document: expected either a preset or generators")
    maps = _parse_maps(obj["generators"], space, space, 0, "g0 generators")
    try:
        return G0Spec(generators=tuple(maps)) if maps else G0Spec("zero")
    except ValueError as exc:
        raise AlgebraInputError(str(exc)) from exc


def emit_g0_generators(maps: Sequence[HomogeneousMap]) -> str:
    return _dumps(_generators_doc(maps))


def _map_doc(g: HomogeneousMap) -> dict[str, Matrix]:
    """The nonempty blocks of a homogeneous map, keyed by source degree."""
    blocks = ((str(d), g.block(d)) for d in g.source.degrees)
    return {d: block for d, block in blocks if block.rows and block.cols}


def generator_doc(g: HomogeneousMap) -> dict[str, list]:
    """_map_doc(g) in plain data: each block a list of rows of emitted rationals."""
    return {d: _emit_matrix(block) for d, block in _map_doc(g).items()}


def _generators_doc(maps: Sequence[HomogeneousMap], map_doc=_map_doc) -> dict:
    return {"generators": [map_doc(g) for g in maps]}


def _level_doc(s: int, basis: Sequence[HomogeneousMap], map_doc=_map_doc) -> dict:
    return {"degree": s, "dim": len(basis), "basis": [map_doc(a) for a in basis]}


def result_document(result: ProlongationResult,
                    base_dim: Optional[int] = None) -> dict:
    """A prolongation run as a document for _dumps, its maps as Matrix blocks."""
    from .prolong import order_and_bound

    if base_dim is None:
        base_dim = result.negative.space.total_dim
    doc = {
        "algebra": _algebra_doc(result.negative, ""),
        "g0": _generators_doc(result.g0),
        "status": {
            "kind": result.status.kind,
            "order": result.status.order,
            "max_degree": result.status.max_degree,
        },
        "dim_g0": len(result.g0),
        "dims": list(result.dims),
        "levels": [_level_doc(s, level.basis) for s, level in enumerate(result.levels, start=1)],
        "base_dim": base_dim,
    }
    if result.status.kind == "finite":
        doc["bound"] = _within_cap(order_and_bound(result, base_dim)[1])
    return doc


def emit_result(result: ProlongationResult, base_dim: Optional[int] = None) -> str:
    return _dumps(result_document(result, base_dim))


def parse_result(text: str) -> dict:
    """Validate an emitted prolongation document; returns the canonical

    plain-data form, so emit_result_document(parse_result(s)) == s for
    any s this module emitted. The g^0 generators and every level basis
    are read by _parse_maps, level s against the tower space m + g^0 +
    ... + g^(s-1) of the document's own counts, and re-emitted; dim_g0,
    dims, the level degrees and dims, and the bound must agree.
    """
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise AlgebraInputError("top level: expected an object")
    required = {"algebra", "g0", "status", "dim_g0", "dims", "levels", "base_dim"}
    if set(doc) - (required | {"bound"}) or required - set(doc):
        raise AlgebraInputError(f"top level: expected keys {sorted(required)} and optional bound")
    loaded = _read_algebra(doc["algebra"])
    if loaded.violations:
        raise AlgebraInputError(f"algebra part is invalid: {loaded.violations[0]}")
    space = loaded.algebra.space
    if not isinstance(doc["g0"], dict) or set(doc["g0"]) != {"generators"}:
        raise AlgebraInputError("g0: expected keys generators")
    g0 = _parse_maps(doc["g0"]["generators"], space, space, 0, "g0 generators")
    status = doc["status"]
    if not isinstance(status, dict) or set(status) != {"kind", "order", "max_degree"}:
        raise AlgebraInputError("status: expected keys kind, order, max_degree")
    kind, order = status["kind"], status["order"]
    if kind not in ("finite", "truncated"):
        raise AlgebraInputError(f"status.kind: unexpected value {kind!r}")
    if (kind == "finite") != (order is not None):
        raise AlgebraInputError("status.order: expected exactly on finite documents")
    if order is not None:
        _as_int(order, "status.order")
    _as_int(status["max_degree"], "status.max_degree")
    dim_g0 = _as_int(doc["dim_g0"], "dim_g0")
    if dim_g0 != len(g0):
        raise AlgebraInputError(f"dim_g0: {dim_g0}, but {len(g0)} generators")
    base_dim = _as_int(doc["base_dim"], "base_dim")
    if not isinstance(doc["dims"], list):
        raise AlgebraInputError("dims: expected a list")
    dims = [_as_int(d, "dims entry") for d in doc["dims"]]
    if not isinstance(doc["levels"], list):
        raise AlgebraInputError("levels: expected a list")
    tower = {d: space.dim(d) for d in space.degrees}
    tower[0] = dim_g0
    levels = []
    for s, level in enumerate(doc["levels"], start=1):
        where = f"levels[{s - 1}]"
        if not isinstance(level, dict) or set(level) != {"degree", "dim", "basis"}:
            raise AlgebraInputError(f"{where}: expected keys degree, dim, basis")
        if _as_int(level["degree"], f"{where}.degree") != s:
            raise AlgebraInputError(f"{where}.degree: expected {s}")
        dim = _as_int(level["dim"], f"{where}.dim")
        basis = _parse_maps(level["basis"], space, GradedSpace.from_dims(tower), s,
                            f"{where}.basis")
        if len(basis) != dim:
            raise AlgebraInputError(f"{where}.basis: expected {dim} entries")
        levels.append(_level_doc(s, basis, generator_doc))
        tower[s] = dim
    if dims != [level["dim"] for level in levels]:
        raise AlgebraInputError(f"dims: {dims} differ from the level dims")
    if ("bound" in doc) != (kind == "finite"):
        raise AlgebraInputError("bound: expected exactly on finite documents")
    if "bound" in doc:
        bound = base_dim + dim_g0 + sum(dims[:order])
        if _as_int(doc["bound"], "bound") != bound:
            # base_dim may have _MAX_DIGITS digits, and the bound one more
            shown = bound if abs(bound) < _DIGIT_BOUND else f"more than {_MAX_DIGITS} digits"
            raise AlgebraInputError(
                f"bound: expected base_dim + dim_g0 + sum(dims[:order]) = {shown}")
    return {**doc, "g0": _generators_doc(g0, generator_doc), "levels": levels}


def emit_result_document(doc: Mapping[str, Any]) -> str:
    return _dumps(dict(doc))
