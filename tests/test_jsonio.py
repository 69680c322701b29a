"""Document parsing, canonical emission, and the error taxonomy."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tanaka
from tanaka.catalog import entries, make_algebra
from tanaka.exact_linear import Matrix
from tanaka.jsonio import (
    AlgebraInputError,
    OutputBudgetError,
    _dumps,
    emit_algebra,
    emit_g0_generators,
    emit_rational,
    emit_result,
    emit_result_document,
    generator_doc,
    parse_algebra,
    parse_g0,
    parse_rational,
    parse_result,
)
from tanaka.lie import G0Spec, GradedLieAlgebra, der0_basis, resolve_g0
from tanaka.prolong import prolong
from fractions import Fraction


def _prolonged(name, preset, depth):
    alg = make_algebra(name)
    return prolong(alg, resolve_g0(G0Spec(preset), alg), max_degree=depth)


def test_rational_forms():
    assert parse_rational(3, "x") == Fraction(3)
    assert parse_rational("-5/10", "x") == Fraction(-1, 2)
    assert parse_rational({"num": 2, "den": 4}, "x") == Fraction(1, 2)
    assert parse_rational({"num": 7}, "x") == Fraction(7)
    for bad in (1.5, True, "1.5", "a", "1/-2", "-1/-2", {"num": 1, "den": 0},
                {"num": 1, "extra": 2}, [1]):
        with pytest.raises(AlgebraInputError):
            parse_rational(bad, "x")
    assert emit_rational(Fraction(4, 2)) == 2
    assert emit_rational(Fraction(-1, 3)) == "-1/3"


def test_algebra_round_trip_is_canonical():
    for name in ("abelian2", "heisenberg3", "heisenberg5", "free_235"):
        alg = make_algebra(name)
        text = emit_algebra(alg, name)
        loaded = parse_algebra(text)
        assert loaded.name == name
        assert loaded.violations == ()
        assert loaded.algebra.brackets == alg.brackets
        assert emit_algebra(loaded.algebra, name) == text


def test_emitted_brackets_carry_both_orientations():
    doc = json.loads(emit_algebra(make_algebra("heisenberg3")))
    pairs = [(e["left"], e["right"]) for e in doc["brackets"]]
    assert ("e1", "e2") in pairs and ("e2", "e1") in pairs
    fwd = next(e for e in doc["brackets"] if (e["left"], e["right"]) == ("e1", "e2"))
    rev = next(e for e in doc["brackets"] if (e["left"], e["right"]) == ("e2", "e1"))
    assert fwd["value"] == [{"basis": "e3", "num": 1, "den": 1}]
    assert rev["value"] == [{"basis": "e3", "num": -1, "den": 1}]


def test_single_orientation_input_is_accepted():
    doc = {
        "name": "h",
        "degrees": {"-1": ["e1", "e2"], "-2": ["e3"]},
        "brackets": [{"left": "e2", "right": "e1",
                      "value": [{"basis": "e3", "num": -1, "den": 1}]}],
    }
    loaded = parse_algebra(json.dumps(doc))
    assert loaded.violations == ()
    assert loaded.algebra.brackets == make_algebra("heisenberg3").brackets


def test_mirror_corruption_is_a_violation_not_a_parse_error():
    doc = json.loads(emit_algebra(make_algebra("heisenberg3")))
    doc["brackets"][0]["value"][0]["num"] = 5
    loaded = parse_algebra(json.dumps(doc))
    assert any("antisymmetry" in v for v in loaded.violations)


def test_diagonal_entry_is_a_violation():
    doc = {
        "degrees": {"-1": ["a", "b"]},
        "brackets": [{"left": "a", "right": "a",
                      "value": [{"basis": "b", "num": 1, "den": 1}]}],
    }
    loaded = parse_algebra(json.dumps(doc))
    assert any("antisymmetry" in v for v in loaded.violations)


def test_antisymmetry_violations_follow_the_entry_order():
    """A disagreeing pair is named as its first entry wrote it, at that

    entry's place among the other violations.
    """
    doc = {
        "degrees": {"-1": ["a", "b"], "-2": ["c"]},
        "brackets": [
            {"left": "b", "right": "a", "value": [{"basis": "c", "num": 1}]},
            {"left": "c", "right": "c", "value": [{"basis": "c", "num": 1}]},
            {"left": "a", "right": "b", "value": [{"basis": "c", "num": 1}]},
        ],
    }
    loaded = parse_algebra(json.dumps(doc))
    assert loaded.violations == ("antisymmetry fails on (b, a)", "antisymmetry fails on (c, c)")
    # the first entry's value is kept: [b, a] = c, so [a, b] = -c
    a, b, c = (loaded.algebra.space.index_of_label(x) for x in "abc")
    assert loaded.algebra.bracket_row(a, b) == {c: Fraction(-1)}


def test_grading_and_jacobi_violations_surface():
    bad_grading = {
        "degrees": {"-1": ["a", "b"], "-2": ["c"]},
        "brackets": [{"left": "a", "right": "c",
                      "value": [{"basis": "b", "num": 1, "den": 1}]}],
    }
    loaded = parse_algebra(json.dumps(bad_grading))
    assert loaded.violations


@pytest.mark.parametrize("text, fragment", [
    ("{", "invalid JSON at line"),
    ("[1]", "expected an object"),
    ('{"degrees": {"-1": ["a"]}, "other": 1}', "unexpected keys"),
    ('{"degrees": {}}', "non-empty"),
    ('{"degrees": {"0": ["a"]}}', "not negative"),
    ('{"degrees": {"x": ["a"]}}', "bad degree key"),
    ('{"degrees": {"-1": ["a", "a"]}}', "duplicate label"),
    ('{"degrees": {"-1": ["a"]}, "brackets": 3}', "expected a list"),
    ('{"degrees": {"-1": ["a"]}, "brackets": [{"left": "a"}]}', "expected keys"),
    ('{"degrees": {"-1": ["a"]}, "brackets": '
     '[{"left": "a", "right": "q", "value": []}]}', "unknown basis label"),
    ('{"degrees": {"-1": ["a", "b"]}, "brackets": '
     '[{"left": "a", "right": "b", "value": [{"basis": "a", "num": 1.5, "den": 1}]}]}',
     "expected an integer"),
    ('{"degrees": {"-1": ["a", "b"]}, "brackets": '
     '[{"left": "a", "right": "b", "value": [{"basis": "a", "num": 1, "den": 0}]}]}',
     "zero denominator"),
    ('{"degrees": {"-1": ["a", "b"]}, "brackets": '
     '[{"left": "a", "right": "b", "value": []}, '
     '{"left": "a", "right": "b", "value": []}]}', "duplicate entry"),
])
def test_malformed_documents_raise(text, fragment):
    with pytest.raises(AlgebraInputError, match=fragment):
        parse_algebra(text)


def test_g0_documents():
    alg = make_algebra("heisenberg3")
    maps = resolve_g0(G0Spec("der0"), alg)
    spec = parse_g0(emit_g0_generators(maps), alg)
    again = resolve_g0(spec, alg)
    assert [m.to_matrix() for m in again] == [m.to_matrix() for m in maps]

    flat = make_algebra("abelian2")
    spec = parse_g0('{"preset": "so", "form": [[2, 0], [0, 1]]}', flat)
    assert spec.preset == "so" and spec.form is not None

    for bad in ('{"preset": 3}', '{"preset": "nope"}', '{"generators": 1}',
                '{"preset": "gl", "generators": []}', '{}',
                '{"generators": [{"5": [[1]]}]}', '{"generators": [{"-1": [[1]]}]}'):
        with pytest.raises(AlgebraInputError):
            parse_g0(bad, alg)


@pytest.mark.parametrize("cell", ["false", "true", "0.0", "-0.0", '""', "null", "[]", "{}",
                                  '"0"', '"-0"', '"0/5"', '{"num": 0}', '{"num": 0, "den": 3}'])
def test_matrix_cells_other_than_the_int_0_are_read_as_rationals(cell):
    """Only the literal 0 skips parse_rational: every other cell is read or

    rejected as parse_rational reads or rejects it, zeros spelled another
    way included.
    """
    flat = make_algebra("abelian2")
    text = '{"generators": [{"-1": [[1, 0], [0, %s]]}]}' % cell
    try:
        value = parse_rational(json.loads(cell), "g0 generators[0][-1][1][1]")
    except AlgebraInputError as exc:
        with pytest.raises(AlgebraInputError) as raised:
            parse_g0(text, flat)
        assert str(raised.value) == str(exc)
        return
    assert value == 0
    (g,) = parse_g0(text, flat).generators
    assert g.block(-1) == Matrix.from_rows([[1, 0], [0, 0]])


def test_over_long_integer_in_result_document_raises():
    text = emit_result(_prolonged("heisenberg3", "der0", 2))
    assert '"base_dim": 3' in text
    with pytest.raises(AlgebraInputError, match="more than 4300 digits"):
        parse_result(text.replace('"base_dim": 3', '"base_dim": 3' + "0" * 4300))
    for bad in ("1" * 4301, "-1/" + "2" * 4301):
        with pytest.raises(AlgebraInputError, match="more than 4300 digits"):
            parse_rational(bad, "x")


def test_over_long_rational_is_not_emitted():
    """The emitters hold to the parser's cap: numerators and denominators

    of 4300 digits are written and read back; longer ones raise
    OutputBudgetError, not the interpreter's ValueError.
    """
    for q in (Fraction(10**4300 - 1, 3), Fraction(-(10**4300 - 1)), Fraction(1, 10**4300 - 1)):
        assert parse_rational(json.loads(_dumps({"x": emit_rational(q)}))["x"], "x") == q
    for q in (Fraction(10**5000, 3), Fraction(-(10**4300)), Fraction(1, 10**4300)):
        with pytest.raises(OutputBudgetError, match="more than 4300 digits"):
            _dumps({"x": emit_rational(q)})


def _run_without_the_interpreter_limit(code):
    env = dict(os.environ, PYTHONPATH=str(Path(tanaka.__file__).parent.parent),
               PYTHONINTMAXSTRDIGITS="0")  # no interpreter limit
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)


def test_emit_cap_holds_without_the_interpreter_limit():
    code = ("from fractions import Fraction; from tanaka.jsonio import emit_rational; "
            "emit_rational(Fraction(10**5000, 3))")
    out = _run_without_the_interpreter_limit(code)
    assert out.returncode == 1 and "OutputBudgetError: a coefficient" in out.stderr


def _scaled_heisenberg3(constant):
    space = make_algebra("heisenberg3").space
    return GradedLieAlgebra.from_bracket_dict(space, {("e1", "e2"): {"e3": constant}})


def test_emit_algebra_holds_the_output_cap():
    """Structure constants pass the same cap as every other emitted number:

    4300 digits are written and parse back; longer numerators and
    denominators raise OutputBudgetError, not the interpreter's
    ValueError, and with the interpreter's limit lifted no document the
    parser rejects is written.
    """
    for q in (Fraction(10**4300 - 1), Fraction(-1, 10**4300 - 1)):
        alg = _scaled_heisenberg3(q)
        assert parse_algebra(emit_algebra(alg)).algebra.brackets == alg.brackets
    for q in (Fraction(10**5000), Fraction(1, 10**4300)):
        with pytest.raises(OutputBudgetError, match="more than 4300 digits"):
            emit_algebra(_scaled_heisenberg3(q))
    out = _run_without_the_interpreter_limit(
        "from tanaka.catalog import make_algebra; from tanaka.lie import GradedLieAlgebra; "
        "from tanaka.jsonio import emit_algebra; space = make_algebra('heisenberg3').space; "
        "emit_algebra(GradedLieAlgebra.from_bracket_dict(space, {('e1', 'e2'): {'e3': 10**5000}}))")
    assert out.returncode == 1 and "OutputBudgetError: a coefficient" in out.stderr


def test_result_round_trip_is_byte_identical():
    for name, preset, depth in (("abelian2", "gl", 3), ("abelian3", "co", 4),
                                ("heisenberg3", "der0", 2), ("abelian2", "zero", 2),
                                ("free_235", "der0", 4), ("heisenberg5", "zero", 2)):
        text = emit_result(_prolonged(name, preset, depth))
        assert emit_result_document(parse_result(text)) == text


def test_result_bound_holds_the_output_cap():
    """The bound is base_dim + dim g^0 + the level dims: a base_dim of 4300

    digits can carry it past the cap. The emitter then raises
    OutputBudgetError, and the parser reports a mismatched bound as an
    input error rather than failing to print the one it expected.
    """
    result = _prolonged("abelian3", "co", 4)  # dim g^0 + dims = 4 + 3
    text = emit_result(result, base_dim=10**4300 - 8)
    assert parse_result(text)["bound"] == 10**4300 - 1
    with pytest.raises(OutputBudgetError, match="more than 4300 digits"):
        emit_result(result, base_dim=10**4300 - 7)
    text = emit_result(result, base_dim=3)
    with pytest.raises(AlgebraInputError, match=re.escape("= more than 4300 digits")):
        parse_result(text.replace('"base_dim": 3', '"base_dim": ' + "9" * 4300))


def _catalog_runs():
    for entry in entries():
        for check in entry.expected:
            if check.kind == "prolong":
                g0 = resolve_g0(G0Spec(check.g0_preset), entry.algebra)
                yield prolong(entry.algebra, g0, max_degree=check.depth)


def test_matrix_blocks_are_written_as_the_list_path_writes_them():
    """emit_result and emit_g0_generators render Matrix blocks; parse_result

    and generator_doc give the plain-data lists, which _dumps writes on
    its list path. Both paths write the same bytes.
    """
    for result in _catalog_runs():
        text = emit_result(result)
        assert emit_result_document(parse_result(text)) == text
    for name in ("abelian1", "abelian2", "abelian3", "heisenberg3", "heisenberg5", "free_235"):
        basis = der0_basis(make_algebra(name))
        assert emit_g0_generators(basis) == _dumps({"generators": [generator_doc(g) for g in basis]})


def test_parse_result_returns_plain_data():
    """The parsed form is json.dumps-able, every block a list of row lists."""
    doc = parse_result(emit_result(_prolonged("free_235", "der0", 4)))
    json.dumps(doc)
    maps = doc["g0"]["generators"] + [g for level in doc["levels"] for g in level["basis"]]
    blocks = [block for g in maps for block in g.values()]
    assert blocks and all(type(b) is list and all(type(r) is list for r in b) for b in blocks)


_LONG = 10**4300 - 1  # 4300 digits, the longest a document carries


@pytest.mark.parametrize("rows", [
    [],
    [[], [], []],
    [[0, 0, 0]],
    [[-1, 0, Fraction(-2, 3)], [0, 0, 0], [5, Fraction(7, 2), Fraction(-10**30, 7)]],
    [[_LONG, 0], [0, Fraction(-1, _LONG)]],
])
def test_matrix_leaf_matches_the_json_module(rows):
    m = Matrix.from_rows(rows, 3 if not rows else None)
    plain = [[emit_rational(Fraction(x)) for x in row] for row in rows]
    assert _dumps(m) == _reference(plain)
    assert _dumps({"a": [m, {"b": m}]}) == _reference({"a": [plain, {"b": plain}]})


def test_matrix_leaf_holds_the_output_cap():
    for big in (Fraction(10**4300), Fraction(1, 10**4300)):
        with pytest.raises(OutputBudgetError, match="more than 4300 digits"):
            _dumps(Matrix.from_rows([[0, big]]))


def test_result_document_fields():
    doc = parse_result(emit_result(_prolonged("abelian3", "co", 4), base_dim=3))
    assert doc["status"] == {"kind": "finite", "order": 1, "max_degree": 4}
    assert doc["dims"] == [3, 0]
    assert doc["dim_g0"] == 4
    assert doc["bound"] == 10
    assert [lv["dim"] for lv in doc["levels"]] == [3, 0]
    truncated = parse_result(emit_result(_prolonged("abelian2", "gl", 2)))
    assert truncated["status"]["kind"] == "truncated"
    assert "bound" not in truncated


def test_result_document_validation():
    text = emit_result(_prolonged("abelian2", "gl", 2))
    doc = json.loads(text)
    doc["status"]["kind"] = "odd"
    with pytest.raises(AlgebraInputError):
        parse_result(json.dumps(doc))
    doc = json.loads(text)
    del doc["dims"]
    with pytest.raises(AlgebraInputError):
        parse_result(json.dumps(doc))
    doc = json.loads(text)
    doc["levels"][0]["dim"] = 99
    with pytest.raises(AlgebraInputError):
        parse_result(json.dumps(doc))


def _edited(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def _drop_row(doc):
    del doc["levels"][0]["basis"][0]["-1"][0]


def _drop_generator(doc):
    del doc["g0"]["generators"][0]


def _drop_level(doc):
    del doc["levels"][-1]


@pytest.mark.parametrize("name, preset, depth, edit, fragment", [
    # level blocks are shape-checked like g0 generators
    ("abelian2", "gl", 2, _drop_row, "levels[0].basis[0][-1]: expected a 4x2 matrix"),
    ("abelian2", "gl", 2, lambda d: d["levels"][1]["basis"][0].update({"-1": [[1]]}),
     "expected a 6x2 matrix"),
    ("abelian2", "gl", 2, lambda d: d["levels"][0]["basis"][0].update({"-3": []}),
     "levels[0].basis[0]: no component of degree -3"),
    ("abelian2", "gl", 2, lambda d: d["levels"][0]["basis"][0].update({"x": []}),
     "bad degree key"),
    ("abelian2", "gl", 2, lambda d: d["levels"][0].update({"basis": {}}), "expected a list"),
    ("heisenberg3", "der0", 2, lambda d: d["levels"][0]["basis"][0].update({"-2": [[1]]}),
     "expected a 2x1 matrix"),
    # the counts are cross-checked
    ("abelian2", "gl", 2, lambda d: d["dims"].append(0), "differ from the level dims"),
    ("abelian2", "gl", 2, lambda d: d.update({"dims": [6, 9]}), "differ from the level dims"),
    ("abelian2", "gl", 2, lambda d: d.update({"dims": [6.0, 8]}), "expected an integer"),
    ("abelian2", "gl", 2, lambda d: d.update({"dim_g0": 3}), "dim_g0: 3, but 4 generators"),
    ("abelian2", "gl", 2, _drop_generator, "dim_g0: 4, but 3 generators"),
    ("abelian2", "gl", 2, lambda d: d["levels"][1].update({"degree": 1}),
     "levels[1].degree: expected 2"),
    ("abelian2", "gl", 2, _drop_level, "differ from the level dims"),
    ("abelian2", "gl", 2, lambda d: d.update({"bound": 18}), "bound: expected exactly"),
    ("abelian3", "co", 4, lambda d: d.pop("bound"), "bound: expected exactly"),
    ("abelian3", "co", 4, lambda d: d.update({"bound": 11}), "sum(dims[:order]) = 10"),
    ("abelian3", "co", 4, lambda d: d.update({"base_dim": 5}), "sum(dims[:order]) = 12"),
    ("abelian3", "co", 4, lambda d: d["status"].update({"order": None}), "status.order"),
    ("abelian2", "gl", 2, lambda d: d["status"].update({"order": 1}), "status.order"),
    ("abelian2", "gl", 2, lambda d: d.update({"g0": {"preset": "gl"}}), "g0: expected keys"),
    ("abelian2", "zero", 2, lambda d: d["g0"].update({"generators": {}}), "expected a list"),
])
def test_result_document_counts_and_shapes_are_checked(name, preset, depth, edit, fragment):
    text = emit_result(_prolonged(name, preset, depth))
    with pytest.raises(AlgebraInputError, match=re.escape(fragment)):
        parse_result(_edited(text, edit))


def test_result_documents_are_canonicalised():
    """Accepted spellings of the same numbers come back in the emitted form."""
    text = emit_result(_prolonged("abelian2", "gl", 2))

    def respell(doc):
        doc["levels"][0]["basis"][0]["-1"][0][0] = {"num": 2, "den": 2}
        doc["g0"]["generators"][0]["-1"][0][0] = "1/1"
    doc = parse_result(_edited(text, respell))
    assert emit_result_document(doc) == text


def _reference(obj):
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def test_emitted_documents_match_the_json_module_byte_for_byte():
    texts = [emit_algebra(make_algebra("free_235"), "free_235"),
             emit_g0_generators(der0_basis(make_algebra("heisenberg5"))),
             emit_g0_generators([]),
             emit_result(_prolonged("heisenberg3", "der0", 2)),
             emit_result(_prolonged("abelian3", "co", 4), base_dim=5),
             emit_result(_prolonged("free_235", "der0", 3))]
    # a basis with non-integral entries, written as "num/den" strings
    fractional = _prolonged("abelian2", "gl", 2)
    texts.append(emit_g0_generators([g.scale(Fraction(-2, 3)) for g in fractional.g0]))
    assert any('"-2/3"' in t for t in texts)
    for text in texts:
        doc = json.loads(text)
        assert text == _reference(doc)


@pytest.mark.parametrize("obj", [
    {}, [], "", 0, True, False, None, [[]], [{}], {"a": {}}, {"a": []},
    [[], {}, [[], [{}]], {"b": {"c": []}}],
    {"text": ["é", "ü∂", "quote\"", "back\\slash", "tab\t", "line\n", "\x01", "\u2028",
              "🎉", ""]},
    {"ñ key": "ä value", "": ""},
    [0, -1, 10 ** 40, -(10 ** 40), 2 ** 63, -(2 ** 63)],
    [1, "1/3", -2, "-5/7"],
    [True, False, None, 1, 0, "x"],
    {"t": True, "f": False, "n": None, "i": -7, "s": "\u00e4"},
    {"deep": [[1, 2], ["a", {"y": [None, [True]]}]], "tuple": (1, "a")},
    [1.5, -0.0, 1e300],
])
def test_dumps_edge_cases_match_the_json_module(obj):
    assert _dumps(obj) == _reference(obj)
