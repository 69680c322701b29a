"""Driver behavior: output contracts, exit codes, mutation detection."""

import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import tanaka
from tanaka.catalog import entries, make_algebra
from tanaka.cli import _SLICE, _write_document, main
from tanaka.jsonio import (
    emit_algebra,
    emit_g0_generators,
    emit_result,
    emit_result_document,
    parse_result,
)
from tanaka.lie import G0Spec, resolve_g0
from tanaka.prolong import prolong


def run(capsys, *args):
    """main() in this process: (exit code, stdout, stderr), argparse's exit included."""
    try:
        code = main(list(args))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_preset(capsys):
    code, out, _ = run(capsys, "check", "preset:heisenberg3")
    assert code == 0
    assert "valid" in out and "fundamental" in out


def test_check_json_format(capsys):
    code, out, _ = run(capsys, "check", "preset:free_235", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] and doc["fundamental"] and doc["violations"] == []


def test_check_corrupted_json_exits_2_with_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"degrees": {"-1": ["a"')
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "line 1" in err and "column" in err


def test_check_non_fundamental_exits_1(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({
        "name": "deep",
        "degrees": {"-1": ["a"], "-2": ["b"]},
        "brackets": [],
    }))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "not fundamental" in out


def test_missing_source_exits_2(capsys):
    code, _, err = run(capsys, "check")
    assert code == 2 and "needs an algebra" in err


def test_unreadable_path_exits_2(capsys):
    code, _, err = run(capsys, "check", "no/such/file.json")
    assert code == 2 and "cannot read" in err


def test_prolong_finite_headline(capsys):
    code, out, _ = run(capsys, "prolong", "preset:abelian3", "--g0", "co")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order 1; dims g0=4 g1=3; bound 10"
    assert "dim(M) + Σ dim(g^i)" in lines[1]
    assert lines[1].endswith("= 3 + 4 + 3 = 10")


def test_prolong_truncated_headline(capsys):
    code, out, _ = run(capsys, "prolong", "preset:abelian2", "--g0", "gl",
                       "--max-degree", "3")
    assert code == 0
    assert out.splitlines()[0] == "truncated at 3; dims 6,8,10"


def test_prolong_zero_g0_headline(capsys):
    code, out, _ = run(capsys, "prolong", "preset:abelian2", "--g0", "zero")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order 0; bound 2"
    assert "dim(M) + Σ dim(g^i)" in lines[1]


def test_prolong_base_dim_shifts_bound(capsys):
    code, out, _ = run(capsys, "prolong", "preset:abelian3", "--g0", "co",
                       "--base-dim", "5")
    assert code == 0
    assert out.splitlines()[0].endswith("bound 12")


def test_prolong_json_round_trips_byte_identical(capsys):
    code, out, _ = run(capsys, "prolong", "preset:abelian3", "--g0", "co",
                       "--format", "json")
    assert code == 0
    assert emit_result_document(parse_result(out)) == out


def test_prolong_output_has_no_floats(capsys):
    _, out, _ = run(capsys, "prolong", "preset:abelian3", "--g0", "co",
                    "--format", "json")
    assert "." not in "".join(json.dumps(json.loads(out)))


def test_non_utf8_source_and_g0_file_exit_2(capsys, tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2 and f"cannot read {path}" in err and "utf-8" in err
    code, _, err = run(capsys, "prolong", "preset:heisenberg3", "--g0", f"file:{path}")
    assert code == 2 and f"cannot read {path}" in err and "utf-8" in err


def test_der0_text_and_json(capsys, tmp_path):
    code, out, _ = run(capsys, "der0", "preset:heisenberg3")
    assert code == 0
    assert out.splitlines()[0] == "dim der0 = 4"
    code, out, _ = run(capsys, "der0", "preset:heisenberg3", "--format", "json")
    assert code == 0
    path = tmp_path / "g0.json"
    path.write_text(out)
    code, out, _ = run(capsys, "prolong", "preset:heisenberg3",
                       "--g0", f"file:{path}", "--max-degree", "2")
    assert code == 0
    assert out.splitlines()[0] == "truncated at 2; dims 6,9"


def test_negative_denominator_in_g0_file_exits_2(capsys, tmp_path):
    code, out, _ = run(capsys, "der0", "preset:heisenberg3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    doc["generators"][0]["-2"][0][0] = "1/-2"
    path = tmp_path / "g0.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "prolong", "preset:heisenberg3", "--g0", f"file:{path}")
    assert code == 2
    assert "bad rational string '1/-2'" in err


# Integers longer than CPython's default int_max_str_digits (4300) fail
# as input errors under the package's own cap, whatever the interpreter
# allows.

def _cli_child(limit, *args):
    """The CLI in a child whose interpreter int_max_str_digits is limit (0: none).

    Its stdout is block-buffered, as a pipe's is by default, so an exit
    that skips the interpreter's flush loses output.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(tanaka.__file__).parent.parent),
               PYTHONINTMAXSTRDIGITS=str(limit))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "tanaka.cli", *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_over_long_integer_in_algebra_document_exits_2(tmp_path):
    text = emit_algebra(make_algebra("heisenberg3"))
    assert '"num": 1,' in text
    path = tmp_path / "big.json"
    path.write_text(text.replace('"num": 1,', '"num": 1' + "0" * 5000 + ",", 1))
    out = _cli_child(0, "check", str(path))
    assert out.returncode == 2
    assert "more than 4300 digits" in out.stderr and "Traceback" not in out.stderr


def _long_degree_key_files(tmp_path, digits):
    """An algebra document and a g^0 document of heisenberg3 whose degree -1

    key is written with the given number of digits (leading zeros).
    """
    key = "-" + "0" * (digits - 1) + "1"
    algebra = json.loads(emit_algebra(make_algebra("heisenberg3")))
    algebra["degrees"] = {key if d == "-1" else d: labels for d, labels in algebra["degrees"].items()}
    g0 = json.loads(emit_g0_generators(resolve_g0(G0Spec("der0"), make_algebra("heisenberg3"))))
    g0["generators"][0] = {key if d == "-1" else d: b for d, b in g0["generators"][0].items()}
    paths = tmp_path / "algebra.json", tmp_path / "g0.json"
    for path, doc in zip(paths, (algebra, g0)):
        path.write_text(json.dumps(doc))
    return [("check", str(paths[0])), ("prolong", "preset:heisenberg3", "--g0", f"file:{paths[1]}")]


def test_over_long_degree_key_exits_2_without_echoing_it(capsys, tmp_path):
    """A degree key passes the digit cap before int(), so with the

    interpreter's limit lifted it is not converted, and the message does
    not repeat it.
    """
    for args in _long_degree_key_files(tmp_path, 5000):
        out = _cli_child(0, *args)
        assert out.returncode == 2, args
        assert "more than 4300 digits" in out.stderr and "Traceback" not in out.stderr, args
        assert len(out.stderr) < 200, args
        code, _, err = run(capsys, *args)  # under the default limit
        assert code == 2 and "more than 4300 digits" in err and len(err) < 200, args
    for args in _long_degree_key_files(tmp_path, 4300):  # leading zeros within the cap
        assert run(capsys, *args)[0] == 0, args


def test_integer_past_a_lower_interpreter_limit_exits_2_with_one_line(tmp_path):
    """Under PYTHONINTMAXSTRDIGITS below the cap, an integer literal or a

    rational string the interpreter refuses is an input error naming
    its limit, not a ValueError traceback.
    """
    algebra = tmp_path / "algebra.json"
    text = emit_algebra(make_algebra("heisenberg3"))
    algebra.write_text(text.replace('"num": 1,', '"num": 1' + "0" * 2000 + ",", 1))
    g0 = tmp_path / "g0.json"
    g0.write_text('{"generators": [{"-1": [["1/' + "3" * 2001 + '", 0], [0, 1]]}]}')
    for args in (("check", str(algebra)), ("prolong", "preset:abelian2", "--g0", f"file:{g0}")):
        out = _cli_child(1000, *args)
        assert out.returncode == 2, args
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
        assert "more than 1000 digits" in out.stderr and "Traceback" not in out.stderr
    assert _cli_child(1000, "check", "preset:heisenberg3").returncode == 0


@pytest.mark.parametrize("expected, args", [
    (0, ("tower", "preset:heisenberg3", "--max-degree", "2")),
    (1, ("torsion", "preset:heisenberg3", "--level", "7", "--max-degree", "3")),
    (2, ("check", "preset:nosuch")),
    (2, ("tower", "preset:heisenberg3", "--max-degree", "x")),  # argparse's own exit
])
def test_process_entry_keeps_the_exit_code_contract(capsys, expected, args):
    """`python -m tanaka.cli`, which runs with the collector off, prints

    and exits as main() does in-process.
    """
    child = _cli_child(sys.get_int_max_str_digits(), *args)
    code, out, err = run(capsys, *args)
    assert code == expected
    assert (child.returncode, child.stdout, child.stderr) == (code, out, err)


def test_cli_builds_no_reference_cycles(capsys):
    """The premise of run(): a collection after main() finds garbage that

    does not grow with the tower (argparse's own), so running without the
    cyclic collector keeps nothing alive that it would have freed. main()
    leaves the collector's state as it found it, on or off.
    """
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    assert run(capsys, "check", "preset:heisenberg3")[0] == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    towers = [("heisenberg3", "1"), ("heisenberg3", "3"), ("heisenberg5", "2")]
    gc.disable()
    try:
        run(capsys, "tower", "preset:heisenberg3", "--max-degree", "1")  # load the layers
        found = []
        for name, depth in towers:
            gc.collect()
            assert run(capsys, "tower", f"preset:{name}", "--max-degree", depth)[0] == 0
            found.append(gc.collect())
            assert (gc.isenabled(), gc.get_freeze_count()) == (False, frozen)
    finally:
        if enabled:
            gc.enable()
    assert len(set(found)) == 1, dict(zip(towers, found))


def test_over_long_result_number_exits_1_with_one_line(capsys, monkeypatch):
    """A result coefficient past the cap ends the command with exit 1 and

    one budget line on stderr, in both formats, not a traceback.
    """
    from tanaka import cli
    from tanaka.lie import der0_basis

    huge = Fraction(10**5000, 3)
    monkeypatch.setattr(cli, "der0_basis", lambda alg: [g.scale(huge) for g in der0_basis(alg)])
    for fmt in ("json", "text"):
        code, out, err = run(capsys, "der0", "preset:heisenberg3", "--format", fmt)
        assert code == 1 and out == ""
        assert err == "error: a coefficient of the result has more than 4300 digits\n"


def test_over_long_level_coefficient_exits_1_with_empty_stdout(capsys, monkeypatch):
    """One level-basis coefficient past the cap: the JSON document is

    rendered whole before its first write, so nothing reaches stdout.
    """
    from tanaka import cli
    from tanaka.graded import HomogeneousMap
    from tanaka.prolong import ProlongationLevel, ProlongationResult

    real = cli._run_prolong

    def with_one_huge_coefficient(args, loaded):
        result = real(args, loaded)
        level = result.levels[-1]
        g = level.basis[0]
        cols = list(g.columns)
        j = next(j for j, col in enumerate(cols) if col)
        cols[j] = {**cols[j], min(cols[j]): Fraction(10**4300)}
        huge = HomogeneousMap.from_columns(g.source, g.target, g.degree, cols)
        levels = result.levels[:-1] + (ProlongationLevel(
            level.degree, level.space_below, level.carrier, (huge,) + level.basis[1:]),)
        return ProlongationResult(result.base, result.negative, result.g0, levels, result.status)

    monkeypatch.setattr(cli, "_run_prolong", with_one_huge_coefficient)
    code, out, err = run(capsys, "prolong", "preset:heisenberg3", "--format", "json")
    assert code == 1 and out == ""
    assert err == "error: a coefficient of the result has more than 4300 digits\n"


@pytest.mark.parametrize("length", [0, 1, _SLICE, _SLICE + 1, 3 * _SLICE - 1])
def test_document_is_written_whole_in_slices(length):
    text = ("é\n" * length)[:length]
    out = io.StringIO()
    _write_document(text, out)
    assert out.getvalue() == text


def test_writing_a_document_holds_no_encoded_copy_of_it():
    """The stream encodes one slice at a time: the traced peak of the

    write stays under half the document's length (one write of the
    whole document takes it to the length).
    """
    alg = make_algebra("heisenberg5")
    text = emit_result(prolong(alg, resolve_g0(G0Spec("der0"), alg), max_degree=3))
    with open(os.devnull, "w", encoding="utf-8") as out:
        tracemalloc.start()
        try:
            _write_document(text, out)
            out.flush()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 0.5 * len(text), (peak, len(text))


@pytest.mark.parametrize("command", ["prolong", "tower"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_over_long_base_dim_exits_1_with_one_line(capsys, command, fmt):
    """A --base-dim of 4300 digits makes the bound one digit longer: the

    command exits 1 with the budget line before it prints anything.
    """
    code, out, err = run(capsys, command, "preset:abelian3", "--g0", "co", "--format", fmt,
                         "--base-dim", "9" * 4300)
    assert code == 1 and out == ""
    assert err == "error: a coefficient of the result has more than 4300 digits\n"
    code, out, _ = run(capsys, command, "preset:abelian3", "--g0", "co", "--format", fmt,
                       "--base-dim", "9" * 4299)
    assert code == 0 and str(10**4299 + 6) in out  # 4300 digits are written


def test_result_past_a_lower_interpreter_limit_exits_1_with_one_line(capsys, tmp_path):
    """free_235 with [e1, e2] and [e1, e3] scaled by 10^900 and [e2, e3]

    by 10^-900: every input integer has at most 903 digits, but der0 and
    the level bases have coefficients past 1000. Under a limit of 1000
    the emitters stop at that limit with the budget line, not a
    ValueError; at the default limit the output is as before.
    """
    doc = json.loads(emit_algebra(make_algebra("free_235")))
    for entry in doc["brackets"]:
        pair = {entry["left"], entry["right"]}
        for term in entry["value"]:
            if pair in ({"e1", "e2"}, {"e1", "e3"}):
                term["num"] *= 10**900
            elif pair == {"e2", "e3"}:
                term["den"] *= 10**900
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    commands = {
        ("der0", str(path)): "d2e66a07520346ae5cd322bab468c0b4",
        ("der0", str(path), "--format", "json"): "8b85c4e76ad82c8180bd7a6db3bcf5a5",
        ("prolong", str(path), "--max-degree", "4", "--format", "json"):
            "44ba67a4e3e6618a98ee9f4e0fb2fdf1",
    }
    for args, digest in commands.items():
        out = _cli_child(1000, *args)
        assert out.returncode == 1 and out.stdout == "", args
        assert out.stderr == "error: a coefficient of the result has more than 1000 digits, " \
                             "the interpreter's limit\n", args
        code, text, err = run(capsys, *args)
        assert code == 0 and err == "", args
        assert hashlib.md5(text.encode()).hexdigest() == digest, args


def test_over_long_rational_in_g0_file_exits_2(capsys, tmp_path):
    path = tmp_path / "g0.json"
    for entry in ('"1/' + "3" * 4301 + '"', '"-' + "7" * 4301 + '"', "1" + "0" * 4300):
        path.write_text('{"generators": [{"-1": [[' + entry + ', 0], [0, 1]]}]}')
        code, _, err = run(capsys, "prolong", "preset:abelian2", "--g0", f"file:{path}")
        assert code == 2 and "more than 4300 digits" in err
    path.write_text('{"generators": [{"-1": [["-' + "7" * 4300 + '", 0], [0, 1]]}]}')
    code, _, _ = run(capsys, "prolong", "preset:abelian2", "--g0", f"file:{path}")
    assert code == 0  # 4300 digits are accepted


def test_empty_g0_generators_file_is_the_zero_g0(capsys, tmp_path):
    path = tmp_path / "g0.json"
    path.write_text(emit_g0_generators([]))
    for fmt in ("text", "json"):
        from_file = run(capsys, "prolong", "preset:heisenberg3", "--g0", f"file:{path}",
                        "--format", fmt)
        assert from_file == run(capsys, "prolong", "preset:heisenberg3", "--g0", "zero",
                                "--format", fmt)
        assert from_file[0] == 0


def test_torsion_level0(capsys):
    code, out, _ = run(capsys, "torsion", "preset:abelian2", "--g0", "gl",
                       "--max-degree", "2")
    assert code == 0
    assert "dim Tor^1 = 2" in out
    assert "rank ∂^1 = 2" in out
    assert "dim W^1 = 0" in out
    assert "Ker ∂ = gl_2 + g^1: PASS" in out


def test_torsion_level1(capsys):
    code, out, _ = run(capsys, "torsion", "preset:heisenberg3", "--level", "1",
                       "--max-degree", "3")
    assert code == 0
    assert "Ker ∂^2 = gl_3 + g^2: PASS" in out
    assert "injective" in out and "FAIL" not in out


def test_torsion_unreachable_level_exits_1(capsys):
    code, _, err = run(capsys, "torsion", "preset:heisenberg3", "--level", "7",
                       "--max-degree", "3")
    assert code == 1 and "not computed" in err


def test_torsion_prolongs_only_to_the_level_it_reads(capsys):
    # the report reads m_2 and g^3; at the default --max-degree 10 the
    # contact symbol's tower would not fit in memory
    code, out, _ = run(capsys, "torsion", "preset:heisenberg7", "--level", "2")
    assert code == 0
    assert out == ("dim Tor^3 = 32310\n"
                   "rank ∂^3 = 13068\n"
                   "dim W^3 = 19242\n"
                   "Ker ∂^3 = gl_4 + g^3: PASS\n"
                   "∂^3 injective on Hom(g^i, g^2): PASS\n")


def test_torsion_json(capsys):
    code, out, _ = run(capsys, "torsion", "preset:abelian3", "--g0", "co",
                       "--format", "json")
    assert code == 0
    assert out == """\
{
  "level": 1,
  "dim_tor": 9,
  "rank": 9,
  "dim_w": 0,
  "dim_domain": 12,
  "dim_g_next": 3,
  "dim_gl_tail": 0,
  "gl_kernel_matches": true,
  "hom_injective": true,
  "messages": []
}
"""


def test_tower_finite_table(capsys):
    code, out, _ = run(capsys, "tower", "preset:abelian3", "--g0", "co")
    assert code == 0
    assert out == """\
n  g^n  struct  product  Tor  rank   W  total
1    3      21        7   60    21  39     10
2    0       0        7   72     0  72     10
dim bound = 10
"""


def test_tower_order0_is_single_row(capsys):
    code, out, _ = run(capsys, "tower", "preset:abelian3", "--g0", "so")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3  # header, one row, footer
    assert lines[-1] == "dim bound = 6"


def test_tower_truncated_rows_annotated(capsys):
    code, out, _ = run(capsys, "tower", "preset:heisenberg3", "--max-degree", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-2].endswith("truncated")
    assert lines[-1] == "truncated at 2"
    assert "dim bound" not in out


def test_tower_json(capsys):
    code, out, _ = run(capsys, "tower", "preset:abelian3", "--g0", "co",
                       "--format", "json")
    assert code == 0
    assert out == """\
{
  "base_dim": 3,
  "kind": "finite",
  "order": 1,
  "dim_g0": 4,
  "rows": [
    {
      "n": 1,
      "dim_g": 3,
      "dim_structure_group": 21,
      "dim_group_product": 7,
      "dim_tor": 60,
      "rank": 21,
      "dim_w": 39,
      "dim_total": 10
    },
    {
      "n": 2,
      "dim_g": 0,
      "dim_structure_group": 0,
      "dim_group_product": 7,
      "dim_tor": 72,
      "rank": 0,
      "dim_w": 72,
      "dim_total": 10
    }
  ],
  "bound": 10
}
"""


def test_truncated_tower_json(capsys):
    code, out, _ = run(capsys, "tower", "preset:heisenberg3", "--max-degree", "2",
                       "--format", "json")
    assert code == 0
    assert out == """\
{
  "base_dim": 3,
  "kind": "truncated",
  "order": null,
  "dim_g0": 4,
  "rows": [
    {
      "n": 1,
      "dim_g": 6,
      "dim_structure_group": 46,
      "dim_group_product": 14,
      "dim_tor": 40,
      "rank": 31,
      "dim_w": 9,
      "dim_total": 13
    },
    {
      "n": 2,
      "dim_g": 9,
      "dim_structure_group": 123,
      "dim_group_product": 25,
      "dim_tor": 134,
      "rank": 102,
      "dim_w": 32,
      "dim_total": 22
    }
  ],
  "bound": null
}
"""


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "7")
    assert code == 0
    assert out == ("filtered: 200 cases, 2501 checks, 0 failures\n"
                   "catalog: 13 cases, 17 checks, 0 failures\n"
                   "all suites passed\n")


@pytest.mark.parametrize("args", [
    ("check", "preset:nosuch"),
    ("prolong", "preset:abelian2", "--g0", "nope"),
    ("prolong", "preset:heisenberg3", "--g0", "gl"),
    ("prolong", "preset:abelian2", "--max-degree", "0"),
    ("tower", "preset:abelian2", "--base-dim", "1"),
    ("torsion", "preset:abelian2", "--level", "-1"),
])
def test_input_errors_exit_2(capsys, args):
    code, _, err = run(capsys, *args)
    assert code == 2 and err


def _mutations(doc):
    for b, entry in enumerate(doc["brackets"]):
        for t in range(len(entry["value"])):
            for bump in (1, -entry["value"][t]["num"]):
                mutated = json.loads(json.dumps(doc))
                mutated["brackets"][b]["value"][t]["num"] += bump
                yield mutated


def test_every_single_constant_mutation_is_caught(capsys, tmp_path):
    for entry in entries():
        if not entry.algebra.brackets:
            continue
        doc = json.loads(emit_algebra(entry.algebra, entry.name))
        assert doc["brackets"]
        for i, mutated in enumerate(_mutations(doc)):
            path = tmp_path / f"{entry.name}-{i}.json"
            path.write_text(json.dumps(mutated))
            code, out, _ = run(capsys, "check", str(path))
            assert code == 1, (entry.name, i)
            assert "violation" in out


def test_unmutated_catalog_files_pass_check(capsys, tmp_path):
    for entry in entries():
        path = tmp_path / f"{entry.name}.json"
        path.write_text(emit_algebra(entry.algebra, entry.name))
        code, _, _ = run(capsys, "check", str(path))
        assert code == 0, entry.name


def test_mutated_prolong_dims_change_or_fail(capsys, tmp_path):
    # a corrupted constant must never silently reproduce the frozen dims
    alg = make_algebra("heisenberg3")
    doc = json.loads(emit_algebra(alg, "heisenberg3"))
    doc["brackets"][0]["value"][0]["num"] = 0
    doc["brackets"][1]["value"][0]["num"] = 0
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "prolong", str(path), "--max-degree", "2")
    assert code == 1 and "not fundamental" in err
