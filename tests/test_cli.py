"""Driver behavior: output contracts, exit codes, mutation detection."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tanaka
from tanaka.catalog import entries, make_algebra
from tanaka.cli import main
from tanaka.jsonio import emit_algebra, emit_g0_generators, emit_result_document, parse_result


def run(capsys, *args):
    code = main(list(args))
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

def test_over_long_integer_in_algebra_document_exits_2(tmp_path):
    text = emit_algebra(make_algebra("heisenberg3"))
    assert '"num": 1,' in text
    path = tmp_path / "big.json"
    path.write_text(text.replace('"num": 1,', '"num": 1' + "0" * 5000 + ",", 1))
    env = dict(os.environ, PYTHONPATH=str(Path(tanaka.__file__).parent.parent),
               PYTHONINTMAXSTRDIGITS="0")  # no interpreter limit
    out = subprocess.run([sys.executable, "-m", "tanaka.cli", "check", str(path)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert "more than 4300 digits" in out.stderr and "Traceback" not in out.stderr


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


def test_torsion_json(capsys):
    code, out, _ = run(capsys, "torsion", "preset:abelian3", "--g0", "co",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["level"] == 1 and doc["gl_kernel_matches"] and doc["hom_injective"]


def test_tower_finite_table(capsys):
    code, out, _ = run(capsys, "tower", "preset:abelian3", "--g0", "co")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "dim bound = 10"
    assert "truncated" not in out


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
    doc = json.loads(out)
    assert doc["bound"] == 10
    assert [row["dim_total"] for row in doc["rows"]] == [10, 10]


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "7")
    assert code == 0
    assert "filtered:" in out and "catalog:" in out
    assert out.strip().endswith("all suites passed")


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
