"""Seeded mutation fuzzing of prolongation result and g^0 documents.

Each case takes the `prolong --format json` output of a preset, or the
`der0 --format json` generators document of heisenberg3, and applies
one mutation to its parsed tree: a value replaced, a key or a
list entry deleted, or a key or a list entry added. Replacement values
include extremes: integer literals one digit past the 4300-digit cap,
rationals with such a denominator, floats, booleans, nulls and empty
containers. The mutation is picked by a random walk from the root that
stops at each container with probability 1/3, so the structural fields
near the top are hit as often as the matrix cells below them.

The properties: parse_result raises nothing but AlgebraInputError, and
the document it accepts re-emits to its own fixed point. A mutated g^0
document, given to `prolong --g0 file:`, ends the command with exit 0,
1 or 2, never with an exception or a traceback.
"""

import copy
import json
import random

import pytest

from tanaka.cli import main
from tanaka.jsonio import AlgebraInputError, emit_result_document, parse_result

SEED = 13
CASES = 300
PRESETS = (
    ("abelian2", "gl", "2"),
    ("heisenberg3", "der0", "2"),
    ("free_235", "der0", "4"),
)

_OVER_CAP = "@over-cap@"  # stands for an integer literal of 4301 digits
EXTREMES = (
    0, 1, -1, 2, 3, -7, 10**18, -(2**63), 10**4300 - 1, -(10**4300 - 1), _OVER_CAP,
    "1/3", "-7/2", "1/0", "0/5", "1/" + "3" * 4301, "x", "", "-1", "finite", "truncated",
    1.5, -0.0, True, False, None, [], {}, [[]], [[1]], {"-1": [[1]]}, {"num": 1, "den": 2},
)
NEW_KEYS = ("extra", "bound", "order", "-1", "-2", "0", "1", "5", "num", "den", "basis")


def _prolong_json(capsys, preset, g0, depth):
    code = main(["prolong", f"preset:{preset}", "--g0", g0, "--max-degree", depth,
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0 and out
    return out


def _container(rng, node):
    while True:
        children = [v for v in (node.values() if isinstance(node, dict) else node)
                    if isinstance(v, (dict, list)) and v]
        if not children or rng.random() < 1 / 3:
            return node
        node = rng.choice(children)


def _mutate(rng, doc):
    """Apply one mutation to doc in place; returns its name."""
    node = _container(rng, doc)
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    kind = rng.choice(("replace", "delete", "add")) if keys else "add"
    value = copy.deepcopy(rng.choice(EXTREMES))
    if kind == "replace":
        node[rng.choice(keys)] = value
    elif kind == "delete":
        del node[rng.choice(keys)]
    elif isinstance(node, dict):
        node[rng.choice(NEW_KEYS)] = value
    else:
        if keys and rng.random() < 0.5:
            value = copy.deepcopy(node[rng.choice(keys)])  # a plausible extra entry
        node.insert(rng.randrange(len(node) + 1), value)
    return kind


def _text(doc):
    return json.dumps(doc).replace(json.dumps(_OVER_CAP), "9" * 4301)


def test_mutated_result_documents_fail_cleanly_or_round_trip(capsys):
    rng = random.Random(SEED)
    texts = [_prolong_json(capsys, *preset) for preset in PRESETS]
    outcomes = {"accepted": 0, "rejected": 0}
    for case in range(CASES):
        doc = json.loads(texts[case % len(texts)])
        kind = _mutate(rng, doc)
        try:
            parsed = parse_result(_text(doc))
        except AlgebraInputError:
            outcomes["rejected"] += 1
            continue
        except Exception as exc:  # noqa: BLE001 - any other exception is the finding
            pytest.fail(f"case {case} (seed {SEED}, {kind}): {type(exc).__name__}: {exc}")
        outcomes["accepted"] += 1
        canonical = emit_result_document(parsed)
        assert emit_result_document(parse_result(canonical)) == canonical, f"case {case}"
    # both outcomes occur, so neither property is checked vacuously
    assert all(outcomes.values()), outcomes


def test_mutated_g0_documents_exit_cleanly(capsys, tmp_path):
    rng = random.Random(SEED)
    assert main(["der0", "preset:heisenberg3", "--format", "json"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "g0.json"
    codes = set()
    for case in range(CASES):
        doc = json.loads(text)
        kind = _mutate(rng, doc)
        path.write_text(_text(doc), encoding="utf-8")
        try:
            code = main(["prolong", "preset:heisenberg3", "--g0", f"file:{path}",
                         "--max-degree", "2"])
        except Exception as exc:  # noqa: BLE001 - any exception is the finding
            pytest.fail(f"case {case} (seed {SEED}, {kind}): {type(exc).__name__}: {exc}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err, f"case {case}: {code} {err}"
        codes.add(code)
    # mutants are both accepted and rejected
    assert {0, 2} <= codes, codes
