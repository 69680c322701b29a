"""Which layer modules each command executes.

`import tanaka` registers every layer in sys.modules without running it;
a layer runs on first attribute access. A child interpreter records the
`exec` audit event of each module body (co_name "<module>"), which fires
whether or not the bytecode was cached.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

import tanaka
from tanaka.catalog import make_algebra
from tanaka.jsonio import emit_algebra

LAYERS = ("exact_linear", "graded", "lie", "filtered", "prolong", "torsion", "catalog",
          "jsonio", "selftest")
PACKAGE = os.path.dirname(os.path.abspath(tanaka.__file__))

CHILD = """
import contextlib, io, json, os, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec"
                 and getattr(args[0], "co_name", None) == "<module>"
                 and ran.add(args[0].co_filename))
import tanaka
registered = [name[len("tanaka."):] for name in sys.modules if name.startswith("tanaka.")]
code = None
if sys.argv[1:]:
    from tanaka.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
package = os.path.dirname(tanaka.__file__)
print(json.dumps({"code": code, "registered": registered, "executed": sorted(
    os.path.basename(f)[:-3] for f in ran if os.path.dirname(f) == package)}))
"""


def child(*argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    out = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out)


@pytest.fixture(scope="module")
def algebra_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("layers") / "h3.json"
    path.write_text(emit_algebra(make_algebra("heisenberg3"), "h3"), encoding="utf-8")
    return str(path)


def test_import_registers_every_layer_and_runs_none():
    report = child()
    assert sorted(report["registered"]) == sorted(LAYERS)
    assert report["executed"] == ["__init__"]


def test_layers_register_before_the_layers_they_import():
    order = child()["registered"]
    for layer in LAYERS:
        with open(os.path.join(PACKAGE, f"{layer}.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = {node.module for node in tree.body
                    if isinstance(node, ast.ImportFrom) and node.level == 1} & set(LAYERS)
        for dep in imported:
            assert order.index(layer) < order.index(dep), (layer, dep)


@pytest.mark.parametrize("argv, runs, skips", [
    (("check",), {"lie"}, {"prolong", "torsion", "filtered", "selftest", "catalog"}),
    (("der0",), {"lie"}, {"prolong", "torsion", "filtered", "selftest", "catalog"}),
    (("prolong", "--max-degree", "2"), {"prolong"},
     {"torsion", "filtered", "selftest", "catalog"}),
    (("tower", "--max-degree", "2"), {"torsion"}, {"filtered", "selftest", "catalog"}),
    (("torsion", "--max-degree", "2"), {"torsion"}, {"filtered", "selftest", "catalog"}),
])
def test_a_command_executes_only_the_layers_it_calls(algebra_file, argv, runs, skips):
    report = child(argv[0], algebra_file, *argv[1:])
    assert report["code"] == 0
    assert runs <= set(report["executed"])
    assert not skips & set(report["executed"])


def test_every_public_name_resolves():
    for name in tanaka.__all__:
        obj = getattr(tanaka, name)
        assert getattr(sys.modules[obj.__module__], name) is obj
    namespace = {}
    exec("from tanaka import *", namespace)
    assert set(tanaka.__all__) <= set(namespace)
    assert set(tanaka.__all__) <= set(dir(tanaka))
    # a public name wins over the layer of the same name
    assert tanaka.prolong is sys.modules["tanaka.prolong"].prolong
    assert tanaka.torsion is sys.modules["tanaka.torsion"]
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        tanaka.missing
