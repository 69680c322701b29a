"""Wrapper table of the traced run: names exist, bindings are covered,

and the per-layer metric key set is pinned.
"""

import ast
import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import spans  # noqa: E402
from workloads import run_in_process  # noqa: E402

PINNED = {
    *(f"exact_linear.{op}.{key}" for op in ("kernel", "rank")
      for key in ("calls", "self_s", "cells", "nnz", "max_bits")),
    "exact_linear.solve.calls", "exact_linear.solve.self_s",
    "exact_linear.subspace.calls", "exact_linear.subspace.self_s",
    "prolong.solve.self_s", "prolong.levels", "prolong.unknowns",
    "prolong.constraint_rows", "prolong.constraint_nnz",
    "prolong.extended_bracket.calls", "prolong.extended_bracket.self_s",
    "torsion.boundary.calls", "torsion.boundary.self_s",
    "torsion.boundary.rows", "torsion.boundary.cols", "torsion.report.self_s",
    "lie.der0_basis.calls", "lie.der0_basis.self_s", "lie.resolve_g0.self_s",
    "lie.validate.calls", "lie.validate.self_s",
    "filtered.act_quasi.calls", "filtered.act_quasi.self_s", "filtered.lift.self_s",
    "filtered.transition.self_s", "filtered.project.self_s",
    "filtered.quotient.calls", "filtered.quotient.self_s", "filtered.construct.self_s",
    "jsonio.emit.self_s", "jsonio.emit.bytes", "jsonio.parse.self_s", "jsonio.parse.bytes",
    "selftest.catalog_suite.s", "selftest.filtered_suite.self_s", "cli.self_s",
    "trace.coverage", "trace.overhead_ratio",
}


def relative_imports():
    """(module, importing module, name) for every `from .x import y` in tanaka."""
    src = BENCH.parent / "src" / "tanaka"
    for path in sorted(src.glob("*.py")):
        importer = "tanaka" if path.stem == "__init__" else f"tanaka.{path.stem}"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    yield node.module, importer, alias.asname or alias.name


class WrapperTableTest(unittest.TestCase):
    def test_every_wrapped_name_exists(self):
        for module, attr, _ in spans.WRAPPED:
            with self.subTest(f"{module}.{attr}"):
                self.assertTrue(callable(getattr(spans.resolve(module, attr), "__func__",
                                                 spans.resolve(module, attr))))

    def test_every_span_has_metrics(self):
        prefixes = {name.rpartition(".")[0] for name, *_ in spans.PER_LAYER}
        for _, _, span in spans.WRAPPED:
            self.assertIn(span, prefixes)

    def test_metric_key_set_is_pinned(self):
        names = [name for name, *_ in spans.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(set(names), PINNED)

    def test_benchmark_file_lists_the_same_metrics(self):
        path = BENCH.parent / "BENCHMARK.json"
        declared = json.loads(path.read_text())["per_layer"]
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in declared],
                         [entry[:3] for entry in spans.PER_LAYER])

    def test_install_covers_every_relative_import_and_removes_cleanly(self):
        functions = {(m, a) for m, a, _ in spans.WRAPPED if "." not in a}
        before = {}
        installed = spans.Installed(spans.Recorder())
        try:
            covered = 0
            for module, importer, name in relative_imports():
                if (module, name) in functions:
                    covered += 1
                    bound = vars(sys.modules[importer])[name]
                    with self.subTest(f"{importer}.{name}"):
                        self.assertTrue(hasattr(bound, "__wrapped__"))
                        before[(importer, name)] = bound.__wrapped__
            self.assertGreater(covered, 20)
            for module, attr, _ in spans.WRAPPED:
                self.assertTrue(hasattr(getattr(spans.resolve(module, attr), "__func__",
                                                spans.resolve(module, attr)), "__wrapped__"))
        finally:
            installed.remove()
        for (importer, name), original in before.items():
            self.assertIs(vars(sys.modules[importer])[name], original)
        for module, attr, _ in spans.WRAPPED:
            self.assertFalse(hasattr(getattr(spans.resolve(module, attr), "__func__",
                                             spans.resolve(module, attr)), "__wrapped__"))


class RecorderTest(unittest.TestCase):
    def traced(self, *argv):
        recorder = spans.Recorder()
        installed = spans.Installed(recorder)
        try:
            code, _ = recorder.root(run_in_process, argv)
        finally:
            installed.remove()
        self.assertEqual(code, 0)
        return recorder.metrics()

    def test_tower_run_reports_its_layers(self):
        m = self.traced("tower", "preset:heisenberg3", "--max-degree", "2")
        self.assertEqual(set(m), PINNED - {"trace.overhead_ratio"})
        self.assertEqual(m["prolong.levels"], 2)
        self.assertEqual(m["torsion.boundary.calls"], 2)
        self.assertEqual(m["prolong.extended_bracket.calls"], 2)
        self.assertGreater(m["exact_linear.rank.cells"], 0)
        self.assertGreater(m["torsion.report.self_s"], 0)
        self.assertEqual(m["filtered.act_quasi.calls"], 0)
        self.assertTrue(0.5 < m["trace.coverage"] <= 1)

    def test_prolong_counts(self):
        m = self.traced("prolong", "preset:abelian3", "--g0", "co", "--format", "json")
        # g^1 in Hom(m_-1, co(3)), g^2 in Hom(m_-1, g^1); abelian: no constraint rows
        self.assertEqual(m["prolong.levels"], 2)
        self.assertEqual(m["prolong.unknowns"], 3 * 4 + 3 * 3)
        self.assertEqual(m["lie.validate.calls"], 2)
        self.assertGreater(m["jsonio.emit.bytes"], 0)
        self.assertEqual(m["jsonio.parse.bytes"], 0)


if __name__ == "__main__":
    unittest.main()
