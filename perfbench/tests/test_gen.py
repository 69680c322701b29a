"""Seeded input generator: valid documents, reproducible bytes."""

import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
from workloads import run_in_process  # noqa: E402

CASES = (
    ("sparse", ("heisenberg5", "heisenberg9", "abelian4", "free_235", "abelian3")),
    ("dense", ("heisenberg3", "free_235", "heisenberg5")),
)
SEEDS = (0, 1, 7, 2024)


class GeneratorTest(unittest.TestCase):
    def test_documents_are_valid_and_fundamental(self):
        with tempfile.TemporaryDirectory() as tmp:
            for kind, presets in CASES:
                for preset in presets:
                    for seed in SEEDS:
                        path = Path(tmp) / f"{preset}.json"
                        path.write_text(gen.document(preset, seed, kind))
                        code, out = run_in_process(("check", str(path), "--format", "json"))
                        with self.subTest(kind=kind, preset=preset, seed=seed):
                            self.assertEqual(checks.check_valid(code, out), [])

    def test_same_seed_gives_identical_bytes(self):
        for kind, presets in CASES:
            for preset in presets:
                for seed in SEEDS:
                    with self.subTest(kind=kind, preset=preset, seed=seed):
                        self.assertEqual(gen.document(preset, seed, kind),
                                         gen.document(preset, seed, kind))

    def test_seed_changes_the_basis(self):
        for kind in ("sparse", "dense"):
            docs = {gen.document("heisenberg5", seed, kind) for seed in SEEDS}
            self.assertGreater(len(docs), 1, kind)

    def test_sparse_keeps_unit_constants_and_dense_makes_fractions(self):
        def constants(doc):
            return [(t["num"], t["den"]) for b in json.loads(doc)["brackets"] for t in b["value"]]

        for seed in SEEDS:
            sparse = constants(gen.document("heisenberg5", seed, "sparse"))
            self.assertEqual({(abs(n), d) for n, d in sparse}, {(1, 1)})
        for seed in SEEDS:
            # all six pairs of m_-1 bracket to a nonzero multiple of m_-2, both orientations
            self.assertEqual(len(constants(gen.document("heisenberg5", seed, "dense"))), 12)
        dense = [c for seed in SEEDS for c in constants(gen.document("heisenberg5", seed, "dense"))]
        self.assertTrue(any(d > 1 for _, d in dense))
        self.assertTrue(any(abs(n) > 1 for n, _ in dense))


if __name__ == "__main__":
    unittest.main()
