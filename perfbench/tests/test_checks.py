"""Output checks: closed forms, and tampered outputs are rejected."""

import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
from workloads import run_in_process  # noqa: E402


class ClosedFormTest(unittest.TestCase):
    def test_heisenberg_dims(self):
        self.assertEqual([checks.heisenberg_dim(1, k) for k in range(4)], [4, 6, 9, 12])
        self.assertEqual([checks.heisenberg_dim(2, k) for k in range(4)], [11, 24, 46, 80])
        # der0 of heisenberg(2n+1) is csp(2n): n(2n+1) + 1
        self.assertEqual(checks.heisenberg_dim(4, 0), 37)

    def test_abelian_gl_dims(self):
        self.assertEqual([checks.abelian_gl_dim(3, k) for k in range(4)], [9, 18, 30, 45])
        self.assertEqual([checks.abelian_gl_dim(4, k) for k in range(3)], [16, 40, 80])


class TamperTest(unittest.TestCase):
    def test_prolong_result(self):
        code, out = run_in_process(("prolong", "preset:free_235", "--max-degree", "4",
                                    "--format", "json"))
        check = checks.prolong_result(4, [2, 1, 2, 0], order=3, bound=14)
        self.assertEqual(check(code, out), [])
        self.assertTrue(check(1, out))
        self.assertTrue(check(code, out.replace('"bound": 14', '"bound": 15')))
        self.assertTrue(check(code, out.replace('"dim_g0": 4', '"dim_g0": 5')))
        self.assertTrue(check(code, out.replace('"order": 3', '"order": 2')))
        self.assertTrue(check(code, out.replace('"dims": [\n    2,', '"dims": [\n    2 ,')))
        self.assertTrue(check(code, out[:-40]))

    def test_g0_generators(self):
        doc = run_in_process(("der0", "preset:heisenberg3", "--format", "json"))[1]
        from tanaka.catalog import make_algebra
        from tanaka.jsonio import emit_algebra

        algebra = emit_algebra(make_algebra("heisenberg3"))
        check = checks.g0_generators(algebra, 4)
        self.assertEqual(check(0, doc), [])
        self.assertTrue(checks.g0_generators(algebra, 5)(0, doc))
        self.assertTrue(check(0, doc.replace("\n", " ", 1)))

    def test_tower_against_reference(self):
        argv = ("tower", "preset:heisenberg3", "--max-degree", "2")
        code, out = run_in_process(argv)
        check = checks.same_as(out, checks.tower_dims([6, 9], None))
        self.assertEqual(check(code, out), [])
        tampered = out.replace(" 9 ", " 8 ", 1)
        self.assertNotEqual(tampered, out)
        self.assertTrue(check(code, tampered))
        self.assertTrue(checks.tower_dims([6, 9, 12], None)(code, out))

    def test_torsion_verdicts(self):
        code, out = run_in_process(("torsion", "preset:heisenberg3", "--max-degree", "2",
                                    "--level", "1"))
        self.assertEqual(checks.torsion_passes(code, out), [])
        self.assertTrue(checks.torsion_passes(code, out.replace("PASS", "FAIL", 1)))

    def test_selftest_summary(self):
        out = ("filtered: 200 cases, 2505 checks, 0 failures\n"
               "catalog: 13 cases, 17 checks, 0 failures\nall suites passed\n")
        check = checks.selftest_passed(200)
        self.assertEqual(check(0, out), [])
        self.assertEqual(check(0, out.replace("13 cases, 17", "21 cases, 30")), [])
        self.assertTrue(check(0, out.replace("all suites passed\n", "")))
        self.assertTrue(check(0, out.replace("2505 checks, 0", "2505 checks, 1")))
        self.assertTrue(check(0, out.replace("17 checks, 0", "17 checks, 2")))
        self.assertTrue(check(0, out.replace("200 cases", "20 cases")))
        self.assertTrue(check(1, out))


if __name__ == "__main__":
    unittest.main()
