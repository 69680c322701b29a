"""The benchmark refuses to run without the sources it measures."""

import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
ARGS = ("--seed", "1", "--seconds", "1", "--trace", "0")


class RunTest(unittest.TestCase):
    def run_bench(self, root: Path, workload: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, *ARGS],
                              cwd=root, capture_output=True, text=True, timeout=60)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(BENCH.parent / "BENCHMARK.json", tmp)
            done = self.run_bench(Path(tmp), "selftest_filtered")
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")

    def test_unknown_workload(self):
        done = self.run_bench(BENCH.parent, "no_such_workload")
        self.assertEqual(done.returncode, 2)
        self.assertEqual(done.stdout, "")

    def launch(self, argv, deadline_in: float = run.RUN_DEADLINE_S):
        bench = run.Run(time.monotonic() - run.RUN_DEADLINE_S + deadline_in)
        launcher = run.Launcher()
        try:
            with tempfile.TemporaryDirectory() as tmp:
                return launcher.spawn(argv, Path(tmp) / "out", bench)
        finally:
            launcher.close()

    def test_a_command_past_its_deadline_is_killed(self):
        start = time.monotonic()
        code, _, _, _ = self.launch(("selftest", "--seed", "1"), deadline_in=0.5)
        self.assertEqual(code, -9)
        self.assertLess(time.monotonic() - start, 5)

    def test_peak_rss_is_the_childs_own(self):
        ballast = bytearray(200 << 20)
        ballast[::4096] = b"\1" * len(ballast[::4096])
        code, wall, peak_mb, out = self.launch(("check", "preset:abelian2"))
        self.assertEqual(code, 0)
        self.assertIn("fundamental", out)
        self.assertGreater(wall, 0)
        self.assertLess(peak_mb, 100)
        del ballast

if __name__ == "__main__":
    unittest.main()
