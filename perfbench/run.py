"""Benchmark of the tanaka CLI on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. With --trace 0 every command
of the workload runs as a fresh `python -m tanaka.cli` process, started
by launcher.py, one at a time, in passes over its command list until
the time is used; the last line printed is a JSON object with the
end-to-end metrics. With
--trace 1 the same commands run in this process through
`tanaka.cli.main`, alternating untraced passes with passes whose calls
into each layer are wrapped in spans (see spans.py); the last line
then carries the per-layer metrics. Every output is checked, in both
modes, against closed forms (see checks.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

COMMAND_TIMEOUT_S = 90.0  # one command; a timeout counts as a failure
RUN_DEADLINE_S = 160.0  # no command starts or runs past this, from the start
SETUP_PER_PASS = 5  # `tanaka check` runs behind setup_s, before each pass


class Run:
    """Attempts, failures and the deadline of one benchmark run."""

    def __init__(self, start: float):
        self.deadline = start + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0

    def judge(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)


class Launcher:
    """The helper process that starts each CLI child (see launcher.py)."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    def spawn(self, argv, stdout_path: Path, run: Run) -> tuple[int, float, float, str]:
        """One `python -m tanaka.cli` child: (exit code, wall seconds,

        peak RSS in MB, stdout). It is killed at the command timeout or
        at the run's deadline, whichever comes first.
        """
        timeout = min(COMMAND_TIMEOUT_S, run.deadline - time.monotonic())
        if timeout <= 0:
            return -9, 0.0, 0.0, ""
        request = {"argv": [sys.executable, "-m", "tanaka.cli", *argv], "stdout": str(stdout_path),
                   "timeout": timeout, "env": self.env, "cwd": str(ROOT)}
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        code, wall, peak_kib = json.loads(self.process.stdout.readline())
        return code, wall, peak_kib / 1024, stdout_path.read_text(encoding="utf-8")

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()
        self.process.stdout.close()


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(prepared, work: Path, seconds: float, run: Run, spawn) -> dict:
    """Timed passes of child processes, each after a few set-up samples.

    Spreading the set-up samples over the run makes setup_s describe the
    whole run rather than the few seconds at its start.
    """
    from checks import check_valid

    scratch = work / "stdout.txt"
    sources = prepared.setup_sources
    spawn(("check", sources[0], "--format", "json"), scratch, run)  # warm the caches
    setup: list[float] = []
    per_command: dict[int, list] = {}
    pass_rss, pass_walls = [], []
    start = time.monotonic()
    while True:
        for _ in range(SETUP_PER_PASS):
            source = sources[len(setup) % len(sources)]
            code, wall, _, out = spawn(("check", source, "--format", "json"), scratch, run)
            run.judge(f"check {source}", check_valid(code, out))
            setup.append(wall)
        walls, rss = [], 0.0
        for i, command in enumerate(prepared.commands(len(pass_walls))):
            code, wall, peak, out = spawn(command.argv, command.keep or scratch, run)
            run.judge(" ".join(command.argv), command.check(code, out))
            per_command.setdefault(i, []).append(wall)
            walls.append(wall)
            rss = max(rss, peak)
        pass_rss.append(rss)
        pass_walls.append(sum(walls))
        print(f"pass {len(pass_walls)}: {sum(walls):.3f} s, peak {rss:.1f} MB; "
              + " ".join(f"{w:.3f}" for w in walls))
        # stop at the pass boundary nearest to the time asked for
        elapsed = time.monotonic() - start
        if elapsed + statistics.mean(pass_walls) / 2 > seconds or time.monotonic() > run.deadline:
            break
    return {
        # per-command medians summed: one slow outlier in a pass does not move it
        "wall_s": (sum(statistics.median(t) for t in per_command.values()), len(pass_walls),
                   quartiles(pass_walls)),
        "setup_s": (statistics.median(setup), len(setup), quartiles(setup)),
        "peak_rss_mb": (statistics.median(pass_rss), len(pass_rss), quartiles(pass_rss)),
    }


def in_process_pass(commands, run: Run, recorder=None) -> float:
    """One pass through tanaka.cli.main, checked after the wrappers are gone;

    wall seconds.
    """
    import spans
    from workloads import run_in_process

    installed = spans.Installed(recorder) if recorder else None
    total, outputs = 0.0, []
    try:
        for command in commands:
            start = time.perf_counter()
            if recorder:
                code, out = recorder.root(run_in_process, command.argv)
            else:
                code, out = run_in_process(command.argv)
            total += time.perf_counter() - start
            if command.keep:
                command.keep.write_text(out, encoding="utf-8")
            outputs.append((command, code, out))
    finally:
        if installed:
            installed.remove()
    for command, code, out in outputs:
        run.judge(" ".join(command.argv), command.check(code, out))
    return total


def traced(prepared, seconds: float, run: Run) -> dict:
    """Traced in-process passes between untraced ones; per-layer medians.

    Every traced pass has an untraced pass on each side, so neither
    side of the overhead ratio gets all of the cold first pass.
    """
    import spans

    commands = prepared.commands(0)  # the same inputs on both sides of the ratio
    start = time.monotonic()
    plain, traced_walls, samples = [in_process_pass(commands, run)], [], []
    while True:
        recorder = spans.Recorder()
        traced_walls.append(in_process_pass(commands, run, recorder))
        samples.append(recorder.metrics())
        plain.append(in_process_pass(commands, run))
        # stop at the pair boundary nearest to the time asked for
        elapsed = time.monotonic() - start
        if elapsed + (traced_walls[-1] + plain[-1]) / 2 > seconds \
                or time.monotonic() > run.deadline:
            break
    out = {}
    for name, *_ in spans.PER_LAYER:
        if name == "trace.overhead_ratio":
            values = [statistics.median(traced_walls) / statistics.median(plain)]
        else:
            values = [s[name] for s in samples]
        out[name] = (statistics.median(values), len(values), quartiles(values))
    return out


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tanaka" / "cli.py").is_file():
        print(f"error: no tanaka sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    run = Run(time.monotonic())
    work = WORK / str(os.getpid())
    work.mkdir(parents=True)
    try:
        prepared = WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            measured = traced(prepared, args.seconds, run)
            units = {name: unit for name, unit, _, _ in spans.PER_LAYER}
            moves = {name: f"  -> {target}" for name, _, _, target in spans.PER_LAYER}
        else:
            launcher = Launcher()
            try:
                measured = end_to_end(prepared, work, args.seconds, run, launcher.spawn)
            finally:
                launcher.close()
            units, moves = UNITS, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, n, (q1, _, q3)) in measured.items():
        print(f"{name:34} {value:14.6f} {units[name]:6} n={n} q1={q1:.6f} q3={q3:.6f}"
              + moves.get(name, ""))
    print(f"commands attempted {run.attempted}, failed {run.failed}, "
          f"failed_ratio {run.failed / max(run.attempted, 1):.4f}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _, _) in measured.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
