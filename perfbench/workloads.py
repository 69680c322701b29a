"""The workloads: generated inputs, command lists and their checks.

Each workload writes its documents into a work directory from the
benchmark's seed; the program sees only those files. A command is the
argument list of one `tanaka` invocation plus the check its output
must pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import checks
import gen
import tanaka
from tanaka.cli import main as cli_main


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: checks.Check
    keep: Optional[Path] = None  # stdout goes here, for a later command to read


@dataclass(frozen=True)
class Prepared:
    commands: Callable[[int], tuple[Command, ...]]  # the command list of pass k
    setup_sources: tuple[str, ...]  # inputs that `tanaka check` loads and validates


def pass_seed(seed: int, k: int) -> int:
    """Seed of the inputs of pass k. Each pass draws new inputs, so a run's

    median covers several draws and the spread between runs is not that
    of a single draw.
    """
    return random.Random(f"{seed}:{k}").randrange(1 << 31)


def run_in_process(argv) -> tuple[int, str]:
    """tanaka.cli.main on argv, with its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(list(argv))
    return code, out.getvalue()


def preset_outputs(commands: list, cache: Path) -> list[str]:
    """Outputs of the commands run in-process, before anything is timed.

    They are kept in `cache` under a digest of the tanaka sources and the
    commands, so later runs on the same sources skip the recomputation.
    """
    digest = hashlib.sha256(repr(commands).encode())
    for path in sorted(Path(tanaka.__file__).parent.glob("*.py")):
        digest.update(path.read_bytes())
    path = cache / f"presets-{digest.hexdigest()[:16]}.json"
    if path.is_file():
        return json.loads(path.read_text(encoding="utf-8"))
    outputs = [run_in_process(argv)[1] for argv in commands]
    partial = path.with_suffix(f".{os.getpid()}")
    partial.write_text(json.dumps(outputs), encoding="utf-8")
    os.replace(partial, path)
    return outputs


def _write(work: Path, presets, seed: int, kind: str) -> dict[str, Path]:
    work.mkdir(parents=True, exist_ok=True)
    paths = {}
    for preset in presets:
        path = work / f"{preset}.json"
        path.write_text(gen.document(preset, seed, kind), encoding="utf-8")
        paths[preset] = path
    return paths


def _sparse_commands(seed: int, work: Path) -> tuple[Command, ...]:
    """The deep, sparse solver path: documents in a signed-permutation basis."""
    docs = _write(work, ("heisenberg5", "heisenberg9", "abelian4", "free_235", "abelian3"),
                  seed, "sparse")
    h5, h9 = docs["heisenberg5"], docs["heisenberg9"]
    g0 = work / "heisenberg5-der0.json"
    return (
        Command(("der0", str(h5), "--format", "json"),
                checks.g0_generators(h5.read_text(), checks.heisenberg_dim(2, 0)), keep=g0),
        Command(("prolong", str(h5), "--g0", f"file:{g0}", "--max-degree", "3",
                 "--format", "json"),
                checks.prolong_result(checks.heisenberg_dim(2, 0),
                                      [checks.heisenberg_dim(2, s) for s in (1, 2, 3)])),
        Command(("der0", str(h9), "--format", "json"),
                checks.g0_generators(h9.read_text(), checks.heisenberg_dim(4, 0))),
        Command(("prolong", str(docs["abelian4"]), "--g0", "gl", "--max-degree", "2",
                 "--format", "json"),
                checks.prolong_result(checks.abelian_gl_dim(4, 0),
                                      [checks.abelian_gl_dim(4, s) for s in (1, 2)])),
        # Cartan's G2: order 3, dims 4/2/1/2, bound 14
        Command(("prolong", str(docs["free_235"]), "--max-degree", "4", "--format", "json"),
                checks.prolong_result(4, [2, 1, 2, 0], order=3, bound=14)),
        # co(3): order 1, bound (n+1)(n+2)/2 = 10
        Command(("prolong", str(docs["abelian3"]), "--g0", "co", "--format", "json"),
                checks.prolong_result(4, [3, 0], order=1, bound=10)),
    )


DENSE_PLAN = (
    ("heisenberg3", ("tower", "--max-degree", "3"),
     checks.tower_dims([checks.heisenberg_dim(1, s) for s in (1, 2, 3)], None)),
    ("heisenberg3", ("torsion", "--max-degree", "3", "--level", "1"), checks.torsion_passes),
    ("heisenberg3", ("torsion", "--max-degree", "3", "--level", "2"), checks.torsion_passes),
    ("free_235", ("tower", "--max-degree", "4"), checks.tower_dims([2, 1, 2, 0], 14)),
    ("heisenberg5", ("tower", "--max-degree", "1"),
     checks.tower_dims([checks.heisenberg_dim(2, 1)], None)),
)


def prolong_tower(seed: int, work: Path) -> Prepared:
    """The big-matrix engine: the sparse solver path, then the torsion side

    under coefficient growth, on documents in a dense basis.
    """
    # the numbers do not depend on the basis: compare with the catalog preset
    outputs = preset_outputs([(verb, f"preset:{preset}", *options)
                              for preset, (verb, *options), _ in DENSE_PLAN], work.parent)
    references = [checks.same_as(out, check) for out, (_, _, check) in zip(outputs, DENSE_PLAN)]

    def commands(k: int) -> tuple[Command, ...]:
        docs = _write(work / f"pass{k}" / "dense", ("heisenberg3", "free_235", "heisenberg5"),
                      pass_seed(seed, k), "dense")
        return _sparse_commands(pass_seed(seed, k), work / f"pass{k}" / "sparse") + tuple(
            Command((verb, str(docs[preset]), *options), check)
            for (preset, (verb, *options), _), check in zip(DENSE_PLAN, references))

    # every input document, each once
    return Prepared(commands, tuple(dict.fromkeys(c.argv[1] for c in commands(0))))


def selftest_filtered(seed: int, work: Path) -> Prepared:
    def commands(k: int) -> tuple[Command, ...]:
        return (Command(("selftest", "--seed", str(pass_seed(seed, k))),
                        checks.selftest_passed(200)),)

    return Prepared(commands, ("preset:abelian2",))


WORKLOADS: dict[str, Callable[[int, Path], Prepared]] = {
    "prolong_tower": prolong_tower,
    "selftest_filtered": selftest_filtered,
}
