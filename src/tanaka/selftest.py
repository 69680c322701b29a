"""Seeded property suites, shared by the test suite and the CLI.

The filtered suite generates random filtration fixtures (triangular
invertible maps over small graded models), derives gradations, lifts,
and unipotent actions from them, and checks the calculus laws as
exact identities: the quasi-gradation/lift bijection, functoriality
of the projections, orbit = fiber for the degree-m subgroup, and
simple transitivity of the transition class. The catalog suite
re-runs every frozen regression value through the engine.

The filtered cases run on the CPUs this process may use (`taskset -c
0` gives it one). `_draw_case` takes one case's data from the seeded
stream, and every draw depends only on the model, so a process can
replay the stream forward to any case and check it with the pure
`_check_case`. The caller forks W - 1 workers, and all W processes
take case indices from one queue, a pipe they all read, so a process
that is done with a case takes the next one and none waits for a
slower share. One more forked process, the feeder, writes the indices
into the pipe, four bytes each, so the pipe's capacity never holds up
the caller. Each worker sends its (case, outcomes) pairs back through
its own pipe, marshalled, and the caller merges them in case order:
the report is the sequential one, byte for byte. With one CPU, one
case, or a second thread running (a fork copies only the calling
thread), nothing is forked and the cases are checked in order.
"""

from __future__ import annotations

import marshal
import os
import random
import signal
import threading
from fractions import Fraction
from itertools import islice
from typing import BinaryIO, Callable, Iterable, Iterator

from ._record import record
from .catalog import entries
from .exact_linear import Matrix, Subspace
from .filtered import (
    AdaptedGradation,
    FilteredSpace,
    act_quasi,
    full_lift,
    gradation_of_quasi,
    make_filtered_from_graded,
    mlift_of_quasi,
    project_gradation,
    project_quasi,
    quasi_of_mlift,
    transition,
)
from .graded import GradedMap, GradedSpace, HomogeneousMap
from .lie import G0Spec, der0_basis
from .prolong import order_and_bound, prolong


@record
class SuiteReport:
    name: str
    cases: int
    checks: int
    failures: tuple[str, ...]
    counts: tuple[tuple[str, int], ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def count_of(self, label: str) -> int:
        """How many times the named law was exercised."""
        return dict(self.counts).get(label, 0)


MODEL_SHAPES = (
    {-1: 2, 0: 1},
    {-2: 1, -1: 2},
    {-1: 1, 0: 1, 1: 1},
    {-2: 1, -1: 1, 0: 2},
    {-1: 3},
    {-3: 1, -2: 1, -1: 2},
)


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3)))


def _random_triangular(rng: random.Random, model: GradedSpace) -> Matrix:
    """Invertible filtration-preserving map: within-degree blocks upper

    triangular with nonzero diagonal, arbitrary entries toward higher
    degrees.
    """
    n = model.total_dim
    degs = [model.degree_of_index(j) for j in range(n)]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for c in range(n):
        rows[c][c] = Fraction(rng.choice((1, 1, 2, -1, 3)))
        for r in range(n):
            if degs[r] > degs[c] or (degs[r] == degs[c] and r < c):
                rows[r][c] = _random_fraction(rng)
    return Matrix.from_rows(rows)


def _random_action(rng: random.Random, model: GradedSpace,
                   degrees: range) -> GradedMap:
    """Identity plus random homogeneous parts at the given degrees."""
    parts = {0: GradedMap.identity(model).part(0)}
    for d in degrees:
        blocks = {}
        for i in model.degrees:
            rows, cols = model.dim(i + d), model.dim(i)
            if rows and cols:
                blocks[i] = Matrix.from_rows(
                    [[_random_fraction(rng) for _ in range(cols)] for _ in range(rows)])
        if blocks:
            parts[d] = HomogeneousMap.make(model, model, d, blocks)
    return GradedMap.make(model, model, parts)


def _gradation_from_columns(space: FilteredSpace, model: GradedSpace,
                            t: Matrix) -> AdaptedGradation:
    parts = {}
    for i in range(space.low, space.high + 1):
        cols = [t.col(j) for j in range(model.total_dim)
                if model.degree_of_index(j) == i]
        parts[i] = Subspace.span(space.ambient_dim, cols)
    return AdaptedGradation.make(space, parts)


def _parts_below(a: GradedMap, m: int) -> tuple[tuple[int, HomogeneousMap], ...]:
    return tuple((d, p) for d, p in a.parts if 0 < d < m)


def _draw_case(rng: random.Random) -> tuple:
    """One case's random data, drawn in a fixed order from rng: the model,

    the triangular map t, the degrees m and p, and the actions a_high, a
    and a2. Every draw depends on the model alone, never on a computed
    result, so a process can replay the stream without checking a case.
    """
    model = GradedSpace.from_dims(rng.choice(MODEL_SHAPES))
    t = _random_triangular(rng, model)
    full = model.degrees[-1] - model.degrees[0] + 1
    m = rng.randint(1, full)
    p = rng.randint(m, full)
    a_high = _random_action(rng, model, range(m, full))
    a = _random_action(rng, model, range(1, full))
    a2 = _random_action(rng, model, range(1, full))
    return model, t, m, p, a_high, a, a2


def _check_case(drawn: tuple) -> list[tuple[str, bool]]:
    """The (law, holds) outcomes of one drawn case, in check order."""
    model, t, m, p, a_high, a, a2 = drawn
    outcomes: list[tuple[str, bool]] = []

    def check(label: str, ok: bool) -> None:
        outcomes.append((label, ok))

    space, u = make_filtered_from_graded(model, t)
    full = space.full_degree

    h = _gradation_from_columns(space, model, t)
    q = project_gradation(h, m)
    f = mlift_of_quasi(q, u)

    # bijection between quasi-gradations and lifts
    q_back = quasi_of_mlift(f, u)
    check("quasi->lift->quasi round-trip", q_back == q)
    check("lift->quasi->lift round-trip", mlift_of_quasi(q_back, u) == f)

    # projections compose
    q_full = project_gradation(h, full)
    check("projection functoriality",
          project_quasi(project_quasi(q_full, p), m) == project_quasi(q_full, m))
    check("degree-1 projection is the filtration itself",
          all(part == space.part(i) for i, part in project_quasi(q_full, 1).parts))

    # full-degree quasi-gradations are gradations
    fl = full_lift(h, u)
    check("full-degree round-trip", gradation_of_quasi(quasi_of_mlift(fl, u)) == h)

    # orbit = fiber for the degree >= m subgroup (identity when m = full)
    acted = act_quasi(fl, a_high)
    h_moved = gradation_of_quasi(quasi_of_mlift(acted, u))
    check("degree >= m action fixes the projection", project_gradation(h_moved, m) == q)
    check("degree >= m action fixes the lift", act_quasi(f, a_high) == f)
    b = transition(fl, full_lift(h_moved, u))
    check("same projection implies transition in degrees >= m", _parts_below(b, m) == ())

    # simple transitivity and class recovery
    f2 = act_quasi(f, a)
    b = transition(f, f2)
    check("transition reproduces the action", act_quasi(f, b) == f2)
    check("transition recovers the class below degree m",
          _parts_below(b, m) == _parts_below(a, m))
    if m == 1:
        check("degree-1 transition is the identity class", b.is_identity())

    # right action law, classes composed as maps
    check("action composes through the class product",
          act_quasi(f2, a2) == act_quasi(f, a.compose(a2)))

    # action oracle through the full lift
    acted_full = act_quasi(fl, a)
    oracle = mlift_of_quasi(project_quasi(quasi_of_mlift(acted_full, u), m), u)
    check("action agrees with project-after-full-lift", f2 == oracle)
    return outcomes


def _draws(seed: int, cases: int) -> Iterator[tuple]:
    rng = random.Random(seed)
    for _ in range(cases):
        yield _draw_case(rng)


Outcomes = list[tuple[int, list[tuple[str, bool]]]]

_INDEX = 4  # bytes per case index in the queue

_ATOMIC = 512  # POSIX's least PIPE_BUF: a pipe write of at most 512 bytes is atomic


def _check_cases(seed: int, indices: Iterable[int]) -> Outcomes:
    """(case, outcomes) for each case index in indices, which increase:

    the seeded stream is replayed forward to each. The list stops
    before the first case that raises.
    """
    rng = random.Random(seed)
    drawn, done = None, 0  # the last case drawn, and how many were drawn
    checked = []
    for case in indices:
        while done <= case:
            drawn, done = _draw_case(rng), done + 1
        try:
            checked.append((case, _check_case(drawn)))
        except Exception:
            break
    return checked


def _taken(queue: BinaryIO) -> Iterator[int]:
    """The case indices this process takes from the queue, in the order

    written, until it is empty and closed. Every write holds whole
    indices and is atomic, so a read of one index gets a whole one.
    """
    while index := queue.read(_INDEX):
        yield int.from_bytes(index, "little")


def _feed(feed: BinaryIO, indices: bytes) -> Outcomes:
    """Write the indices to the queue and close it, stopping early once

    no process reads it; a feeder checks no case.
    """
    with feed, memoryview(indices) as view:
        try:
            for first in range(0, len(view), _ATOMIC):
                feed.write(view[first:first + _ATOMIC])
        except BrokenPipeError:
            pass
    return []


def _processes(cases: int) -> int:
    """One process per CPU this process may use, at most one per case;

    one while another thread runs, since a fork copies only the calling
    thread.
    """
    if threading.active_count() > 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), cases))


def _start_worker(job: Callable[[], Outcomes], unused: BinaryIO) -> tuple[int, BinaryIO]:
    """Fork a process that closes its copy of the unused end of the

    queue, runs job and writes the outcomes, marshalled, to a pipe; its
    pid and the read end.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:  # the worker leaves through os._exit on every path
        code = 1
        try:
            os.close(read_end)
            unused.close()
            payload = marshal.dumps(job())
            with open(write_end, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _stop(pid: int, pipe: BinaryIO) -> None:
    """Kill and reap a worker whose reply will not be read."""
    pipe.close()
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass


def _check_shared(seed: int, cases: int, width: int) -> Outcomes:
    """The outcomes of this process and width - 1 forked workers, all

    taking cases from one queue. A last worker, the feeder, writes the
    queue, so its writes may wait for room in the pipe and this process
    never does.
    """
    read_end, write_end = os.pipe()
    queue, feed = open(read_end, "rb", buffering=0), open(write_end, "wb", buffering=0)
    indices = b"".join(k.to_bytes(_INDEX, "little") for k in range(cases))
    workers: list[tuple[int, BinaryIO]] = []
    try:
        with queue, feed:
            for _ in range(1, width):
                workers.append(_start_worker(lambda: _check_cases(seed, _taken(queue)), feed))
            workers.append(_start_worker(lambda: _feed(feed, indices), queue))
            feed.close()  # the queue ends when the feeder, its last writer, is done
            outcomes = _check_cases(seed, _taken(queue))
        # with this end closed, a feeder waiting on a queue no process reads ends
        while workers:
            pid, pipe = workers[0]
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[0]
            if status or not payload:
                raise RuntimeError(f"a selftest worker ended without a reply (status {status})")
            outcomes += marshal.loads(payload)
    finally:
        for pid, pipe in workers:
            _stop(pid, pipe)
    return outcomes


def run_filtered_suite(seed: int, cases: int = 200) -> SuiteReport:
    """Random-instance checks of the filtered calculus laws.

    The cases run on the CPUs this process may use: W processes take
    case indices from one queue, each replaying the seeded stream
    forward to the cases it takes, and the outcomes are merged in case
    order, so the report is the one a single process would give. A case
    that raises makes the call raise what checking the cases in order
    would raise first.
    """
    width = _processes(cases)
    outcomes = dict(_check_cases(seed, range(cases)) if width == 1
                    else _check_shared(seed, cases, width))
    failures: list[str] = []
    counter: dict[str, int] = {}
    checks = 0
    for case in range(cases):
        if case not in outcomes:  # this case raised: raise it here, in this process
            _check_case(next(islice(_draws(seed, cases), case, None)))
            raise RuntimeError(f"seed {seed} case {case} raised once but not when checked again")
        for label, ok in outcomes[case]:
            checks += 1
            counter[label] = counter.get(label, 0) + 1
            if not ok and len(failures) < 25:
                failures.append(f"seed {seed} case {case} ({label})")
    return SuiteReport("filtered", cases, checks, tuple(failures),
                       tuple(sorted(counter.items())))


def run_catalog_suite() -> SuiteReport:
    """Re-derive every frozen catalog value through the engine."""
    failures: list[str] = []
    checks = 0
    ncases = 0
    for entry in entries():
        for rec in entry.expected:
            ncases += 1
            checks += 1
            if rec.kind == "der0_dim":
                got = len(der0_basis(entry.algebra))
                if got != rec.value:
                    failures.append(
                        f"{entry.name} der0 dim: expected {rec.value}, got {got}")
                continue
            res = prolong(entry.algebra, G0Spec(rec.g0_preset), max_degree=rec.depth)
            got_dims = tuple(d for d in res.dims if d)
            if got_dims != rec.dims:
                failures.append(
                    f"{entry.name}/{rec.g0_preset} dims: expected {rec.dims}, got {got_dims}")
                continue
            if res.status.order != rec.order:
                failures.append(
                    f"{entry.name}/{rec.g0_preset} order: expected {rec.order},"
                    f" got {res.status.order}")
                continue
            if rec.bound is not None:
                checks += 1
                _, bound = order_and_bound(res)
                if bound != rec.bound:
                    failures.append(
                        f"{entry.name}/{rec.g0_preset} bound: expected {rec.bound},"
                        f" got {bound}")
    return SuiteReport("catalog", ncases, checks, tuple(failures))
