"""Seeded property suites, shared by the test suite and the CLI.

The filtered suite generates random filtration fixtures (triangular
invertible maps over small graded models), derives gradations, lifts,
and unipotent actions from them, and checks the calculus laws as
exact identities: the quasi-gradation/lift bijection, functoriality
of the projections, orbit = fiber for the degree-m subgroup, and
simple transitivity of the transition class. The catalog suite
re-runs every frozen regression value through the engine.
"""

from __future__ import annotations

import random
from fractions import Fraction

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


def run_filtered_suite(seed: int, cases: int = 200) -> SuiteReport:
    """Random-instance checks of the filtered calculus laws."""
    rng = random.Random(seed)
    failures: list[str] = []
    counter: dict[str, int] = {}
    checks = 0

    def check(case: int, label: str, ok: bool) -> None:
        nonlocal checks
        checks += 1
        counter[label] = counter.get(label, 0) + 1
        if not ok and len(failures) < 25:
            failures.append(f"seed {seed} case {case} ({label})")

    for case in range(cases):
        model = GradedSpace.from_dims(rng.choice(MODEL_SHAPES))
        t = _random_triangular(rng, model)
        space, u = make_filtered_from_graded(model, t)
        full = space.full_degree
        m = rng.randint(1, full)

        h = _gradation_from_columns(space, model, t)
        q = project_gradation(h, m)
        f = mlift_of_quasi(q, u)

        # bijection between quasi-gradations and lifts
        check(case, "quasi->lift->quasi round-trip", quasi_of_mlift(f, u) == q)
        check(case, "lift->quasi->lift round-trip",
              mlift_of_quasi(quasi_of_mlift(f, u), u) == f)

        # projections compose
        q_full = project_gradation(h, full)
        p = rng.randint(m, full)
        check(case, "projection functoriality",
              project_quasi(project_quasi(q_full, p), m) == project_quasi(q_full, m))
        check(case, "degree-1 projection is the filtration itself",
              all(part == space.part(i)
                  for i, part in project_quasi(q_full, 1).parts))

        # full-degree quasi-gradations are gradations
        fl = full_lift(h, u)
        check(case, "full-degree round-trip",
              gradation_of_quasi(quasi_of_mlift(fl, u)) == h)

        # orbit = fiber for the degree >= m subgroup (identity when m = full)
        a_high = _random_action(rng, model, range(m, full))
        acted = act_quasi(fl, a_high)
        h_moved = gradation_of_quasi(quasi_of_mlift(acted, u))
        check(case, "degree >= m action fixes the projection",
              project_gradation(h_moved, m) == q)
        check(case, "degree >= m action fixes the lift",
              act_quasi(f, a_high) == f)
        b = transition(fl, full_lift(h_moved, u))
        check(case, "same projection implies transition in degrees >= m",
              _parts_below(b, m) == ())

        # simple transitivity and class recovery
        a = _random_action(rng, model, range(1, full))
        f2 = act_quasi(f, a)
        b = transition(f, f2)
        check(case, "transition reproduces the action", act_quasi(f, b) == f2)
        check(case, "transition recovers the class below degree m",
              _parts_below(b, m) == _parts_below(a, m))
        if m == 1:
            check(case, "degree-1 transition is the identity class",
                  b.is_identity())

        # right action law, classes composed as maps
        a2 = _random_action(rng, model, range(1, full))
        check(case, "action composes through the class product",
              act_quasi(act_quasi(f, a), a2) == act_quasi(f, a.compose(a2)))

        # action oracle through the full lift
        acted_full = act_quasi(fl, a)
        oracle = mlift_of_quasi(project_quasi(quasi_of_mlift(acted_full, u), m), u)
        check(case, "action agrees with project-after-full-lift", act_quasi(f, a) == oracle)

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
