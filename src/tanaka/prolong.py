"""Tanaka prolongation of a fundamental graded Lie algebra.

Starting from m + g^0 (the symbol algebra with a chosen degree-0
part), each level g^(s+1) is the space of degree-(s+1) homogeneous
maps A: m -> m_s satisfying

    A[x, y] = [A(x), y] + [x, A(y)]    for all x, y in m,

where a value z of A lying in some g^p acts on m by [z, y] = z(y) and
[y, z] = -z(y), and values in m bracket through m itself. Iterating
until a level vanishes (or a degree cap is hit) yields the prolongation
tower, its order, and the dimension bound for the symmetry group of a
corresponding geometric structure.

Tower coordinate convention: the graded space of m_s lists m's
components first (ascending degree), then g^0, then g^1 ... g^s, so
every m_(s-1) coordinate vector is a prefix of an m_s one.

Each level is solved by `lie.derivations`, the solver that also gives
der0 in degree 0, acting through the tower's table act[w][b] =
[e_w, e_b] of sparse rows {index: Fraction}: the rows of m + g^0's own
bracket table, extended as each level is pushed. The solver
re-substitutes every basis map from its own sparse columns and the
table, never from the constraint columns. The tower is built one way,
from m + g^0, by `prolong`, `prolong_step` and the result alike.

The extended bracket is the same table grown to every basis pair of
the tower: its rows against m are the tower's own rows (m + g^0's
table and each level map's columns), the [m, g^s] entries their
negatives, and only the pairs of positive levels are computed, by
[f1, f2](x) = [f1(x), f2] + [f1, f2(x)] read through that table. A
ProlongationResult builds its full-depth tower from its levels and its
extended bracket each on first read and keeps them as cached
properties, so every caller (tower report, kernel reports, boundary
maps) shares one copy; `prolong` hands over only the levels.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

from ._record import record
from .exact_linear import NO_TERMS, Sparse, Subspace, add_scaled
from .graded import GradedSpace, HomogeneousMap, fresh_labels, hom_terms_of_columns
from .lie import (
    G0Spec,
    GradedLieAlgebra,
    LevelInconsistency,
    adjoin_g0,
    derivations,
    is_fundamental,
    jacobi_triples,
    resolve_g0,
    validate,
)


@record
class ProlongationLevel:
    """One level g^s of the tower, with its ambient hom-space data.

    carrier lives in the package-wide hom coordinates of
    Hom^s(m, m_(s-1)); basis is the same data as homogeneous maps.
    """

    degree: int
    space_below: GradedSpace
    carrier: Subspace
    basis: tuple[HomogeneousMap, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


@record
class ProlongationStatus:
    kind: str  # "finite" | "truncated"
    order: Optional[int]
    max_degree: int

    def __post_init__(self):
        if self.kind not in ("finite", "truncated"):
            raise ValueError(f"bad status kind {self.kind!r}")
        if (self.kind == "finite") != (self.order is not None):
            raise ValueError("order is set exactly for finite status")


class _Tower:
    """Shared evaluation context: m, m + g^0 and the computed levels.

    act[w][b] is [e_w, e_b] as a sparse row, for every basis vector e_w
    of the tower built so far and e_b of m; the value lies in the levels
    below e_w's, so its indices are valid in every larger tower. The
    rows start as m + g^0's own table, where [d_i, e_b] = d_i(e_b), and
    grow as levels are pushed.
    """

    def __init__(self, negative: GradedLieAlgebra, base: GradedLieAlgebra):
        self.negative = negative
        self.levels: list[ProlongationLevel] = []
        self.nm = negative.space.total_dim
        self._spaces: list[GradedSpace] = [base.space]
        self.act: list[Sequence[Sparse]] = list(base.act)

    def push(self, level: ProlongationLevel) -> None:
        below = self._spaces[-1]
        labels = fresh_labels(below, f"g{level.degree}_", level.dim)
        self.levels.append(level)
        self._spaces.append(below.with_component(level.degree, labels))
        self.act.extend(A.columns for A in level.basis)

    def space(self, s: int) -> GradedSpace:
        return self._spaces[s]


def _solve_level(tower: _Tower) -> ProlongationLevel:
    """g^(r+1): the degree-(r+1) derivations of m into m_r."""
    r = len(tower.levels)
    below = tower.space(r)
    return ProlongationLevel(r + 1, below, *derivations(tower.negative, tower.act, below, r + 1))


def _checked_base(m: GradedLieAlgebra, g0: Union[G0Spec, Sequence[HomogeneousMap]]
                  ) -> tuple[tuple[HomogeneousMap, ...], GradedLieAlgebra]:
    """The g^0 basis and m + g^0, after the checks every solve needs: m

    valid and fundamental, g^0 resolved, and m + g^0 closed and valid.
    """
    problems = validate(m)
    if problems:
        raise ValueError("invalid algebra: " + "; ".join(problems))
    if not is_fundamental(m):
        raise ValueError("algebra is not fundamental (not generated in degree -1)")
    g0_basis = tuple(resolve_g0(g0, m)) if isinstance(g0, G0Spec) else tuple(g0)
    return g0_basis, adjoin_g0(m, g0_basis) if g0_basis else m


def prolong_step(m: GradedLieAlgebra, g0: Sequence[HomogeneousMap],
                 levels: Sequence[ProlongationLevel] = ()) -> ProlongationLevel:
    """Next level above the given ones; levels may be empty (gives g^1)."""
    tower = _Tower(m, _checked_base(m, g0)[1])
    for level in levels:
        tower.push(level)
    return _solve_level(tower)


def prolong(m: GradedLieAlgebra, g0: Union[G0Spec, Sequence[HomogeneousMap]],
            max_degree: int = 10) -> ProlongationResult:
    """Iterate levels until one vanishes (finite) or max_degree is hit.

    m must be a valid fundamental algebra (negative degrees, generated
    in degree -1); g0 is either a G0Spec or an explicit basis of maps.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    g0_basis, base = _checked_base(m, g0)
    tower = _Tower(m, base)
    status = None
    for s in range(1, max_degree + 1):
        level = _solve_level(tower)
        tower.push(level)
        if level.dim == 0:
            status = ProlongationStatus("finite", s - 1, max_degree)
            break
    if status is None:
        status = ProlongationStatus("truncated", None, max_degree)
    return ProlongationResult(base, m, g0_basis, tuple(tower.levels), status)


@record
class ProlongationResult:
    base: GradedLieAlgebra  # m + g^0
    negative: GradedLieAlgebra  # m alone
    g0: tuple[HomogeneousMap, ...]
    levels: tuple[ProlongationLevel, ...]
    status: ProlongationStatus

    @property
    def dims(self) -> tuple[int, ...]:
        """Dimensions of the computed levels g^1, g^2, ..."""
        return tuple(level.dim for level in self.levels)

    @property
    def depth(self) -> int:
        """Largest s with g^s computed."""
        return len(self.levels)

    def dim_g(self, s: int) -> int:
        if s == 0:
            return len(self.g0)
        if s < 0:
            return self.negative.space.dim(s)
        if s <= self.depth:
            return self.levels[s - 1].dim
        if self.status.kind == "finite":
            return 0
        raise ValueError(f"level {s} not computed (truncated at {self.status.max_degree})")

    def level(self, s: int) -> ProlongationLevel:
        if not 1 <= s <= self.depth:
            raise ValueError(f"level {s} not computed")
        return self.levels[s - 1]

    @cached_property
    def _tower(self) -> _Tower:
        """The full-depth tower, pushed level by level from m + g^0."""
        tower = _Tower(self.negative, self.base)
        for level in self.levels:
            tower.push(level)
        return tower

    @cached_property
    def _bracket(self) -> ExtendedBracket:
        return _build_extended_bracket(self)

    def tower_space(self, s: int) -> GradedSpace:
        """Graded space of m_s = m + g^0 + ... + g^s."""
        if not 0 <= s <= self.depth:
            raise ValueError(f"level {s} not computed")
        return self._tower.space(s)


def checked_base_dim(result: ProlongationResult, base_dim: Optional[int]) -> int:
    """base_dim, dim m when None; smaller than dim m raises ValueError."""
    dim_m = result.negative.space.total_dim
    if base_dim is None:
        return dim_m
    if base_dim < dim_m:
        raise ValueError(f"base_dim {base_dim} is smaller than dim m = {dim_m}")
    return base_dim


def order_and_bound(result: ProlongationResult, base_dim: Optional[int] = None) -> tuple[int, int]:
    """(order, dimension bound) for a finite prolongation.

    The bound is base_dim + the sum of dim g^i for i = 0..order, with
    base_dim defaulting to dim m.
    """
    if result.status.kind != "finite":
        raise ValueError("order and bound are defined for finite prolongations only")
    order = result.status.order
    bound = checked_base_dim(result, base_dim) + len(result.g0) + sum(result.dims[:order])
    return order, bound


@record
class ExtendedBracket:
    """Structure constants on m + g^0 + ... + g^D.

    act[a][b] is [e_a, e_b] as a sparse row, for every basis pair of the
    tower, in the layout of GradedLieAlgebra.act. Pairs of positive
    levels whose degrees sum beyond the computed depth are listed in
    out_of_range (a < b) instead; their entries are empty placeholders,
    which jacobi_failures skips and every other reader meets only with
    one leg in m.
    """

    space: GradedSpace
    depth: int
    act: tuple
    out_of_range: tuple[tuple[int, int], ...]


def jacobi_failures(eb: ExtendedBracket) -> list[tuple[int, int, int]]:
    """Basis triples violating the Jacobi identity.

    A triple is checked when every bracket it needs stays in range:
    each cyclic term needs its inner pair in range and the outer index
    in range against every support of the inner value. Skipped triples
    involve values past a truncated tower's depth; a finite tower has
    none.
    """
    return jacobi_triples(eb.act, eb.out_of_range)


def extended_bracket(result: ProlongationResult) -> ExtendedBracket:
    """The bracket of the full prolongation, by the inductive rule

    [f1, f2](x) = [f1(x), f2] + [f1, f2(x)], grounded in m's bracket
    and the evaluation rule; values of level pairs are re-expressed in
    the computed level bases (a failed membership solve raises
    LevelInconsistency). On a finite tower every pair is in range:
    pairs beyond the order land in a vanished level and are verified
    to evaluate to zero. On a truncated tower, pairs of positive
    levels whose degrees sum past the computed depth are reported in
    out_of_range instead. Computed once per result and kept there.
    """
    return result._bracket


def _negated(row: Sparse) -> Sparse:
    return {k: -e for k, e in row.items()} if row else NO_TERMS


def _build_extended_bracket(result: ProlongationResult) -> ExtendedBracket:
    tower = result._tower
    depth = result.depth
    order = result.status.order
    space = tower.space(depth)
    n = space.total_dim
    nm = tower.nm
    n0 = nm + len(result.g0)

    # level of each non-negative tower coordinate
    level_of = [0] * n0
    for s, d in enumerate(result.dims, start=1):
        level_of.extend([s] * d)

    # the tower's own rows: m + g^0's table and each level map's columns,
    # with [x, z] = -z(x) for x in m and z in g^s
    act = [list(row) + [NO_TERMS] * (n - len(row)) for row in tower.act]
    for z in range(n0, n):
        for x in range(nm):
            act[x][z] = _negated(act[z][x])

    # only the positive pairs outside g^0 ^ g^0 are computed; the rule
    # reads pairs of smaller level sum, so those go first
    todo = []
    out_of_range: list[tuple[int, int]] = []
    for a in range(nm, n):
        for b in range(max(a + 1, n0), n):
            if order is None and level_of[a] + level_of[b] > depth:
                out_of_range.append((a, b))
            else:
                todo.append((a, b))
    todo.sort(key=lambda pair: level_of[pair[0]] + level_of[pair[1]])
    for a, b in todo:
        s = level_of[a] + level_of[b]
        cols = []
        for x in range(nm):
            acc: dict[int, Fraction] = {}
            # [f1(x), f2] summed over the coordinates of f1(x)
            for w, c in act[a][x].items():
                add_scaled(acc, c, act[w][b])
            # [f1, f2(x)] summed over the coordinates of f2(x)
            for w, c in act[b][x].items():
                add_scaled(acc, c, act[a][w])
            cols.append(acc)
        if order is not None and s > order:
            # the target level vanished; the formula must agree
            if any(cols):
                raise LevelInconsistency(
                    f"bracket of levels {level_of[a]} and {level_of[b]} is nonzero past the order")
            continue
        value = _express_in_level(result, s, cols)
        act[a][b] = value
        act[b][a] = _negated(value)
    return ExtendedBracket(space, depth, tuple(map(tuple, act)), tuple(out_of_range))


def _express_in_level(result: ProlongationResult, s: int, cols: Sequence[Sparse]) -> Sparse:
    """Re-express a map m -> m_(s-1), given by its sparse value columns,

    as a sparse tower vector on the degree-s block (coefficients over
    the computed level-s basis); requires s >= 1. A value outside the
    degree-(i+s) block of a degree-i column raises LevelInconsistency.
    """
    if s > result.depth:
        raise LevelInconsistency(f"bracket lands in uncomputed level {s}")
    level = result.levels[s - 1]
    try:
        coords = hom_terms_of_columns(result.negative.space, level.space_below, s, cols)
    except ValueError as exc:
        raise LevelInconsistency(f"bracket value: {exc}") from exc
    found = level.carrier.coords_of(coords)
    if found is None:
        raise LevelInconsistency(f"bracket value is not in the computed g^{s}")
    start = result.negative.space.total_dim + len(result.g0) + sum(result.dims[: s - 1])
    return {start + t: c for t, c in found.items()}
