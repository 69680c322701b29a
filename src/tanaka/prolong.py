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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .exact_linear import Matrix, Subspace, Vector, add_vectors, kernel, scale_vector, zero_vector
from .graded import (
    GradedSpace,
    HomogeneousMap,
    hom_coords,
    hom_from_coords,
    hom_space_dim,
)
from .lie import G0Spec, GradedLieAlgebra, adjoin_g0, is_fundamental, resolve_g0, validate


class LevelInconsistency(Exception):
    """A solved level fails re-substitution, or a bracket escapes its

    computed carrier; either signals an internal error, not bad input.
    """


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    """Shared evaluation context: m, the g^0 action, computed levels."""

    def __init__(self, negative: GradedLieAlgebra, g0: Sequence[HomogeneousMap],
                 g0_labels: Sequence[str]):
        self.negative = negative
        self.g0 = tuple(g0)
        self.g0_labels = tuple(g0_labels)
        self.levels: list[ProlongationLevel] = []
        self.nm = negative.space.total_dim
        self._spaces: list[GradedSpace] = [self._build_space(0)]

    def _build_space(self, s: int) -> GradedSpace:
        labels = {d: self.negative.space.labels(d) for d in self.negative.space.degrees}
        if self.g0:
            labels[0] = self.g0_labels
        existing = {lab for labs in labels.values() for lab in labs}
        for level in self.levels[:s]:
            if level.dim == 0:
                continue
            lv = []
            for t in range(level.dim):
                cand = f"g{level.degree}_{t + 1}"
                while cand in existing:
                    cand = cand + "_"
                lv.append(cand)
                existing.add(cand)
            labels[level.degree] = tuple(lv)
        return GradedSpace.make(labels)

    def push(self, level: ProlongationLevel) -> None:
        self.levels.append(level)
        self._spaces.append(self._build_space(len(self.levels)))

    def space(self, s: int) -> GradedSpace:
        return self._spaces[s]

    def dim(self, s: int) -> int:
        return self.space(s).total_dim

    def action_on_m(self, w: int, b: int, s: int) -> Vector:
        """[e_w, e_b] for the w-th basis vector of m_s and e_b in m,

        padded to m_s coordinates (the value lies in m_(s-1)).
        """
        n = self.dim(s)
        if w < self.nm:
            return _pad(self.negative.bracket_basis(w, b), n)
        pos = self.nm
        if w < pos + len(self.g0):
            return _pad(self.g0[w - pos].apply_basis(b), n)
        pos += len(self.g0)
        for level in self.levels[:s]:
            if w < pos + level.dim:
                return _pad(level.basis[w - pos].apply_basis(b), n)
            pos += level.dim
        raise IndexError(w)

    def eval_z_on_m(self, z: Sequence[Fraction], b: int, s: int) -> Vector:
        """[z, e_b] for z an m_s coordinate vector."""
        out = zero_vector(self.dim(s))
        for w, c in enumerate(z):
            if c != 0:
                out = add_vectors(out, scale_vector(c, self.action_on_m(w, b, s)))
        return out


def _pad(v: Sequence[Fraction], n: int) -> Vector:
    return tuple(v) + (Fraction(0),) * (n - len(v))


def _solve_level(tower: _Tower) -> ProlongationLevel:
    """g^(r+1) as the exact kernel of the defining linear system."""
    r = len(tower.levels)
    neg = tower.negative
    below = tower.space(r)
    nm, n_below = tower.nm, below.total_dim
    degree = r + 1
    nunits = hom_space_dim(neg.space, below, degree)
    if nunits == 0:
        return ProlongationLevel(degree, below, Subspace.zero(0), ())

    # unit u = (source index a, target index w); enumerate in the hom frame
    unit_index: list[tuple[int, int]] = []
    for i in HomogeneousMap.present_source_degrees(neg.space, below, degree):
        for a_local in range(neg.space.dim(i)):
            a = neg.space.offset(i) + a_local
            for w_local in range(below.dim(i + degree)):
                w = below.offset(i + degree) + w_local
                unit_index.append((a, w))

    # action table [e_w, e_b] for every tower coordinate w and m basis b
    action = [[tower.action_on_m(w, b, r) for b in range(nm)] for w in range(n_below)]

    columns: list[list[Fraction]] = [[] for _ in range(nunits)]
    for a in range(nm):
        for b in range(a + 1, nm):
            ab = neg.bracket_basis(a, b)
            for u, (src, w) in enumerate(unit_index):
                col = [Fraction(0)] * n_below
                if ab[src] != 0:
                    # A[a,b] contributes on the unit's target coordinate
                    col[w] += ab[src]
                if src == a:
                    # minus [A(e_a), e_b] = -[e_w, e_b]
                    col = [c - e for c, e in zip(col, action[w][b])]
                if src == b:
                    # minus [e_a, A(e_b)] = +[e_w, e_a]
                    col = [c + e for c, e in zip(col, action[w][a])]
                columns[u].extend(col)

    # with fewer than two basis vectors in m the system has no rows
    carrier = kernel(Matrix.from_rows(columns).transpose())
    basis = tuple(hom_from_coords(neg.space, below, degree, row)
                  for row in carrier.basis.entries)
    level = ProlongationLevel(degree, below, carrier, basis)
    _reverify_level(tower, level)
    return level


def _reverify_level(tower: _Tower, level: ProlongationLevel) -> None:
    """Re-substitute every basis element into the defining identity.

    Runs on each solved level; failure marks an internal bug, never bad
    input.
    """
    neg = tower.negative
    nm = tower.nm
    r = level.degree - 1
    for A in level.basis:
        for a in range(nm):
            for b in range(a + 1, nm):
                lhs = A.apply(neg.bracket_basis(a, b))
                rhs = add_vectors(tower.eval_z_on_m(A.apply_basis(a), b, r),
                                  tuple(-e for e in tower.eval_z_on_m(A.apply_basis(b), a, r)))
                if lhs != rhs:
                    raise LevelInconsistency(
                        f"level {level.degree} basis element fails the bracket "
                        f"identity on pair ({a}, {b})")


def prolong_step(m: GradedLieAlgebra, g0: Sequence[HomogeneousMap],
                 levels: Sequence[ProlongationLevel] = ()) -> ProlongationLevel:
    """Next level above the given ones; levels may be empty (gives g^1)."""
    tower = _build_tower(m, g0)
    for level in levels:
        tower.push(level)
    return _solve_level(tower)


def _build_tower(m: GradedLieAlgebra, g0: Sequence[HomogeneousMap]) -> _Tower:
    if any(d >= 0 for d in m.space.degrees):
        raise ValueError("expected the negative part only; adjoin g^0 separately")
    taken = {lab for d in m.space.degrees for lab in m.space.labels(d)}
    labels = []
    for i in range(len(g0)):
        cand = f"d{i + 1}"
        while cand in taken:
            cand = cand + "_"
        labels.append(cand)
        taken.add(cand)
    return _Tower(m, tuple(g0), tuple(labels))


def prolong(m: GradedLieAlgebra, g0: Union[G0Spec, Sequence[HomogeneousMap]],
            max_degree: int = 10) -> ProlongationResult:
    """Iterate levels until one vanishes (finite) or max_degree is hit.

    m must be a valid fundamental algebra (negative degrees, generated
    in degree -1); g0 is either a G0Spec or an explicit basis of maps.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    problems = validate(m)
    if problems:
        raise ValueError("invalid algebra: " + "; ".join(problems))
    if not is_fundamental(m):
        raise ValueError("algebra is not fundamental (not generated in degree -1)")
    g0_basis = tuple(resolve_g0(g0, m)) if isinstance(g0, G0Spec) else tuple(g0)
    base = adjoin_g0(m, g0_basis) if g0_basis else m
    tower = _Tower(m, g0_basis, base.space.labels(0) if g0_basis else ())
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


@dataclass(frozen=True)
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

    def _tower(self, s: Optional[int] = None) -> _Tower:
        tower = _Tower(self.negative, self.g0, self.base.space.labels(0) if self.g0 else ())
        for level in self.levels[: self.depth if s is None else s]:
            tower.push(level)
        return tower

    def tower_space(self, s: int) -> GradedSpace:
        """Graded space of m_s = m + g^0 + ... + g^s."""
        if not 0 <= s <= self.depth:
            raise ValueError(f"level {s} not computed")
        return self._tower(s).space(s)


def order_and_bound(result: ProlongationResult, base_dim: Optional[int] = None) -> tuple[int, int]:
    """(order, dimension bound) for a finite prolongation.

    The bound is base_dim + the sum of dim g^i for i = 0..order, with
    base_dim defaulting to dim m.
    """
    if result.status.kind != "finite":
        raise ValueError("order and bound are defined for finite prolongations only")
    dim_m = result.negative.space.total_dim
    if base_dim is None:
        base_dim = dim_m
    if base_dim < dim_m:
        raise ValueError(f"base_dim {base_dim} is smaller than dim m = {dim_m}")
    order = result.status.order
    bound = base_dim + len(result.g0) + sum(result.dims[:order])
    return order, bound


@dataclass(frozen=True)
class ExtendedBracket:
    """Structure constants on m + g^0 + ... + g^D.

    table covers in-range basis pairs a < b; pairs of positive levels
    whose degrees sum beyond the computed depth are listed in
    out_of_range instead.
    """

    space: GradedSpace
    depth: int
    table: tuple[tuple[tuple[int, int], Vector], ...]
    out_of_range: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "_lookup", dict(self.table))
        object.__setattr__(self, "_escaped", frozenset(self.out_of_range))

    def bracket_basis(self, a: int, b: int) -> Vector:
        if a == b:
            return zero_vector(self.space.total_dim)
        sign = 1
        if a > b:
            a, b, sign = b, a, -1
        if (a, b) in self._escaped:
            raise ValueError(f"bracket ({a}, {b}) lands above degree {self.depth}")
        value = self._lookup.get((a, b))
        if value is None:
            return zero_vector(self.space.total_dim)
        return tuple(sign * e for e in value)

    def in_range(self, a: int, b: int) -> bool:
        key = (a, b) if a < b else (b, a)
        return key not in self._escaped

    def bracket_eval(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
        out = zero_vector(self.space.total_dim)
        for a, c in enumerate(u):
            if c == 0:
                continue
            for b, e in enumerate(v):
                if e == 0 or a == b:
                    continue
                out = add_vectors(out, scale_vector(c * e, self.bracket_basis(a, b)))
        return out


def jacobi_failures(eb: ExtendedBracket) -> list[tuple[int, int, int]]:
    """Basis triples violating the Jacobi identity.

    A triple is checked when every bracket it needs stays in range:
    each cyclic term needs its inner pair in range and the outer index
    in range against every support of the inner value. Skipped triples
    involve values past a truncated tower's depth; a finite tower has
    none.
    """
    n = eb.space.total_dim
    bad = []
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                terms = []
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    if not eb.in_range(y, z):
                        break
                    inner = eb.bracket_basis(y, z)
                    if any(e != 0 and not eb.in_range(x, w)
                           for w, e in enumerate(inner)):
                        break
                    terms.append(eb.bracket_eval(_unit(n, x), inner))
                if len(terms) < 3:
                    continue
                total = add_vectors(terms[0], add_vectors(terms[1], terms[2]))
                if any(e != 0 for e in total):
                    bad.append((a, b, c))
    return bad


def _unit(n: int, i: int) -> Vector:
    out = [Fraction(0)] * n
    out[i] = Fraction(1)
    return tuple(out)


def extended_bracket(result: ProlongationResult) -> ExtendedBracket:
    """The bracket of the full prolongation, by the inductive rule

    [f1, f2](x) = [f1(x), f2] + [f1, f2(x)], grounded in m's bracket
    and the evaluation rule; values of level pairs are re-expressed in
    the computed level bases (a failed membership solve raises
    LevelInconsistency). On a finite tower every pair is in range:
    pairs beyond the order land in a vanished level and are verified
    to evaluate to zero. On a truncated tower, pairs of positive
    levels whose degrees sum past the computed depth are reported in
    out_of_range instead.
    """
    tower = result._tower()
    depth = result.depth
    order = result.status.order
    space = tower.space(depth)
    n = space.total_dim
    nm = tower.nm
    r0 = len(result.g0)

    # tower index ranges per level s >= 0
    def level_range(s: int) -> range:
        if s == 0:
            return range(nm, nm + r0)
        start = nm + r0 + sum(result.dims[: s - 1])
        return range(start, start + result.dims[s - 1])

    def level_of(idx: int) -> int:
        # level of a non-negative tower coordinate
        if idx < nm + r0:
            return 0
        pos = nm + r0
        for s, d in enumerate(result.dims, start=1):
            if idx < pos + d:
                return s
            pos += d
        raise IndexError(idx)

    memo: dict[tuple[int, int], Vector] = {}

    def bracket_pos_pos(a: int, b: int) -> Vector:
        """[e_a, e_b] for tower indices of non-negative levels, a < b."""
        if (a, b) in memo:
            return memo[(a, b)]
        sa, sb = level_of(a), level_of(b)
        if sa == 0 and sb == 0:
            value = _pad(result.base.bracket_basis(a, b), n)
            memo[(a, b)] = value
            return value
        s = sa + sb
        f1_vals = [tower.action_on_m(a, x, depth) for x in range(nm)]
        f2_vals = [tower.action_on_m(b, x, depth) for x in range(nm)]
        cols = []
        for x in range(nm):
            acc = zero_vector(n)
            # [f1(x), f2] summed over the coordinates of f1(x)
            for w, c in enumerate(f1_vals[x]):
                if c == 0:
                    continue
                if w < nm:
                    term = tuple(-e for e in tower.action_on_m(b, w, depth))
                else:
                    term = pair_bracket(w, b)
                acc = add_vectors(acc, scale_vector(c, term))
            # [f1, f2(x)] summed over the coordinates of f2(x)
            for w, c in enumerate(f2_vals[x]):
                if c == 0:
                    continue
                if w < nm:
                    term = tower.action_on_m(a, w, depth)
                else:
                    term = pair_bracket(a, w)
                acc = add_vectors(acc, scale_vector(c, term))
            cols.append(acc)
        if order is not None and s > order:
            # the target level vanished; the formula must agree
            if any(e != 0 for col in cols for e in col):
                raise LevelInconsistency(
                    f"bracket of levels {sa} and {sb} is nonzero past the order")
            value = zero_vector(n)
        else:
            value = _express_in_level(result, tower, s, cols)
        memo[(a, b)] = value
        return value

    def pair_bracket(a: int, b: int) -> Vector:
        if a == b:
            return zero_vector(n)
        if a < b:
            return bracket_pos_pos(a, b)
        return tuple(-e for e in bracket_pos_pos(b, a))

    table: dict[tuple[int, int], Vector] = {}
    out_of_range: list[tuple[int, int]] = []
    for a in range(n):
        for b in range(a + 1, n):
            if b < nm:
                value = _pad(result.negative.bracket_basis(a, b), n)
            elif a < nm:
                # [x, z] = -z(x) for z in g^s
                value = tuple(-e for e in tower.action_on_m(b, a, depth))
            else:
                if order is None and level_of(a) + level_of(b) > depth:
                    out_of_range.append((a, b))
                    continue
                value = pair_bracket(a, b)
            if any(e != 0 for e in value):
                table[(a, b)] = value
    return ExtendedBracket(space, depth, tuple(sorted(table.items())), tuple(out_of_range))


def _express_in_level(result: ProlongationResult, tower: _Tower, s: int,
                      cols: Sequence[Vector]) -> Vector:
    """Re-express a map m -> m_(s-1), given by its value columns, as a

    tower vector supported on the degree-s block (coefficients over the
    computed level-s basis); requires s >= 1.
    """
    n = tower.dim(result.depth)
    nm = tower.nm
    if s > result.depth:
        raise LevelInconsistency(f"bracket lands in uncomputed level {s}")
    level = result.levels[s - 1]
    n_below = level.space_below.total_dim
    blocks: dict[int, list[list[Fraction]]] = {}
    neg_space = result.negative.space
    for i in neg_space.degrees:
        tgt = i + s
        if level.space_below.dim(tgt) == 0:
            for x in range(neg_space.offset(i), neg_space.offset(i) + neg_space.dim(i)):
                if any(e != 0 for e in cols[x]):
                    raise LevelInconsistency("bracket value outside the graded block")
            continue
        rows = level.space_below.dim(tgt)
        start = level.space_below.offset(tgt)
        block = []
        for rr in range(rows):
            block.append([cols[neg_space.offset(i) + c][start + rr]
                          for c in range(neg_space.dim(i))])
        blocks[i] = block
    for x in range(nm):
        for t, e in enumerate(cols[x]):
            if e != 0 and t >= n_below:
                raise LevelInconsistency("bracket value escapes m_(s-1)")
    f = HomogeneousMap.make(neg_space, level.space_below, s,
                            {i: Matrix.from_rows(b) for i, b in blocks.items()})
    coords = level.carrier.coords_of(hom_coords(f))
    if coords is None:
        raise LevelInconsistency(f"bracket value is not in the computed g^{s}")
    out = [Fraction(0)] * n
    start = nm + len(result.g0) + sum(result.dims[: s - 1])
    for t, c in enumerate(coords):
        out[start + t] = c
    return tuple(out)
