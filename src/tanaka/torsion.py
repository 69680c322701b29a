"""Torsion spaces and the boundary maps of the reduction tower.

At the first level the boundary map takes a degree-1 endomorphism A
of m + g^0 to the torsion two-form

    (dA)(a ^ b) = A[a, b] - [A(a), b] - [a, A(b)],

values read through the algebra's bracket, including the evaluation
rule when A(a) lands in g^0. Its kernel on the full positive part
gl_1 is gl_2 + g^1, which this module verifies against the first
prolongation level computed independently by the solver.

At level n+1 the domain is gl_{n+1}(m_n) + sum_i Hom(g^i, g^n) and
the target splits as Hom^{n+1}(m^-1 ^ m, m_n) + sum_i Hom(m^-1 ^ g^i,
g^{n-1}); the first summand gets the same commutator formula (read on
pairs with one leg in m^-1), the second the evaluation term
(dA)(a ^ b) = -[a, A(b)] = A(b)(a). The kernel identity there is
Ker(d | gl_{n+1}) = g^{n+1} + gl_{n+2}(m_n) with d injective on the
Hom summand.

Boundary matrices are assembled from the bracket, not from the
solver's constraint systems, so the kernel comparisons genuinely
cross-validate two code paths. One assembly, `_boundary_matrix`,
serves every level: it reads m + g^0's own table at level 1 and the
memoised extended bracket above it, whose rows against m are the
level maps themselves. For each unit of the domain every term of the
formula, the Hom summand's [E(w), x] included, is one row of that
table, so the matrix is read off the table entry by entry, each
entry moved and possibly negated, with no arithmetic.

The matrix is block_diag(gl, I_{#w} (x) B), and nothing builds it
whole. The rows of the wedge pairs fill only the gl columns. Each w
in g^0..g^{n-1} has the rows of its pairs (x, w), which fill only
w's own columns, and every w's block is the same B, the map
g^n -> Hom(m^-1, g^{n-1}), E |-> ([E, x])_x. So the assembly returns
the gl block and one B, and every reader works on that form: the
rank is rank(gl) + #w rank(B), d is injective on Hom iff B has full
column rank, partial1/partial_np1 apply gl to the element's gl
coordinates (the hom_units frame) and B to each w's image, and
complement_w reads the pivots of gl's image and of B's once. One
pass per level serves both kernel_reports and tower_report. The
kernel identity is checked as containment plus dimension, with no
kernel basis: the gl block kills each embedded basis map of
g^{n+1}, and its corank equals the rank of those maps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from ._record import record
from .exact_linear import (
    Matrix,
    Sparse,
    Subspace,
    Vector,
    densify,
    rank,
)
from .graded import (
    GradedMap,
    GradedSpace,
    HomogeneousMap,
    hom_space_dim,
    hom_terms_of_columns,
    hom_units,
)
from .lie import GradedLieAlgebra
from .prolong import ProlongationResult, checked_base_dim, extended_bracket


@record
class TorsionSpace:
    """Coordinates for torsion at one level.

    pairs_m lists the wedge pairs (a, b), a < b, of m-part indices in
    lexicographic order; each contributes the local coordinates of the
    target component of degree deg(a) + deg(b) + level. legs lists the
    x in m^-1 of the Hom pairs (x, w), w running through g^0..g^{level-2}
    outer and x inner: w_count * len(legs) pairs, each contributing the
    component of degree level - 2, and none when there is no w or no
    such component. space is the tower space m_n the values live in.
    """

    level: int
    space: GradedSpace
    nm: int
    pairs_m: tuple[tuple[int, int], ...]
    legs: tuple[int, ...]

    def pair_m_dim(self, a: int, b: int) -> int:
        return self.space.dim(self.space.degree_of_index(a)
                              + self.space.degree_of_index(b) + self.level)

    @property
    def hom_block_dim(self) -> int:
        return self.space.dim(self.level - 2)

    @property
    def w_count(self) -> int:
        """#w, the dimension of g^0 + ... + g^{level-2}: one copy of B each."""
        return sum(self.space.dim(i) for i in range(self.level - 1))

    @property
    def part_dims(self) -> tuple[int, int]:
        first = sum(self.pair_m_dim(a, b) for a, b in self.pairs_m)
        return first, self.w_count * len(self.legs) * self.hom_block_dim

    @property
    def total_dim(self) -> int:
        return sum(self.part_dims)


def _torsion_space(space: GradedSpace, nm: int, n: int) -> TorsionSpace:
    """Level n + 1 over m_n, the first nm indices of space being m.

    A wedge pair of m is kept when its target degree is present and,
    above the first level, one of its legs lies in m^-1; the legs of the
    Hom pairs (x, w) are the x in m^-1, when g^0..g^{n-1} has a w.
    """
    level, degree = n + 1, space.degree_of_index
    pairs = tuple((a, b) for a in range(nm) for b in range(a + 1, nm)
                  if (n == 0 or -1 in (degree(a), degree(b)))
                  and space.dim(degree(a) + degree(b) + level))
    has_w = space.dim(level - 2) and any(space.dim(i) for i in range(n))
    legs = tuple(x for x in range(nm) if degree(x) == -1) if has_w else ()
    return TorsionSpace(level, space, nm, pairs, legs)


def torsion_space(result: ProlongationResult, n: int) -> TorsionSpace:
    """Torsion coordinates at level n + 1: at n = 0 every wedge pair of

    m with a target, above it the pairs m^-1 ^ m and m^-1 ^ g^i for
    i = 0..n-1.
    """
    if n < 0:
        raise ValueError(f"negative level {n}: levels are n >= 0")
    if n > result.depth:
        raise ValueError(f"level {n} not computed")
    return _torsion_space(result.tower_space(n), result.negative.space.total_dim, n)


def _boundary_matrix(tor: TorsionSpace, act: Sequence[Sequence[Sparse]]
                     ) -> tuple[Matrix, Matrix, tuple[int, ...]]:
    """The gl block, the Hom block B of one w and the domain layout

    (see partial_np1_matrix), read off the bracket table act[x][y] =
    [e_x, e_y]. Every entry is one entry of a table row, moved and
    possibly negated: in (dA)(a ^ b) = A[a, b] - [A(a), b] - [a, A(b)]
    the three terms fill the columns of units with source of degree
    deg(a) + deg(b), source a and source b, so nothing is summed. The
    table is graded, so every value lands in its pair's block. Columns
    are filled in order, so each sparse row lists them ascending.
    """
    space, n = tor.space, tor.level - 1
    rows: list[dict[int, Fraction]] = [{} for _ in range(tor.part_dims[0])]
    # by source index p: (shift, [e_a, e_b]_p) for the A[a, b] term and
    # (shift, other leg, p is a) for the legs, where a row is shift plus
    # a target index
    scalars: dict[int, list[tuple[int, Fraction]]] = {}
    legs: dict[int, list[tuple[int, int, bool]]] = {}
    row = 0
    for a, b in tor.pairs_m:
        d = space.degree_of_index(a) + space.degree_of_index(b) + tor.level
        shift = row - space.offset(d)
        for p, c in act[a][b].items():
            scalars.setdefault(p, []).append((shift, c))
        legs.setdefault(a, []).append((shift, b, True))
        legs.setdefault(b, []).append((shift, a, False))
        row += space.dim(d)
    units = hom_units(space, space, tor.level)
    for col, (p, q) in enumerate(units):
        for shift, c in scalars.get(p, ()):
            rows[shift + q][col] = c
        for shift, x, p_is_a in legs.get(p, ()):
            for k, e in (act[q][x] if p_is_a else act[x][q]).items():
                rows[shift + k][col] = -e
    # (dE)(x ^ w) = [E(w), x] with E(e_w) = e_t, t in g^n, the last block
    # of m_n: B's rows are (x, k), x in m^-1 outer and k in g^{n-1}
    # inner, its columns t; the units of Hom(g^i, g^n), i < n, run
    # through w, then t
    r_n = space.dim(n)
    top = space.total_dim - r_n
    b_rows: list[dict[int, Fraction]] = [{} for _ in range(len(tor.legs) * tor.hom_block_dim)]
    for i, x in enumerate(tor.legs):
        shift = i * tor.hom_block_dim - space.offset(n - 1)
        for t in range(r_n):
            for k, e in act[top + t][x].items():
                b_rows[shift + k][t] = e
    layout = (len(units), *(space.dim(i) * r_n for i in range(n)))
    return Matrix(tuple(rows), len(units)), Matrix(tuple(b_rows), r_n), layout


def _apply(tor: TorsionSpace, gl: Matrix, b: Matrix,
           gl_part: Union[GradedMap, HomogeneousMap, None],
           hom_parts: Mapping[int, Matrix]) -> Vector:
    """The boundary of one domain element (see partial_np1): the gl

    block times its gl coordinates, then B times the image of each w.
    """
    space, level = tor.space, tor.level
    n = level - 1
    coords: dict[int, Fraction] = {}
    if isinstance(gl_part, GradedMap):
        if any(d < level for d in gl_part.part_degrees):
            raise ValueError(f"expected parts of degree >= {level}")
        gl_part = gl_part.part(level)
    if gl_part is not None:
        if gl_part.degree != level:
            raise ValueError(f"expected degree {level}, got {gl_part.degree}")
        if (gl_part.source, gl_part.target) != (space, space):
            raise ValueError(f"expected an endomorphism of m_{n}")
        coords = hom_terms_of_columns(space, space, level, gl_part.columns)
    for i in hom_parts:
        if i not in range(n):
            raise ValueError(f"unexpected hom part {i!r}: level {level} takes "
                             f"Hom(g^i, g^{n}) for 0 <= i < {n}")
    value, r_n = list(gl.apply(densify(coords, gl.cols))), space.dim(n)
    for i in range(n):
        r_i = space.dim(i)
        mat = hom_parts.get(i, Matrix.zeros(r_n, r_i))
        if mat.shape != (r_n, r_i):
            raise ValueError(f"hom part {i} must be {r_n}x{r_i}")
        for w in range(r_i):
            value.extend(b.apply(mat.col(w)))
    return tuple(value)


def partial1(m0: GradedLieAlgebra, a: Union[GradedMap, HomogeneousMap]) -> Vector:
    """Torsion of a positive-degree endomorphism of m + g^0; only the

    degree-1 part enters.
    """
    return _apply(*partial1_matrix(m0), Matrix.zeros(0, 0), a, {})


def partial1_matrix(m0: GradedLieAlgebra) -> tuple[TorsionSpace, Matrix]:
    """Matrix of the first boundary map over the degree-1 unit maps."""
    tor = _torsion_space(m0.space, m0.space.total_dim - m0.space.dim(0), 0)
    return tor, _boundary_matrix(tor, m0.act)[0]


def partial_np1_matrix(result: ProlongationResult,
                       n: int) -> tuple[TorsionSpace, Matrix, Matrix, tuple[int, ...]]:
    """The boundary map at level n+1 as its gl block, the Hom block B of

    one w, and the domain layout; n = 0 is the first boundary map of
    m + g^0, with no Hom summand.

    The whole matrix is block_diag(gl, I_{#w} (x) B), with #w the
    dimension of g^0 + ... + g^{n-1}. Its columns: first the units of
    Hom^{n+1}(m_n, m_n) in the fixed hom frame (the gl block's
    columns), then for i = 0..n-1 the units of Hom(g^i, g^n), source
    index w outer, target index t inner. Its rows: the wedge pairs (the
    gl block's rows), then for each w the rows of its pairs (x, w),
    which are B's rows (x, k). B maps the images E(w) in g^n to
    ([E(w), x])_x. The layout tuple gives the column count of each
    summand: (gl, hom_0, ..., hom_{n-1}).
    """
    tor = torsion_space(result, n)
    # every read pairs an index in m with another, so none meets a pair
    # of two positive levels, the only kind out of the bracket's range
    act = result.base.act if n == 0 else extended_bracket(result).act
    return (tor, *_boundary_matrix(tor, act))


def partial_np1(result: ProlongationResult, n: int,
                gl_part: Union[GradedMap, HomogeneousMap, None],
                hom_parts: Mapping[int, Matrix] = {}) -> Vector:
    """Apply the level-(n+1) boundary map to one domain element.

    gl_part may be a graded map with parts of degree >= n+1 (only the
    degree-(n+1) part enters), a single homogeneous map of that
    degree, or None; hom_parts[i] is the matrix of a map g^i -> g^n
    (rows indexed by the g^n basis), for 0 <= i < n. The element is a
    combination of the columns of partial_np1_matrix, which is built.
    """
    tor, gl, b, _ = partial_np1_matrix(result, n)
    return _apply(tor, gl, b, gl_part, hom_parts)


def gl_tail_dim(space: GradedSpace, p: int) -> int:
    """Dimension of the degree >= p endomorphisms of a graded space."""
    if not space.degrees:
        return 0
    top = space.degrees[-1] - space.degrees[0]
    return sum(hom_space_dim(space, space, d) for d in range(p, top + 1))


@record
class KernelReport:
    """Outcome of the kernel cross-validation at one level; its fields,

    in order, are the `torsion` command's JSON document.
    """

    level: int
    dim_tor: int
    rank: int
    dim_w: int
    dim_domain: int
    dim_g_next: int
    dim_gl_tail: int
    gl_kernel_matches: bool
    hom_injective: bool
    messages: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.gl_kernel_matches and self.hom_injective


def _level(result: ProlongationResult, n: int) -> KernelReport:
    """The report of level n + 1, read off the two blocks of its

    boundary matrix block_diag(gl, I_{#w} (x) B) (see
    partial_np1_matrix): the rank is rank(gl) + #w rank(B), and d is
    injective on the Hom summand iff B has full column rank. Where
    g^{n+1} is known (computed, or zero because the tower closed)
    Ker(d|gl_{n+1}) = g^{n+1} is checked as containment plus dimension:
    the gl block kills every embedded level basis map, and its kernel
    has the dimension of their span. Elsewhere the identity is not
    checked and dim_g_next is that kernel's dimension.
    """
    tor, gl, b, layout = partial_np1_matrix(result, n)
    gl_cols, hom_cols = layout[0], sum(layout[1:])
    r_gl, r_hom = rank(gl), tor.w_count * rank(b)
    gl_nullity, messages = gl_cols - r_gl, []
    if r_hom < hom_cols:
        messages.append(f"boundary map has a {hom_cols - r_hom}-dim kernel on the Hom summand")
    matches, dim_next = True, gl_nullity
    if n < result.depth or result.status.kind == "finite":
        # g^{n+1} in the unit coordinates of Hom^{n+1}(m_n, m_n), zero
        # on the non-negative components (those blocks have no target)
        basis = result.level(n + 1).basis if n < result.depth else ()
        embedded = Matrix(tuple(hom_terms_of_columns(tor.space, tor.space, n + 1, a.columns)
                                for a in basis), gl_cols)
        dim_next, span = len(basis), rank(embedded)
        matches = gl_nullity == span and (gl @ embedded.transpose()).is_zero()
        if not matches:
            messages.append(f"Ker(d|gl_{n + 1}) has dim {gl_nullity}, "
                            f"embedded g^{n + 1} has dim {span}")
    # the gl_{n+2} tail is annihilated without entering the matrix
    tail = gl_tail_dim(tor.space, n + 2)
    return KernelReport(
        level=n + 1,
        gl_kernel_matches=matches,
        hom_injective=r_hom == hom_cols,
        dim_tor=tor.total_dim,
        dim_domain=gl_cols + hom_cols + tail,
        rank=r_gl + r_hom,
        dim_w=tor.total_dim - r_gl - r_hom,
        dim_g_next=dim_next,
        dim_gl_tail=tail,
        messages=tuple(messages),
    )


def kernel_reports(result: ProlongationResult, n: int) -> KernelReport:
    """Compare Ker of the level-(n+1) boundary map with the solver's

    g^{n+1}, and check injectivity on the Hom summand; requires
    g^{n+1} to be known (computed, or zero because the tower closed).
    """
    if n > result.depth:
        raise ValueError(f"level {n} not computed")
    if n + 1 > result.depth and result.status.kind != "finite":
        raise ValueError(f"g^{n + 1} not available at depth {result.depth}")
    return _level(result, n)


def complement_w(result: ProlongationResult, n: int) -> Subspace:
    """Deterministic complement of the boundary map's image in torsion

    coordinates (pivot rule): the unit vectors off the pivots of the
    image's RREF. The image of block_diag(gl, I_{#w} (x) B) is the sum
    of its blocks' images, on disjoint rows, so its pivots are those of
    gl's image and those of B's image in each w's rows.
    """
    tor, gl, b, _ = partial_np1_matrix(result, n)
    pivots = set(Subspace.row_space(gl.transpose()).pivot_rows)
    b_pivots = Subspace.row_space(b.transpose()).pivot_rows
    for copy in range(tor.w_count):
        pivots.update(gl.rows + copy * b.rows + p for p in b_pivots)
    units = tuple({j: Fraction(1)} for j in range(tor.total_dim) if j not in pivots)
    return Subspace(tor.total_dim, Matrix(units, tor.total_dim))


@record
class TowerRow:
    """Reduction data for the step from level n to n+1; its fields, in

    order, are a row of the `tower` command's table and JSON document.
    """

    n: int
    dim_g: int
    dim_structure_group: int
    dim_group_product: int
    dim_tor: int
    rank: int
    dim_w: int
    dim_total: int


@record
class TowerReport:
    """The reduction tower; its fields, in order, then bound, are the

    `tower` command's JSON document.
    """

    base_dim: int
    kind: str  # "finite" | "truncated"
    order: Optional[int]
    dim_g0: int
    rows: tuple[TowerRow, ...]

    @property
    def bound(self) -> Optional[int]:
        """base_dim + sum of dim g^i through the order, finite case only."""
        if self.kind != "finite":
            return None
        return self.rows[-1].dim_total if self.rows else self.base_dim + self.dim_g0


def tower_report(result: ProlongationResult, base_dim: Optional[int] = None) -> TowerReport:
    """Rows n = 1..min(depth, order+1) of the reduction tower.

    Each row's level passes the kernel identity where g^{n+1} is known
    (see kernel_reports); a failure raises ValueError.
    """
    base_dim = checked_base_dim(result, base_dim)
    order = result.status.order
    top = result.depth if order is None else min(result.depth, order + 1)
    rows = []
    running = base_dim + len(result.g0)
    for n in range(1, top + 1):
        report = _level(result, n)
        if not report.passed:
            raise ValueError(f"level {report.level}: " + "; ".join(report.messages))
        r_n = result.dim_g(n)
        running += r_n
        rows.append(TowerRow(
            n=n,
            dim_g=r_n,
            # the boundary map's domain: gl_{n+1}(m_n) and the Hom summands
            dim_structure_group=report.dim_domain,
            dim_group_product=(len(result.g0) + sum(result.dims[:n])
                               + gl_tail_dim(result.tower_space(n - 1), n + 1)),
            dim_tor=report.dim_tor,
            rank=report.rank,
            dim_w=report.dim_w,
            dim_total=running,
        ))
    return TowerReport(
        base_dim=base_dim,
        kind=result.status.kind,
        order=order,
        dim_g0=len(result.g0),
        rows=tuple(rows),
    )
