"""Exact linear algebra over the rationals.

Floating point never enters: scalars are `fractions.Fraction`, and
plain ints are accepted anywhere a scalar is expected. A `Matrix` is a
tuple of sparse rows {column: nonzero Fraction} with an explicit
shape: it stores its column count, and its row count is the number of
rows, zero rows included, so a matrix with no rows, no columns or no
nonzeros keeps its shape. Producers build matrices from sparse rows or
columns (`Matrix.from_columns` transposes without padding), every
operation reads only nonzeros, and `Matrix.entries` is a dense view
built on first use.

Every reduction goes through one sparse, fraction-free eliminator.
Each nonzero row is scaled by the lcm of its denominators into a
primitive row of ints stored as {column: value}. Columns are cleared
leftmost first, the next one popped from a heap of the waiting leading
columns, taking as pivot the sparsest row with a nonzero in the
column; each combination a*row - b*pivot is divided by the gcd of its
entries (row-content normalisation of Bareiss' integer-preserving
elimination, Math. Comp. 22 (1968)). Back-substitution stays in ints,
and rows become Fractions only in the final, canonical output.

`solve(a, b)` solves a x = b for a whole block b of right-hand-side
columns in one reduction of [a | b] and returns the solution Matrix,
free unknowns zero, or None if any column is inconsistent; `inverse`
is its identity case, solve(m, I).

Callers that evaluate brackets and maps work on the same sparse rows
{index: Fraction}: `add_scaled` accumulates them, `combination` sums
them with sparse coefficients, and `densify` turns one into a Vector
where a dense result is the interface.

Degenerate operands are answered without an elimination or a
product: a sum, intersection or containment with a zero or full
subspace, coordinates in the full space (whose RREF basis is the
identity), and `solve` or `@` with an identity matrix.

Subspaces are stored in reduced row echelon form. RREF is a canonical
representative of a row space, so two subspaces are equal iff their
stored bases are equal entrywise, whichever pivot rows the eliminator
chose; all complement and quotient constructions below are
deterministic functions of that canonical form. Membership and
coordinates (`Subspace.coords_of`) accept dense vectors and sparse
rows alike, and coordinates come back as a sparse row {basis row:
coefficient}, read off v's nonzeros through the {pivot column: basis
row} map.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Union

from ._record import record

Vector = tuple[Fraction, ...]

SparseRow = dict[int, int]  # column -> nonzero int

Sparse = Mapping[int, Fraction]  # index -> nonzero Fraction

NO_TERMS: Sparse = MappingProxyType({})  # the shared, read-only empty row

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(e) -> Fraction:
    return e if type(e) is Fraction else Fraction(e)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def add_scaled(acc: dict[int, Fraction], c, row: Sparse, shift: int = 0) -> dict[int, Fraction]:
    """acc += c * row in place, row's indices moved by shift; entries

    that cancel are removed, so acc keeps only nonzeros. Returns acc.
    With c = 1 the row is added without products, as Fractions.
    """
    if c == 1:
        for j, v in row.items():
            j += shift
            w = acc.get(j)
            w = (v if type(v) is Fraction else Fraction(v)) if w is None else w + v
            if w:
                acc[j] = w
            else:
                acc.pop(j, None)
        return acc
    c = _as_fraction(c)  # Fraction-by-Fraction products take the fast path
    for j, v in row.items():
        j += shift
        w = acc.get(j)
        w = c * v if w is None else w + c * v
        if w:
            acc[j] = w
        else:
            acc.pop(j, None)
    return acc


def combination(coeffs: Sparse, rows: Sequence[Sparse]) -> dict[int, Fraction]:
    """sum_k coeffs[k] * rows[k], a sparse row."""
    acc: dict[int, Fraction] = {}
    for k, c in coeffs.items():
        add_scaled(acc, c, rows[k])
    return acc


def clear_denominators(rows: Sequence[Sparse]) -> tuple[int, list[SparseRow]]:
    """(d, int_rows): d is the lcm of every denominator in rows and

    int_rows[i] is d * rows[i] in ints, so sums of products of rows can
    be tested for zero without Fraction arithmetic.
    """
    d = lcm(*(e.denominator for row in rows for e in row.values()))
    return d, [{j: e.numerator * (d // e.denominator) for j, e in row.items()} for row in rows]


def densify(row: Sparse, n: int) -> Vector:
    out = [_ZERO] * n
    for j, v in row.items():
        out[j] = _as_fraction(v)
    return tuple(out)


@record
class Matrix:
    """Immutable sparse matrix over Q with an explicit shape.

    sparse[i] is row i as {column: nonzero Fraction}; rows are shared,
    so callers must not mutate them. No zero is ever stored, so equal
    matrices have equal rows. cols is stored, so a matrix without rows
    keeps its width, and len(sparse) is its height even when every row
    is zero. `entries` is the dense view, built on first use.
    """

    sparse: tuple[Sparse, ...]
    cols: int

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.cols, tuple(frozenset(row.items()) for row in self.sparse)))

    @staticmethod
    def from_rows(rows: Iterable[Iterable], cols: Optional[int] = None) -> "Matrix":
        """The matrix with the given dense rows; cols defaults to the length

        of the first row (0 without rows), and every row must have it.
        """
        out = []
        for row in rows:
            row = tuple(row)
            if cols is None:
                cols = len(row)
            elif len(row) != cols:
                raise ValueError(f"row length {len(row)} != {cols} columns")
            out.append({j: _as_fraction(e) for j, e in enumerate(row) if e})
        return Matrix(tuple(out), cols or 0)

    @staticmethod
    def from_columns(columns: Sequence[Sparse], rows: int, first: int = 0) -> "Matrix":
        """The rows x len(columns) matrix whose j-th column is the sparse

        column columns[j] {first + row: value}; zero values are dropped
        and zero rows are the shared NO_TERMS.
        """
        out: list[Sparse] = [NO_TERMS] * rows
        for j, col in enumerate(columns):
            for i, v in col.items():
                if v:
                    row = out[i - first]
                    if row is NO_TERMS:
                        row = out[i - first] = {}
                    row[j] = _as_fraction(v)
        return Matrix(tuple(out), len(columns))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix((NO_TERMS,) * rows, cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(tuple({i: _ONE} for i in range(n)), n)

    @property
    def rows(self) -> int:
        return len(self.sparse)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @cached_property
    def entries(self) -> tuple[Vector, ...]:
        """The dense rows, row-major."""
        return tuple(densify(row, self.cols) for row in self.sparse)

    def col(self, j: int) -> Vector:
        return tuple(row.get(j, _ZERO) for row in self.sparse)

    def is_zero(self) -> bool:
        return not any(self.sparse)

    def transpose(self) -> "Matrix":
        return Matrix.from_columns(self.sparse, self.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} + {other.shape}")
        return Matrix(tuple(add_scaled(dict(r1), 1, r2) for r1, r2 in zip(self.sparse, other.sparse)),
                      self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(tuple({j: -e for j, e in row.items()} for row in self.sparse), self.cols)

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        if not c:
            return Matrix.zeros(*self.shape)
        return Matrix(tuple({j: c * e for j, e in row.items()} for row in self.sparse), self.cols)

    def is_identity(self) -> bool:
        """Square with a single 1 on each diagonal cell; stops at the first other row."""
        return len(self.sparse) == self.cols and all(
            len(row) == 1 and row.get(i) == 1 for i, row in enumerate(self.sparse))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        return Matrix(tuple(combination(row, other.sparse) for row in self.sparse), other.cols)

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ValueError(f"length mismatch: {self.shape} applied to {len(v)}")
        return tuple(sum((e * v[j] for j, e in row.items() if v[j]), _ZERO) for row in self.sparse)

    def column_slice(self, start: int, stop: int) -> "Matrix":
        """Columns start..stop-1, renumbered from 0; the height is kept."""
        return Matrix(tuple({j - start: e for j, e in row.items() if start <= j < stop}
                            for row in self.sparse), stop - start)

    def stack(self, other: "Matrix") -> "Matrix":
        """Rows of self followed by rows of other."""
        if self.cols != other.cols:
            raise ValueError(f"column mismatch: {self.shape} stacked on {other.shape}")
        return Matrix(self.sparse + other.sparse, self.cols)


def _primitive(row: SparseRow) -> SparseRow:
    g = gcd(*row.values())
    return row if g == 1 else {j: v // g for j, v in row.items()}


def _integer_rows(m: Matrix) -> list[SparseRow]:
    """The nonzero rows of m, each cleared of denominators and made primitive."""
    out = []
    for row in m.sparse:
        if row:
            den = lcm(*(e.denominator for e in row.values()))
            out.append(_primitive({j: e.numerator * (den // e.denominator) for j, e in row.items()}))
    return out


def _echelon(rows: list[SparseRow]) -> list[tuple[int, SparseRow]]:
    """Forward elimination: (pivot column, row) pairs, columns ascending.

    Rows wait in buckets keyed by their leading column, and the keys in
    a heap. When a column comes up, every row with a nonzero there is in
    its bucket; the sparsest becomes the pivot and the others are
    combined with it. A combined row leads right of the column, so each
    column is pushed once.
    """
    by_lead: dict[int, list[SparseRow]] = {}
    for row in rows:
        by_lead.setdefault(min(row), []).append(row)
    waiting = list(by_lead)
    heapify(waiting)
    out = []
    while waiting:
        c = heappop(waiting)
        group = by_lead.pop(c)
        pivot = min(group, key=len)
        out.append((c, pivot))
        for row in group:
            if row is pivot:
                continue
            g = gcd(pivot[c], row[c])
            a, b = pivot[c] // g, row[c] // g
            new = dict(row) if a == 1 else {j: a * v for j, v in row.items()}
            for j, v in pivot.items():
                w = new.get(j, 0) - b * v
                if w:
                    new[j] = w
                else:
                    del new[j]
            if new:
                new = _primitive(new)
                lead = min(new)
                if lead not in by_lead:
                    heappush(waiting, lead)
                by_lead.setdefault(lead, []).append(new)
    return out


def _back_substitute(echelon: list[tuple[int, SparseRow]]) -> list[tuple[int, SparseRow]]:
    """Clear every pivot column above its pivot, still in primitive ints.

    Rows are reduced bottom-up, so each row meets only reduced rows,
    which vanish at every other pivot column; one combination clears
    all of a row's off-pivot entries at once.
    """
    reduced: dict[int, SparseRow] = {}
    for c, row in reversed(echelon):
        hits = [(j, v) for j, v in row.items() if j != c and j in reduced]
        if hits:
            scale = lcm(*(reduced[j][j] for j, _ in hits))
            new = {k: scale * v for k, v in row.items()}
            for j, v in hits:
                f = v * (scale // reduced[j][j])
                for k, w in reduced[j].items():
                    new[k] = new.get(k, 0) - f * w
            row = _primitive({k: v for k, v in new.items() if v})
        reduced[c] = row
    return [(c, reduced[c]) for c, _ in echelon]


def _to_fraction_rows(rref: list[tuple[int, SparseRow]], ncols: int) -> Matrix:
    """The canonical Fraction RREF: each row divided by its pivot entry."""
    return Matrix(tuple({j: Fraction(v, row[c]) for j, v in row.items()} for c, row in rref), ncols)


def _rref_with_pivots(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    rref = _back_substitute(_echelon(_integer_rows(m)))
    return _to_fraction_rows(rref, m.cols), tuple(c for c, _ in rref)


def rref_canonicalize(m: Matrix) -> Matrix:
    """Reduced row echelon form with zero rows dropped.

    Idempotent, and the result depends only on the row space of the
    input, so it canonically names a subspace.
    """
    return _rref_with_pivots(m)[0]


def rank(m: Matrix) -> int:
    return len(_echelon(_integer_rows(m)))


def kernel(m: Matrix) -> "Subspace":
    """Null space {x : m x = 0}, as a canonical Subspace of Q^cols."""
    rref, pivots = _rref_with_pivots(m)
    taken = set(pivots)
    # one vector per free column f: x_f = 1, x_p = -rref[r][f] at pivot p of row r
    free = {f: {f: _ONE} for f in range(m.cols) if f not in taken}
    for p, row in zip(pivots, rref.sparse):
        for f, e in row.items():
            if f != p:
                free[f][p] = -e
    return Subspace.row_space(Matrix(tuple(free.values()), m.cols))


def solve(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """The solution x of a x = b for a block b of right-hand-side columns,

    with every free unknown zero, or None if any column is inconsistent.
    One reduction of [a | b]: its RREF restricted to [a | b_j] is the
    RREF of that system, so each column is solved as if on its own.
    """
    if b.rows != a.rows:
        raise ValueError(f"shape mismatch: {a.shape} vs rhs {b.shape}")
    if a.is_identity():
        return b
    n = a.cols
    aug = Matrix(tuple({**row, **{n + j: e for j, e in rhs.items()}}
                       for row, rhs in zip(a.sparse, b.sparse)), n + b.cols)
    rref, pivots = _rref_with_pivots(aug)
    if pivots and pivots[-1] >= n:
        return None
    x = [NO_TERMS] * n
    for p, row in zip(pivots, rref.sparse):
        x[p] = {j - n: e for j, e in row.items() if j >= n}
    return Matrix(tuple(x), b.cols)


def inverse(m: Matrix) -> Matrix:
    """Inverse of a square invertible matrix, solve(m, I); raises on singular input."""
    if m.cols != m.rows:
        raise ValueError(f"not square: {m.shape}")
    x = solve(m, Matrix.identity(m.rows))
    if x is None:
        raise ValueError("matrix is singular")
    return x


@record
class Subspace:
    """Subspace of Q^ambient_dim, basis rows stored in RREF.

    The RREF basis is the unique canonical representative, so equality
    of the stored fields is subspace equality.
    """

    ambient_dim: int
    basis: Matrix

    @staticmethod
    def span(ambient_dim: int, rows: Iterable[Iterable]) -> "Subspace":
        """The span of dense rows, each of length ambient_dim."""
        return Subspace.row_space(Matrix.from_rows(rows, ambient_dim))

    @staticmethod
    def row_space(m: Matrix) -> "Subspace":
        return Subspace(m.cols, rref_canonicalize(m))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.zeros(0, ambient_dim))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    @cached_property
    def pivot_rows(self) -> dict[int, int]:
        """{pivot column: basis row}; in RREF a row's pivot is its least column."""
        return {min(row): r for r, row in enumerate(self.basis.sparse)}

    def contains(self, v: Union[Sequence[Fraction], Sparse]) -> bool:
        return self.coords_of(v) is not None

    def coords_of(self, v: Union[Sequence[Fraction], Sparse]) -> Optional[dict[int, Fraction]]:
        """The nonzero coefficients of v in the RREF basis as a sparse row

        {basis row: Fraction}, or None if v is outside; v is a dense
        vector or a sparse row {index: value}. In RREF the coefficient
        c_r on basis row b_r is just v at b_r's pivot, so it is read off
        v's own nonzeros, and membership is one pass over the nonzeros
        of the rows used, in ints: with D clearing v's denominators and
        L the basis's, D L (v - sum c_r b_r) = L (D v) - sum (D c_r)(L b_r).
        """
        n = self.ambient_dim
        if not isinstance(v, Mapping):
            if len(v) != n:
                raise ValueError(f"length {len(v)} != ambient {n}")
            v = {j: e for j, e in enumerate(v) if e}
        if self.is_full():  # the RREF basis is the identity: v is its own coordinates
            outside = any(e for j, e in v.items() if not 0 <= j < n)
            return None if outside else {j: _as_fraction(e) for j, e in v.items() if e}
        row_of = self.pivot_rows
        coeffs = {row_of[j]: _as_fraction(e) for j, e in v.items() if e and j in row_of}
        den, rows = self._integer_basis
        d, (residual,) = clear_denominators([v])
        residual = {j: den * e for j, e in residual.items()}
        for r, c in coeffs.items():
            k = c.numerator * (d // c.denominator)
            for j, b in rows[r].items():
                residual[j] = residual.get(j, 0) - k * b
        return None if any(residual.values()) else coeffs

    @cached_property
    def _integer_basis(self) -> tuple[int, list[SparseRow]]:
        return clear_denominators(self.basis.sparse)

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains_subspace(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if other.dim == 0 or self.is_full():
            return True
        return all(self.contains(row) for row in other.basis.sparse)

    def add(self, other: "Subspace") -> "Subspace":
        """The sum; a zero or full operand gives the answer without a reduction."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if other.dim == 0 or self.is_full():
            return self
        if self.dim == 0 or other.is_full():
            return other
        return Subspace.row_space(self.basis.stack(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked-transpose system."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if self.dim == 0 or other.is_full():
            return self
        if other.dim == 0 or self.is_full():
            return other
        # x in both spans: sum_i c_i a_i = sum_j d_j b_j, unknowns (c, -d).
        system = self.basis.stack(-other.basis).transpose()
        return Subspace.row_space(kernel(system).basis.column_slice(0, self.dim) @ self.basis)


def complement(s: Subspace, within: Subspace) -> Subspace:
    """Canonical complement of s inside within (requires s <= within).

    Deterministic rule: write s in coordinates of within's RREF basis,
    row-reduce, and keep the within-basis rows at non-pivot positions.
    The result c satisfies within = s (+) c as an internal direct sum.
    """
    return quotient_basis(s, within)[0]


def quotient_basis(s: Subspace, within: Subspace) -> tuple[Subspace, tuple[Sparse, ...]]:
    """The canonical complement c of s in within, and for each RREF basis

    row of within its coordinates modulo s over c's basis, as sparse rows.

    The kept rows of within are c's basis rows, so their coordinates
    are unit vectors. A row at a pivot p of the reduced coordinates R of
    s is e_p = R_p - sum_k R_p[keep_k] e_(keep_k) with R_p in s, so its
    coordinates are read off R_p; nothing is solved.
    """
    if s.ambient_dim != within.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    coord_rows = [within.coords_of(row) for row in s.basis.sparse]
    if None in coord_rows:
        raise ValueError("subspace is not contained in the given space")
    rref, pivots = _rref_with_pivots(Matrix(tuple(coord_rows), within.dim))
    reduced = dict(zip(pivots, rref.sparse))
    keep = [j for j in range(within.dim) if j not in reduced]
    position = {j: k for k, j in enumerate(keep)}
    quotient = tuple({position[j]: -e for j, e in reduced[p].items() if j != p} if p in reduced
                     else {position[p]: _ONE} for p in range(within.dim))
    # rows of an RREF basis are themselves in RREF
    kept = Matrix(tuple(within.basis.sparse[j] for j in keep), within.ambient_dim)
    return Subspace(within.ambient_dim, kept), quotient
