"""Exact linear algebra over the rationals.

Floating point never enters: scalars are `fractions.Fraction`, and
plain ints are accepted anywhere a scalar is expected. A `Matrix` is a
dense tuple of Fraction rows that stores its column count, so a matrix
with no rows (or no columns) keeps its shape.

Every reduction goes through one sparse, fraction-free eliminator.
Each nonzero row is scaled by the lcm of its denominators into a
primitive row of ints stored as {column: value}. Columns are cleared
leftmost first, taking as pivot the sparsest row with a nonzero in the
column; each combination a*row - b*pivot is divided by the gcd of its
entries (row-content normalisation of Bareiss' integer-preserving
elimination, Math. Comp. 22 (1968)). Back-substitution stays in ints,
and rows become Fractions only in the final, canonical output.

Callers that evaluate brackets and maps work on sparse rows
{index: Fraction}: `add_scaled` accumulates them, `densify` turns one
into a Vector, and `Matrix.from_columns` assembles sparse columns.

Subspaces are stored in reduced row echelon form. RREF is a canonical
representative of a row space, so two subspaces are equal iff their
stored bases are equal entrywise, whichever pivot rows the eliminator
chose; all complement and quotient constructions below are
deterministic functions of that canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

Rational = Fraction

Vector = tuple[Fraction, ...]

SparseRow = dict[int, int]  # column -> nonzero int

Sparse = Mapping[int, Fraction]  # index -> nonzero Fraction

NO_TERMS: Sparse = MappingProxyType({})  # the shared, read-only empty row

_ZERO = Fraction(0)


def rat(value, den: Optional[int] = None) -> Fraction:
    """Coerce to an exact rational; rat(a, b) means a/b."""
    if den is not None:
        return Fraction(value, den)
    return Fraction(value)


def vector(entries: Iterable) -> Vector:
    return tuple(Fraction(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def add_vectors(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def add_scaled(acc: dict[int, Fraction], c, row: Sparse, shift: int = 0) -> None:
    """acc += c * row in place, row's indices moved by shift; entries

    that cancel are removed, so acc keeps only nonzeros.
    """
    for j, v in row.items():
        j += shift
        w = acc.get(j, 0) + c * v
        if w:
            acc[j] = w
        else:
            acc.pop(j, None)


def densify(row: Sparse, n: int) -> Vector:
    out = [_ZERO] * n
    for j, v in row.items():
        out[j] = Fraction(v)
    return tuple(out)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of Fractions, entries stored row-major.

    cols is stored, so a matrix without rows keeps its width; when
    omitted it is read off the first row (0 if there is none). Every
    row has cols entries.
    """

    entries: tuple[tuple[Fraction, ...], ...]
    cols: Optional[int] = None

    def __post_init__(self):
        if self.cols is None:
            object.__setattr__(self, "cols", len(self.entries[0]) if self.entries else 0)

    @staticmethod
    def from_rows(rows: Iterable[Iterable], cols: Optional[int] = None) -> "Matrix":
        return Matrix(tuple(tuple(Fraction(e) for e in row) for row in rows), cols)

    @staticmethod
    def from_columns(columns: Sequence[Sparse], rows: int) -> "Matrix":
        """The rows x len(columns) matrix whose j-th column is columns[j]."""
        out = [[_ZERO] * len(columns) for _ in range(rows)]
        for j, col in enumerate(columns):
            for i, v in col.items():
                out[i][j] = Fraction(v)
        return Matrix(tuple(map(tuple, out)), len(columns))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(tuple((Fraction(0),) * cols for _ in range(rows)), cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)), n)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.entries for e in row)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
                      self.rows)

    def flatten(self) -> Vector:
        """Row-major flattening; the End-coordinate convention."""
        return tuple(e for row in self.entries for e in row)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} + {other.shape}")
        return Matrix(tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
                      self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(tuple(tuple(-e for e in row) for row in self.entries), self.cols)

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix(tuple(tuple(c * e for e in row) for row in self.entries), self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        nonzeros = [[(j, b) for j, b in enumerate(row) if b] for row in other.entries]
        out = []
        for row in self.entries:
            acc = [_ZERO] * other.cols
            for k, a in enumerate(row):
                if a:
                    for j, b in nonzeros[k]:
                        acc[j] += a * b
            out.append(tuple(acc))
        return Matrix(tuple(out), other.cols)

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ValueError(f"length mismatch: {self.shape} applied to {len(v)}")
        return tuple(sum((a * b for a, b in zip(row, v) if a and b), _ZERO) for row in self.entries)

    def stack(self, other: "Matrix") -> "Matrix":
        """Rows of self followed by rows of other."""
        if self.cols != other.cols:
            raise ValueError(f"column mismatch: {self.shape} stacked on {other.shape}")
        return Matrix(self.entries + other.entries, self.cols)


def _primitive(row: SparseRow) -> SparseRow:
    g = gcd(*row.values())
    return row if g == 1 else {j: v // g for j, v in row.items()}


def _integer_rows(m: Matrix) -> list[SparseRow]:
    """The nonzero rows of m, each cleared of denominators and made primitive."""
    out = []
    for row in m.entries:
        nz = [(j, e) for j, e in enumerate(row) if e]
        if nz:
            den = lcm(*(e.denominator for _, e in nz))
            out.append(_primitive({j: e.numerator * (den // e.denominator) for j, e in nz}))
    return out


def _echelon(rows: list[SparseRow]) -> list[tuple[int, SparseRow]]:
    """Forward elimination: (pivot column, row) pairs, columns ascending.

    Rows wait in buckets keyed by their leading column. When a column
    comes up, every row with a nonzero there is in its bucket; the
    sparsest becomes the pivot and the others are combined with it.
    """
    by_lead: dict[int, list[SparseRow]] = {}
    for row in rows:
        by_lead.setdefault(min(row), []).append(row)
    out = []
    while by_lead:
        c = min(by_lead)
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
                by_lead.setdefault(min(new), []).append(new)
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
    out = []
    for c, row in rref:
        lead = row[c]
        dense = [_ZERO] * ncols
        for j, v in row.items():
            dense[j] = Fraction(v, lead)
        out.append(tuple(dense))
    return Matrix(tuple(out), ncols)


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
    ncols = m.cols
    free = [c for c in range(ncols) if c not in pivots]
    basis_rows = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rref.entries[r][f]
        basis_rows.append(v)
    return Subspace.span(ncols, basis_rows)


def solve(a: Matrix, b: Sequence[Fraction]) -> Optional[Vector]:
    """One exact solution x of a x = b, or None if inconsistent."""
    if len(b) != a.rows:
        raise ValueError(f"length mismatch: {a.shape} vs rhs {len(b)}")
    aug = Matrix(tuple(row + (bv,) for row, bv in zip(a.entries, b)), a.cols + 1)
    rref, pivots = _rref_with_pivots(aug)
    if a.cols in pivots:
        return None
    x = [Fraction(0)] * a.cols
    for r, p in enumerate(pivots):
        x[p] = rref.entries[r][a.cols]
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    """Inverse of a square invertible matrix; raises on singular input."""
    n = m.rows
    if m.cols != n:
        raise ValueError(f"not square: {m.shape}")
    aug = Matrix(tuple(row + ident for row, ident in zip(m.entries, Matrix.identity(n).entries)), 2 * n)
    rref, pivots = _rref_with_pivots(aug)
    if len(pivots) < n or pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(tuple(row[n:] for row in rref.entries), n)


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^ambient_dim, basis rows stored in RREF.

    The RREF basis is the unique canonical representative, so dataclass
    equality is subspace equality.
    """

    ambient_dim: int
    basis: Matrix

    @staticmethod
    def span(ambient_dim: int, rows: Iterable[Iterable]) -> "Subspace":
        rows = [tuple(row) for row in rows]  # the eliminator reads ints and Fractions alike
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError(f"row length {len(row)} != ambient {ambient_dim}")
        return Subspace(ambient_dim, rref_canonicalize(Matrix(tuple(rows), ambient_dim)))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.zeros(0, ambient_dim))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def pivots(self) -> tuple[int, ...]:
        return self._pivots

    @cached_property
    def _pivots(self) -> tuple[int, ...]:
        # basis is RREF, so each row's pivot is its first nonzero entry
        return tuple(next(j for j, e in enumerate(row) if e != 0) for row in self.basis.entries)

    def contains(self, v: Sequence[Fraction]) -> bool:
        return self.coords_of(v) is not None

    def coords_of(self, v: Sequence[Fraction]) -> Optional[Vector]:
        """Coefficients of v in the RREF basis, or None if v is outside.

        In RREF the coefficient on basis row r is just v[pivot_r], so
        membership is a read-off plus one verification pass.
        """
        if len(v) != self.ambient_dim:
            raise ValueError(f"length {len(v)} != ambient {self.ambient_dim}")
        v = tuple(e if type(e) is Fraction else Fraction(e) for e in v)
        coeffs = tuple(v[p] for p in self.pivots())
        residual = list(v)
        for c, row in zip(coeffs, self.basis.entries):
            if c:
                for j, b in enumerate(row):
                    if b:
                        residual[j] -= c * b
        if any(residual):
            return None
        return coeffs

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis.entries)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace(self.ambient_dim, rref_canonicalize(self.basis.stack(other.basis)))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked-transpose system."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        # x in both spans: sum_i c_i a_i = sum_j d_j b_j, unknowns (c, -d).
        system = self.basis.transpose().entries
        stacked = Matrix(tuple(ra + tuple(-e for e in rb) for ra, rb in
                               zip(system, other.basis.transpose().entries)))
        vecs = []
        for coeffs in kernel(stacked).basis.entries:
            c = coeffs[: self.dim]
            vecs.append(self.basis.transpose().apply(c))
        return Subspace.span(self.ambient_dim, vecs)


def complement(s: Subspace, within: Subspace) -> Subspace:
    """Canonical complement of s inside within (requires s <= within).

    Deterministic rule: write s in coordinates of within's RREF basis,
    row-reduce, and keep the within-basis rows at non-pivot positions.
    The result c satisfies within = s (+) c as an internal direct sum.
    """
    if s.ambient_dim != within.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    coord_rows = []
    for row in s.basis.entries:
        coords = within.coords_of(row)
        if coords is None:
            raise ValueError("subspace is not contained in the given space")
        coord_rows.append(coords)
    _, pivots = _rref_with_pivots(Matrix(tuple(coord_rows), within.dim))
    keep = [j for j in range(within.dim) if j not in pivots]
    return Subspace.span(within.ambient_dim, [within.basis.entries[j] for j in keep])
