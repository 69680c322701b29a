"""Independent slow-path oracle for prolongation level dimensions.

Deliberately naive: each level's unknown map is a *full* dense matrix
from the base algebra into the whole tower built so far. Degree
homogeneity is imposed as extra constraint rows rather than by
restricting to graded blocks, and evaluation is spelled out from first
principles. The engine under test must reproduce these dimensions
exactly; this module must stay independent of tanaka.prolong,
tanaka.torsion and the eliminator of tanaka.exact_linear, so it
carries its own dense Fraction Gauss-Jordan reduction.
"""

from __future__ import annotations

from fractions import Fraction

from tanaka.exact_linear import Matrix
from tanaka.lie import GradedLieAlgebra


def dense_rref(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Textbook Gauss-Jordan over Fractions: (nonzero RREF rows, pivot columns)."""
    rows = [[Fraction(e) for e in r] for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [inv * e for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def dense_kernel(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """RREF basis of {x : rows x = 0}."""
    rref, pivots = dense_rref(rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rref[r][f]
        basis.append(v)
    return dense_rref(basis, ncols)[0]


class SlowTower:
    """Bases of g^1..g^depth as raw matrices, built level by level.

    Tower coordinates list the base algebra m first (its own global
    order), then g^0, then each computed level's basis in order. A
    level-s basis element is stored as its full matrix acting from m
    into the coordinates of the tower truncated below s.
    """

    def __init__(self, m0: GradedLieAlgebra):
        neg = m0.negative_part()
        self.m = neg
        self.nm = neg.space.total_dim
        self.m_degrees = [neg.space.degree_of_index(i) for i in range(self.nm)]
        r = m0.space.dim(0)
        self.g0_action = []
        if r:
            off = m0.space.offset(0)
            for i in range(r):
                cols = []
                for a in range(self.nm):
                    full = m0.bracket_basis(off + i, a)
                    cols.append(full[: self.nm])
                self.g0_action.append(Matrix.from_rows(cols).transpose())
        self.levels: list[list[Matrix]] = []  # levels[s-1] = basis of g^s

    def coord_degrees(self, depth: int) -> list[int]:
        """Degrees of the tower coordinates m + g^0 + ... + g^depth."""
        out = list(self.m_degrees) + [0] * len(self.g0_action)
        for s, basis in enumerate(self.levels[:depth], start=1):
            out.extend([s] * len(basis))
        return out

    def tower_dim(self, depth: int) -> int:
        return len(self.coord_degrees(depth))

    def eval_on_m(self, coords: list[Fraction], depth: int, a: int) -> list[Fraction]:
        """[z, e_a] for z given in m_depth tower coordinates, e_a in m.

        The value lies in m_(depth-1) coordinates, zero-padded to the
        same tower frame.
        """
        n = self.tower_dim(depth)
        out = [Fraction(0)] * n
        for w in range(self.nm):
            if coords[w] != 0:
                bkt = self.m.bracket_basis(w, a)
                for t, e in enumerate(bkt):
                    out[t] += coords[w] * e
        pos = self.nm
        for act in self.g0_action:
            if coords[pos] != 0:
                col = act.col(a)
                for t, e in enumerate(col):
                    out[t] += coords[pos] * e
            pos += 1
        for s, basis in enumerate(self.levels[:depth], start=1):
            for mat in basis:
                if coords[pos] != 0:
                    col = mat.col(a)
                    for t, e in enumerate(col):
                        out[t] += coords[pos] * e
                pos += 1
        return out

    def solve_next_level(self) -> int:
        """Append g^(r+1) computed as one naive dense kernel; return its dim."""
        r = len(self.levels)
        rows_dim = self.tower_dim(r)
        degrees = self.coord_degrees(r)
        unknowns = rows_dim * self.nm  # A[w][a] row-major

        def uidx(w: int, a: int) -> int:
            return w * self.nm + a

        constraint_rows: list[list[Fraction]] = []
        # homogeneity: only blocks raising degree by exactly r+1 may be nonzero
        for w in range(rows_dim):
            for a in range(self.nm):
                if degrees[w] != self.m_degrees[a] + r + 1:
                    row = [Fraction(0)] * unknowns
                    row[uidx(w, a)] = Fraction(1)
                    constraint_rows.append(row)
        # bracket compatibility on every pair of m basis vectors
        bracket_cols = {}
        for w in range(rows_dim):
            base = [Fraction(0)] * rows_dim
            base[w] = Fraction(1)
            for a in range(self.nm):
                bracket_cols[(w, a)] = self.eval_on_m(base, r, a)
        for a in range(self.nm):
            for b in range(a + 1, self.nm):
                ab = self.m.bracket_basis(a, b)
                for t in range(rows_dim):
                    row = [Fraction(0)] * unknowns
                    for c, e in enumerate(ab):
                        if e != 0:
                            row[uidx(t, c)] += e
                    # minus [A(a), b]: A(a) = sum_w A[w][a] e_w
                    for w in range(rows_dim):
                        row[uidx(w, a)] -= bracket_cols[(w, b)][t]
                        # minus [a, A(b)] = + [A(b), a]
                        row[uidx(w, b)] += bracket_cols[(w, a)][t]
                    constraint_rows.append(row)
        basis = []
        for vec in dense_kernel(constraint_rows, unknowns):
            basis.append(Matrix.from_rows(
                [[vec[uidx(w, a)] for a in range(self.nm)] for w in range(rows_dim)]))
        self.levels.append(basis)
        return len(basis)


def slow_der0_dim(m: GradedLieAlgebra) -> int:
    """Degree-0 derivations by full-matrix solve with homogeneity rows."""
    n = m.space.total_dim
    degrees = [m.space.degree_of_index(i) for i in range(n)]
    unknowns = n * n

    def uidx(w: int, a: int) -> int:
        return w * n + a

    rows = []
    for w in range(n):
        for a in range(n):
            if degrees[w] != degrees[a]:
                row = [Fraction(0)] * unknowns
                row[uidx(w, a)] = Fraction(1)
                rows.append(row)
    for a in range(n):
        for b in range(a + 1, n):
            ab = m.bracket_basis(a, b)
            for t in range(n):
                row = [Fraction(0)] * unknowns
                for c, e in enumerate(ab):
                    if e != 0:
                        row[uidx(t, c)] += e
                for w in range(n):
                    bw_b = m.bracket_basis(w, b)
                    row[uidx(w, a)] -= bw_b[t]
                    bw_a = m.bracket_basis(w, a)
                    row[uidx(w, b)] += bw_a[t]
                rows.append(row)
    return len(dense_kernel(rows, unknowns))


def slow_prolong_dims(m0: GradedLieAlgebra, depth: int) -> list[int]:
    """Dimensions of g^1..g^depth; stops early when a level is zero."""
    tower = SlowTower(m0)
    dims = []
    for _ in range(depth):
        d = tower.solve_next_level()
        dims.append(d)
        if d == 0:
            break
    return dims
