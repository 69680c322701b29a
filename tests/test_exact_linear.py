"""Exact linear algebra: worked examples and algebraic invariants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from slow_oracle import dense_kernel, dense_rref
from tanaka.catalog import make_algebra
from tanaka.exact_linear import (
    NO_TERMS,
    Matrix,
    Subspace,
    add_scaled,
    combination,
    complement,
    densify,
    inverse,
    kernel,
    rank,
    rat,
    rref_canonicalize,
    solve,
    zero_vector,
)
from tanaka.filtered import FilteredSpace
from tanaka.lie import G0Spec
from tanaka.prolong import prolong
from tanaka.torsion import partial1_matrix, partial_np1_matrix

Scalars = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
Dims = st.integers(1, 5)


@st.composite
def matrices(draw, rows=None, cols=None):
    r = rows if rows is not None else draw(Dims)
    c = cols if cols is not None else draw(Dims)
    return Matrix.from_rows([[draw(Scalars) for _ in range(c)] for _ in range(r)])


def test_rref_collinear_rows_collapse():
    m = Matrix.from_rows([[2, 4], [1, 2]])
    assert rref_canonicalize(m) == Matrix.from_rows([[1, 2]])


def test_rref_worked_example():
    m = Matrix.from_rows([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    assert rref_canonicalize(m) == Matrix.from_rows([[1, 0, -1], [0, 1, 2]])


def test_kernel_canonical_basis():
    k = kernel(Matrix.from_rows([[1, 2], [2, 4]]))
    assert k.basis == Matrix.from_rows([[1, rat(-1, 2)]])
    assert k.dim == 1


def test_kernel_of_invertible_is_zero():
    assert kernel(Matrix.from_rows([[1, 1], [0, 1]])) == Subspace.zero(2)


def test_complement_uses_nonpivot_rule():
    s = Subspace.span(3, [[1, 1, 0]])
    c = complement(s, Subspace.full(3))
    assert c == Subspace.span(3, [[0, 1, 0], [0, 0, 1]])


def _quotient(within: Subspace, mod: Subspace) -> FilteredSpace:
    """within/mod is the step V_1/V_2 of the filtration full >= within >= mod."""
    return FilteredSpace.make(0, [Subspace.full(within.ambient_dim), within, mod])


def test_quotient_coords_worked_example():
    mod = Subspace.span(3, [[0, 0, 1]])
    v = (rat(1), rat(2), rat(3))
    assert _quotient(Subspace.full(3), mod).quotient_of(v, 1, 1) == (rat(1), rat(2))


def test_quotient_coords_zero_mod_gives_basis_coords():
    within = Subspace.span(3, [[1, 0, 1], [0, 1, 0]])
    v = (rat(2), rat(-1), rat(2))
    assert _quotient(within, Subspace.zero(3)).quotient_of(v, 1, 1) == (rat(2), rat(-1))


def test_subspace_equality_is_representation_free():
    a = Subspace.span(3, [[1, 2, 3], [0, 0, 1]])
    b = Subspace.span(3, [[2, 4, 7], [-1, -2, -3]])
    assert a == b


@settings(max_examples=200, derandomize=True)
@given(matrices())
def test_rref_idempotent(m):
    """Canonicalizing twice changes nothing."""
    once = rref_canonicalize(m)
    assert rref_canonicalize(once) == once


@settings(max_examples=200, derandomize=True)
@given(matrices())
def test_rank_nullity(m):
    """rank + dim kernel = number of columns."""
    assert rank(m) + kernel(m).dim == m.cols


@settings(max_examples=200, derandomize=True)
@given(matrices())
def test_kernel_vectors_annihilate(m):
    """Every kernel basis vector is an exact solution of m x = 0."""
    for v in kernel(m).basis.entries:
        assert all(e == 0 for e in m.apply(v))


@settings(max_examples=200, derandomize=True)
@given(matrices())
def test_complement_splits_ambient(m):
    """complement(s, full) gives an exact direct-sum decomposition."""
    s = Subspace(m.cols, rref_canonicalize(m))
    full = Subspace.full(m.cols)
    c = complement(s, full)
    assert s.dim + c.dim == full.dim
    assert s.intersect(c) == Subspace.zero(m.cols)
    assert s.add(c) == full


@settings(max_examples=200, derandomize=True)
@given(matrices(), st.data())
def test_quotient_coords_vanish_exactly_on_mod(m, data):
    """Quotient coordinates are zero precisely on elements of mod."""
    mod = Subspace(m.cols, rref_canonicalize(m))
    full = Subspace.full(m.cols)
    space = _quotient(full, mod)
    coeffs = [data.draw(Scalars) for _ in range(mod.dim)]
    v = [Fraction(0)] * m.cols
    for c, row in zip(coeffs, mod.basis.entries):
        v = [a + c * b for a, b in zip(v, row)]
    assert all(e == 0 for e in space.quotient_of(tuple(v), 1, 1))
    if mod.dim < m.cols:
        outside = complement(mod, full).basis.entries[0]
        shifted = tuple(a + b for a, b in zip(v, outside))
        assert any(e != 0 for e in space.quotient_of(shifted, 1, 1))


@settings(max_examples=200, derandomize=True)
@given(matrices(), st.data())
def test_lift_inverts_quotient_coords(m, data):
    """Lifting quotient coordinates lands in the same class."""
    mod = Subspace(m.cols, rref_canonicalize(m))
    space = _quotient(Subspace.full(m.cols), mod)
    v = tuple(data.draw(Scalars) for _ in range(m.cols))
    lifted = space.quotient_lift(space.quotient_of(v, 1, 1), 1, 1)
    assert mod.contains(tuple(a - b for a, b in zip(v, lifted)))


@settings(max_examples=200, derandomize=True)
@given(matrices(rows=3, cols=3), st.data())
def test_solve_finds_exact_solutions(m, data):
    """solve returns an exact solution whenever the system is consistent."""
    x = Matrix.from_rows([[data.draw(Scalars)] for _ in range(3)], 1)
    b = m @ x
    got = solve(m, b)
    assert got is not None
    assert m @ got == b


def test_inverse_round_trip():
    m = Matrix.from_rows([[1, 2], [3, 5]])
    assert m @ inverse(m) == Matrix.identity(2)
    assert inverse(m) @ m == Matrix.identity(2)


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        inverse(Matrix.from_rows([[1, 2], [2, 4]]))


# Degenerate shapes: a matrix keeps its width with no rows, and its
# height with no columns.

def test_zero_row_matrix_keeps_its_width():
    assert Matrix.zeros(0, 5).shape == (0, 5)


def test_kernel_of_zero_row_matrix_is_everything():
    assert kernel(Matrix.zeros(0, 5)) == Subspace.full(5)


def test_product_through_empty_inner_dimension():
    assert Matrix.zeros(2, 0) @ Matrix.zeros(0, 3) == Matrix.zeros(2, 3)


def test_solve_without_equations_returns_zero_vector():
    assert solve(Matrix.zeros(0, 3), Matrix.zeros(0, 2)) == Matrix.zeros(3, 2)
    assert solve(Matrix.zeros(0, 3), Matrix.zeros(0, 1)).col(0) == (rat(0), rat(0), rat(0))


def test_stack_rejects_width_mismatch_of_empty_matrix():
    with pytest.raises(ValueError):
        Matrix.zeros(0, 5).stack(Matrix.zeros(2, 3))


# The sparse fraction-free core against the dense Fraction reduction of
# the slow oracle.

Huge = st.builds(Fraction, st.integers(1 << 60, 1 << 72), st.integers(1 << 60, 1 << 72)).map(
    lambda q: q if q.numerator % 2 else -q)


@st.composite
def oracle_matrices(draw, square=False):
    """Sparse rational matrices, including 0-row, 0-column and all-zero

    ones, duplicated (scaled) rows, and entries of 60 bits or more.
    """
    r = draw(st.integers(0, 6))
    c = r if square else draw(st.integers(0, 6))
    density = draw(st.integers(0, 4))  # of 4; 0 gives the zero matrix
    entry = st.one_of(Scalars, Huge) if draw(st.booleans()) else Scalars
    rows = [[draw(entry) if draw(st.integers(1, 4)) <= density else Fraction(0)
             for _ in range(c)] for _ in range(r)]
    if rows and not square:
        for i in draw(st.lists(st.integers(0, r - 1), max_size=3)):
            k = draw(Scalars)
            rows.insert(draw(st.integers(0, len(rows))), [k * e for e in rows[i]])
    return Matrix.from_rows(rows, c)


def _dense_solve(m: Matrix, b):
    rows = [list(row) + [bv] for row, bv in zip(m.entries, b)]
    rref, pivots = dense_rref(rows, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, p in enumerate(pivots):
        x[p] = rref[r][m.cols]
    return tuple(x)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(oracle_matrices())
def test_rref_rank_kernel_match_dense_oracle(m):
    """Same canonical RREF, rank and kernel basis as dense Gauss-Jordan."""
    dense, pivots = dense_rref(list(m.entries), m.cols)
    assert rref_canonicalize(m) == Matrix.from_rows(dense, m.cols)
    assert rank(m) == len(pivots)
    assert kernel(m).basis == Matrix.from_rows(dense_kernel(list(m.entries), m.cols), m.cols)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(oracle_matrices(), st.data())
def test_solve_matches_dense_oracle(m, data):
    """Each column of a consistent block of 0-3 right-hand sides gets the

    oracle's solution; a block with one inconsistent column gives None.
    """
    k = data.draw(st.integers(0, 3))
    x = Matrix.from_rows([[data.draw(st.one_of(Scalars, Huge)) for _ in range(k)]
                          for _ in range(m.cols)], k)
    b = m @ x
    got = solve(m, b)
    assert got.shape == (m.cols, k)
    assert all(got.col(j) == _dense_solve(m, b.col(j)) for j in range(k))
    assert m @ got == b
    left = dense_kernel(list(m.transpose().entries), m.rows)
    if left and k:
        # b_j + y with y^T m = 0 and y != 0 has y^T (b_j + y) = |y|^2 != 0
        j = data.draw(st.integers(0, k - 1))
        bad = b + Matrix.from_rows([[y if c == j else 0 for c in range(k)] for y in left[0]], k)
        assert solve(m, bad) is None
        assert _dense_solve(m, bad.col(j)) is None
    # the identity as coefficient matrix, on the same block
    ident = Matrix.identity(m.rows)
    got = solve(ident, b)
    assert got == b
    assert all(got.col(j) == _dense_solve(ident, b.col(j)) for j in range(k))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(oracle_matrices(square=True))
def test_inverse_matches_dense_oracle(m):
    """inverse agrees with the oracle's reduction of [m | I], or both fail."""
    n = m.rows
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rref, pivots = dense_rref([list(row) + e for row, e in zip(m.entries, ident)], 2 * n)
    if pivots[:n] != list(range(n)):
        with pytest.raises(ValueError):
            inverse(m)
        return
    assert inverse(m) == Matrix.from_rows([row[n:] for row in rref], n)


# The sparse representation against the dense oracle: the same matrix
# built through every constructor and product, on degenerate shapes.

SHAPES = [(0, 0), (0, 4), (4, 0), (1, 1), (1, 5), (5, 1), (3, 5), (5, 3), (6, 6)]


def _seeded_rows(seed: int) -> tuple[list[list[Fraction]], int]:
    """Dense rows for one seed: all-zero, small or 60-72-bit entries, and

    for every third seed a scaled duplicate of an existing row.
    """
    rng = random.Random(seed)
    r, c = SHAPES[seed % len(SHAPES)]
    density = (0.0, 0.3, 0.7, 1.0)[seed // len(SHAPES) % 4]

    def entry() -> Fraction:
        if seed % 2:
            q = Fraction(rng.randrange(1 << 60, 1 << 72), rng.randrange(1 << 60, 1 << 72))
        else:
            q = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        return q if rng.random() < 0.5 else -q

    rows = [[entry() if rng.random() < density else Fraction(0) for _ in range(c)]
            for _ in range(r)]
    if rows and seed % 3 == 0:
        k = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3))
        rows.insert(rng.randrange(len(rows) + 1), [k * e for e in rng.choice(rows)])
    return rows, c


@pytest.mark.parametrize("seed", range(72))
def test_sparse_constructions_match_dense_oracle(seed):
    """from_rows, from_columns (empty columns included; with a first row

    index and explicit zeros), transpose, stack and products all build
    one matrix: same shape, dense view and stored nonzeros, and the same
    RREF, rank and kernel as dense Gauss-Jordan. from_columns keeps its
    zero rows as the shared NO_TERMS.
    """
    rows, c = _seeded_rows(seed)
    r = len(rows)
    split = r // 2
    columns = [{i: rows[i][j] for i in range(r) if rows[i][j]} for j in range(c)]
    built = {
        "from_rows": Matrix.from_rows(rows, c),
        "from_columns": Matrix.from_columns(columns, r),
        "from_columns, shifted": Matrix.from_columns(
            [{3 + i: rows[i][j] for i in range(r)} for j in range(c)], r, 3),
        "transpose": Matrix.from_rows([list(col) for col in zip(*rows)] or [[]] * c, r).transpose(),
        "stack": Matrix.from_rows(rows[:split], c).stack(Matrix.from_rows(rows[split:], c)),
        "matmul": Matrix.identity(r) @ Matrix.from_rows(rows, c) @ Matrix.identity(c),
    }
    dense_rows, pivots = dense_rref(rows, c)
    expected_rref = Matrix.from_rows(dense_rows, c)
    expected_kernel = Matrix.from_rows(dense_kernel(rows, c), c)
    for name in ("from_columns", "from_columns, shifted", "transpose"):
        assert all(row or row is NO_TERMS for row in built[name].sparse), name
    for name, m in built.items():
        assert m.shape == (r, c), name
        assert m == built["from_rows"], name
        assert m.entries == tuple(tuple(row) for row in rows), name
        assert all(0 <= j < c and e != 0 for row in m.sparse for j, e in row.items()), name
        assert rref_canonicalize(m) == expected_rref, name
        assert rank(m) == len(pivots), name
        assert kernel(m).basis == expected_kernel, name


@pytest.mark.parametrize("seed", range(24))
def test_sparse_products_match_dense_products(seed):
    """A @ B, (A @ B)^T = B^T @ A^T, sums and scalings agree with the dense

    formulas, through inner dimension 0 and all-zero factors.
    """
    a_rows, k = _seeded_rows(seed)
    rng = random.Random(-seed)
    c = rng.randint(0, 4)
    b_rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(c)] for _ in range(k)]
    a, b = Matrix.from_rows(a_rows, k), Matrix.from_rows(b_rows, c)
    product = [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b_rows)]
               if b_rows else [Fraction(0)] * c for row in a_rows]
    assert (a @ b).entries == tuple(tuple(row) for row in product)
    assert (a @ b).transpose() == b.transpose() @ a.transpose()
    assert (a + a.scale(-1)).is_zero() and (a - a) == Matrix.zeros(*a.shape)
    assert a.scale(Fraction(2, 3)).entries == tuple(tuple(Fraction(2, 3) * e for e in row)
                                                    for row in a_rows)


def test_entries_is_the_dense_view_of_the_sparse_rows():
    """entries[i][j] reads sparse[i].get(j, 0) on every cell; rows store no

    zeros and no column outside the shape, here on engine-built matrices.
    """
    res = prolong(make_algebra("heisenberg(3)"), G0Spec("der0"), max_degree=2)
    matrices = [partial1_matrix(res.base)[1], partial_np1_matrix(res, 1)[1],
                res.level(1).carrier.basis, res.level(2).basis[0].to_matrix(),
                Matrix.zeros(2, 3), Matrix.identity(3).scale(0), Matrix.zeros(0, 4)]
    for m in matrices:
        assert len(m.entries) == m.rows
        for i, row in enumerate(m.entries):
            assert len(row) == m.cols
            assert row == tuple(m.sparse[i].get(j, Fraction(0)) for j in range(m.cols))
            assert all(0 <= j < m.cols and e != 0 for j, e in m.sparse[i].items())


# Degenerate operands are answered without an elimination: a zero or
# full subspace, coordinates in the full space, the identity as a
# factor or coefficient matrix. Each fast path against the long way:
# the dense reduction of the stacked rows, or the dense product.

def _dense(m: Matrix) -> list[list[Fraction]]:
    return [list(row) for row in m.entries]


def _long_span(ambient: int, rows: list[list[Fraction]]) -> Subspace:
    return Subspace(ambient, Matrix.from_rows(dense_rref(rows, ambient)[0], ambient))


def _long_intersection(s: Subspace, t: Subspace) -> Subspace:
    """c s = d t from the dense kernel of [s^T | -t^T], then the span of c s."""
    a, b = _dense(s.basis), _dense(t.basis)
    system = [[row[j] for row in a] + [-row[j] for row in b] for j in range(s.ambient_dim)]
    images = [[sum((c * row[j] for c, row in zip(x, a)), Fraction(0)) for j in range(s.ambient_dim)]
              for x in dense_kernel(system, len(a) + len(b))]
    return _long_span(s.ambient_dim, images)


def _long_product(a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*_dense(b)))
    return Matrix.from_rows([[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols]
                             for row in _dense(a)], b.cols)


def _degenerate_pairs():
    """(s, t) with a zero or a full operand on either side, ambient 0..4."""
    middle = [Subspace.span(3, [[1, 2, 0]]), Subspace.span(4, [[0, 1, rat(1, 2), 0], [0, 0, 3, 1]]),
              Subspace.span(2, [[0, 5]])]
    for n in range(5):
        for other in [Subspace.zero(n), Subspace.full(n)] + [s for s in middle if s.ambient_dim == n]:
            for degenerate in (Subspace.zero(n), Subspace.full(n)):
                yield degenerate, other
                yield other, degenerate


@pytest.mark.parametrize("s, t", list(_degenerate_pairs()))
def test_sum_intersection_containment_of_zero_or_full_match_the_long_way(s, t):
    stacked = _dense(s.basis) + _dense(t.basis)
    assert s.add(t) == _long_span(s.ambient_dim, stacked)
    assert s.intersect(t) == _long_intersection(s, t)
    assert s.contains_subspace(t) == (len(dense_rref(stacked, s.ambient_dim)[1]) == s.dim)


def test_sum_with_a_zero_or_full_operand_returns_the_canonical_operand():
    s, zero, full = Subspace.span(3, [[1, 2, 0]]), Subspace.zero(3), Subspace.full(3)
    assert s.add(zero) is s and zero.add(s) is s
    assert full.add(s) is full and s.add(full) is full
    assert s.intersect(full) is s and full.intersect(s) is s


@pytest.mark.parametrize("one", [1, Fraction(1)], ids=["int", "Fraction"])
def test_adding_a_row_once_matches_the_product_path(one):
    """c = 1 adds without products; c = -1 on the negated row multiplies

    every term. Both leave the same accumulator, Fractions throughout,
    with cancelled entries removed and the row moved by shift.
    """
    rng = random.Random(29)
    for _ in range(300):
        acc = {j: Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)) for j in range(rng.randint(0, 6))}
        shift = rng.choice((0, 0, 2, -1))
        row = {j: rng.choice((rng.randint(-3, 3) or 2, Fraction(rng.randint(1, 5), rng.randint(2, 4))))
               for j in range(rng.randint(0, 7))}
        for j in rng.sample(sorted(row), len(row) // 2):  # cancel acc where the row lands
            if j + shift in acc:
                row[j] = -acc[j + shift]
        unit = add_scaled(dict(acc), one, row, shift)
        product = add_scaled(dict(acc), Fraction(-1), {j: -v for j, v in row.items()}, shift)
        assert [(j, v, type(v)) for j, v in unit.items()] == \
            [(j, v, type(v)) for j, v in product.items()]
        assert all(type(v) is Fraction and v for v in unit.values())


def test_coords_in_the_full_space_match_the_long_way():
    full = Subspace.full(4)
    v = [rat(1, 2), Fraction(0), rat(-3), rat(7, 5)]
    expected = _dense_solve(full.basis.transpose(), v)
    nonzero = {j: e for j, e in enumerate(expected) if e}
    assert full.coords_of(v) == nonzero  # dense
    assert full.coords_of({0: rat(1, 2), 2: rat(-3), 3: rat(7, 5)}) == nonzero  # sparse
    assert full.coords_of({0: rat(1, 2), 1: Fraction(0), 2: rat(-3), 3: rat(7, 5)}) == nonzero
    assert full.coords_of((0, 1, 0, 0)) == {1: 1}  # ints come back as Fractions
    assert all(type(e) is Fraction for e in full.coords_of((0, 1, 0, 0)).values())
    assert Subspace.full(0).coords_of(()) == {} and Subspace.full(0).coords_of({}) == {}


def test_coords_in_the_full_space_keep_the_edge_behaviour():
    full = Subspace.full(3)
    assert full.coords_of({3: rat(1)}) is None  # outside 0..n-1, as the residual says
    assert full.coords_of({0: rat(1), -1: rat(2)}) is None
    assert not full.contains({5: rat(1)})
    with pytest.raises(ValueError):
        full.coords_of((rat(1), rat(2)))
    with pytest.raises(ValueError):
        full.coords_of((rat(1),) * 4)


def _coords_cases():
    """(name, subspace): the degenerate subspaces, then seeded random ones."""
    cases = [(f"zero({n})", Subspace.zero(n)) for n in (0, 1, 4)]
    cases += [(f"full({n})", Subspace.full(n)) for n in (0, 1, 4)]
    cases += [("dim 1 of 1", Subspace.span(1, [[rat(-2, 3)]])),
              ("dim 1 of 4", Subspace.span(4, [[0, rat(2, 3), 0, 1]])),
              ("dim 1 of 5", Subspace.span(5, [[0, 0, 0, 0, rat(5)]]))]
    rng = random.Random(29)
    for k in range(40):
        n = rng.randint(2, 7)
        rows = [[Fraction(rng.choice([0, 0, 0, 1, -2, 3]), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(rng.randint(1, n - 1))]
        cases.append((f"random {k}", Subspace.span(n, rows)))
    return cases


def _coords_vectors(rng, s):
    """Dense vectors: the zero vector, combinations of the basis (inside),

    those plus a unit vector at a non-pivot column (outside), and random
    vectors.
    """
    n = s.ambient_dim
    inside = [densify(combination({r: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
                                   for r in range(s.dim) if rng.random() < 0.7}, s.basis.sparse), n)
              for _ in range(3)]
    free = [j for j in range(n) if j not in s.pivot_rows]
    outside = [tuple(e + (j == f) for j, e in enumerate(v)) for v in inside for f in free[:2]]
    drawn = [tuple(Fraction(rng.choice([0, 0, 1, -4]), rng.randint(1, 2)) for _ in range(n))
             for _ in range(2)]
    return [zero_vector(n)] + inside + outside + drawn


@pytest.mark.parametrize("name, s", _coords_cases(), ids=[name for name, _ in _coords_cases()])
def test_coords_of_agrees_with_a_dense_solve(name, s):
    """On every subspace, dense and sparse input alike: the answer holds

    exactly the nonzero coefficients of the dense solve B^T c = v, the
    basis rows rebuild v from them, and it is None exactly when v is
    outside, as `contains` says.
    """
    rng = random.Random(name)
    n = s.ambient_dim
    pivots = dense_rref(list(s.basis.entries), n)[1]
    assert list(s.pivot_rows.items()) == [(p, r) for r, p in enumerate(pivots)]
    for v in _coords_vectors(rng, s):
        expected = _dense_solve(s.basis.transpose(), v)
        sparse = {j: e for j, e in enumerate(v) if e}
        with_zeros = {**{j: Fraction(0) for j in range(n)}, **sparse}  # explicit zero entries
        for form in (v, list(v), sparse, with_zeros, {j: int(e) if e.denominator == 1 else e
                                                       for j, e in sparse.items()}):
            got = s.coords_of(form)
            assert (got is None) == (expected is None) == (not s.contains(form)), (v, form)
            if got is None:
                continue
            assert got == {r: c for r, c in enumerate(expected) if c}, v
            assert all(type(c) is Fraction and c for c in got.values()), v
            assert densify(combination(got, s.basis.sparse), n) == v, v
        assert s.coords_of({**sparse, n: rat(1)}) is None  # a nonzero past the ambient
        assert s.coords_of({**sparse, n + 3: Fraction(0)}) == s.coords_of(sparse)
        with pytest.raises(ValueError):
            s.coords_of(v + (Fraction(0),))


def test_solve_with_the_identity_matches_the_long_way():
    b = Matrix.from_rows([[rat(1, 2), 0], [0, 0], [rat(-3), rat(4, 7)]])
    got = solve(Matrix.identity(3), b)
    assert got == b
    assert all(got.col(j) == _dense_solve(Matrix.identity(3), b.col(j)) for j in range(2))
    assert solve(Matrix.identity(0), Matrix.zeros(0, 2)) == Matrix.zeros(0, 2)
    with pytest.raises(ValueError):
        solve(Matrix.identity(3), Matrix.zeros(2, 1))


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (2, 3), (3, 3)])
def test_product_with_an_identity_factor_matches_the_long_way(rows, cols):
    m = Matrix.from_rows([[Fraction(i - j, 1 + i + j) for j in range(cols)] for i in range(rows)], cols)
    assert Matrix.identity(rows) @ m == _long_product(Matrix.identity(rows), m) == m
    assert m @ Matrix.identity(cols) == _long_product(m, Matrix.identity(cols)) == m
    with pytest.raises(ValueError):
        Matrix.identity(rows + 1) @ m


def test_is_identity_rejects_every_near_identity():
    assert Matrix.identity(0).is_identity() and Matrix.identity(3).is_identity()
    for m in (Matrix.identity(3).scale(2), Matrix.zeros(3, 3), Matrix.identity(3).stack(Matrix.zeros(1, 3)),
              Matrix.from_rows([[1, 0], [1, 1]]), Matrix.from_rows([[0, 1], [1, 0]])):
        assert not m.is_identity()


def _combined_leads(rows: list[list[Fraction]]) -> set[int]:
    """Leading columns of the rows combined with the first pivot of the elimination."""
    lead = min(j for row in rows for j, e in enumerate(row) if e)
    group = [row for row in rows if row[lead]]
    pivot = min(group, key=lambda row: sum(1 for e in row if e))
    combined = ([a - row[lead] / pivot[lead] * b for a, b in zip(row, pivot)]
                for row in group if row is not pivot)
    return {next(j for j, e in enumerate(new) if e) for new in combined if any(new)}


@pytest.mark.parametrize("seed", range(6))
def test_pivot_heap_takes_new_leading_columns_before_waiting_ones(seed):
    """Rows sharing column 0 combine into rows that lead at new columns

    left of columns already waiting; the RREF and pivots stay those of
    dense Gauss-Jordan.
    """
    rng = random.Random(seed)
    n = 24
    rows = [[Fraction(rng.randint(1, 5))] + [Fraction(rng.choice([0, 0, 0, 1, -2, 3])) for _ in range(n - 1)]
            for _ in range(8)]
    rows += [[Fraction(0)] * (n - k) + [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(k)]
             for k in (3, 5, 6)]  # waiting at columns n-3, n-5 and n-6
    rng.shuffle(rows)
    waiting = {n - 3, n - 5, n - 6}
    assert any(c < min(waiting) for c in _combined_leads(rows) - waiting)  # the push path runs
    m = Matrix.from_rows(rows, n)
    dense, pivots = dense_rref(rows, n)
    assert rref_canonicalize(m) == Matrix.from_rows(dense, n)
    row_of = Subspace.row_space(m).pivot_rows
    assert list(row_of.items()) == [(p, r) for r, p in enumerate(pivots)]
    assert rank(m) == len(pivots)
