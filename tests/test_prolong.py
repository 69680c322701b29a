"""Prolongation engine tests: catalog regressions, the slow-path oracle,
incremental stepping, and the laws of the extended bracket."""

from fractions import Fraction

import pytest

from slow_oracle import slow_prolong_dims
from tanaka.catalog import make_algebra
from tanaka.exact_linear import Matrix, Subspace, densify
from tanaka.graded import HomogeneousMap, hom_basis, hom_space_dim, hom_terms
from tanaka.lie import (G0Spec, GradedLieAlgebra, adjoin_g0, bracket_eval, derivations, jacobi_triples,
                        resubstitute, validate)
from tanaka.prolong import (
    ExtendedBracket,
    LevelInconsistency,
    ProlongationLevel,
    ProlongationResult,
    _express_in_level,
    extended_bracket,
    jacobi_failures,
    order_and_bound,
    prolong,
    prolong_step,
)


def _table(eb):
    """The nonzero brackets of an extended bracket, pairs a < b ascending,

    in the layout of GradedLieAlgebra.brackets; the placeholders of its
    out-of-range pairs are empty, so none is listed.
    """
    return tuple(((a, b), row) for a, rows in enumerate(eb.act)
                 for b, row in enumerate(rows) if a < b and row)


def _escaped(eb):
    """The out-of-range pairs of an extended bracket, in both orders."""
    return {p for a, b in eb.out_of_range for p in ((a, b), (b, a))}


def test_zero_g0_stops_immediately():
    """With no degree-0 part the first level of a stratified algebra is 0."""
    res = prolong(make_algebra("heisenberg3"), G0Spec("zero"), max_degree=5)
    assert res.dims == (0,)
    assert res.status.kind == "finite"
    assert order_and_bound(res) == (0, 3)
    # abelian2 has no degree-1 map at all: the level system has no columns,
    # and its kernel is the zero subspace of Q^0
    ab = make_algebra("abelian2")
    assert hom_space_dim(ab.space, ab.space, 1) == 0
    assert derivations(ab, ab.act, ab.space, 1) == (Subspace.zero(0), ())
    res = prolong(ab, G0Spec("zero"), max_degree=5)
    assert res.levels[0].carrier == Subspace.zero(0) and res.levels[0].basis == ()
    assert order_and_bound(res) == (0, 2)


def test_abelian_full_matrix_growth():
    res = prolong(make_algebra("abelian2"), G0Spec("gl"), max_degree=3)
    assert res.dims == (6, 8, 10)
    assert res.status.kind == "truncated"
    res = prolong(make_algebra("abelian3"), G0Spec("gl"), max_degree=2)
    assert res.dims == (18, 30)


def test_orthogonal_and_conformal_orders():
    res = prolong(make_algebra("abelian3"), G0Spec("so"), max_degree=5)
    assert res.dims == (0,)
    assert order_and_bound(res) == (0, 6)

    res = prolong(make_algebra("abelian3"), G0Spec("co"), max_degree=5)
    assert res.dims == (3, 0)
    assert order_and_bound(res) == (1, 10)


def test_special_linear_growth():
    res = prolong(make_algebra("abelian2"), G0Spec("sl"), max_degree=3)
    assert res.dims == (4, 5, 6)
    res = prolong(make_algebra("abelian3"), G0Spec("sl"), max_degree=2)
    assert res.dims == (15, 24)


def test_der0_prolongations():
    res = prolong(make_algebra("heisenberg3"), G0Spec("der0"), max_degree=3)
    assert len(res.g0) == 4
    assert res.dims == (6, 9, 12)
    assert res.status.kind == "truncated"

    res = prolong(make_algebra("free_235"), G0Spec("der0"), max_degree=10)
    assert len(res.g0) == 4
    assert res.dims == (2, 1, 2, 0)
    assert order_and_bound(res) == (3, 14)


def test_dims_match_slow_oracle():
    """Fresh slow-path solves, not frozen numbers."""
    cases = [
        ("heisenberg5", G0Spec("der0"), 2),
        ("free_235", G0Spec("der0"), 4),
        ("abelian2", G0Spec("sl"), 2),
    ]
    for name, spec, depth in cases:
        res = prolong(make_algebra(name), spec, max_degree=depth)
        assert list(res.dims) == slow_prolong_dims(res.base, depth), name


def test_explicit_generators_match_slow_oracle():
    m = make_algebra("abelian2")
    diag = [
        HomogeneousMap.make(m.space, m.space, 0,
                            {-1: Matrix.from_rows([[Fraction(1), Fraction(0)],
                                                   [Fraction(0), Fraction(0)]])}),
        HomogeneousMap.make(m.space, m.space, 0,
                            {-1: Matrix.from_rows([[Fraction(0), Fraction(0)],
                                                   [Fraction(0), Fraction(1)]])}),
    ]
    res = prolong(m, G0Spec(generators=tuple(diag)), max_degree=3)
    assert list(res.dims) == slow_prolong_dims(res.base, 3)
    assert res.dims == (2, 2, 2)


def test_deeper_run_extends_shallower_one():
    shallow = prolong(make_algebra("heisenberg3"), G0Spec("der0"), max_degree=1)
    deep = prolong(make_algebra("heisenberg3"), G0Spec("der0"), max_degree=3)
    assert deep.dims[:1] == shallow.dims
    assert shallow.level(1).carrier == deep.level(1).carrier


def test_prolong_step_reproduces_each_level():
    m = make_algebra("free_235")
    res = prolong(m, G0Spec("der0"), max_degree=10)
    for r in range(res.depth):
        step = prolong_step(m, res.g0, res.levels[:r])
        assert step.degree == r + 1
        assert step.carrier == res.level(r + 1).carrier


def test_prolong_step_runs_the_checks_of_prolong():
    """diag(1, 0) on m_-1 of heisenberg3 is no derivation: m + g^0 fails Jacobi."""
    m = make_algebra("heisenberg3")
    diag = HomogeneousMap.make(m.space, m.space, 0, {-1: Matrix.from_rows([[1, 0], [0, 0]])})
    with pytest.raises(ValueError, match="Jacobi"):
        prolong(m, [diag], max_degree=1)
    with pytest.raises(ValueError, match="Jacobi"):
        prolong_step(m, [diag])


def test_levels_live_in_hom_coordinates():
    res = prolong(make_algebra("abelian2"), G0Spec("gl"), max_degree=2)
    for s in (1, 2):
        level = res.level(s)
        below = res.tower_space(s - 1)
        assert level.space_below == below
        ambient = hom_space_dim(res.negative.space, below, s)
        assert level.carrier.ambient_dim == ambient
        assert len(level.basis) == level.carrier.dim
        for A in level.basis:
            assert level.carrier.contains(hom_terms(A))


def test_tower_coordinates_are_prefix_compatible():
    res = prolong(make_algebra("heisenberg3"), G0Spec("der0"), max_degree=2)
    flat = []
    for s in range(res.depth + 1):
        space = res.tower_space(s)
        labels = [lab for d in space.degrees for lab in space.labels(d)]
        assert labels[: len(flat)] == flat
        flat = labels


def test_dim_accessor():
    res = prolong(make_algebra("free_235"), G0Spec("der0"), max_degree=10)
    assert res.dim_g(-3) == 2 and res.dim_g(-2) == 1 and res.dim_g(-1) == 2
    assert res.dim_g(0) == 4
    assert (res.dim_g(1), res.dim_g(2), res.dim_g(3)) == (2, 1, 2)
    assert res.dim_g(4) == 0 and res.dim_g(99) == 0

    truncated = prolong(make_algebra("abelian2"), G0Spec("gl"), max_degree=2)
    with pytest.raises(ValueError):
        truncated.dim_g(3)


def test_order_and_bound_guards():
    truncated = prolong(make_algebra("abelian2"), G0Spec("gl"), max_degree=2)
    with pytest.raises(ValueError):
        order_and_bound(truncated)

    finite = prolong(make_algebra("abelian3"), G0Spec("co"), max_degree=4)
    with pytest.raises(ValueError):
        order_and_bound(finite, base_dim=2)
    assert order_and_bound(finite, base_dim=5) == (1, 12)


def test_rejects_bad_inputs():
    m = make_algebra("abelian2")
    with pytest.raises(ValueError):
        prolong(m, G0Spec("gl"), max_degree=0)
    with pytest.raises(ValueError):
        prolong(make_algebra("heisenberg3"), G0Spec("gl"), max_degree=2)

    from tanaka.lie import GradedLieAlgebra
    from tanaka.graded import GradedSpace
    scattered = GradedLieAlgebra.from_bracket_dict(
        GradedSpace.make({-2: ("a",), -1: ("b",)}), {})
    with pytest.raises(ValueError, match="fundamental"):
        prolong(scattered, G0Spec("zero"), max_degree=2)


def test_mixed_bracket_is_evaluation():
    """[z, x] = z(x) and [x, z] = -z(x) for z in a positive level."""
    res = prolong(make_algebra("abelian2"), G0Spec("sl"), max_degree=1)
    eb = extended_bracket(res)
    nm = res.negative.space.total_dim
    start = eb.space.offset(1)
    for t, A in enumerate(res.level(1).basis):
        z = start + t
        for x in range(nm):
            value = A.columns[x]
            assert eb.act[z][x] == value
            assert eb.act[x][z] == {k: -e for k, e in value.items()}


def test_extended_bracket_laws():
    res = prolong(make_algebra("free_235"), G0Spec("der0"), max_degree=10)
    eb = extended_bracket(res)
    assert eb.space.total_dim == 14
    assert eb.out_of_range == ()

    degs = [eb.space.degree_of_index(i) for i in range(14)]
    table = _table(eb)
    assert table
    for (a, b), row in table:
        assert all(row.values())
        assert eb.act[b][a] == {k: -e for k, e in row.items()}
        assert {degs[i] for i in row} == {degs[a] + degs[b]}
    assert all(not eb.act[a][a] for a in range(14))
    assert jacobi_failures(eb) == []


def test_extended_bracket_truncated_range():
    res = prolong(make_algebra("heisenberg3"), G0Spec("der0"), max_degree=2)
    eb = extended_bracket(res)
    degs = [eb.space.degree_of_index(i) for i in range(eb.space.total_dim)]
    expected = {(a, b)
                for a in range(eb.space.total_dim)
                for b in range(a + 1, eb.space.total_dim)
                if degs[a] >= 0 and degs[b] >= 0 and degs[a] + degs[b] > 2}
    assert set(eb.out_of_range) == expected
    # their entries are empty placeholders, which jacobi_failures skips
    assert all(not eb.act[a][b] and not eb.act[b][a] for a, b in expected)
    assert jacobi_failures(eb) == []


def test_jacobi_failures_finds_a_perturbed_bracket():
    """One in-range [g^0, g^1] entry of a truncated tower, bumped by a g^1

    basis vector: the broken triple is reported, every triple that needs
    an escaped pair is skipped, and validate on an algebra carrying the
    same table names the same in-range triples.
    """
    res = prolong(make_algebra("heisenberg3"), G0Spec("der0"), max_degree=2)
    eb = extended_bracket(res)
    space = eb.space
    a, b = space.offset(0), space.offset(1)
    escaped = _escaped(eb)
    assert (a, b) not in escaped
    act = [list(row) for row in eb.act]
    bumped = dict(act[a][b])
    bumped[b] = bumped.get(b, 0) + 1
    act[a][b] = {k: e for k, e in bumped.items() if e}
    act[b][a] = {k: -e for k, e in act[a][b].items()}
    broken = ExtendedBracket(space, eb.depth, tuple(map(tuple, act)), eb.out_of_range)

    bad = jacobi_failures(broken)
    # [[a, b], x] moves by [e_b, e_x] = g1_0(x), nonzero for some x in m
    x = next(x for x in range(res.negative.space.total_dim) if eb.act[b][x])
    assert (x, a, b) in bad

    def needs_escaped(triple):
        p, q, r = triple
        return any((u, v) in escaped
                   or any((k, w) in escaped for k in broken.act[u][v])
                   for u, v, w in ((p, q, r), (q, r, p), (r, p, q)))

    assert not any(needs_escaped(t) for t in bad)
    # read with their empty placeholders, some escaped triples fail too
    unchecked = set(jacobi_triples(broken.act)) - set(bad)
    assert unchecked and all(needs_escaped(t) for t in unchecked)

    problems = validate(GradedLieAlgebra(space, _table(broken)))
    label = space.label_of_index
    n = space.total_dim
    named = [(p, q, r) for p in range(n) for q in range(p + 1, n) for r in range(q + 1, n)
             if not needs_escaped((p, q, r))
             and f"Jacobi fails on ({label(p)}, {label(q)}, {label(r)})" in problems]
    assert named == bad
    assert f"Jacobi fails on ({label(x)}, {label(a)}, {label(b)})" in problems
    assert jacobi_failures(eb) == []


def test_degree_zero_block_matches_base_algebra():
    res = prolong(make_algebra("abelian3"), G0Spec("co"), max_degree=3)
    eb = extended_bracket(res)
    n0 = res.base.space.total_dim
    for a in range(n0):
        for b in range(a + 1, n0):
            assert eb.act[a][b] == res.base.act[a][b]


def _first_level_in_bigger_g0(small, big) -> bool:
    """Re-express each basis map of the smaller tower's first level over

    the bigger degree-0 part, then test membership in the bigger level.
    """
    m = small.negative
    nm = m.space.total_dim
    amb0 = hom_space_dim(m.space, m.space, 0)
    big_span = Subspace.row_space(Matrix(tuple(hom_terms(f) for f in big.g0), amb0))
    big_below = big.tower_space(0)
    for A in small.level(1).basis:
        cols = []
        for x in range(nm):
            v = densify(A.columns[x], A.target.total_dim)
            assert all(e == 0 for e in v[:nm])
            f = HomogeneousMap.zero(m.space, m.space, 0)
            for i, c in enumerate(v[nm:]):
                if c != 0:
                    f = f.add(small.g0[i].scale(c))
            coords = big_span.coords_of(hom_terms(f))
            if coords is None:
                return False
            cols.append(coords)
        block = Matrix.from_rows(
            [[cols[s].get(t, 0) for s in range(nm)] for t in range(len(big.g0))])
        lifted = HomogeneousMap.make(m.space, big_below, 1, {-1: block})
        if not big.level(1).carrier.contains(hom_terms(lifted)):
            return False
    return True


def test_first_level_grows_with_g0():
    """Orthogonal inside conformal inside full matrix choices of g^0."""
    m = make_algebra("abelian3")
    so = prolong(m, G0Spec("so"), max_degree=1)
    co = prolong(m, G0Spec("co"), max_degree=1)
    gl = prolong(m, G0Spec("gl"), max_degree=1)
    assert so.dims[0] <= co.dims[0] <= gl.dims[0]
    assert _first_level_in_bigger_g0(so, co)
    assert _first_level_in_bigger_g0(so, gl)
    assert _first_level_in_bigger_g0(co, gl)


def test_extended_bracket_is_built_once_per_result():
    res = prolong(make_algebra("heisenberg3"), G0Spec("der0"), max_degree=2)
    assert extended_bracket(res) is extended_bracket(res)
    assert res.tower_space(1) is res.tower_space(1)


def test_extended_bracket_eval_rejects_wrong_length():
    """bracket_eval reads an extended bracket's space and act as it reads an algebra's."""
    eb = extended_bracket(prolong(make_algebra("free_235"), G0Spec("der0"), max_degree=10))
    n = eb.space.total_dim
    ok = (Fraction(1),) + (Fraction(0),) * (n - 1)
    for bad in (ok[:-1], ok + (Fraction(1),)):
        with pytest.raises(ValueError, match="length"):
            bracket_eval(eb, bad, ok)
        with pytest.raises(ValueError, match="length"):
            bracket_eval(eb, ok, bad)
    assert bracket_eval(eb, ok, ok) == (Fraction(0),) * n


def test_express_in_level_rejects_off_block_values():
    """A degree -1 column of a level-1 value must lie in g^0; a stray

    entry in m_-2 (still inside m_0) is an inconsistency, not a zero.
    """
    res = prolong(make_algebra("heisenberg3"), G0Spec("der0"), max_degree=2)
    nm = res.negative.space.total_dim
    assert _express_in_level(res, 1, [{} for _ in range(nm)]) == {}
    x = res.negative.space.offset(-1)
    z = res.negative.space.offset(-2)
    cols = [{} for _ in range(nm)]
    cols[x] = {z: Fraction(1)}
    with pytest.raises(LevelInconsistency, match="graded block"):
        _express_in_level(res, 1, cols)
    # a value past m_0 (in g^1) is outside the block too
    cols[x] = {res.level(1).space_below.total_dim: Fraction(1)}
    with pytest.raises(LevelInconsistency, match="graded block"):
        _express_in_level(res, 1, cols)


def test_resubstitution_catches_a_perturbed_basis_map():
    """A level-1 basis map plus a unit map outside g^1 fails the check."""
    m = make_algebra("heisenberg3")
    res = prolong(m, G0Spec("der0"), max_degree=1)
    level = res.level(1)
    below = level.space_below
    unit = next(u for u in hom_basis(m.space, below, 1)
                if not level.carrier.contains(hom_terms(u)))
    perturbed = level.basis[0].add(unit)
    bad = ProlongationLevel(level.degree, level.space_below, level.carrier,
                            (perturbed,) + level.basis[1:])
    act = res._tower.act
    with pytest.raises(LevelInconsistency, match="bracket identity"):
        resubstitute(m, act, bad.basis)
    resubstitute(m, act, level.basis)


def test_extended_bracket_catches_a_truncated_carrier():
    """g^0 holds the grading element, which brackets onto every g^2 basis

    map; dropping one row of the g^2 carrier must make that value fail
    its membership solve.
    """
    res = prolong(make_algebra("heisenberg3"), G0Spec("der0"), max_degree=2)
    g2 = res.level(2)
    rows = g2.carrier.basis.entries[:-1]
    lost = ProlongationLevel(g2.degree, g2.space_below,
                             Subspace(g2.carrier.ambient_dim,
                                      Matrix.from_rows(rows, g2.carrier.ambient_dim)),
                             g2.basis)
    broken = ProlongationResult(res.base, res.negative, res.g0, (res.level(1), lost), res.status)
    with pytest.raises(LevelInconsistency, match="computed g\\^2"):
        extended_bracket(broken)
