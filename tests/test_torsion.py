"""Boundary maps, kernel cross-validation, and tower reports."""

from fractions import Fraction
from functools import partial

import pytest

from tanaka import cli
from tanaka.catalog import make_algebra
from tanaka.exact_linear import Matrix, Subspace, complement, kernel, rank
from tanaka.graded import (GradedMap, GradedSpace, HomogeneousMap, hom_basis,
                           hom_coords, hom_space_dim, hom_terms_of_columns, hom_units)
from tanaka.lie import G0Spec, GradedLieAlgebra, adjoin_g0, bracket_eval, resolve_g0
from tanaka.prolong import (ProlongationLevel, ProlongationResult, extended_bracket,
                           prolong)
from tanaka.torsion import (
    KernelReport,
    complement_w,
    gl_tail_dim,
    kernel_reports,
    partial1,
    partial1_matrix,
    partial_np1,
    partial_np1_matrix,
    torsion_space,
    tower_report,
)

LEVEL1_CASES = [
    ("abelian(2)", "gl"),
    ("abelian(3)", "co"),
    ("abelian(3)", "so"),
    ("heisenberg(3)", "der0"),
]


def _result(name, preset, depth):
    return prolong(make_algebra(name), G0Spec(preset), max_degree=depth)


def test_partial1_hand_computed_column():
    # u sends e3 to e1 on the Heisenberg algebra with its full g^0;
    # the three wedge pairs give 0, -e3, e1 in index order
    m = make_algebra("heisenberg(3)")
    m0 = adjoin_g0(m, resolve_g0(G0Spec("der0"), m))
    src = m0.space.index_of_label("e3")
    tgt = m0.space.index_of_label("e1")
    assert (src, tgt) == (0, 1)
    u = HomogeneousMap.make(m0.space, m0.space, 1,
                            {-2: Matrix.from_rows([[1], [0]])})
    tor = partial1_matrix(m0)[0]
    assert tor.pairs_m == ((0, 1), (0, 2), (1, 2))
    assert partial1(m0, u) == (Fraction(0), Fraction(-1), Fraction(1), Fraction(0))


def test_partial1_reads_only_the_degree_one_part():
    m = make_algebra("heisenberg(3)")
    m0 = adjoin_g0(m, resolve_g0(G0Spec("der0"), m))
    units1 = hom_basis(m0.space, m0.space, 1)
    units2 = hom_basis(m0.space, m0.space, 2)
    a1 = units1[0]
    with_tail = GradedMap.make(m0.space, m0.space, {1: a1, 2: units2[0]})
    assert partial1(m0, with_tail) == partial1(m0, a1)
    with pytest.raises(ValueError):
        partial1(m0, GradedMap.make(m0.space, m0.space,
                                    {0: hom_basis(m0.space, m0.space, 0)[0]}))


def test_partial1_is_linear():
    m = make_algebra("abelian(3)")
    m0 = adjoin_g0(m, resolve_g0(G0Spec("gl"), m))
    units = hom_basis(m0.space, m0.space, 1)
    a, b = units[0], units[3]
    lhs = partial1(m0, a.add(b.scale(Fraction(5, 2))))
    rhs = tuple(x + Fraction(5, 2) * y
                for x, y in zip(partial1(m0, a), partial1(m0, b)))
    assert lhs == rhs


@pytest.mark.parametrize("name,preset", LEVEL1_CASES)
def test_level1_kernel_is_next_level_on_the_degree_one_block(name, preset):
    res = _result(name, preset, 3)
    rep = kernel_reports(res, 0)
    assert rep.passed
    assert rep.dim_w == rep.dim_tor - rep.rank
    assert rep.rank == hom_space_dim(res.base.space, res.base.space, 1) - rep.dim_g_next


@pytest.mark.parametrize("name,preset", LEVEL1_CASES)
def test_level1_kernel_as_full_domain_subspace_identity(name, preset):
    # over gl_1 = Hom^1 + gl_2 (degree-1 units first), the kernel of
    # the extended matrix equals (embedded g^1) + gl_2 exactly
    res = _result(name, preset, 3)
    m0 = res.base
    tor, mat = partial1_matrix(m0)
    n1 = hom_space_dim(m0.space, m0.space, 1)
    tail = gl_tail_dim(m0.space, 2)
    padded = Matrix.from_rows([list(row) + [0] * tail for row in mat.entries]) \
        if tor.total_dim else Matrix.zeros(0, n1 + tail)
    if tor.total_dim:
        ker = kernel(padded)
    else:
        ker = Subspace.full(n1 + tail)
    rows = []
    for a in res.level(1).basis:
        emb = HomogeneousMap.make(m0.space, m0.space, 1,
                                  {d: a.block(d) for d in res.negative.space.degrees})
        rows.append(tuple(hom_coords(emb)) + (Fraction(0),) * tail)
    for j in range(tail):
        rows.append((Fraction(0),) * n1
                    + tuple(Fraction(1 if i == j else 0) for i in range(tail)))
    assert ker == Subspace.span(n1 + tail, rows)


@pytest.mark.parametrize("name,preset,n", [
    ("heisenberg(3)", "der0", 1),
    ("heisenberg(3)", "der0", 2),
    ("abelian(2)", "gl", 1),
    ("abelian(2)", "gl", 2),
])
def test_higher_level_kernel_and_hom_injectivity(name, preset, n):
    res = _result(name, preset, n + 1)
    rep = kernel_reports(res, n)
    assert rep.gl_kernel_matches
    assert rep.hom_injective
    assert rep.dim_w == rep.dim_tor - rep.rank
    # rank = dim of the entering domain minus the kernel pieces
    entering = rep.dim_domain - rep.dim_gl_tail
    assert rep.rank == entering - rep.dim_g_next


def test_boundary_map_factors_through_the_top_degree_part():
    res = _result("heisenberg(3)", "der0", 2)
    space = res.tower_space(1)
    units2 = hom_basis(space, space, 2)
    units3 = hom_basis(space, space, 3)
    a = units2[1]
    with_tail = GradedMap.make(space, space, {2: a, 3: units3[0]})
    assert partial_np1(res, 1, with_tail) == partial_np1(res, 1, a)
    # a pure gl_{n+2} element is annihilated
    zero = partial_np1(res, 1, GradedMap.make(space, space, {3: units3[0]}))
    assert all(e == 0 for e in zero)


def test_image_respects_the_two_part_target_decomposition():
    res = _result("heisenberg(3)", "der0", 2)
    tor = torsion_space(res, 1)
    first, second = tor.part_dims
    assert first + second == tor.total_dim
    space = res.tower_space(1)
    gl_only = partial_np1(res, 1, hom_basis(space, space, 2)[0])
    assert all(e == 0 for e in gl_only[first:])
    r0, r1 = space.dim(0), space.dim(1)
    e = Matrix.from_rows([[1 if (i, j) == (0, 0) else 0 for j in range(r0)]
                          for i in range(r1)])
    hom_only = partial_np1(res, 1, None, {0: e})
    assert all(x == 0 for x in hom_only[:first])
    assert any(x != 0 for x in hom_only[first:])


def _assembled(res, n):
    """The torsion space, the whole level-(n+1) boundary matrix

    block_diag(gl, I_{#w} (x) B) assembled from the two blocks that
    partial_np1_matrix returns, and the layout.
    """
    tor, gl, b, layout = partial_np1_matrix(res, n)
    copies = sum(tor.space.dim(i) for i in range(n))
    rows = list(gl.sparse)
    for c in range(copies):
        rows.extend({gl.cols + c * b.cols + t: e for t, e in row.items()} for row in b.sparse)
    return tor, Matrix(tuple(rows), gl.cols + copies * b.cols), layout


def test_partial_np1_matches_matrix_columns():
    """partial_np1 of each gl unit and of each Hom unit e_t e_w^* of

    Hom(g^i, g^n) is the matching column of the assembled matrix.
    """
    for name, preset, n in (("abelian(2)", "gl", 1), ("heisenberg(3)", "der0", 2)):
        res = _result(name, preset, n + 1)
        tor, mat, layout = _assembled(res, n)
        space = res.tower_space(n)
        units = hom_basis(space, space, n + 1)
        assert layout[0] == len(units)
        for c, u in enumerate(units):
            assert partial_np1(res, n, u) == mat.col(c)
        c, r_n = len(units), space.dim(n)
        for i in range(n):
            for w in range(space.dim(i)):
                for t in range(r_n):
                    e = Matrix.from_rows([[int((s, v) == (t, w)) for v in range(space.dim(i))]
                                          for s in range(r_n)], space.dim(i))
                    assert partial_np1(res, n, None, {i: e}) == mat.col(c), (name, i, w, t)
                    c += 1
        assert c == mat.cols == sum(layout)


def _formula_columns(res, n):
    """The columns of the level-(n+1) boundary matrix, evaluated densely

    from the formula: each unit map is applied with HomogeneousMap.apply
    and bracketed through bracket_eval, on vectors padded to the
    bracket's dimension.
    """
    tor = torsion_space(res, n)
    space, level = tor.space, n + 1
    size = space.total_dim
    if n == 0:
        full, br = size, partial(bracket_eval, res.base)
    else:
        ext = extended_bracket(res)
        full, br = ext.space.total_dim, ext.bracket_eval

    def pad(v):
        return tuple(v) + (Fraction(0),) * (full - len(v))

    unit = [tuple(Fraction(int(i == k)) for i in range(size)) for k in range(size)]

    def block(v, degree):
        start = space.offset(degree)
        return v[start:start + space.dim(degree)]

    first, second = tor.part_dims
    cols = []
    for a_map in hom_basis(space, space, level):
        col = []
        for a, b in tor.pairs_m:
            ea, eb = unit[a], unit[b]
            value = [x - y - z for x, y, z in zip(
                pad(a_map.apply(br(pad(ea), pad(eb))[:size])),
                br(pad(a_map.apply(ea)), pad(eb)),
                br(pad(ea), pad(a_map.apply(eb))))]
            col.extend(block(value, space.degree_of_index(a) + space.degree_of_index(b) + level))
        cols.append(tuple(col) + (Fraction(0),) * second)
    for i in range(n):
        degree = n - i
        for (w, _), e_map in zip(hom_units(space, space, degree), hom_basis(space, space, degree)):
            if space.degree_of_index(w) != i:
                continue
            col = []
            for x, w2 in tor.pairs_hom:
                image = e_map.apply(unit[w2]) if w2 == w else (Fraction(0),) * size
                col.extend(block(br(pad(image), pad(unit[x])), n - 1))
            cols.append((Fraction(0),) * first + tuple(col))
    return cols


@pytest.mark.parametrize("name,preset,depth", [
    ("heisenberg(3)", "der0", 3),
    ("free_235", "der0", 4),
    ("abelian(2)", "gl", 2),
    ("abelian(3)", "co", 3),
])
def test_boundary_matrix_columns_follow_the_formula(name, preset, depth):
    """Every column of every boundary matrix, gl and Hom units alike, is

    the formula (dA)(a ^ b) = A[a, b] - [A(a), b] - [a, A(b)] and
    (dE)(x ^ w) = [E(w), x] evaluated on dense vectors.
    """
    res = _result(name, preset, depth)
    for n in range(res.depth + 1):
        tor, mat, layout = _assembled(res, n)
        expected = _formula_columns(res, n)
        assert len(expected) == mat.cols == sum(layout), n
        for c, col in enumerate(expected):
            assert mat.col(c) == col, (n, c)


def test_partial_np1_validates_shapes():
    res = _result("abelian(2)", "gl", 2)
    space = res.tower_space(1)
    with pytest.raises(ValueError):
        partial_np1(res, 1, HomogeneousMap.zero(space, space, 3))
    with pytest.raises(ValueError):
        partial_np1(res, 1, None, {0: Matrix.zeros(1, 1)})
    # level 2 has the single Hom(g^0, g^1) part; other keys are named
    with pytest.raises(ValueError, match="hom part 1"):
        partial_np1(res, 1, None, {1: Matrix.zeros(6, 6), 7: Matrix.zeros(1, 1), -3: "junk"})
    with pytest.raises(ValueError, match="hom part -3"):
        partial_np1(res, 1, None, {0: Matrix.zeros(space.dim(1), space.dim(0)), -3: "junk"})
    with pytest.raises(ValueError, match="hom part 0"):
        partial_np1(res, 0, None, {0: Matrix.zeros(1, 1)})


def test_level_restriction_on_wedge_pairs():
    # depth-4 filiform algebra: the (-2, -3) pair carries torsion at
    # level 1 but is dropped from level >= 2 domains
    space = GradedSpace.make({-1: ["e1", "e2"], -2: ["e3"], -3: ["e4"], -4: ["e5"]})
    m = GradedLieAlgebra.from_bracket_dict(
        space,
        {("e1", "e2"): {"e3": 1}, ("e1", "e3"): {"e4": 1}, ("e1", "e4"): {"e5": 1}},
    )
    res = prolong(m, G0Spec("der0"), max_degree=1)
    sp = m.space
    i3, i4 = sp.index_of_label("e3"), sp.index_of_label("e4")
    pair = (min(i3, i4), max(i3, i4))
    assert pair in torsion_space(res, 0).pairs_m
    assert pair not in torsion_space(res, 1).pairs_m
    assert torsion_space(res, 0) == partial1_matrix(res.base)[0]


def test_complement_w_is_a_true_complement():
    res = _result("abelian(2)", "gl", 2)
    rep = kernel_reports(res, 1)
    w = complement_w(res, 1)
    assert w.dim == rep.dim_w
    tor, mat, _ = _assembled(res, 1)
    image = Subspace.span(tor.total_dim, [mat.col(c) for c in range(mat.cols)])
    assert image.intersect(w).dim == 0
    assert image.add(w) == Subspace.full(tor.total_dim)


def test_kernel_report_errors_beyond_computed_levels():
    res = _result("abelian(2)", "gl", 1)
    assert res.status.kind == "truncated"
    with pytest.raises(ValueError):
        kernel_reports(res, 1)
    with pytest.raises(ValueError, match="level 2 not computed"):
        torsion_space(res, 2)


def test_negative_levels_are_named_in_the_error():
    res = _result("heisenberg(3)", "der0", 2)
    with pytest.raises(ValueError, match="negative level -1"):
        kernel_reports(res, -1)
    with pytest.raises(ValueError, match="negative level -2"):
        complement_w(res, -2)
    with pytest.raises(ValueError, match="negative level -1"):
        partial_np1_matrix(res, -1)
    with pytest.raises(ValueError, match="negative level -3"):
        torsion_space(res, -3)


def test_kernel_report_past_the_order_of_a_finite_tower():
    # g^2 = 0 is known exactly, so the level-2 report is available and
    # its kernel must be all of gl_2's trivially acting part
    res = _result("abelian(3)", "so", 5)
    assert res.status.kind == "finite" and res.status.order == 0
    rep = kernel_reports(res, 1)
    assert rep.passed
    assert rep.dim_g_next == 0


def test_tower_report_conformal_case():
    res = _result("abelian(3)", "co", 5)
    tr = tower_report(res, base_dim=3)
    assert tr.kind == "finite" and tr.order == 1
    assert [r.n for r in tr.rows] == [1, 2]
    top = tr.rows[0]
    assert top.dim_g == 3
    assert top.dim_structure_group == 21
    assert top.dim_tor == 60
    assert top.rank == 21
    assert top.dim_w == 39
    assert top.dim_total == 10
    assert tr.rows[1].dim_total == 10
    assert tr.bound == 10


def test_tower_report_truncated_case():
    res = _result("heisenberg(3)", "der0", 2)
    tr = tower_report(res)
    assert tr.kind == "truncated" and tr.order is None
    assert tr.bound is None
    assert [r.n for r in tr.rows] == [1, 2]
    assert [r.dim_total for r in tr.rows] == [13, 22]
    for row in tr.rows:
        assert row.dim_w == row.dim_tor - row.rank


def test_tower_report_rejects_small_base_dim():
    res = _result("abelian(2)", "gl", 1)
    with pytest.raises(ValueError):
        tower_report(res, base_dim=1)


def _embedded_level_span(res, s):
    """g^s as a subspace of the unit coordinates of Hom^s(m_{s-1}, m_{s-1}),

    zero on the non-negative components; the zero space past a closed tower.
    """
    space = res.tower_space(min(s - 1, res.depth))
    basis = res.level(s).basis if s <= res.depth else ()
    rows = tuple(hom_terms_of_columns(space, space, s, a.columns) for a in basis)
    return Subspace.row_space(Matrix(rows, hom_space_dim(space, space, s)))


def _report_from_separate_eliminations(res, n):
    """The KernelReport of level n + 1 assembled from three separate

    eliminations: the kernel of the gl block, the rank of the whole
    boundary matrix and the kernel of the Hom block, each sliced from the
    dense rows of the assembled matrix.
    """
    if n == 0:
        tor, matrix = partial1_matrix(res.base)
        gl, hom = matrix.cols, 0
    else:
        tor, matrix, layout = _assembled(res, n)
        gl, hom = layout[0], sum(layout[1:])
    dense = matrix.entries
    ker = kernel(Matrix.from_rows([row[:gl] for row in dense], gl))
    r = rank(matrix)
    bad = kernel(Matrix.from_rows([row[gl:] for row in dense], hom)).dim
    embedded = _embedded_level_span(res, n + 1)
    messages = []
    if bad:
        messages.append("Hom summand present but torsion target is zero" if tor.total_dim == 0
                        else f"boundary map has a {bad}-dim kernel on the Hom summand")
    if ker != embedded:
        messages.append(f"Ker(d|gl_{n + 1}) has dim {ker.dim}, "
                        f"embedded g^{n + 1} has dim {embedded.dim}")
    tail = gl_tail_dim(tor.space, n + 2)
    return KernelReport(level=n + 1, gl_kernel_matches=ker == embedded, hom_injective=bad == 0,
                        dim_tor=tor.total_dim, dim_domain=gl + hom + tail, rank=r,
                        dim_w=tor.total_dim - r, dim_g_next=res.dim_g(n + 1),
                        dim_gl_tail=tail, messages=tuple(messages))


@pytest.mark.parametrize("name,preset,depth", [
    ("heisenberg(3)", "der0", 3),
    ("heisenberg(5)", "der0", 2),
    ("free_235", "der0", 10),
    ("abelian(3)", "co", 10),
    ("abelian(4)", "gl", 2),
])
def test_kernel_reports_single_elimination_matches_separate_ones(name, preset, depth):
    """The block ranks and the containment-plus-dimension check give the

    report of a separate gl-block kernel, full rank and Hom-block kernel,
    at every level whose next level is known; each tower row's rank is
    the rank of the whole boundary matrix.
    """
    res = _result(name, preset, depth)
    top = res.depth if res.status.kind == "finite" else res.depth - 1
    for n in range(top + 1):
        assert kernel_reports(res, n) == _report_from_separate_eliminations(res, n), n
    for row in tower_report(res).rows:
        assert row.rank == rank(_assembled(res, row.n)[1]), row.n


@pytest.mark.parametrize("name,preset,depth", [
    ("heisenberg(3)", "der0", 3),
    ("free_235", "der0", 4),
    ("abelian(2)", "gl", 2),
    ("abelian(3)", "co", 3),
    ("heisenberg(5)", "der0", 2),
])
def test_complement_w_is_the_complement_of_the_assembled_image(name, preset, depth):
    """complement_w, read off the pivots of gl and of one B, is the

    canonical complement of the whole matrix's column space.
    """
    res = _result(name, preset, depth)
    for n in range(res.depth + 1):
        tor, mat, _ = _assembled(res, n)
        expected = complement(Subspace.row_space(mat.transpose()), Subspace.full(tor.total_dim))
        assert complement_w(res, n) == expected, n


def _with_level_basis(res, s, basis):
    """res with the basis of g^s replaced. The tower rows and the carrier,

    and so the boundary matrices, stay those of res: only the kernel
    identity reads the new basis.
    """
    old = res.level(s)
    levels = list(res.levels)
    levels[s - 1] = ProlongationLevel(old.degree, old.space_below, old.carrier, tuple(basis))
    broken = ProlongationResult(res.base, res.negative, res.g0, tuple(levels), res.status)
    broken._memo.update(res._memo)
    return broken


def _unit_outside_the_kernel(res, s):
    level = res.level(s)
    unit = next(u for u in hom_basis(res.negative.space, level.space_below, s)
                if not level.carrier.contains(hom_coords(u)))
    return (unit,) + level.basis[1:]


def _repeated_map(res, s):
    basis = res.level(s).basis
    return (basis[1],) + basis[1:]


@pytest.mark.parametrize("mutate,span", [(_unit_outside_the_kernel, 9), (_repeated_map, 8)])
def test_a_mutated_level_basis_fails_the_kernel_identity(mutate, span, monkeypatch, capsys):
    """A g^2 basis map outside Ker d fails the containment, a repeated

    one the dimension; the count of maps is kept either way, and `tower`
    then exits 1 with the report's message.
    """
    res = _result("heisenberg(3)", "der0", 3)
    broken = _with_level_basis(res, 2, mutate(res, 2))
    assert broken.dims == res.dims
    report = kernel_reports(broken, 1)
    message = f"Ker(d|gl_2) has dim 9, embedded g^2 has dim {span}"
    assert not report.gl_kernel_matches and report.hom_injective
    assert report.messages == (message,)
    assert kernel_reports(res, 1).passed
    monkeypatch.setattr(cli, "_run_prolong", lambda args, loaded: broken)
    assert cli.main(["tower", "preset:heisenberg3", "--max-degree", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: level 2: {message}\n"
