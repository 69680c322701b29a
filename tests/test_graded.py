"""Graded spaces, homogeneous maps, wedge bases, unipotent inverses."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tanaka.exact_linear import Matrix, densify
from tanaka.graded import (
    GradedMap,
    GradedSpace,
    HomogeneousMap,
    hom_basis,
    hom_from_coords,
    hom_space_dim,
    hom_terms,
    hom_terms_of_columns,
    hom_units,
    unipotent_inverse,
)
from tanaka.torsion import _torsion_space

TwoOne = GradedSpace.make({-1: ("e1", "e2"), -2: ("e3",)})

Scalars = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))


@st.composite
def spaces(draw, min_size=1):
    degrees = draw(st.lists(st.integers(-3, 2), min_size=min_size, max_size=3, unique=True))
    dims = {d: draw(st.integers(1, 3)) for d in degrees}
    return GradedSpace.from_dims(dims)


@st.composite
def homogeneous_maps(draw, source, target, degree):
    blocks = {}
    for i in HomogeneousMap.present_source_degrees(source, target, degree):
        rows, cols = target.dim(i + degree), source.dim(i)
        blocks[i] = Matrix.from_rows([[draw(Scalars) for _ in range(cols)] for _ in range(rows)])
    return HomogeneousMap.make(source, target, degree, blocks)


@st.composite
def given_blocks(draw, source, target, degree):
    """Blocks for HomogeneousMap.make: each one random, zero or left out,

    and zero at a source degree whose target component is absent.
    """
    blocks = {}
    for i in source.degrees:
        rows, cols = target.dim(i + degree), source.dim(i)
        kind = draw(st.sampled_from(["random", "zero", "absent"]))
        if kind == "zero":
            blocks[i] = Matrix.zeros(rows, cols)
        elif kind == "random" and rows:
            blocks[i] = Matrix.from_rows([[draw(Scalars) for _ in range(cols)] for _ in range(rows)])
    return blocks


def test_global_coordinates_ascend_by_degree():
    assert TwoOne.degrees == (-2, -1)
    assert TwoOne.total_dim == 3
    assert TwoOne.label_of_index(0) == "e3"
    assert TwoOne.label_of_index(1) == "e1"
    assert TwoOne.offset(-1) == 1


def test_hom_basis_counts_only_present_blocks():
    # degree +1 maps: only the block m^-2 -> m^-1 exists
    units = hom_basis(TwoOne, TwoOne, 1)
    assert len(units) == 2
    assert hom_space_dim(TwoOne, TwoOne, 1) == 2


def test_hom_coords_round_trip():
    units = hom_basis(TwoOne, TwoOne, 0)
    assert len(units) == 5
    for k, u in enumerate(units):
        coords = hom_terms(u)
        assert coords == {k: 1}
        assert hom_from_coords(TwoOne, TwoOne, 0, coords) == u
        assert hom_from_coords(TwoOne, TwoOne, 0, densify(coords, len(units))) == u


def test_hom_units_name_the_hom_basis():
    """Each unit pair (source, target) is the one nonzero of that unit map."""
    for degree in (-1, 0, 1):
        pairs = hom_units(TwoOne, TwoOne, degree)
        units = hom_basis(TwoOne, TwoOne, degree)
        assert len(pairs) == len(units)
        for (src, tgt), u in zip(pairs, units):
            assert [dict(col) for col in u.columns] == [
                {tgt: 1} if j == src else {} for j in range(TwoOne.total_dim)]


def _frame_walk(f):
    """Reference coordinates: each present block in turn, source index

    outer, target index inner, walked by hand.
    """
    out, pos = {}, 0
    for i in HomogeneousMap.present_source_degrees(f.source, f.target, f.degree):
        block = f.block(i)
        for t, row in enumerate(block.sparse):
            for s, e in row.items():
                out[pos + s * block.rows + t] = e
        pos += block.rows * block.cols
    return out


@settings(max_examples=60, derandomize=True)
@given(st.data())
def test_hom_terms_of_columns_is_the_hom_frame(data):
    source, target = data.draw(spaces()), data.draw(spaces())
    degree = data.draw(st.integers(-2, 2))
    f = data.draw(homogeneous_maps(source, target, degree))
    terms = hom_terms_of_columns(source, target, degree, f.columns)
    assert terms == _frame_walk(f)
    assert hom_from_coords(source, target, degree, terms) == f


@settings(max_examples=100, derandomize=True)
@given(st.data())
def test_make_and_from_columns_build_one_map(data):
    """A map made from blocks equals, with an equal hash, the map built from

    its columns, and gives its blocks back, zero where none was given;
    empty sources and absent target degrees included.
    """
    source, target = data.draw(spaces(min_size=0)), data.draw(spaces(min_size=0))
    degree = data.draw(st.integers(-2, 2))
    blocks = data.draw(given_blocks(source, target, degree))
    f = HomogeneousMap.make(source, target, degree, blocks)
    g = HomogeneousMap.from_columns(source, target, degree, [dict(col) for col in f.columns])
    assert f == g and hash(f) == hash(g)
    assert f.is_zero() == all(b.is_zero() for b in blocks.values())
    for i in source.degrees:
        zero = Matrix.zeros(target.dim(i + degree), source.dim(i))
        assert f.block(i) == g.block(i) == blocks.get(i, zero)


def test_block_of_an_absent_degree_is_zero_of_its_shape():
    f = HomogeneousMap.make(TwoOne, TwoOne, 1, {-2: Matrix.from_rows([[1], [2]])})
    assert f.block(-2) == Matrix.from_rows([[1], [2]]) and f.block(-2) is f.block(-2)
    # no target degree 0, no source degree -3, neither at degree 0
    for i, shape in ((-1, (0, 2)), (-3, (1, 0)), (0, (0, 0))):
        assert f.block(i) == Matrix.zeros(*shape) and f.block(i).shape == shape


def test_from_columns_drops_zero_values():
    plane = GradedSpace.from_dims({-1: 2})
    zero = HomogeneousMap.zero(plane, plane, 0)
    f = HomogeneousMap.from_columns(plane, plane, 0, [{0: Fraction(0)}, {}])
    assert f.is_zero() and f == zero and hash(f) == hash(zero)
    g = HomogeneousMap.from_columns(plane, plane, 0, [{0: Fraction(2), 1: Fraction(0)}, {}])
    assert g.columns == ({0: 2}, {}) and g.block(-1) == Matrix.from_rows([[2, 0], [0, 0]])


def test_hom_terms_of_columns_rejects_values_off_the_block():
    # e1 (degree -1) -> e3 (degree -2) is not a degree-0 value
    with pytest.raises(ValueError, match="graded block"):
        hom_terms_of_columns(TwoOne, TwoOne, 0, [{}, {0: Fraction(1)}, {}])
    # absent trailing columns are zero, a column past the source is refused
    assert hom_terms_of_columns(TwoOne, TwoOne, 0, [{0: Fraction(2)}]) == {0: Fraction(2)}
    with pytest.raises(ValueError, match="graded block"):
        hom_terms_of_columns(TwoOne, TwoOne, 0, [{}, {}, {}, {0: Fraction(1)}])


def test_wedge_basis_by_degree():
    """The wedge pairs of the first torsion level, where every pair of

    TwoOne has a target component, in lexicographic order.
    """
    pairs = _torsion_space(TwoOne, TwoOne.total_dim, 0).pairs_m
    degree = TwoOne.degree_of_index

    def of_degree(d):
        return [(a, b) for a, b in pairs if degree(a) + degree(b) == d]

    assert of_degree(-2) == [(1, 2)]
    assert of_degree(-3) == [(0, 1), (0, 2)]
    assert of_degree(-4) == []
    assert pairs == ((0, 1), (0, 2), (1, 2))


def test_gl_degree_dims():
    for degree, dim in ((0, 5), (1, 2), (-1, 2), (2, 0)):
        assert hom_space_dim(TwoOne, TwoOne, degree) == dim
        assert len(hom_units(TwoOne, TwoOne, degree)) == dim


@settings(max_examples=100, derandomize=True)
@given(st.data())
def test_apply_matches_matrix(data):
    """Blockwise application agrees with the assembled full matrix."""
    space = data.draw(spaces())
    degree = data.draw(st.integers(-2, 2))
    f = data.draw(homogeneous_maps(space, space, degree))
    v = tuple(data.draw(Scalars) for _ in range(space.total_dim))
    assert f.apply(v) == f.to_matrix().apply(v)


def test_apply_rejects_wrong_length():
    f = HomogeneousMap.make(TwoOne, TwoOne, 1, {-2: Matrix.from_rows([[1], [2]])})
    with pytest.raises(ValueError, match="length"):
        f.apply((Fraction(1),) * 2)
    with pytest.raises(ValueError, match="length"):
        f.apply((Fraction(1),) * 4)
    assert f.apply((1, 0, 0)) == (Fraction(0), Fraction(1), Fraction(2))


@settings(max_examples=100, derandomize=True)
@given(st.data())
def test_compose_adds_degrees(data):
    """Composition of homogeneous maps is homogeneous of the summed degree."""
    space = data.draw(spaces())
    f = data.draw(homogeneous_maps(space, space, 1))
    g = data.draw(homogeneous_maps(space, space, 1))
    fg = f.compose(g)
    assert fg.degree == 2
    assert fg.to_matrix() == f.to_matrix() @ g.to_matrix()


@settings(max_examples=100, derandomize=True)
@given(st.data())
def test_graded_map_apply_sums_its_parts(data):
    """A graded map applies as its assembled matrix does, also with no parts."""
    space = data.draw(spaces())
    degrees = data.draw(st.lists(st.integers(-2, 2), max_size=3, unique=True))
    g = GradedMap.make(space, space, {d: data.draw(homogeneous_maps(space, space, d))
                                      for d in degrees})
    v = tuple(data.draw(Scalars) for _ in range(space.total_dim))
    got = g.apply(v)
    assert got == g.to_matrix().apply(v)
    assert len(got) == space.total_dim and all(type(e) is Fraction for e in got)


@settings(max_examples=100, derandomize=True)
@given(st.data())
def test_unipotent_inverse_both_sides(data):
    """Id + nilpotent part inverts exactly, on both sides."""
    space = data.draw(spaces())
    span = max(space.degrees) - min(space.degrees)
    parts = {0: GradedMap.identity(space).part(0)}
    for d in range(1, span + 1):
        parts[d] = data.draw(homogeneous_maps(space, space, d))
    g = GradedMap.make(space, space, parts)
    h = unipotent_inverse(g)
    assert g.compose(h).is_identity()
    assert h.compose(g).is_identity()


def test_is_identity_at_its_edges():
    """The sparse identity test: true on the empty space, false for a

    degree-0 permutation, for the identity plus a degree-1 part, and for
    the identity matrix between two distinct spaces of one dimension.
    """
    empty = GradedSpace.make({})
    assert GradedMap.identity(empty).is_identity()
    assert GradedMap.identity(empty).parts == ()
    assert GradedMap.identity(TwoOne).is_identity()

    swap = HomogeneousMap.make(TwoOne, TwoOne, 0, {-2: Matrix.identity(1),
                                                    -1: Matrix.from_rows([[0, 1], [1, 0]])})
    assert not GradedMap.make(TwoOne, TwoOne, {0: swap}).is_identity()

    one = HomogeneousMap.make(TwoOne, TwoOne, 1, {-2: Matrix.from_rows([[0], [5]])})
    plus = GradedMap.make(TwoOne, TwoOne, {0: GradedMap.identity(TwoOne).part(0), 1: one})
    assert not plus.is_identity()

    other = GradedSpace.make({-1: ("f1", "f2"), -2: ("f3",)})
    across = HomogeneousMap.make(TwoOne, other, 0, {-2: Matrix.identity(1), -1: Matrix.identity(2)})
    assert across.to_matrix() == Matrix.identity(3)
    assert not GradedMap.make(TwoOne, other, {0: across}).is_identity()
    with pytest.raises(ValueError, match="^degree-0 part is not the identity$"):
        unipotent_inverse(GradedMap.make(TwoOne, TwoOne, {0: swap}))


def test_unipotent_inverse_degree_two_formula():
    # second-order term of the inverse is -A2 + A1 A1
    space = GradedSpace.from_dims({-2: 2, -1: 2, 0: 1})
    a1 = HomogeneousMap.make(space, space, 1, {
        -2: Matrix.from_rows([[1, 2], [0, 1]]),
        -1: Matrix.from_rows([[3, -1]]),
    })
    a2 = HomogeneousMap.make(space, space, 2, {-2: Matrix.from_rows([[1, 1]])})
    g = GradedMap.make(space, space, {0: GradedMap.identity(space).part(0), 1: a1, 2: a2})
    h = unipotent_inverse(g)
    assert h.part(1) == a1.scale(-1)
    assert h.part(2) == a2.scale(-1).add(a1.compose(a1))
