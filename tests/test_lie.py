"""Structure-constant algebra layer: construction, validation, degree-0
derivations, and the named degree-0 presets."""

from fractions import Fraction

import pytest

from tanaka.catalog import make_algebra
from tanaka.exact_linear import Matrix, Subspace, densify
from tanaka.graded import GradedSpace, HomogeneousMap, hom_basis, hom_space_dim, hom_terms
from tanaka.lie import (
    G0Spec,
    GradedLieAlgebra,
    LevelInconsistency,
    adjoin_g0,
    bracket_eval,
    der0_basis,
    is_fundamental,
    resolve_g0,
    resubstitute,
    validate,
)


def der0_span(alg):
    """The degree-0 derivations as a subspace of Hom^0(m, m), in hom coordinates."""
    return Subspace.row_space(Matrix(tuple(hom_terms(f) for f in der0_basis(alg)),
                                     hom_space_dim(alg.space, alg.space, 0)))


def heisenberg_space():
    return GradedSpace.make({-1: ("x", "y"), -2: ("z",)})


def test_bracket_dict_normalizes_orientation():
    space = heisenberg_space()
    a = GradedLieAlgebra.from_bracket_dict(space, {("x", "y"): {"z": 1}})
    b = GradedLieAlgebra.from_bracket_dict(space, {("y", "x"): {"z": -1}})
    assert a == b
    x, y, z = (space.index_of_label(lab) for lab in ("x", "y", "z"))
    assert (x, y, z) == (1, 2, 0)  # global order is ascending by degree
    unit_z = tuple(Fraction(1 if i == z else 0) for i in range(3))
    assert a.bracket_basis(x, y) == unit_z
    assert a.bracket_basis(y, x) == tuple(-e for e in unit_z)
    assert a.bracket_basis(z, z) == (Fraction(0),) * 3


def test_bracket_dict_rejects_conflicts():
    space = heisenberg_space()
    with pytest.raises(ValueError, match="twice"):
        GradedLieAlgebra.from_bracket_dict(
            space, {("x", "y"): {"z": 1}, ("y", "x"): {"z": 1}})
    with pytest.raises(ValueError, match=r"\[x, x\]"):
        GradedLieAlgebra.from_bracket_dict(space, {("x", "x"): {"z": 1}})


def test_bracket_values_need_one_coordinate_per_basis_vector():
    space = heisenberg_space()
    for value in ((0, 0, 0, 1), (1,)):
        with pytest.raises(ValueError, match="coordinates"):
            GradedLieAlgebra(space, (((1, 2), tuple(Fraction(e) for e in value)),))
    with pytest.raises(ValueError, match=r"^bracket \(1, 2\) has 4 coordinates, expected 3$"):
        GradedLieAlgebra(space, (((1, 2), (0, 0, 0, 1)),))


def test_dense_and_sparse_bracket_values_give_one_algebra():
    """A bracket value is a full coordinate vector or a sparse row; either

    way the algebra stores the sparse row of its nonzeros, pairs
    ascending, and act is built from it.
    """
    alg = make_algebra("free_235")
    n = alg.space.total_dim
    dense = GradedLieAlgebra(alg.space, tuple((pair, alg.bracket_basis(*pair))
                                              for pair, _ in reversed(alg.brackets)))
    # int values become Fractions; explicit zeros, and a pair with no nonzero, are dropped
    padded = tuple((pair, {**{k: int(e) for k, e in row.items()},
                           next(k for k in range(n) if k not in row): 0})
                   for pair, row in alg.brackets) + (((0, 1), {0: 0}),)
    for other in (dense, GradedLieAlgebra(alg.space, padded)):
        assert other == alg and hash(other) == hash(alg)
        assert other.act == alg.act
        assert other.brackets == alg.brackets
        assert all(row and all(type(e) is Fraction and e for e in row.values())
                   for _, row in other.brackets)
    assert GradedLieAlgebra(alg.space, ((pair, {}) for pair, _ in alg.brackets)).brackets == ()


def test_sparse_bracket_value_indices_must_be_coordinates():
    space = heisenberg_space()
    for row in ({3: 1}, {-1: 1}, {0: 1, 5: 0}):
        with pytest.raises(ValueError, match=r"bracket \(1, 2\) has an index outside 0..2"):
            GradedLieAlgebra(space, (((1, 2), row),))


def test_bracket_eval_is_bilinear():
    alg = make_algebra("free_235")
    n = alg.space.total_dim
    u = tuple(Fraction(k + 1) for k in range(n))
    v = tuple(Fraction(2 * k - 3) for k in range(n))
    w = tuple(Fraction(1, k + 2) for k in range(n))
    uv = bracket_eval(alg, u, v)
    assert bracket_eval(alg, v, u) == tuple(-e for e in uv)
    left = bracket_eval(alg, u, tuple(x + y for x, y in zip(v, w)))
    assert left == tuple(x + y for x, y in zip(uv, bracket_eval(alg, u, w)))


def test_bracket_eval_rejects_wrong_length():
    alg = make_algebra("heisenberg3")
    ok = (Fraction(0), Fraction(1), Fraction(0))
    for bad in ((Fraction(1),) * 2, ok + (Fraction(1),)):
        with pytest.raises(ValueError, match="length"):
            bracket_eval(alg, bad, ok)
        with pytest.raises(ValueError, match="length"):
            bracket_eval(alg, ok, bad)


def test_validate_accepts_catalog_algebras():
    for name in ("abelian2", "heisenberg5", "free_235"):
        assert validate(make_algebra(name)) == []


def test_validate_reports_grading_violation():
    space = heisenberg_space()
    alg = GradedLieAlgebra.from_bracket_dict(space, {("x", "y"): {"x": 1}})
    assert any("homogeneous" in p for p in validate(alg))


def test_validate_reports_jacobi_violation():
    space = GradedSpace.make({-1: ("e1", "e2", "e3"), -2: ("e4",), -3: ("e5",)})
    alg = GradedLieAlgebra.from_bracket_dict(
        space, {("e1", "e2"): {"e4": 1}, ("e3", "e4"): {"e5": 1}})
    problems = validate(alg)
    assert any("Jacobi" in p for p in problems)


def test_fundamentality():
    assert is_fundamental(make_algebra("heisenberg3"))
    assert is_fundamental(make_algebra("free_235"))
    assert is_fundamental(make_algebra("abelian1"))

    scattered = GradedLieAlgebra.from_bracket_dict(
        GradedSpace.make({-2: ("a",), -1: ("b",)}), {})
    assert not is_fundamental(scattered)

    with_zero = adjoin_g0(make_algebra("abelian2"),
                          resolve_g0(G0Spec("gl"), make_algebra("abelian2")))
    assert not is_fundamental(with_zero)


def test_der0_of_abelian_is_every_endomorphism():
    for n in (1, 2, 3):
        alg = make_algebra(f"abelian{n}")
        assert len(der0_basis(alg)) == n * n
        assert der0_span(alg).dim == n * n


def test_der0_of_heisenberg3():
    """gl(1) acting on the contact line plus gl(2)-type weights: dim 4,

    and the degree derivation x -> -deg(x) x is in the span.
    """
    alg = make_algebra("heisenberg3")
    basis = der0_basis(alg)
    assert len(basis) == 4
    n, space = alg.space.total_dim, alg.space
    degree_der = HomogeneousMap.make(space, space, 0, {
        d: Matrix.identity(space.dim(d)).scale(-d) for d in space.degrees})
    assert der0_span(alg).contains(hom_terms(degree_der))
    for f in basis:
        for a in range(n):
            for b in range(a + 1, n):
                lhs = f.apply(alg.bracket_basis(a, b))
                ea = tuple(Fraction(1 if i == a else 0) for i in range(n))
                eb = tuple(Fraction(1 if i == b else 0) for i in range(n))
                rhs_parts = bracket_eval(alg, densify(f.columns[a], n), eb)
                rhs = tuple(x + y for x, y in
                            zip(rhs_parts, bracket_eval(alg, ea, densify(f.columns[b], n))))
                assert lhs == rhs


def test_preset_dimensions_on_flat_space():
    ab2, ab3 = make_algebra("abelian2"), make_algebra("abelian3")
    assert len(resolve_g0(G0Spec("zero"), ab3)) == 0
    assert len(resolve_g0(G0Spec("gl"), ab3)) == 9
    assert len(resolve_g0(G0Spec("sl"), ab3)) == 8
    assert len(resolve_g0(G0Spec("so"), ab3)) == 3
    assert len(resolve_g0(G0Spec("co"), ab3)) == 4
    assert len(resolve_g0(G0Spec("sp"), ab2)) == 3
    assert len(resolve_g0(G0Spec("der0"), ab2)) == 4


def test_presets_respect_their_defining_conditions():
    ab3 = make_algebra("abelian3")
    for f in resolve_g0(G0Spec("so"), ab3):
        m = f.to_matrix()
        assert m.transpose() == m.scale(-1)
    for f in resolve_g0(G0Spec("sl"), ab3):
        m = f.to_matrix()
        assert sum(m.entries[i][i] for i in range(m.rows)) == 0
    sp = Matrix.from_rows([[0, 1], [-1, 0]])
    for f in resolve_g0(G0Spec("sp"), make_algebra("abelian2")):
        m = f.to_matrix()
        assert m.transpose() @ sp + sp @ m == Matrix.zeros(2, 2)


FORMS = {
    # symmetric, not diagonal: det -1 and -14
    "sym3": Matrix.from_rows([[2, 1, 0], [1, 0, 1], [0, 1, -1]]),
    "sym4": Matrix.from_rows([[1, 1, 0, 0], [1, 0, 2, 0], [0, 2, 1, 1], [0, 0, 1, 3]]),
    # antisymmetric, not the standard one: Pfaffian 1*1 - 2*3 + 0*0 = -5, det 25
    "anti4": Matrix.from_rows([[0, 1, 2, 0], [-1, 0, 0, 3], [-2, 0, 0, 1], [0, -3, -1, 0]]),
}


@pytest.mark.parametrize("n,preset,form", [
    (3, "so", "sym3"), (3, "co", "sym3"), (4, "so", "sym4"), (4, "co", "sym4"), (4, "sp", "anti4"),
])
def test_form_presets_with_non_default_forms(n, preset, form):
    """Each basis map A of so(S), sp(S) satisfies A^T S + S A = 0, and of

    co(S) A^T S + S A = c S, computed here from the dense matrices; the
    dimensions are n(n-1)/2, n(n-1)/2 + 1 and m(2m+1) for n = 2m.
    Condition and dimension together pin the span, so the canonical basis.
    """
    S = FORMS[form]
    basis = resolve_g0(G0Spec(preset, form=S), make_algebra(f"abelian{n}"))
    expected = {"so": n * (n - 1) // 2, "co": n * (n - 1) // 2 + 1, "sp": n // 2 * (n + 1)}
    assert len(basis) == expected[preset]
    i, j = next((i, j) for i, row in enumerate(S.sparse) for j in row)
    for f in basis:
        A = f.to_matrix()
        value = A.transpose() @ S + S @ A
        c = value.entries[i][j] / S.entries[i][j] if preset == "co" else 0
        assert value == S.scale(c), (preset, form)
    if preset == "co":
        assert any(
            (f.to_matrix().transpose() @ S + S @ f.to_matrix()) != Matrix.zeros(n, n) for f in basis)


def test_preset_guards():
    heis = make_algebra("heisenberg3")
    with pytest.raises(ValueError, match="concentrated in degree -1"):
        resolve_g0(G0Spec("gl"), heis)
    with pytest.raises(ValueError, match="even"):
        resolve_g0(G0Spec("sp"), make_algebra("abelian3"))
    with pytest.raises(ValueError, match="unknown preset"):
        G0Spec("banana")
    with pytest.raises(ValueError, match="mutually exclusive"):
        G0Spec("gl", generators=(HomogeneousMap.zero(heis.space, heis.space, 0),))
    with pytest.raises(ValueError, match="required"):
        G0Spec()


def test_explicit_generators_are_checked():
    heis = make_algebra("heisenberg3")
    not_a_derivation = HomogeneousMap.make(
        heis.space, heis.space, 0,
        {-1: Matrix.from_rows([[1, 0], [0, 0]]), -2: Matrix.zeros(1, 1)})
    with pytest.raises(ValueError, match="derivation"):
        resolve_g0(G0Spec(generators=(not_a_derivation,)), heis)

    ab2 = make_algebra("abelian2")
    e12 = HomogeneousMap.make(ab2.space, ab2.space, 0,
                              {-1: Matrix.from_rows([[0, 1], [0, 0]])})
    e21 = HomogeneousMap.make(ab2.space, ab2.space, 0,
                              {-1: Matrix.from_rows([[0, 0], [1, 0]])})
    with pytest.raises(ValueError, match="closed under commutator"):
        resolve_g0(G0Spec(generators=(e12, e21)), ab2)


def test_explicit_generators_must_be_degree0_endomorphisms():
    heis = make_algebra("heisenberg3")
    degree_one = HomogeneousMap.make(heis.space, heis.space, 1,
                                     {-2: Matrix.from_rows([[1], [0]])})
    with pytest.raises(ValueError, match="not a degree-0 endomorphism of m"):
        resolve_g0(G0Spec(generators=(degree_one,)), heis)


def test_resubstitution_catches_a_perturbed_der0_map(monkeypatch):
    """A der0 basis map plus a unit map outside der0 fails the check,

    called directly and inside der0_basis on a perturbed kernel.
    """
    alg = make_algebra("heisenberg3")
    basis = der0_basis(alg)
    unit = next(u for u in hom_basis(alg.space, alg.space, 0)
                if not der0_span(alg).contains(hom_terms(u)))
    with pytest.raises(LevelInconsistency, match="bracket identity"):
        resubstitute(alg, alg.act, [basis[0].add(unit)] + basis[1:])
    resubstitute(alg, alg.act, basis)

    import tanaka.lie as lie
    kernel = lie.kernel

    def perturbed_kernel(m):
        found = kernel(m)
        rows = found.basis.entries
        first = tuple(x + y for x, y in zip(rows[0], densify(hom_terms(unit), found.ambient_dim)))
        return Subspace(found.ambient_dim, Matrix.from_rows((first,) + rows[1:], found.ambient_dim))

    monkeypatch.setattr(lie, "kernel", perturbed_kernel)
    with pytest.raises(LevelInconsistency, match="bracket identity"):
        der0_basis(alg)


def test_adjoin_g0_rejects_generators_not_closed_under_commutator():
    ab2 = make_algebra("abelian2")
    e12 = HomogeneousMap.make(ab2.space, ab2.space, 0,
                              {-1: Matrix.from_rows([[0, 1], [0, 0]])})
    e21 = HomogeneousMap.make(ab2.space, ab2.space, 0,
                              {-1: Matrix.from_rows([[0, 0], [1, 0]])})
    # [e12, e21] = diag(1, -1) lies outside span(e12, e21)
    with pytest.raises(ValueError, match="closed under commutator"):
        adjoin_g0(ab2, [e12, e21])


def test_adjoin_g0_structure():
    """Mixed brackets are the negated action, and the g^0 brackets the

    matrix commutators, on four symbols with their g^0 choices.
    """
    # dim g^0: csp(2), csp(4), co(3), gl(2)
    for name, preset, dim in (("heisenberg3", "der0", 4), ("heisenberg5", "der0", 11),
                              ("abelian3", "co", 4), ("free_235", "der0", 4)):
        alg = make_algebra(name)
        basis = resolve_g0(G0Spec(preset), alg)
        full = adjoin_g0(alg, basis)
        assert validate(full) == []
        assert full.space.labels(0) == tuple(f"d{i}" for i in range(1, dim + 1))
        n_old = alg.space.total_dim
        for i, f in enumerate(basis):
            for a in range(n_old):
                expect = tuple(-e for e in densify(f.columns[a], n_old)) + (Fraction(0),) * len(basis)
                assert full.bracket_basis(a, n_old + i) == expect, (name, i, a)

        # degree-0 brackets match matrix commutators after mapping back
        mats = [f.to_matrix() for f in basis]
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                value = full.bracket_basis(n_old + i, n_old + j)
                assert all(e == 0 for e in value[:n_old])
                rebuilt = Matrix.zeros(n_old, n_old)
                for t, c in enumerate(value[n_old:]):
                    if c != 0:
                        rebuilt = rebuilt + mats[t].scale(c)
                assert rebuilt == mats[i] @ mats[j] - mats[j] @ mats[i], (name, i, j)

        assert full.negative_part() == alg


def test_adjoin_g0_avoids_label_collisions():
    space = GradedSpace.make({-1: ("d1", "d2")})
    alg = GradedLieAlgebra.from_bracket_dict(space, {})
    full = adjoin_g0(alg, resolve_g0(G0Spec("so"), alg))
    assert full.space.labels(0) == ("d1_",)
