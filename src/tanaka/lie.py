"""Graded Lie algebras with exact structure constants.

Algebras here are non-positively graded and finite dimensional: a
graded space with degrees in [-k, 0] and a bracket table on basis
pairs. The negative part plays the role of the symbol algebra; a
degree-0 part, when present, acts on the negative part by degree-0
derivations and the mixed brackets are that action.

An algebra stores its bracket once: each nonzero [e_a, e_b], a < b,
as the sparse row {index: Fraction} that its table act holds. Every
producer (`from_bracket_dict`, `negative_part`, `adjoin_g0`) and
reader (`validate`, `is_fundamental`, the solver, the presets) works
on those rows, and g^0 commutators are read straight off the maps'
columns. A dense vector is built only where one is returned:
`bracket_basis` and `bracket_eval`, both reading the table row
act[a][b].

Maps have one coordinate frame, hom_units: der0, the presets and the
explicit generators are bases of maps with canonical spans in it, and
the so/sp/co presets solve A^T S + S A = 0 over its degree-0 unit
maps, each unit's constraint column filled from one row and one
column of S.

Derivations of every degree come from one solver, `derivations`: der0
is its degree-0 case, acting through the algebra's own bracket table,
and each prolongation level g^(s+1) its degree-(s+1) case, acting
through the tower's. Every solved basis map is re-substituted into the
defining identity from its own sparse columns (`resubstitute`), and
explicit g^0 generators are checked by the same re-substitution.

The Jacobi identity is checked by one routine, `jacobi_triples`, over a
table act[x][y] = [e_x, e_y] of sparse rows and a set of escaped pairs
whose values are unknown: `validate` passes an algebra's own table, and
the extended bracket of a prolongation its table and the pairs past a
truncated tower's depth.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence

from ._record import record
from .exact_linear import (
    NO_TERMS,
    Matrix,
    Sparse,
    Subspace,
    Vector,
    add_scaled,
    clear_denominators,
    combination,
    densify,
    inverse,
    kernel,
    rank,
)
from .graded import (
    GradedSpace,
    HomogeneousMap,
    fresh_labels,
    hom_basis,
    hom_from_coords,
    hom_space_dim,
    hom_terms,
    hom_terms_of_columns,
    hom_units,
)


@record
class GradedLieAlgebra:
    """Structure-constant presentation of a graded Lie algebra.

    brackets holds [e_a, e_b] for global basis indices a < b as sparse
    rows {index: nonzero Fraction}, pairs ascending, one entry per
    nonzero bracket. The constructor also accepts a value as a full
    coordinate vector, and keeps only its nonzeros. act[a][b], set by
    the constructor and not a field, is [e_a, e_b] as a sparse row, the
    stored one for a < b and its negative for a > b; it backs all
    evaluation. Antisymmetry is by construction; grading and Jacobi are
    checked by validate().
    """

    space: GradedSpace
    brackets: tuple[tuple[tuple[int, int], Sparse], ...]

    def __post_init__(self):
        n = self.space.total_dim
        rows: dict[tuple[int, int], dict[int, Fraction]] = {}
        act = [[NO_TERMS] * n for _ in range(n)]
        for (a, b), value in self.brackets:
            if not (0 <= a < b < n):
                raise ValueError(f"bad bracket pair ({a}, {b})")
            if (a, b) in rows:
                raise ValueError(f"duplicate bracket pair ({a}, {b})")
            if not isinstance(value, Mapping):
                if len(value) != n:
                    raise ValueError(f"bracket ({a}, {b}) has {len(value)} coordinates, expected {n}")
                value = dict(enumerate(value))
            elif not all(0 <= k < n for k in value):
                raise ValueError(f"bracket ({a}, {b}) has an index outside 0..{n - 1}")
            row = rows[(a, b)] = {k: e if type(e) is Fraction else Fraction(e)
                                  for k, e in value.items() if e}
            if row:
                act[a][b] = row
                act[b][a] = {k: -e for k, e in row.items()}
        object.__setattr__(self, "brackets", tuple((pair, row) for pair, row in sorted(rows.items()) if row))
        object.__setattr__(self, "act", tuple(map(tuple, act)))

    def __hash__(self):
        return hash((self.space, tuple((pair, frozenset(row.items())) for pair, row in self.brackets)))

    @staticmethod
    def from_bracket_dict(space: GradedSpace,
                          by_label: Mapping[tuple[str, str], Mapping[str, Fraction]]
                          ) -> "GradedLieAlgebra":
        rows: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (la, lb), value in by_label.items():
            a, b = space.index_of_label(la), space.index_of_label(lb)
            row = {space.index_of_label(lc): Fraction(coeff) for lc, coeff in value.items()}
            if a == b:
                if any(row.values()):
                    raise ValueError(f"nonzero bracket [{la}, {la}]")
                continue
            if a > b:
                a, b, row = b, a, {k: -e for k, e in row.items()}
            if (a, b) in rows:
                raise ValueError(f"bracket [{la}, {lb}] given twice")
            rows[(a, b)] = row
        return GradedLieAlgebra(space, tuple(rows.items()))

    def bracket_basis(self, a: int, b: int) -> Vector:
        return densify(self.act[a][b], self.space.total_dim)

    def negative_part(self) -> "GradedLieAlgebra":
        """The subalgebra spanned by the negative-degree components."""
        sub = GradedSpace.make({d: self.space.labels(d) for d in self.space.degrees if d < 0})
        keep = [self.space.index_of_label(lab) for _, labs in sub.components for lab in labs]
        pos = {old: new for new, old in enumerate(keep)}
        return GradedLieAlgebra(sub, tuple(((pos[a], pos[b]), {pos[k]: e for k, e in row.items()})
                                           for (a, b), row in self.brackets if a in pos and b in pos))


def bracket_eval(alg: GradedLieAlgebra, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    """Bilinear extension of the bracket table to arbitrary vectors: the

    sum of u_a v_b act[a][b] over the nonzeros of u and v. An
    ExtendedBracket has the same space and act, and is read the same
    way; its out-of-range pairs read as their empty placeholders.
    """
    n = alg.space.total_dim
    if len(u) != n or len(v) != n:
        raise ValueError(f"length mismatch: bracket on dim {n} applied to {len(u)} and {len(v)}")
    out: dict[int, Fraction] = {}
    vs = [(b, e) for b, e in enumerate(v) if e]
    for a, c in enumerate(u):
        if c:
            for b, e in vs:
                add_scaled(out, c * e, alg.act[a][b])
    return densify(out, n)


def validate(alg: GradedLieAlgebra) -> list[str]:
    """Grading and Jacobi violations, as human-readable strings."""
    problems = []
    space = alg.space
    if any(d > 0 for d in space.degrees):
        problems.append("positive degrees present")
    for (a, b), row in alg.brackets:
        target = space.degree_of_index(a) + space.degree_of_index(b)
        if any(space.degree_of_index(k) != target for k in row):
            problems.append(
                f"bracket [{space.label_of_index(a)}, {space.label_of_index(b)}] "
                f"not homogeneous of degree {target}")
    for a, b, c in jacobi_triples(alg.act):
        problems.append(
            f"Jacobi fails on ({space.label_of_index(a)}, "
            f"{space.label_of_index(b)}, {space.label_of_index(c)})")
    return problems


def jacobi_triples(act: Sequence[Sequence[Sparse]],
                   escaped: Iterable[tuple[int, int]] = ()) -> list[tuple[int, int, int]]:
    """Basis triples a < b < c on which the Jacobi identity fails, for the

    table act[x][y] = [e_x, e_y] of sparse rows. The entries of the
    escaped pairs are unknown: a triple is checked only when each
    cyclic term [[e_x, e_y], e_z] needs neither (x, y) nor (w, z), for
    w in the support of [e_x, e_y], among them.
    """
    n = len(act)
    skip = {p for x, y in escaped for p in ((x, y), (y, x))}
    # the table times the common denominator d, in ints: each Jacobi sum
    # below is d^2 times the true one
    _, flat = clear_denominators([row for rows in act for row in rows])
    table = [flat[i * n:(i + 1) * n] for i in range(n)]
    bad = []
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                # [[a, b], c] + [[b, c], a] + [[c, a], b]
                acc: dict[int, int] = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    inner = table[x][y]
                    if skip and ((x, y) in skip or any((k, z) in skip for k in inner)):
                        break
                    for k, e in inner.items():
                        for j, w in table[k][z].items():
                            acc[j] = acc.get(j, 0) + e * w
                else:
                    if any(acc.values()):
                        bad.append((a, b, c))
    return bad


def is_fundamental(alg: GradedLieAlgebra) -> bool:
    """True iff the algebra is negatively graded and generated in degree -1.

    Concretely: every listed degree is < 0 and [m^-1, m^(d+1)] spans
    m^d for each listed degree d <= -2.
    """
    space = alg.space
    if any(d >= 0 for d in space.degrees):
        return False
    if space.dim(-1) == 0:
        return False
    for d in space.degrees:
        if d == -1:
            continue
        if space.dim(d + 1) == 0:
            return False
        lo, dim = space.offset(d), space.dim(d)
        # the degree-d coordinates of [m^-1, m^(d+1)]
        images = tuple({k - lo: e for k, e in alg.act[a][b].items() if lo <= k < lo + dim}
                       for a in range(space.offset(-1), space.offset(-1) + space.dim(-1))
                       for b in range(space.offset(d + 1), space.offset(d + 1) + space.dim(d + 1)))
        if rank(Matrix(images, dim)) < dim:
            return False
    return True


class LevelInconsistency(Exception):
    """A solved derivation fails re-substitution, or a bracket escapes

    its computed carrier; either signals an internal error, not bad input.
    """


def derivations(alg: GradedLieAlgebra, act: Sequence[Sequence[Sparse]], target: GradedSpace,
                degree: int) -> tuple[Subspace, tuple[HomogeneousMap, ...]]:
    """The degree-`degree` derivations A: alg -> target, as their carrier

    in hom coordinates and its canonical basis of maps. alg acts on
    target through act[w][b] = [e_w, e_b], a sparse row, for each basis
    vector e_w of target and e_b of alg. der0 is degree 0 with alg's own
    table; each prolongation level is one degree up, with the tower's.

    The unknowns are the unit maps e_src -> e_w of Hom^degree(alg,
    target). The constraint rows stack, over basis pairs a < b of alg in
    lexicographic order, the coordinates of A[e_a, e_b] - [A e_a, e_b]
    - [e_a, A e_b]. Every basis map is then re-substituted.
    """
    space = alg.space
    units = hom_units(space, target, degree)
    n, n_target = space.total_dim, target.total_dim
    pair_row: dict[tuple[int, int], int] = {}
    for a in range(n):
        for b in range(a + 1, n):
            pair_row[(a, b)] = len(pair_row) * n_target
    # the pairs whose bracket has a nonzero coefficient on each index
    hits: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
    for (a, b), row in pair_row.items():
        for k, e in alg.act[a][b].items():
            hits[k].append((row, e))
    cols = []
    for src, w in units:
        # A[e_a, e_b] on the unit's target coordinate; one entry per pair
        col = {row + w: e for row, e in hits[src]}
        for b in range(src + 1, n):
            # minus [A(e_src), e_b] = -[e_w, e_b]
            add_scaled(col, -1, act[w][b], pair_row[(src, b)])
        for a in range(src):
            # minus [e_a, A(e_src)] = +[e_w, e_a]
            add_scaled(col, 1, act[w][a], pair_row[(a, src)])
        cols.append(col)
    # with fewer than two basis vectors in alg the system has no rows
    carrier = kernel(Matrix.from_columns(cols, len(pair_row) * n_target))
    basis = tuple(hom_from_coords(space, target, degree, row) for row in carrier.basis.sparse)
    resubstitute(alg, act, basis)
    return carrier, basis


def resubstitute(alg: GradedLieAlgebra, act: Sequence[Sequence[Sparse]],
                 maps: Sequence[HomogeneousMap]) -> None:
    """Check A[e_a, e_b] = [A e_a, e_b] + [e_a, A e_b] for each map and

    each basis pair a < b of alg, with act as in derivations. Each map
    is evaluated from its own sparse columns, never from a constraint
    system; a failure raises LevelInconsistency.
    """
    n = alg.space.total_dim
    for A in maps:
        images = A.columns
        for a in range(n):
            for b in range(a + 1, n):
                lhs = combination(alg.act[a][b], images)
                # [A e_a, e_b] + [e_a, A e_b] = [A e_a, e_b] - [A e_b, e_a]
                rhs: dict[int, Fraction] = {}
                for w, c in images[a].items():
                    add_scaled(rhs, c, act[w][b])
                for w, c in images[b].items():
                    add_scaled(rhs, -c, act[w][a])
                if lhs != rhs:
                    raise LevelInconsistency(
                        f"degree {A.degree} map fails the bracket identity on pair ({a}, {b})")


def der0_basis(alg: GradedLieAlgebra) -> list[HomogeneousMap]:
    """Canonical basis of the degree-0 derivations, as homogeneous maps."""
    return list(derivations(alg, alg.act, alg.space, 0)[1])


PRESET_NAMES = ("zero", "gl", "sl", "so", "sp", "co", "der0")


@record
class G0Spec:
    """Choice of the degree-0 part: a named preset or explicit generators.

    The classical presets gl/sl/so/sp/co require the algebra to be
    concentrated in degree -1 (so the derivation condition is vacuous);
    zero and der0 apply to any algebra. so/sp/co take an invertible
    bilinear form on m^-1 (defaults: identity, standard symplectic,
    identity).
    """

    preset: Optional[str] = None
    form: Optional[Matrix] = None
    generators: tuple[HomogeneousMap, ...] = ()

    def __post_init__(self):
        if self.preset is not None and self.preset not in PRESET_NAMES:
            raise ValueError(f"unknown preset {self.preset!r}; expected one of {PRESET_NAMES}")
        if self.preset is None and not self.generators:
            raise ValueError("either a preset or explicit generators is required")
        if self.preset is not None and self.generators:
            raise ValueError("preset and explicit generators are mutually exclusive")


def _standard_symplectic(n: int) -> Matrix:
    if n % 2 != 0:
        raise ValueError("symplectic preset needs even dimension")
    h = n // 2
    return Matrix(tuple({h + i: Fraction(1)} if i < h else {i - h: Fraction(-1)} for i in range(n)), n)


def _form_condition_basis(alg: GradedLieAlgebra, form: Matrix) -> list[HomogeneousMap]:
    """Solve A^T S + S A = 0 over the degree-0 unit maps of m = m^-1.

    The unit A sending e_s to e_t is the matrix unit at (t, s), so row s
    of A^T S is row t of S, column s of S A is column t of S, and every
    other entry is zero. Each unit's constraint column, the row-major
    entries of A^T S + S A, is filled from those two alone.
    """
    n = alg.space.total_dim
    rows, columns = form.sparse, form.transpose().sparse
    cols = []
    for s, t in hom_units(alg.space, alg.space, 0):
        col = {s * n + j: e for j, e in rows[t].items()}
        for i, e in columns[t].items():
            col[i * n + s] = col.get(i * n + s, 0) + e
        cols.append(col)
    ker = kernel(Matrix.from_columns(cols, n * n))
    return [hom_from_coords(alg.space, alg.space, 0, row) for row in ker.basis.sparse]


def _canonical_span(space: GradedSpace, maps: Sequence[HomogeneousMap]) -> list[HomogeneousMap]:
    if not maps:
        return []
    span = Subspace.row_space(Matrix(tuple(hom_terms(f) for f in maps), hom_space_dim(space, space, 0)))
    return [hom_from_coords(space, space, 0, row) for row in span.basis.sparse]


def resolve_g0(spec: G0Spec, alg: GradedLieAlgebra) -> list[HomogeneousMap]:
    """Canonical basis for the degree-0 part named by a G0Spec.

    Explicit generators are validated: each must be a degree-0
    derivation and the span must be closed under commutator.
    """
    space = alg.space
    n1 = space.dim(-1)

    if spec.preset == "zero":
        return []
    if spec.preset == "der0":
        return der0_basis(alg)

    if spec.preset is not None:
        if space.degrees != (-1,):
            raise ValueError(f"preset {spec.preset!r} needs an algebra concentrated in degree -1")
        if spec.preset == "gl":
            return hom_basis(space, space, 0)
        if spec.preset == "sl":
            units = hom_units(space, space, 0)
            trace = {k: Fraction(1) for k, (src, tgt) in enumerate(units) if src == tgt}
            ker = kernel(Matrix((trace,), len(units)))
            return [hom_from_coords(space, space, 0, r) for r in ker.basis.sparse]
        form = spec.form
        if form is None:
            form = _standard_symplectic(n1) if spec.preset == "sp" else Matrix.identity(n1)
        if form.shape != (n1, n1):
            raise ValueError(f"form must be {n1}x{n1}, got {form.shape}")
        if spec.preset in ("so", "co") and form.transpose() != form:
            raise ValueError("so/co need a symmetric form")
        if spec.preset == "sp" and form.transpose() != form.scale(-1):
            raise ValueError("sp needs an antisymmetric form")
        inverse(form)  # raises if the form is singular
        basis = _form_condition_basis(alg, form)
        if spec.preset == "co":
            basis = basis + [HomogeneousMap.make(space, space, 0, {-1: Matrix.identity(n1)})]
        return _canonical_span(space, basis)

    if any((g.source, g.target, g.degree) != (space, space, 0) for g in spec.generators):
        raise ValueError("generator is not a degree-0 endomorphism of m")
    basis = _canonical_span(space, spec.generators)
    try:
        resubstitute(alg, alg.act, basis)
    except LevelInconsistency as exc:
        raise ValueError("generator is not a degree-0 derivation") from exc
    _commutators(tuple(basis))
    return basis


@lru_cache(maxsize=1)
def _commutators(g0: tuple[HomogeneousMap, ...]) -> dict[tuple[int, int], Sparse]:
    """Coordinates over g0 of [g_i, g_j] = g_i g_j - g_j g_i, for i < j,

    as sparse rows. Raises ValueError if the maps are dependent or their
    span is not closed under commutator. g0 need not be canonical:
    coordinates over the span's RREF basis are carried to g0 by one
    inverse. The last table is kept and shared, so callers must not
    mutate it: the check of explicit generators in resolve_g0 and
    adjoin_g0 on the same basis build it once.
    """
    if not g0:
        return {}
    source, target = g0[0].source, g0[0].target
    span = Subspace.row_space(Matrix(tuple(hom_terms(g) for g in g0), hom_space_dim(source, target, 0)))
    if span.dim != len(g0):
        raise ValueError("degree-0 generators are linearly dependent")
    # sparse rows of the inverse of g0's coordinates over that basis
    to_g0 = inverse(Matrix(tuple(span.coords_of(hom_terms(g)) for g in g0), span.dim)).sparse
    out = {}
    for i in range(len(g0)):
        f = g0[i].columns
        for j in range(i + 1, len(g0)):
            g = g0[j].columns
            # f(g(e_k)) - g(f(e_k)) for each basis vector e_k
            cols = [add_scaled(combination(gk, f), -1, combination(fk, g)) for fk, gk in zip(f, g)]
            coords = span.coords_of(hom_terms_of_columns(source, target, 0, cols))
            if coords is None:
                raise ValueError("degree-0 part is not closed under commutator")
            out[(i, j)] = combination(coords, to_g0)
    return out


def adjoin_g0(alg: GradedLieAlgebra, g0: Sequence[HomogeneousMap],
              labels: Optional[Sequence[str]] = None) -> GradedLieAlgebra:
    """The algebra m + g^0: mixed brackets are the derivation action,

    [d_i, d_j] the commutator re-expressed in the g^0 basis. The result
    is validated; a non-closed g^0 or one violating Jacobi raises.
    """
    space = alg.space
    if any(d >= 0 for d in space.degrees):
        raise ValueError("degree-0 part already present")
    g0 = tuple(g0)
    if labels is None:
        labels = fresh_labels(space, "d", len(g0))
    new_space = space.with_component(0, labels)
    n_old = space.total_dim
    commutators = _commutators(g0)

    # m's brackets keep their indices: degree 0 comes after every negative degree
    rows = list(alg.brackets)
    for i, f in enumerate(g0):
        # [e_a, d_i] = -d_i(e_a)
        rows += [((a, n_old + i), {t: -e for t, e in img.items()}) for a, img in enumerate(f.columns)]
    rows += [((n_old + i, n_old + j), {n_old + k: e for k, e in coords.items()})
             for (i, j), coords in commutators.items()]
    out = GradedLieAlgebra(new_space, rows)
    problems = validate(out)
    if problems:
        raise ValueError("adjoined algebra is invalid: " + "; ".join(problems))
    return out
