"""Seeded input documents for the benchmark workloads.

Every document is a catalog algebra written in a new basis that keeps
the grading: f_j = sum_i T[i][j] e_i with T block diagonal by degree.
The structure constants in the new basis are T^-1 [T e_a, T e_b].

- A signed permutation inside each degree keeps the constants sparse
  with |c| <= 1, so only the pivot order of the solvers changes.
- A dense invertible block with entries in [-2, 2] makes the constants
  dense rationals, which grows coefficients in the exact core.

Dimensions, orders, bounds and torsion numbers do not depend on the
basis, so the catalog closed forms still describe every document.
Documents are emitted with the public `emit_algebra`, so the same seed
gives byte-identical files.
"""

from __future__ import annotations

import random
from fractions import Fraction

from tanaka.catalog import make_algebra
from tanaka.exact_linear import Matrix, inverse, rank
from tanaka.jsonio import emit_algebra
from tanaka.lie import GradedLieAlgebra, bracket_eval


def _signed_permutation_block(rng: random.Random, n: int) -> list[list[Fraction]]:
    perm = list(range(n))
    rng.shuffle(perm)
    block = [[Fraction(0)] * n for _ in range(n)]
    for col, row in enumerate(perm):
        block[row][col] = Fraction(rng.choice((-1, 1)))
    return block


def _dense_block(rng: random.Random, n: int) -> list[list[Fraction]]:
    while True:
        block = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if rank(Matrix.from_rows(block)) == n:
            return block


BLOCKS = {"sparse": _signed_permutation_block, "dense": _dense_block}


def _bracket_degrees(alg: GradedLieAlgebra) -> set:
    """Degree pairs (d, e) with [m_d, m_e] != 0."""
    deg = alg.space.degree_of_index
    return {(deg(a), deg(b)) for (a, b), _ in alg.brackets}


def _is_dense(alg: GradedLieAlgebra, degree_pairs: set) -> bool:
    """Every coordinate that the grading and the bracket allow is nonzero."""
    space = alg.space
    for a in range(space.total_dim):
        for b in range(a + 1, space.total_dim):
            da, db = space.degree_of_index(a), space.degree_of_index(b)
            if (da, db) in degree_pairs and \
                    not all(space.component_of_vector(alg.bracket_basis(a, b), da + db)):
                return False
    return True


def change_basis(alg: GradedLieAlgebra, rng: random.Random, kind: str) -> GradedLieAlgebra:
    """The same algebra in a random graded basis of the given kind.

    A dense basis is redrawn until every structure constant the grading
    allows is nonzero, so that the cost of a document depends little on
    the draw.
    """
    while True:
        new = _transform(alg, rng, kind)
        if kind != "dense" or _is_dense(new, _bracket_degrees(alg)):
            return new


def _transform(alg: GradedLieAlgebra, rng: random.Random, kind: str) -> GradedLieAlgebra:
    space = alg.space
    n = space.total_dim
    t = [[Fraction(0)] * n for _ in range(n)]
    for d in space.degrees:
        start, dim = space.offset(d), space.dim(d)
        for i, row in enumerate(BLOCKS[kind](rng, dim)):
            t[start + i][start:start + dim] = row
    t = Matrix.from_rows(t)
    t_inv = inverse(t)
    cols = [t.col(j) for j in range(n)]
    brackets = []
    for a in range(n):
        for b in range(a + 1, n):
            value = t_inv.apply(bracket_eval(alg, cols[a], cols[b]))
            if any(value):
                brackets.append(((a, b), value))
    return GradedLieAlgebra(space, tuple(brackets))


def document(preset: str, seed: int, kind: str) -> str:
    """Algebra document for a catalog preset in a basis drawn from seed."""
    rng = random.Random(f"{preset}:{kind}:{seed}")
    return emit_algebra(change_basis(make_algebra(preset), rng, kind), preset)
