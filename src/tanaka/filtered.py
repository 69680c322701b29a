"""Filtered vector spaces: adapted gradations, quasi-gradations, lifts.

A filtered space is a decreasing chain V_low >= ... >= V_high of
subspaces of an ambient coordinate space, with V_low the full space,
V_j read as zero above the range and as the full space below it.

A quasi-gradation of degree m chooses subspaces H' = {H'^i} with
V_i = H'^i + V_{i+1} and H'^i intersect V_{i+1} = V_{i+m}. At the full
degree k + l + 1 the second axiom says H'^i intersect V_{i+1} = 0, so
an adapted gradation (V_i = H^i direct sum V_{i+1}) is a quasi-gradation
of full degree and is checked by the same axioms. An m-lift carries
the same data as blocks F^i mapping a model component m^i into the
quotient V_i/V_{i+m}, normalized so that projecting one step further
reproduces a fixed graded frame u: m^i -> V_i/V_{i+1}.

All quotients V_i/V_{i+m} use coordinates in the canonical
pivot-complement basis of V_{i+m} inside V_i, so the identities of
the calculus are exact matrix identities, and every operation works on
whole blocks. A FilteredSpace caches, per quotient, the quotient
coordinates of V_i's RREF basis rows (read off the reduction that picks
the complement, `quotient_basis`, with no solve). `quotient_block` is
the one reader of quotient coordinates: it checks that each vector of
a block lies in V_i and returns their coordinates as the columns of
one matrix, and `quotient_of` is its one-vector case. Quotient
coordinates lift back to V_i as one product with the complement basis.
Per pair of quotients, `transfer` caches the matrix of the map induced
by inclusion, and per pair (subspace h, degree j), `sum_with` caches
the sum h + V_j, which every projection builds and every
quasi-gradation check compares with V_{j-1}; a memo key hashes once,
since a Matrix caches its hash. The lifts and the transition solve
each block once, for all of its columns (`solve` takes a block of
right-hand sides); the action and the projection check of MLift.make
are products of blocks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union

from ._record import record
from .exact_linear import (Matrix, Sparse, Subspace, Vector, combination, complement,
                           quotient_basis, rank, solve)
from .graded import GradedMap, GradedSpace, HomogeneousMap


@record
class FilteredSpace:
    """Chain V_low >= ... >= V_high, V_low the full ambient space."""

    ambient_dim: int
    low: int
    high: int
    chain: tuple[Subspace, ...]

    @cached_property
    def _frames(self) -> dict:
        return {}

    @cached_property
    def _transfers(self) -> dict:
        return {}

    @cached_property
    def _sums(self) -> dict:
        return {}

    @cached_property
    def _zero(self) -> Subspace:
        """V_j above high, one subspace for every such j."""
        return Subspace.zero(self.ambient_dim)

    @staticmethod
    def make(low: int, parts: Sequence[Subspace]) -> "FilteredSpace":
        if not parts:
            raise ValueError("empty filtration")
        ambient = parts[0].ambient_dim
        if parts[0] != Subspace.full(ambient):
            raise ValueError("the lowest filtration step must be the full space")
        for i, part in enumerate(parts):
            if part.ambient_dim != ambient:
                raise ValueError("mixed ambient dimensions")
            if i and not parts[i - 1].contains_subspace(part):
                raise ValueError(f"filtration not decreasing at step {low + i}")
        return FilteredSpace(ambient, low, low + len(parts) - 1, tuple(parts))

    def part(self, i: int) -> Subspace:
        if i > self.high:
            return self._zero
        return self.chain[max(i - self.low, 0)]  # chain[0] is the full space

    def sum_with(self, h: Subspace, j: int) -> Subspace:
        """h + V_j, computed once per (h, j) and then read from a memo."""
        key = (h, min(max(j, self.low), self.high + 1))
        total = self._sums.get(key)
        if total is None:
            total = self._sums[key] = h.add(self.part(j))
        return total

    def gr_dim(self, i: int) -> int:
        return self.part(i).dim - self.part(i + 1).dim

    @property
    def full_degree(self) -> int:
        """k + l + 1: any quasi-gradation degree at least this is a gradation."""
        return self.high - self.low + 1

    def quotient_dim(self, i: int, m: int) -> int:
        return self.part(i).dim - self.part(i + m).dim

    def _frame(self, i: int, m: int) -> "_Frame":
        lo, hi = self.low, self.high + 1
        key = (min(max(i, lo), hi), min(max(i + m, lo), hi))
        frame = self._frames.get(key)
        if frame is None:
            within = self.part(i)
            frame = _Frame(within, *quotient_basis(self.part(i + m), within))
            self._frames[key] = frame
        return frame

    def quotient_block(self, vectors: Iterable[Union[Sequence[Fraction], Sparse]],
                       i: int, m: int) -> Matrix:
        """The matrix whose k-th column is the V_i/V_{i+m} coordinates of

        the k-th vector, dense or sparse; every vector must lie in V_i.
        """
        frame = self._frame(i, m)
        cols = []
        for v in vectors:
            coords = frame.within.coords_of(v)
            if coords is None:
                raise ValueError("vector is not in the given space")
            cols.append(combination(coords, frame.rows))
        return Matrix.from_columns(cols, frame.comp.dim)

    def quotient_of(self, v: Union[Sequence[Fraction], Sparse], i: int, m: int) -> Vector:
        """Coordinates of v + V_{i+m} in V_i/V_{i+m}; v must lie in V_i."""
        return self.quotient_block([v], i, m).col(0)

    def quotient_lift(self, coords: Sequence[Fraction], i: int, m: int) -> Vector:
        """Canonical representative in V_i of a V_i/V_{i+m} coordinate vector."""
        return (Matrix.from_rows([coords]) @ self._frame(i, m).comp.basis).entries[0]

    def transfer(self, a: int, ma: int, b: int, mb: int) -> Matrix:
        """Matrix of V_a/V_{a+ma} -> V_b/V_{b+mb} induced by inclusion;

        needs V_a <= V_b and V_{a+ma} <= V_{b+mb}. Built once per
        argument tuple: column c is the checked quotient coordinates of
        the lift of the c-th unit vector, the c-th complement basis row.
        """
        key = (a, ma, b, mb)
        t = self._transfers.get(key)
        if t is None:
            t = self.quotient_block(self._frame(a, ma).comp.basis.sparse, b, mb)
            self._transfers[key] = t
        return t


@record
class _Frame:
    """Cached data of the quotient V_i/V_{i+m}: V_i itself, the canonical

    complement of V_{i+m} in V_i, whose basis rows lift quotient
    coordinates, and the quotient coordinates of each RREF basis row of
    V_i, as sparse rows.
    """

    within: Subspace
    comp: Subspace
    rows: tuple[Sparse, ...]


def _at(pairs: tuple, i: int, what: str):
    """The value stored for degree i in (degree, value) pairs."""
    for deg, value in pairs:
        if deg == i:
            return value
    raise KeyError(f"no {what} at degree {i}")


class _Parts:
    """part(i) of a gradation or quasi-gradation; zero outside the range."""

    def part(self, i: int) -> Subspace:
        if self.space.low <= i <= self.space.high:
            return _at(self.parts, i, "part")
        return self.space._zero


def _parts_tuple(low: int, high: int,
                 parts: Mapping[int, Subspace]) -> tuple[tuple[int, Subspace], ...]:
    missing = set(range(low, high + 1)) - set(parts)
    if missing:
        raise ValueError(f"missing parts for degrees {sorted(missing)}")
    extra = set(parts) - set(range(low, high + 1))
    if extra:
        raise ValueError(f"parts outside the filtration range: {sorted(extra)}")
    return tuple(sorted(parts.items()))


@record
class AdaptedGradation(_Parts):
    """Subspaces H^i with V_i = H^i direct sum V_{i+1}."""

    space: FilteredSpace
    parts: tuple[tuple[int, Subspace], ...]

    @staticmethod
    def make(space: FilteredSpace, parts: Mapping[int, Subspace]) -> "AdaptedGradation":
        """The quasi-gradation axioms at the full degree."""
        return AdaptedGradation(space, QuasiGradation.make(space, space.full_degree, parts).parts)


@record
class QuasiGradation(_Parts):
    """Subspaces H'^i with V_i = H'^i + V_{i+1}, H'^i ^ V_{i+1} = V_{i+m}."""

    space: FilteredSpace
    degree: int
    parts: tuple[tuple[int, Subspace], ...]

    @staticmethod
    def make(space: FilteredSpace, degree: int,
             parts: Mapping[int, Subspace]) -> "QuasiGradation":
        if degree < 1:
            raise ValueError("quasi-gradation degree must be >= 1")
        stored = _parts_tuple(space.low, space.high, parts)
        for i, h in stored:
            if space.sum_with(h, i + 1) != space.part(i):
                raise ValueError(f"H'^{i} + V_{i + 1} is not V_{i}")
            # given the first axiom, dim(H'^i ^ V_{i+1}) is this difference,
            # and the intersection contains V_{i+m} iff H'^i does
            mod = space.part(i + degree)
            if (not h.contains_subspace(mod)
                    or h.dim + space.part(i + 1).dim - space.part(i).dim != mod.dim):
                raise ValueError(f"H'^{i} ^ V_{i + 1} is not V_{i + degree}")
        return QuasiGradation(space, degree, stored)


@record
class GradedFrame:
    """Graded isomorphism u: m -> gr(V), one invertible block per degree.

    blocks[i] maps m^i coordinates to V_i/V_{i+1} quotient coordinates.
    """

    space: FilteredSpace
    model: GradedSpace
    blocks: tuple[tuple[int, Matrix], ...]

    @staticmethod
    def make(space: FilteredSpace, model: GradedSpace,
             blocks: Mapping[int, Matrix]) -> "GradedFrame":
        for d in model.degrees:
            if not space.low <= d <= space.high:
                raise ValueError(f"model degree {d} outside the filtration range")
        stored = []
        for i in range(space.low, space.high + 1):
            g = space.gr_dim(i)
            if model.dim(i) != g:
                raise ValueError(
                    f"model dimension {model.dim(i)} != gr dimension {g} at degree {i}")
            if g == 0:
                continue
            block = blocks.get(i)
            if block is None or block.shape != (g, g) or rank(block) != g:
                raise ValueError(f"frame block at degree {i} must be {g}x{g} invertible")
            stored.append((i, block))
        extra = set(blocks) - {i for i, _ in stored}
        if extra:
            raise ValueError(f"blocks at degrees without model component: {sorted(extra)}")
        return GradedFrame(space, model, tuple(stored))

    def block(self, i: int) -> Matrix:
        return _at(self.blocks, i, "frame block")


@record
class MLift:
    """Blocks F^i: m^i -> V_i/V_{i+degree} with gr o F = u."""

    frame: GradedFrame
    degree: int
    blocks: tuple[tuple[int, Matrix], ...]

    @staticmethod
    def make(frame: GradedFrame, degree: int, blocks: Mapping[int, Matrix]) -> "MLift":
        if degree < 1:
            raise ValueError("lift degree must be >= 1")
        space, model = frame.space, frame.model
        stored = []
        for i in model.degrees:
            shape = (space.quotient_dim(i, degree), model.dim(i))
            block = blocks.get(i)
            if block is None or block.shape != shape:
                raise ValueError(f"lift block at degree {i} must have shape {shape}")
            if space.transfer(i, degree, i, 1) @ block != frame.block(i):
                raise ValueError(f"lift block at degree {i} does not project onto the frame")
            stored.append((i, block))
        extra = set(blocks) - {i for i, _ in stored}
        if extra:
            raise ValueError(f"blocks at degrees without model component: {sorted(extra)}")
        return MLift(frame, degree, tuple(stored))

    def block(self, i: int) -> Matrix:
        return _at(self.blocks, i, "lift block")


def make_filtered_from_graded(model: GradedSpace,
                              t: Matrix) -> tuple[FilteredSpace, GradedFrame]:
    """Filtration V_i := T(m_i) with its induced frame, m_i the span of

    model components of degree >= i. T must be invertible and preserve
    that filtration (each column of degree d lies in the degree >= d
    span).
    """
    n = model.total_dim
    if t.shape != (n, n) or rank(t) != n:
        raise ValueError("T must be an invertible endomorphism of the model space")
    degs = [model.degree_of_index(j) for j in range(n)]
    cols = t.transpose().sparse  # column c of T as {row: value}
    for c, col in enumerate(cols):
        if any(degs[r] < degs[c] for r in col):
            raise ValueError(f"column {c} drops below degree {degs[c]}")
    low, high = model.degrees[0], model.degrees[-1]
    space = FilteredSpace.make(low, [
        Subspace.row_space(Matrix(tuple(col for col, d in zip(cols, degs) if d >= i), n))
        for i in range(low, high + 1)])
    blocks = {i: space.quotient_block(cols[model.offset(i):model.offset(i) + model.dim(i)], i, 1)
              for i in model.degrees}
    return space, GradedFrame.make(space, model, blocks)


def _project(g: Union[AdaptedGradation, QuasiGradation], m: int) -> QuasiGradation:
    space = g.space
    return QuasiGradation.make(space, m, {i: space.sum_with(part, i + m) for i, part in g.parts})


def project_gradation(h: AdaptedGradation, m: int) -> QuasiGradation:
    """The degree-m quasi-gradation {H^i + V_{i+m}}."""
    if m < 1:
        raise ValueError("projection degree must be >= 1")
    return _project(h, m)


def project_quasi(q: QuasiGradation, m: int) -> QuasiGradation:
    """Projection to a lower degree: {H'^i + V_{i+m}}, 1 <= m <= degree."""
    if not 1 <= m <= q.degree:
        raise ValueError(f"projection degree must be in 1..{q.degree}")
    return _project(q, m)


def compatible_gradation(q: QuasiGradation) -> AdaptedGradation:
    """Canonical section of the projection: H^i is the pivot complement

    of V_{i+m} inside H'^i, so project_gradation returns q exactly.
    """
    space = q.space
    return AdaptedGradation.make(
        space, {i: complement(space.part(i + q.degree), part) for i, part in q.parts})


def gradation_of_quasi(q: QuasiGradation) -> AdaptedGradation:
    """Reinterpret a quasi-gradation of full degree as an adapted gradation."""
    if q.degree < q.space.full_degree:
        raise ValueError("only full-degree quasi-gradations are gradations")
    # at degree >= full_degree, make() checked q against the gradation axioms
    return AdaptedGradation(q.space, q.parts)


def mlift_of_quasi(q: QuasiGradation, u: GradedFrame) -> MLift:
    """The m-lift with image H'^i/V_{i+m}: invert the projection of

    H'^i onto V_i/V_{i+1} and compose with the frame.
    """
    space, model = u.space, u.model
    if q.space != space:
        raise ValueError("quasi-gradation and frame live on different spaces")
    m = q.degree
    blocks = {}
    for i in model.degrees:
        image = space.quotient_block(q.part(i).basis.sparse, i, m)
        sol = solve(space.transfer(i, m, i, 1) @ image, u.block(i))
        if sol is None:
            raise ValueError(f"H'^{i} does not surject onto V_{i}/V_{i + 1}")
        blocks[i] = image @ sol
    return MLift.make(u, m, blocks)


def quasi_of_mlift(f: MLift, u: GradedFrame) -> QuasiGradation:
    """H'^i := preimage in V_i of the image of F^i: V_{i+m} stacked with

    the columns of (frame lift) @ F^i, taken as the rows of
    F^i^T @ (complement basis); inverse to mlift_of_quasi.
    """
    if f.frame != u:
        raise ValueError("lift was built over a different frame")
    space, model = u.space, u.model
    m = f.degree
    parts = {}
    for i in range(space.low, space.high + 1):
        rows = space.part(i + m).basis
        if model.dim(i):
            rows = rows.stack(f.block(i).transpose() @ space._frame(i, m).comp.basis)
        parts[i] = Subspace.row_space(rows)
    return QuasiGradation.make(space, m, parts)


def _check_action_argument(a: GradedMap, model: GradedSpace) -> None:
    if a.source != model or a.target != model:
        raise ValueError("action argument must be an endomorphism of the model")
    if any(d < 0 for d in a.part_degrees):
        raise ValueError("action argument has a negative-degree part")
    if not a.part(0).is_identity():
        raise ValueError("action argument must have identity degree-0 part")


def _action_block(f: MLift, parts: Mapping[int, HomogeneousMap], i: int,
                  upto: int) -> Matrix:
    """Degree-i block of sum_{j=0}^{upto} f_{i+j,m} F^{i+j} A^j, A^j = parts[j];

    parts[0] must be the identity, so the j = 0 term is F^i itself.
    """
    space, model, m = f.frame.space, f.frame.model, f.degree
    acc = f.block(i)
    for j in range(1, upto + 1):
        part = parts.get(j)
        if part is not None and model.dim(i + j):
            acc = acc + space.transfer(i + j, m, i, m) @ (f.block(i + j) @ part.block(i))
    return acc


def act_quasi(f: MLift, a: GradedMap) -> MLift:
    """Right action of [A]: (F[A])^i(x) = sum_j f_{i+j,m} F^{i+j}(A^j x),

    j running over 0..m-1; parts of A of degree >= m are ignored.
    """
    _check_action_argument(a, f.frame.model)
    parts = dict(a.parts)
    return MLift.make(f.frame, f.degree,
                      {i: _action_block(f, parts, i, f.degree - 1)
                       for i in f.frame.model.degrees})


def transition(f1: MLift, f2: MLift) -> GradedMap:
    """The unique class [A], with parts of degree < m, sending f1 to f2.

    Solved degree by degree: comparing both sides modulo V_{i+d+1},
    parts of degree > d drop out and the degree-d block enters through
    the injective map y -> F1^{i+d}(y) mod V_{i+d+1} = u(y), so each
    stage is a consistent triangular solve over what is already known.
    The result is verified by re-applying the action.
    """
    if f1.frame != f2.frame or f1.degree != f2.degree:
        raise ValueError("lifts are not over the same frame and degree")
    frame, m = f1.frame, f1.degree
    space, model = frame.space, frame.model
    parts: dict[int, HomogeneousMap] = {0: GradedMap.identity(model).part(0)}
    for d in range(1, m):
        blocks = {}
        for i in model.degrees:
            if model.dim(i + d) == 0:
                continue
            have = _action_block(f1, parts, i, d - 1)
            # y -> F1^{i+d}(y) mod V_{i+d+1}, an injective map
            carrier = space.transfer(i + d, m, i, d + 1) @ f1.block(i + d)
            goal = space.transfer(i, m, i, d + 1) @ (f2.block(i) - have)
            blocks[i] = solve(carrier, goal)
            if blocks[i] is None:
                raise ValueError("no transition: filtration invariants violated")
        if blocks:
            parts[d] = HomogeneousMap.make(model, model, d, blocks)

    result = GradedMap.make(model, model, parts)
    if act_quasi(f1, result) != f2:
        raise ValueError("no transition: filtration invariants violated")
    return result


def is_compatible(h: AdaptedGradation, q: QuasiGradation, u: GradedFrame) -> bool:
    """True iff the gradation projects onto the quasi-gradation."""
    if h.space != q.space or u.space != q.space:
        raise ValueError("gradation, quasi-gradation, and frame must share a space")
    return project_gradation(h, q.degree) == q


def full_lift(h: AdaptedGradation, u: GradedFrame) -> MLift:
    """The lift of an adapted gradation at full degree, where quotients

    V_i/V_{i+m} are all of V_i.
    """
    return mlift_of_quasi(project_gradation(h, h.space.full_degree), u)
