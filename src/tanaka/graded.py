"""Graded vector spaces and degree-homogeneous linear maps.

A graded space is a finite list of components V^i indexed by integer
degrees; absent degrees mean dimension zero. Global coordinates run
through the listed degrees in ascending order, then through each
component's basis in label order.

A homogeneous map of degree d sends V^i into W^{i+d} and is stored one
way: as the sparse image of each source basis vector
(`HomogeneousMap.columns`), with no zero values, so equal maps have
equal columns. The solver, evaluation, sums, multiples and composites
read and write only those nonzeros. The block of a source degree, the
matrix of V^i -> W^{i+d}, is derived from the columns on first read and
memoised in the map; blocks given to `HomogeneousMap.make` are turned
into columns at once.

Coordinates on the space Hom^d(U, W) itself (used whenever a subspace
of maps is computed) enumerate elementary units as: source degree
ascending, then source basis index, then target basis index. This
frame (`hom_units`) is fixed package-wide. `hom_terms_of_columns` is
the one reader of it from sparse columns, and `hom_from_coords` the
one writer back.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, Sequence, Union

from ._record import record
from .exact_linear import Matrix, Sparse, Vector, add_scaled, combination, densify, zero_vector


@record
class GradedSpace:
    components: tuple[tuple[int, tuple[str, ...]], ...]

    @staticmethod
    def make(labels_by_degree: Mapping[int, Sequence[str]]) -> "GradedSpace":
        comps = []
        seen: set[str] = set()
        for deg in sorted(labels_by_degree):
            labels = tuple(labels_by_degree[deg])
            if not labels:
                continue
            for lab in labels:
                if lab in seen:
                    raise ValueError(f"duplicate basis label {lab!r}")
                seen.add(lab)
            comps.append((deg, labels))
        return GradedSpace(tuple(comps))

    @staticmethod
    def from_dims(dims_by_degree: Mapping[int, int], prefix: str = "e") -> "GradedSpace":
        labels: dict[int, list[str]] = {}
        counter = 1
        for deg in sorted(dims_by_degree):
            n = dims_by_degree[deg]
            labels[deg] = [f"{prefix}{counter + i}" for i in range(n)]
            counter += n
        return GradedSpace.make(labels)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(deg for deg, _ in self.components)

    def dim(self, degree: int) -> int:
        for deg, labels in self.components:
            if deg == degree:
                return len(labels)
        return 0

    def labels(self, degree: int) -> tuple[str, ...]:
        for deg, labels in self.components:
            if deg == degree:
                return labels
        return ()

    @property
    def total_dim(self) -> int:
        return sum(len(labels) for _, labels in self.components)

    def offset(self, degree: int) -> int:
        """Start of the given degree's block in global coordinates."""
        pos = 0
        for deg, labels in self.components:
            if deg == degree:
                return pos
            pos += len(labels)
        raise KeyError(f"degree {degree} not present")

    def degree_of_index(self, index: int) -> int:
        pos = 0
        for deg, labels in self.components:
            pos += len(labels)
            if index < pos:
                return deg
        raise IndexError(index)

    def label_of_index(self, index: int) -> str:
        pos = 0
        for deg, labels in self.components:
            if index < pos + len(labels):
                return labels[index - pos]
            pos += len(labels)
        raise IndexError(index)

    def index_of_label(self, label: str) -> int:
        pos = 0
        for _, labels in self.components:
            for lab in labels:
                if lab == label:
                    return pos
                pos += 1
        raise KeyError(f"unknown basis label {label!r}")

    def component_of_vector(self, v: Sequence[Fraction], degree: int) -> Vector:
        if self.dim(degree) == 0:
            return ()
        start = self.offset(degree)
        return tuple(v[start: start + self.dim(degree)])

    def with_component(self, degree: int, labels: Sequence[str]) -> "GradedSpace":
        if self.dim(degree) != 0:
            raise ValueError(f"degree {degree} already present")
        as_dict = {deg: labs for deg, labs in self.components}
        if labels:
            as_dict[degree] = tuple(labels)
        return GradedSpace.make(as_dict)


@record
class HomogeneousMap:
    """Linear map of pure degree between graded spaces, stored as its columns.

    columns[j] is the sparse image {target index: nonzero value} of the
    j-th source basis vector, in global coordinates, inside the target
    component of degree deg(j) + degree; columns are shared, so callers
    must not mutate them. They are the one stored form, so equal maps
    have equal columns. block(i) reads the matrix of V^i -> W^{i+degree}
    off them on first use.
    """

    source: GradedSpace
    target: GradedSpace
    degree: int
    columns: tuple[Sparse, ...]

    def __hash__(self):
        return hash((self.source, self.target, self.degree,
                     tuple(frozenset(col.items()) for col in self.columns)))

    @staticmethod
    def present_source_degrees(source: GradedSpace, target: GradedSpace, degree: int) -> tuple[int, ...]:
        return tuple(i for i in source.degrees if target.dim(i + degree) > 0)

    @staticmethod
    def make(source: GradedSpace, target: GradedSpace, degree: int,
             blocks: Mapping[int, Matrix] = {}) -> "HomogeneousMap":
        """The map whose block of source degree i is blocks[i] (target

        dimension rows by source dimension columns); absent blocks are zero.
        """
        cols: list[dict[int, Fraction]] = [{} for _ in range(source.total_dim)]
        for i, block in blocks.items():
            shape = (target.dim(i + degree), source.dim(i))
            if shape[1] == 0:
                raise ValueError(f"block for absent source degree {i}")
            if shape[0] == 0:
                if not block.is_zero():
                    raise ValueError(f"nonzero block {i} maps into absent target degree {i + degree}")
            elif block.shape != shape:
                raise ValueError(f"block {i} has shape {block.shape}, expected {shape}")
            else:
                src, tgt = source.offset(i), target.offset(i + degree)
                for r, row in enumerate(block.sparse):
                    for c, e in row.items():
                        cols[src + c][tgt + r] = e
        return HomogeneousMap(source, target, degree, tuple(cols))

    @staticmethod
    def from_columns(source: GradedSpace, target: GradedSpace, degree: int,
                     columns: Sequence[Sparse]) -> "HomogeneousMap":
        """The map sending the j-th source basis vector to columns[j], a

        sparse column {target index: value} in global coordinates. Each
        index must lie in the target component of degree deg(j) + degree;
        zero values are dropped.
        """
        if len(columns) != source.total_dim:
            raise ValueError(f"expected {source.total_dim} columns, got {len(columns)}")
        stored: list[Sparse] = []
        for i in source.degrees:
            rows = target.dim(i + degree)
            tgt = target.offset(i + degree) if rows else 0
            for col in columns[len(stored): len(stored) + source.dim(i)]:
                if col and (min(col) < tgt or max(col) >= tgt + rows):
                    raise ValueError(f"column {len(stored)} leaves the degree-{i + degree} component")
                if not all(col.values()):
                    col = {t: v for t, v in col.items() if v}
                stored.append(col)
        return HomogeneousMap(source, target, degree, tuple(stored))

    @staticmethod
    def zero(source: GradedSpace, target: GradedSpace, degree: int) -> "HomogeneousMap":
        return HomogeneousMap.make(source, target, degree)

    @cached_property
    def _blocks(self) -> dict:
        return {}

    def block(self, i: int) -> Matrix:
        """The matrix of V^i -> W^{i+degree} in the components' bases

        (target dimension rows by source dimension columns), zero when
        either component is absent. Read off the columns on first use and
        kept in `_blocks`.
        """
        memo = self._blocks
        if i not in memo:
            rows, cols = self.target.dim(i + self.degree), self.source.dim(i)
            src = self.source.offset(i) if cols else 0
            tgt = self.target.offset(i + self.degree) if rows else 0
            memo[i] = Matrix.from_columns(self.columns[src: src + cols], rows, tgt)
        return memo[i]

    def is_zero(self) -> bool:
        return not any(self.columns)

    def is_identity(self) -> bool:
        """Degree 0 on one space, each column the unit vector of its own index."""
        return self.degree == 0 and self.source == self.target and all(
            len(col) == 1 and col.get(j) == 1 for j, col in enumerate(self.columns))

    def apply(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.source.total_dim:
            raise ValueError(f"length mismatch: map on dim {self.source.total_dim} "
                             f"applied to {len(v)}")
        coeffs = {j: c for j, c in enumerate(v) if c}
        return densify(combination(coeffs, self.columns), self.target.total_dim)

    def to_matrix(self) -> Matrix:
        """Full target_dim x source_dim matrix in global coordinates."""
        return Matrix.from_columns(self.columns, self.target.total_dim)

    def add(self, other: "HomogeneousMap") -> "HomogeneousMap":
        if (self.source, self.target, self.degree) != (other.source, other.target, other.degree):
            raise ValueError("incompatible homogeneous maps")
        cols = [add_scaled(dict(a), 1, b) for a, b in zip(self.columns, other.columns)]
        return HomogeneousMap.from_columns(self.source, self.target, self.degree, cols)

    def scale(self, c) -> "HomogeneousMap":
        c = Fraction(c)
        cols = [{t: c * v for t, v in col.items()} if c else {} for col in self.columns]
        return HomogeneousMap.from_columns(self.source, self.target, self.degree, cols)

    def compose(self, other: "HomogeneousMap") -> "HomogeneousMap":
        """self after other; degrees add."""
        if other.target != self.source:
            raise ValueError("composition spaces do not match")
        cols = [combination(col, self.columns) for col in other.columns]
        return HomogeneousMap.from_columns(other.source, self.target, self.degree + other.degree,
                                           cols)


def fresh_labels(space: GradedSpace, stem: str, count: int) -> tuple[str, ...]:
    """Labels stem1 .. stem<count>, each extended by "_" until it is new

    to space and to the labels before it.
    """
    taken = {lab for _, labels in space.components for lab in labels}
    out = []
    for i in range(1, count + 1):
        label = f"{stem}{i}"
        while label in taken:
            label += "_"
        taken.add(label)
        out.append(label)
    return tuple(out)


def hom_space_dim(source: GradedSpace, target: GradedSpace, degree: int) -> int:
    return sum(source.dim(i) * target.dim(i + degree)
               for i in HomogeneousMap.present_source_degrees(source, target, degree))


@lru_cache(maxsize=16)
def hom_units(source: GradedSpace, target: GradedSpace, degree: int) -> tuple[tuple[int, int], ...]:
    """The elementary units of Hom^degree(source, target) as (source index,

    target index) pairs of global coordinates, in the fixed frame: source
    degree ascending, then source basis index, then target basis index.
    Cached, since every map built from coordinates reads it.
    """
    units = []
    for i in HomogeneousMap.present_source_degrees(source, target, degree):
        src, tgt = source.offset(i), target.offset(i + degree)
        for s in range(source.dim(i)):
            for t in range(target.dim(i + degree)):
                units.append((src + s, tgt + t))
    return tuple(units)


def hom_basis(source: GradedSpace, target: GradedSpace, degree: int) -> list[HomogeneousMap]:
    """Elementary units of Hom^degree(source, target) as maps, in the

    hom_units frame.
    """
    return [hom_from_coords(source, target, degree, {k: 1})
            for k in range(hom_space_dim(source, target, degree))]


@lru_cache(maxsize=16)
def _unit_index(source: GradedSpace, target: GradedSpace, degree: int) -> dict[tuple[int, int], int]:
    return {unit: k for k, unit in enumerate(hom_units(source, target, degree))}


def hom_terms_of_columns(source: GradedSpace, target: GradedSpace, degree: int,
                         columns: Sequence[Sparse]) -> dict[int, Fraction]:
    """Coordinates in the hom_units frame, as a sparse row, of the map

    sending the j-th source basis vector to columns[j] (a sparse column
    in global coordinates; absent trailing columns are zero). A value
    outside the target component of degree deg(j) + degree, or a column
    past the source, raises ValueError.
    """
    index = _unit_index(source, target, degree)
    out = {}
    for j, col in enumerate(columns):
        for t, v in col.items():
            k = index.get((j, t))
            if k is None:
                raise ValueError(f"column {j} has a value at {t}, outside its graded block")
            out[k] = v
    return out


def hom_terms(f: HomogeneousMap) -> dict[int, Fraction]:
    """Coordinates of a homogeneous map in the hom_units frame, as a sparse row."""
    return hom_terms_of_columns(f.source, f.target, f.degree, f.columns)


def hom_from_coords(source: GradedSpace, target: GradedSpace, degree: int,
                    coords: Union[Sequence[Fraction], Sparse]) -> HomogeneousMap:
    """The map with the given coordinates in the hom_units frame, given as a

    dense vector or as a sparse row {unit index: value}.
    """
    units = hom_units(source, target, degree)
    if not isinstance(coords, Mapping):
        if len(coords) != len(units):
            raise ValueError(f"expected {len(units)} coordinates, got {len(coords)}")
        coords = dict(enumerate(coords))
    cols: list[dict[int, Fraction]] = [{} for _ in range(source.total_dim)]
    for k, v in coords.items():
        if v:
            src, tgt = units[k]
            cols[src][tgt] = v if type(v) is Fraction else Fraction(v)
    return HomogeneousMap.from_columns(source, target, degree, cols)


@record
class GradedMap:
    """Endomorphism-style map stored as a sum of homogeneous parts."""

    source: GradedSpace
    target: GradedSpace
    parts: tuple[tuple[int, HomogeneousMap], ...]

    @staticmethod
    def make(source: GradedSpace, target: GradedSpace,
             parts: Mapping[int, HomogeneousMap]) -> "GradedMap":
        stored = []
        for d in sorted(parts):
            p = parts[d]
            if (p.source, p.target, p.degree) != (source, target, d):
                raise ValueError(f"part {d} does not match the stated spaces")
            if not p.is_zero():
                stored.append((d, p))
        return GradedMap(source, target, tuple(stored))

    @staticmethod
    def identity(space: GradedSpace) -> "GradedMap":
        blocks = {i: Matrix.identity(space.dim(i)) for i in space.degrees}
        return GradedMap.make(space, space, {0: HomogeneousMap.make(space, space, 0, blocks)})

    def part(self, degree: int) -> HomogeneousMap:
        for d, p in self.parts:
            if d == degree:
                return p
        return HomogeneousMap.zero(self.source, self.target, degree)

    @property
    def part_degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.parts)

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """The sum of the parts' images of v, summed entry by entry."""
        zero = zero_vector(self.target.total_dim)
        return tuple(map(sum, zip(*(p.apply(v) for _, p in self.parts), zero)))

    def to_matrix(self) -> Matrix:
        m = Matrix.zeros(self.target.total_dim, self.source.total_dim)
        for _, p in self.parts:
            m = m + p.to_matrix()
        return m

    def add(self, other: "GradedMap") -> "GradedMap":
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("incompatible graded maps")
        degrees = set(self.part_degrees) | set(other.part_degrees)
        return GradedMap.make(self.source, self.target,
                              {d: self.part(d).add(other.part(d)) for d in degrees})

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other."""
        if other.target != self.source:
            raise ValueError("composition spaces do not match")
        acc: dict[int, HomogeneousMap] = {}
        for d1, p1 in self.parts:
            for d2, p2 in other.parts:
                term = p1.compose(p2)
                d = d1 + d2
                acc[d] = acc[d].add(term) if d in acc else term
        return GradedMap.make(other.source, self.target, acc)

    def is_identity(self) -> bool:
        """The degree-0 part is the identity and there is no other part."""
        return self.part_degrees in ((), (0,)) and self.part(0).is_identity()


def unipotent_inverse(g: GradedMap) -> GradedMap:
    """Inverse of Id + (positive-degree parts), computed degree by degree.

    Requires the degree-0 part to be the identity and all other parts
    to have positive degree; the inverse is again of that shape with
    lowest part the negation of g's.
    """
    if g.source != g.target:
        raise ValueError("not an endomorphism")
    space = g.source
    if not g.part(0).is_identity():
        raise ValueError("degree-0 part is not the identity")
    if any(d < 0 for d in g.part_degrees):
        raise ValueError("negative-degree part present")
    span = max(space.degrees) - min(space.degrees) if space.degrees else 0
    inv_parts: dict[int, HomogeneousMap] = {0: g.part(0)}
    for d in range(1, span + 1):
        acc = g.part(d).scale(-1)
        for j in range(1, d):
            acc = acc.add(g.part(j).compose(inv_parts[d - j]).scale(-1))
        inv_parts[d] = acc
    return GradedMap.make(space, space, inv_parts)
