"""The frozen value classes: construction, immutability, equality, hashing,
repr, `fields`, cached properties, `__post_init__` checks, and an import that
leaves `dataclasses` out."""

import os
import subprocess
import sys
from fractions import Fraction
from functools import cached_property

import pytest

import tanaka
from tanaka._record import fields, record
from tanaka.catalog import ExpectedCheck, make_algebra
from tanaka.exact_linear import Matrix, Subspace
from tanaka.filtered import FilteredSpace
from tanaka.graded import GradedSpace
from tanaka.lie import G0Spec, GradedLieAlgebra
from tanaka.prolong import ProlongationResult, ProlongationStatus, prolong
from tanaka.selftest import SuiteReport
from tanaka.torsion import TowerRow

ROW = dict(n=1, dim_g=6, dim_structure_group=46, dim_group_product=14, dim_tor=40, rank=31,
           dim_w=9, dim_total=13)


def test_positional_keyword_and_default_construction():
    assert TowerRow(*ROW.values()) == TowerRow(**ROW)
    assert TowerRow(1, 6, 46, 14, 40, 31, dim_w=9, dim_total=13) == TowerRow(**ROW)
    spec = G0Spec("der0")
    assert (spec.preset, spec.form, spec.generators) == ("der0", None, ())
    assert G0Spec(preset="der0") == spec
    assert SuiteReport("s", 1, 2, ()).counts == ()
    check = ExpectedCheck("der0_dim", value=4)
    assert (check.g0_preset, check.depth, check.value) == (None, None, 4)
    with pytest.raises(TypeError):
        TowerRow(1, 6)
    with pytest.raises(TypeError):
        TowerRow(**ROW, extra=1)
    with pytest.raises(TypeError):
        G0Spec("der0", bogus=1)


def test_fields_cannot_be_assigned_or_deleted():
    row = TowerRow(**ROW)
    with pytest.raises(AttributeError, match="cannot assign to field 'rank'"):
        row.rank = 0
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        row.other = 0
    with pytest.raises(AttributeError, match="cannot delete field 'rank'"):
        del row.rank
    space = make_algebra("heisenberg3").space
    with pytest.raises(AttributeError):
        space.components = ()
    assert row.rank == 31


def test_equality_and_hash_over_the_compared_fields():
    row = TowerRow(**ROW)
    assert hash(row) == hash(tuple(ROW.values()))
    assert row != TowerRow(**dict(ROW, rank=30))
    assert row != tuple(ROW.values())
    # one field: the hash of a 1-tuple, as for a dataclass
    space = make_algebra("heisenberg3").space
    assert hash(space) == hash((space.components,))
    assert space == GradedSpace(space.components)
    # an explicit __hash__ in the class body is kept
    m = Matrix.from_rows([[1, Fraction(1, 2)], [0, 3]])
    assert hash(m) == hash((2, tuple(frozenset(r.items()) for r in m.sparse)))
    assert m.entries[0] == (1, Fraction(1, 2))  # cached_property on a record


def test_cache_fields_stay_out_of_equality_and_hash():
    chain = (Subspace.full(2), Subspace.span(2, [[1, 0]]))
    used, fresh = FilteredSpace(2, 0, 1, chain), FilteredSpace(2, 0, 1, chain)
    used.quotient_of((Fraction(1), Fraction(2)), 0, 1)
    assert used._frames and "_frames" not in fresh.__dict__
    assert used == fresh and hash(used) == hash(fresh)
    assert fresh._frames == {} and used == fresh

    m = make_algebra("heisenberg3")
    other = GradedLieAlgebra(m.space, m.brackets)
    object.__setattr__(other, "act", ())
    assert m == other and hash(m) == hash(other)

    res = prolong(m, G0Spec("der0"), max_degree=1)
    res.tower_space(1)  # builds the tower
    copy = ProlongationResult(res.base, res.negative, res.g0, res.levels, res.status)
    assert "_tower" in res.__dict__ and "_tower" not in copy.__dict__
    assert res == copy and hash(res) == hash(copy)
    assert copy.tower_space(1) == res.tower_space(1) and res == copy

    @record
    class Cached:
        key: int

        @cached_property
        def memo(self) -> dict:
            return {}

    a, b = Cached(1), Cached(1)
    a.memo[0] = 0
    assert a == b and hash(a) == hash(b) and b.memo == {}
    assert repr(a) == "test_cache_fields_stay_out_of_equality_and_hash.<locals>.Cached(key=1)"


def test_fields_follow_declaration_order_and_class_defaults():
    @record
    class Point:
        y: int
        x: int = 0
        label: str = "p"

    assert list(fields(Point(2)).items()) == [("y", 2), ("x", 0), ("label", "p")]
    assert list(fields(Point(2, 1, label="q")).items()) == [("y", 2), ("x", 1), ("label", "q")]
    assert Point(2) == Point(2, 0, "p") and Point.x == 0
    with pytest.raises(TypeError):
        Point()
    assert list(fields(TowerRow(**ROW)).items()) == list(ROW.items())
    assert list(fields(G0Spec("der0"))) == ["preset", "form", "generators"]
    assert "act" not in fields(make_algebra("heisenberg3"))


def test_repr_is_the_dataclass_repr():
    assert repr(G0Spec("der0")) == "G0Spec(preset='der0', form=None, generators=())"
    assert repr(TowerRow(**ROW)) == (
        "TowerRow(n=1, dim_g=6, dim_structure_group=46, dim_group_product=14, dim_tor=40, "
        "rank=31, dim_w=9, dim_total=13)")
    assert repr(Matrix.from_rows([[1, 0]])) == "Matrix(sparse=({0: Fraction(1, 1)},), cols=2)"
    assert "act=" not in repr(make_algebra("heisenberg3"))


def test_post_init_validation_still_raises():
    with pytest.raises(ValueError, match="bad status kind 'bogus'"):
        ProlongationStatus("bogus", None, 3)
    with pytest.raises(ValueError, match="order is set exactly"):
        ProlongationStatus("finite", None, 3)
    with pytest.raises(ValueError, match="either a preset or explicit generators"):
        G0Spec()
    with pytest.raises(ValueError, match="bad bracket pair"):
        GradedLieAlgebra(make_algebra("heisenberg3").space, (((2, 1), (0, 0, 0)),))


def test_importing_the_cli_does_not_import_dataclasses():
    code = ("import sys; before = 'dataclasses' in sys.modules; import tanaka.cli; "
            "print(before, 'dataclasses' in sys.modules)")
    src = os.path.dirname(os.path.dirname(tanaka.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False False\n"
    out = subprocess.run([sys.executable, "-S", "-c", "import dataclasses; " + code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "True True\n"
