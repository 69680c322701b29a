"""Catalog construction and the frozen expected-value records."""

import pytest

from tanaka.catalog import EXPECTED, entries, make_algebra
from tanaka.lie import is_fundamental, validate


def test_abelian_shapes():
    for n in (1, 2, 5):
        alg = make_algebra(f"abelian{n}")
        assert alg.space.degrees == (-1,)
        assert alg.space.total_dim == n
        assert alg.brackets == ()


def test_heisenberg_shapes():
    alg = make_algebra("heisenberg5")
    assert alg.space.dim(-1) == 4 and alg.space.dim(-2) == 1
    assert validate(alg) == []
    assert is_fundamental(alg)
    # center pairing: [e_i, e_{n+i}] = e_{2n+1}
    x1 = alg.space.index_of_label("e1")
    x3 = alg.space.index_of_label("e3")
    z = alg.space.index_of_label("e5")
    assert alg.bracket_basis(x1, x3)[z] == 1


def test_growth_235_shape():
    alg = make_algebra("free_235")
    assert [alg.space.dim(d) for d in (-1, -2, -3)] == [2, 1, 3 - 1]
    assert validate(alg) == []
    assert is_fundamental(alg)


def test_name_parsing():
    assert make_algebra("abelian(3)") == make_algebra("abelian3")
    assert make_algebra("Heisenberg(3)") == make_algebra("heisenberg3")
    assert make_algebra("free235") == make_algebra("free_235")
    for bad in ("abelian0", "heisenberg4", "heisenberg1", "nilpotent7", ""):
        with pytest.raises(ValueError):
            make_algebra(bad)


def test_expected_records_are_reachable():
    names = {entry.name for entry in entries()}
    assert names == set(EXPECTED)
    for entry in entries():
        assert validate(entry.algebra) == []
        assert entry.expected
    # a parenthesised, capitalised name reaches the entry's algebra
    by_name = {entry.name: entry for entry in entries()}
    assert make_algebra("Abelian(2)") == by_name["abelian2"].algebra
    assert by_name["abelian2"].expected == EXPECTED["abelian2"]
