"""Acceptance gate: the headline guarantees of the package, each fast.

Every check here is exact (integer or rational equality); the time
budget per test is ten seconds.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

from tanaka.catalog import entries, make_algebra
from tanaka.cli import main
from tanaka.exact_linear import Matrix, Subspace, densify, kernel
from tanaka.graded import HomogeneousMap, hom_space_dim, hom_terms
from tanaka.jsonio import emit_algebra
from tanaka.lie import G0Spec, resolve_g0
from tanaka.prolong import (
    extended_bracket,
    jacobi_failures,
    order_and_bound,
    prolong,
)
from tanaka.selftest import run_filtered_suite
from tanaka.torsion import gl_tail_dim, kernel_reports, partial1_matrix


@contextmanager
def budget(seconds: float = 10.0):
    start = time.monotonic()
    yield
    assert time.monotonic() - start < seconds


def _run(name, preset, depth):
    alg = make_algebra(name)
    return prolong(alg, resolve_g0(G0Spec(preset), alg), max_degree=depth)


# 1. the level-1 boundary map's kernel is gl_2 plus the next level,
#    with that level computed by the independent degree-wise solver

@pytest.mark.parametrize("name,preset", [
    ("abelian2", "gl"),
    ("abelian3", "co"),
    ("abelian3", "so"),
    ("heisenberg3", "der0"),
])
def test_level1_kernel_equals_gl2_plus_next_level(name, preset):
    with budget():
        res = _run(name, preset, 2)
        m0 = res.base
        tor, mat = partial1_matrix(m0)
        n1 = hom_space_dim(m0.space, m0.space, 1)
        tail = gl_tail_dim(m0.space, 2)
        if tor.total_dim:
            padded = Matrix.from_rows(
                [list(row) + [0] * tail for row in mat.entries])
            ker = kernel(padded)
        else:
            ker = Subspace.full(n1 + tail)
        rows = []
        for a in res.level(1).basis:
            emb = HomogeneousMap.make(
                m0.space, m0.space, 1,
                {d: a.block(d) for d in res.negative.space.degrees})
            rows.append(densify(hom_terms(emb), n1) + (Fraction(0),) * tail)
        for j in range(tail):
            rows.append((Fraction(0),) * n1
                        + tuple(Fraction(1 if i == j else 0) for i in range(tail)))
        assert ker == Subspace.span(n1 + tail, rows)


# 2. higher-level kernels: Ker on the gl summand is the embedded next
#    level (the gl tail being annihilated), and the boundary map is
#    injective on the Hom summand

@pytest.mark.parametrize("name,preset", [
    ("heisenberg3", "der0"),
    ("abelian2", "gl"),
])
@pytest.mark.parametrize("n", [1, 2])
def test_higher_level_kernels_and_hom_injectivity(name, preset, n):
    with budget():
        res = _run(name, preset, 3)
        report = kernel_reports(res, n)
        assert report.gl_kernel_matches, report.messages
        assert report.hom_injective, report.messages
        assert report.rank == (report.dim_domain - report.dim_gl_tail) - report.dim_g_next
        assert report.dim_w == report.dim_tor - report.rank


# 3. classical dimension formulas, exact integer equality

def test_full_linear_dims_follow_the_binomial_formula():
    with budget():
        for n in (2, 3):
            res = _run(f"abelian{n}", "gl", 3)
            assert len(res.g0) == n * comb(n, 1)
            for k in (1, 2, 3):
                assert res.dim_g(k) == n * comb(n + k, k + 1)


def test_orthogonal_closes_at_order_zero():
    with budget():
        res = _run("abelian3", "so", 3)
        order, bound = order_and_bound(res)
        assert order == 0 and bound == 6


def test_conformal_has_order_one_and_bound_ten():
    with budget():
        res = _run("abelian3", "co", 3)
        order, bound = order_and_bound(res)
        assert order == 1 and res.dim_g(1) == 3 and bound == 10


def test_special_linear_dims_lose_one_trace_condition_per_degree():
    with budget():
        for n in (2, 3):
            res = _run(f"abelian{n}", "sl", 2)
            assert len(res.g0) == n * n - 1
            for k in (1, 2):
                assert res.dim_g(k) == n * comb(n + k, k + 1) - comb(n + k - 1, k)


# 4. bracket laws on the extended algebra: antisymmetry, grading, and
#    the Jacobi identity on every in-range basis triple

@pytest.mark.parametrize("name,preset", [
    ("abelian2", "gl"),
    ("heisenberg3", "der0"),
])
def test_extended_bracket_laws_on_truncated_towers(name, preset):
    with budget():
        res = _run(name, preset, 2)
        eb = extended_bracket(res)
        space = eb.space
        dim = space.total_dim
        escaped = set(eb.out_of_range)
        for a in range(dim):
            assert not eb.act[a][a]
            for b in range(a + 1, dim):
                fwd, rev = eb.act[a][b], eb.act[b][a]
                if (a, b) in escaped:
                    assert not fwd and not rev  # an empty placeholder
                    continue
                assert fwd == {i: -e for i, e in rev.items()}
                da = space.degree_of_index(a)
                db = space.degree_of_index(b)
                assert all(space.degree_of_index(i) == da + db for i in fwd)
        # mixed rule: a positive-level element bracketed with m evaluates the map
        dim_m = res.negative.space.total_dim
        for s in range(1, res.depth + 1):
            off = space.offset(s)
            for j, amap in enumerate(res.level(s).basis):
                for x in range(dim_m):
                    assert eb.act[off + j][x] == amap.columns[x]
        assert jacobi_failures(eb) == []


# 5. the seeded filtered-calculus property suite: at least 200 random
#    cases through each named law, all exact

def test_seeded_filtered_calculus_suite():
    with budget():
        report = run_filtered_suite(seed=20240811, cases=200)
        assert report.failures == ()
        assert report.cases >= 200
        for law in (
            "quasi->lift->quasi round-trip",
            "lift->quasi->lift round-trip",
            "projection functoriality",
            "degree >= m action fixes the projection",
            "degree >= m action fixes the lift",
            "transition reproduces the action",
        ):
            assert report.count_of(law) >= 200, law


# 6. re-substitution: every basis element of every solved level
#    satisfies the derivation identity A[x,y] = [Ax,y] + [x,Ay],
#    evaluated without the solver's constraint machinery

def _mixed_with_m(res, space_t, v, y):
    """[v, e_y] in tower coordinates, for v in the tower and y in m."""
    neg = res.negative
    out = [Fraction(0)] * space_t.total_dim
    for d in space_t.degrees:
        off = space_t.offset(d)
        for j in range(space_t.dim(d)):
            c = v[off + j]
            if not c:
                continue
            if d < 0:
                w = neg.bracket_basis(off + j, y)
            else:
                f = res.g0[j] if d == 0 else res.level(d).basis[j]
                w = densify(f.columns[y], f.target.total_dim)
            for i, e in enumerate(w):
                if e:
                    out[i] += c * e
    return tuple(out)


def test_resubstitution_of_every_solved_level():
    with budget():
        verified = 0
        for entry in entries():
            for rec in entry.expected:
                if rec.kind != "prolong":
                    continue
                alg = entry.algebra
                res = prolong(alg, resolve_g0(G0Spec(rec.g0_preset), alg),
                              max_degree=rec.depth)
                neg = res.negative
                dim_m = neg.space.total_dim
                for s in range(1, res.depth + 1):
                    space_t = res.tower_space(s - 1)
                    for amap in res.level(s).basis:
                        for a in range(dim_m):
                            fa = densify(amap.columns[a], space_t.total_dim)
                            for b in range(a + 1, dim_m):
                                lhs = amap.apply(neg.bracket_basis(a, b))
                                fb = densify(amap.columns[b], space_t.total_dim)
                                one = _mixed_with_m(res, space_t, fa, b)
                                two = _mixed_with_m(res, space_t, fb, a)
                                assert lhs == tuple(x - y for x, y in zip(one, two))
                        verified += 1
        assert verified > 100


# 7. mutation detection: corrupting any single structure constant of a
#    catalog algebra document is caught by check with exit code 1

def test_single_constant_mutations_always_fail_check(capsys, tmp_path):
    with budget():
        mutations = 0
        for entry in entries():
            if not entry.algebra.brackets:
                continue
            doc = json.loads(emit_algebra(entry.algebra, entry.name))
            for bidx, bracket in enumerate(doc["brackets"]):
                for tidx, term in enumerate(bracket["value"]):
                    for bumped in (term["num"] + 1, 0):
                        mutated = json.loads(json.dumps(doc))
                        mutated["brackets"][bidx]["value"][tidx]["num"] = bumped
                        path = tmp_path / f"m{mutations}.json"
                        path.write_text(json.dumps(mutated))
                        code = main(["check", str(path)])
                        capsys.readouterr()
                        assert code == 1, (entry.name, bidx, tidx, bumped)
                        mutations += 1
        assert mutations >= 16
