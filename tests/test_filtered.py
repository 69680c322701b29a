"""Filtered spaces, quasi-gradations, lifts, and the unipotent action."""

import os
import random
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import tanaka.selftest
from tanaka.exact_linear import Matrix, Subspace, complement, solve
from tanaka.filtered import (
    AdaptedGradation,
    FilteredSpace,
    GradedFrame,
    MLift,
    QuasiGradation,
    act_quasi,
    full_lift,
    gradation_of_quasi,
    is_compatible,
    make_filtered_from_graded,
    mlift_of_quasi,
    project_gradation,
    project_quasi,
    quasi_of_mlift,
    transition,
)
from tanaka.graded import GradedMap, GradedSpace, HomogeneousMap
from tanaka.selftest import run_filtered_suite


def _model21() -> GradedSpace:
    return GradedSpace.from_dims({-2: 1, -1: 2})


def _fixture():
    """Non-trivial triangular map over dims (1 at -2, 2 at -1)."""
    model = _model21()
    t = Matrix.from_rows([
        [1, 0, 0],
        [2, 1, 0],
        [-1, 1, 1],
    ])
    space, u = make_filtered_from_graded(model, t)
    return model, t, space, u


def _column_gradation(space, model, t):
    parts = {}
    for i in range(space.low, space.high + 1):
        cols = [t.col(j) for j in range(model.total_dim)
                if model.degree_of_index(j) == i]
        parts[i] = Subspace.span(space.ambient_dim, cols)
    return AdaptedGradation.make(space, parts)


def test_identity_map_gives_coordinate_filtration():
    model = _model21()
    space, u = make_filtered_from_graded(model, Matrix.identity(3))
    assert space.part(-2) == Subspace.full(3)
    assert space.part(-1) == Subspace.span(3, [(0, 1, 0), (0, 0, 1)])
    assert space.part(0) == Subspace.zero(3)
    assert space.gr_dim(-2) == 1 and space.gr_dim(-1) == 2
    assert space.full_degree == 2
    for i in model.degrees:
        assert u.block(i) == Matrix.identity(model.dim(i))


def test_positive_perturbation_is_invisible_in_the_graded_frame():
    model = _model21()
    identity_space, identity_frame = make_filtered_from_graded(model, Matrix.identity(3))
    # identity plus a strictly degree-raising map
    t = Matrix.from_rows([
        [1, 0, 0],
        [5, 1, 0],
        [7, 0, 1],
    ])
    space, u = make_filtered_from_graded(model, t)
    assert space == identity_space
    assert u == identity_frame


def test_fixture_generator_rejects_bad_maps():
    model = _model21()
    singular = Matrix.from_rows([[1, 0, 0], [0, 1, 1], [0, 1, 1]])
    with pytest.raises(ValueError):
        make_filtered_from_graded(model, singular)
    # a degree -1 column leaking into the degree -2 coordinate
    leaking = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        make_filtered_from_graded(model, leaking)


def test_filtration_must_decrease():
    small = Subspace.span(2, [(1, 0)])
    with pytest.raises(ValueError):
        FilteredSpace.make(-1, [small, Subspace.full(2)])
    with pytest.raises(ValueError):
        FilteredSpace.make(-1, [Subspace.full(2), small, Subspace.span(2, [(0, 1)])])


def test_quotient_coordinates_round_trip():
    _, _, space, _ = _fixture()
    for i, m in [(-2, 1), (-2, 2), (-1, 1)]:
        for c in range(space.quotient_dim(i, m)):
            coords = tuple(Fraction(1 if j == c else 0)
                           for j in range(space.quotient_dim(i, m)))
            rep = space.quotient_lift(coords, i, m)
            assert space.quotient_of(rep, i, m) == coords


def test_quotient_of_rejects_vectors_outside_the_space():
    model = _model21()
    space, _ = make_filtered_from_graded(model, Matrix.identity(3))
    # V_{-1} is spanned by e2, e3
    with pytest.raises(ValueError):
        space.quotient_of((1, 0, 0), -1, 1)
    with pytest.raises(ValueError):
        space.quotient_of((1, 0, 0), -1, 2)
    assert space.quotient_of((0, 3, 0), -1, 1) == (3, 0)


def _fresh_quotient_of(space, v, i, m):
    """V_i/V_{i+m} coordinates by a solve on the stacked basis, no cache."""
    mod = space.part(i + m)
    comp = complement(mod, space.part(i))
    coeffs = solve(mod.basis.stack(comp.basis).transpose(), Matrix.from_rows([v]).transpose())
    assert coeffs is not None
    return coeffs.col(0)[mod.dim:]


def _fresh_quotient_lift(space, coords, i, m):
    comp = complement(space.part(i + m), space.part(i))
    out = [Fraction(0)] * space.ambient_dim
    for c, row in zip(coords, comp.basis.entries):
        out = [a + c * b for a, b in zip(out, row)]
    return tuple(out)


def _random_filtration(rng, dims):
    model = GradedSpace.from_dims(dims)
    space, _ = make_filtered_from_graded(model, tanaka.selftest._random_triangular(rng, model))
    return space


def _random_vector_in(rng, sub):
    out = [Fraction(0)] * sub.ambient_dim
    for row in sub.basis.entries:
        c = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        out = [a + c * b for a, b in zip(out, row)]
    return tuple(out)


@pytest.mark.parametrize("seed", range(6))
def test_cached_quotient_maps_agree_with_a_fresh_solve(seed):
    rng = random.Random(seed)
    dims = rng.choice(({-3: 1, -2: 1, -1: 2}, {-2: 2, -1: 2}, {-1: 1, 0: 1, 1: 2},
                       {-3: 2, -1: 1, 0: 1}))
    space = _random_filtration(rng, dims)
    lo, hi = space.low, space.high
    steps = [(i, m) for i in range(lo - 1, hi + 2) for m in range(1, hi - lo + 3)]
    for i, m in steps:
        for _ in range(3):
            v = _random_vector_in(rng, space.part(i))
            assert space.quotient_of(v, i, m) == _fresh_quotient_of(space, v, i, m)
    for a, ma in steps:
        for b, mb in steps:
            if b > a or b + mb > a + ma:
                continue
            t = space.transfer(a, ma, b, mb)
            assert t.shape == (space.quotient_dim(b, mb), space.quotient_dim(a, ma))
            x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(t.cols))
            lifted = _fresh_quotient_lift(space, x, a, ma)
            assert space.quotient_lift(x, a, ma) == lifted
            assert t.apply(x) == _fresh_quotient_of(space, lifted, b, mb)
            assert space.transfer(a, ma, b, mb) is t  # built once


def test_projection_at_the_same_degree_is_identity():
    model, t, space, u = _fixture()
    h = _column_gradation(space, model, t)
    q = project_gradation(h, 2)
    assert project_quasi(q, 2) == q
    with pytest.raises(ValueError):
        project_quasi(q, 3)
    with pytest.raises(ValueError):
        project_quasi(q, 0)


def test_degree_one_quasi_gradation_is_the_filtration():
    model, t, space, u = _fixture()
    h = _column_gradation(space, model, t)
    q1 = project_gradation(h, 1)
    for i, part in q1.parts:
        assert part == space.part(i)


def test_projection_is_plain_subspace_arithmetic():
    model, t, space, u = _fixture()
    h = _column_gradation(space, model, t)
    q = project_gradation(h, 2)
    for i, part in q.parts:
        assert part == h.part(i).add(space.part(i + 2))


def test_quasi_gradation_axioms_are_enforced():
    model, t, space, u = _fixture()
    # degree-2 data claiming degree 1 violates axiom b)
    h = _column_gradation(space, model, t)
    bad = {i: h.part(i) for i in (-2, -1)}
    with pytest.raises(ValueError):
        QuasiGradation.make(space, 1, bad)
    with pytest.raises(ValueError):
        AdaptedGradation.make(space, {-2: space.part(-1), -1: space.part(-1)})


def _identity_chain3():
    """Coordinate filtration of Q^3 with one basis vector per degree -3, -2, -1."""
    model = GradedSpace.from_dims({-3: 1, -2: 1, -1: 1})
    space, _ = make_filtered_from_graded(model, Matrix.identity(3))
    return space


def test_quasi_gradation_parts_must_contain_the_deeper_step():
    space = _identity_chain3()
    e2, e3 = Subspace.span(3, [(0, 1, 0)]), Subspace.span(3, [(0, 0, 1)])
    good = {-3: Subspace.span(3, [(1, 0, 0), (0, 0, 1)]), -2: e2, -1: e3}
    assert QuasiGradation.make(space, 2, good).degree == 2
    # right dimension and H'^-3 + V_-2 = V_-3, but V_-1 = span(e3) is not inside
    bad = {**good, -3: Subspace.span(3, [(1, 0, 0), (0, 1, 0)])}
    with pytest.raises(ValueError, match="V_-1"):
        QuasiGradation.make(space, 2, bad)
    # contains V_-1 but is too big: the intersection with V_-2 is all of V_-2
    with pytest.raises(ValueError, match="V_-1"):
        QuasiGradation.make(space, 2, {**good, -3: Subspace.full(3)})


def test_a_memoised_sum_does_not_answer_for_another_part():
    """span(e3) passes the dimension test at degree -2 but misses e2: the

    good part's sum, memoised at that degree, must not let it through.
    """
    space = _identity_chain3()
    e2, e3 = Subspace.span(3, [(0, 1, 0)]), Subspace.span(3, [(0, 0, 1)])
    good = {-3: Subspace.span(3, [(1, 0, 0), (0, 0, 1)]), -2: e2, -1: e3}
    QuasiGradation.make(space, 2, good)
    assert space.sum_with(e2, -1) == space.part(-2)
    with pytest.raises(ValueError, match=r"H'\^-2 \+ V_-1 is not V_-2"):
        QuasiGradation.make(space, 2, {**good, -2: e3})


@pytest.mark.parametrize("seed", range(4))
def test_a_memoised_sum_equals_a_fresh_one(seed):
    """On the selftest's fixtures, every h + V_j read from a space's memo

    is the sum Subspace.add computes afresh.
    """
    rng = random.Random(seed)
    for _ in range(10):
        model, t, m, p, *_ = tanaka.selftest._draw_case(rng)
        space, _ = make_filtered_from_graded(model, t)
        h = tanaka.selftest._gradation_from_columns(space, model, t)
        q_full = project_gradation(h, space.full_degree)
        for g in (h, project_gradation(h, m), q_full, project_quasi(q_full, p)):
            for _, part in g.parts:
                for j in range(space.low - 1, space.high + 3):
                    total = space.sum_with(part, j)
                    assert space.sum_with(part, j) is total  # a memo hit
                    assert total == part.add(space.part(j))


def _accepts(make, *args):
    try:
        make(*args)
    except ValueError:
        return False
    return True


def _is_direct_complement(space, parts):
    """V_i = H^i direct sum V_{i+1} at every degree, checked by dimensions and sums."""
    return all(h.dim + space.part(i + 1).dim == space.part(i).dim
               and h.add(space.part(i + 1)) == space.part(i) for i, h in parts.items())


def _perturbed(rng, space, parts):
    """parts with one basis row of one part replaced: moved within its class

    modulo V_{i+1} (still a complement), or by a vector of V_{i+1}, of V_i,
    or of the ambient space (usually not).
    """
    i = rng.choice(sorted(parts))
    rows = [list(row) for row in parts[i].basis.entries]
    if not rows:
        return parts
    r = rng.randrange(len(rows))
    kind = rng.choice(("shift", "deeper", "within", "ambient"))
    source = {"shift": space.part(i + 1), "deeper": space.part(i + 1),
              "within": space.part(i), "ambient": Subspace.full(space.ambient_dim)}[kind]
    v = _random_vector_in(rng, source)
    rows[r] = [a + b for a, b in zip(rows[r], v)] if kind == "shift" else list(v)
    return {**parts, i: Subspace.span(space.ambient_dim, rows)}


@pytest.mark.parametrize("seed", range(4))
def test_adapted_gradation_is_the_full_degree_quasi_gradation(seed):
    """AdaptedGradation.make accepts exactly what QuasiGradation.make does at

    the full degree, and both agree with the direct-sum definition, on the
    selftest fixtures and on their parts with one row perturbed.
    """
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(25):
        model = GradedSpace.from_dims(rng.choice(tanaka.selftest.MODEL_SHAPES))
        t = tanaka.selftest._random_triangular(rng, model)
        space, _ = make_filtered_from_graded(model, t)
        h = tanaka.selftest._gradation_from_columns(space, model, t)
        for parts in (dict(h.parts), _perturbed(rng, space, dict(h.parts))):
            adapted = _accepts(AdaptedGradation.make, space, parts)
            assert adapted == _accepts(QuasiGradation.make, space, space.full_degree, parts)
            assert adapted == _is_direct_complement(space, parts)
            outcomes.add(adapted)
    assert outcomes == {True, False}


def test_graded_frame_rejects_stray_blocks():
    model = _model21()
    space, u = make_filtered_from_graded(model, Matrix.identity(3))
    blocks = {-2: Matrix.identity(1), -1: Matrix.identity(2)}
    assert GradedFrame.make(space, model, blocks) == u
    with pytest.raises(ValueError, match="without model component"):
        GradedFrame.make(space, model, {**blocks, 5: Matrix.from_rows([[7]])})
    # a degree inside the range where gr(V) vanishes
    gap = GradedSpace.from_dims({-3: 1, -1: 1})
    gap_space, gap_frame = make_filtered_from_graded(gap, Matrix.identity(2))
    gap_blocks = {-3: Matrix.identity(1), -1: Matrix.identity(1)}
    assert GradedFrame.make(gap_space, gap, gap_blocks) == gap_frame
    with pytest.raises(ValueError, match="without model component"):
        GradedFrame.make(gap_space, gap, {**gap_blocks, -2: Matrix.from_rows([[1]])})


def test_identity_fixture_lift_blocks_are_inclusions():
    model = _model21()
    space, u = make_filtered_from_graded(model, Matrix.identity(3))
    h = _column_gradation(space, model, Matrix.identity(3))
    q = project_gradation(h, 1)
    f = mlift_of_quasi(q, u)
    for i in model.degrees:
        assert f.block(i) == Matrix.identity(model.dim(i))


def test_full_degree_lift_reproduces_the_gradation():
    model, t, space, u = _fixture()
    h = _column_gradation(space, model, t)
    f = full_lift(h, u)
    assert f.degree == space.full_degree
    assert gradation_of_quasi(quasi_of_mlift(f, u)) == h
    with pytest.raises(ValueError):
        gradation_of_quasi(project_quasi(quasi_of_mlift(f, u), 1))


def test_lift_must_project_onto_the_frame():
    model = _model21()
    space, u = make_filtered_from_graded(model, Matrix.identity(3))
    with pytest.raises(ValueError):
        MLift.make(u, 1, {-2: Matrix.from_rows([[2]]),
                          -1: Matrix.identity(2)})


def test_identity_acts_trivially():
    model, t, space, u = _fixture()
    h = _column_gradation(space, model, t)
    f = mlift_of_quasi(project_gradation(h, 2), u)
    assert act_quasi(f, GradedMap.identity(model)) == f


def _degree_one_action(model, entries):
    block = HomogeneousMap.make(model, model, 1, {-2: Matrix.from_rows(entries)})
    return GradedMap.make(model, model,
                          {0: GradedMap.identity(model).part(0), 1: block})


def test_degree_at_least_m_parts_do_not_move_the_lift():
    model, t, space, u = _fixture()
    h = _column_gradation(space, model, t)
    f = mlift_of_quasi(project_gradation(h, 1), u)
    a = _degree_one_action(model, [[3], [-2]])
    assert act_quasi(f, a) == f


def test_action_requires_identity_degree_zero_part():
    model, t, space, u = _fixture()
    f = full_lift(_column_gradation(space, model, t), u)
    doubled = GradedMap.make(
        model, model,
        {0: GradedMap.identity(model).part(0).scale(2)})
    with pytest.raises(ValueError):
        act_quasi(f, doubled)


def test_transition_of_equal_lifts_is_the_identity_class():
    model, t, space, u = _fixture()
    f = full_lift(_column_gradation(space, model, t), u)
    assert transition(f, f).is_identity()


def test_transition_recovers_the_acting_class():
    model, t, space, u = _fixture()
    h = _column_gradation(space, model, t)
    f = full_lift(h, u)
    a = _degree_one_action(model, [[1], [4]])
    b = transition(f, act_quasi(f, a))
    assert b.part(1) == a.part(1)
    assert act_quasi(f, b) == act_quasi(f, a)


def test_degree_one_transition_is_trivial():
    model, t, space, u = _fixture()
    h = _column_gradation(space, model, t)
    f1 = mlift_of_quasi(project_gradation(h, 1), u)
    assert transition(f1, f1).is_identity()


def test_transition_reapplies_the_action():
    model, t, space, u = _fixture()
    f1 = full_lift(_column_gradation(space, model, t), u)
    # built without MLift.make: the degree -1 block no longer projects onto
    # the frame, which only re-applying the solved class can see
    bad = MLift(f1.frame, f1.degree,
                tuple((i, b.scale(2) if i == -1 else b) for i, b in f1.blocks))
    with pytest.raises(ValueError, match="no transition"):
        transition(f1, bad)


def test_compatibility_detects_the_fiber():
    model, t, space, u = _fixture()
    h = _column_gradation(space, model, t)
    q = project_gradation(h, 1)
    assert is_compatible(h, q, u)
    a = _degree_one_action(model, [[1], [0]])
    moved = gradation_of_quasi(quasi_of_mlift(act_quasi(full_lift(h, u), a), u))
    assert moved != h
    # a degree >= 1 move stays inside the fiber of the 1-projection
    assert is_compatible(moved, q, u)
    assert not is_compatible(moved, project_gradation(h, 2), u) \
        or project_gradation(moved, 2) == project_gradation(h, 2)


def test_seeded_property_suite_passes():
    report = run_filtered_suite(seed=20240811, cases=200)
    assert report.cases == 200
    assert report.checks >= 200
    assert report.failures == ()


def test_suite_failures_name_the_seed(monkeypatch):
    monkeypatch.setattr(tanaka.selftest, "_parts_below", lambda b, m: ("bogus",))
    report = run_filtered_suite(seed=3, cases=1)
    assert report.failures == (
        "seed 3 case 0 (same projection implies transition in degrees >= m)",)
    # every case fails once; the report keeps the first 25, in case order,
    # whichever process checked them
    report = run_filtered_suite(seed=3, cases=200)
    assert report.failures == tuple(
        f"seed 3 case {k} (same projection implies transition in degrees >= m)"
        for k in range(25))


@pytest.fixture(autouse=True)
def no_process_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def one_cpu():
    """This process pinned to one of its CPUs, so the suite runs in it alone."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


@contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in this process if the block runs past seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("seed", [5, 7, 11, 20240811])
def test_report_is_the_same_on_one_cpu_and_on_all(seed):
    with one_cpu():
        alone = run_filtered_suite(seed)
    shared = run_filtered_suite(seed)
    assert shared == alone and repr(shared) == repr(alone)


def test_more_processes_than_cpus_give_the_same_report(monkeypatch):
    with one_cpu():
        alone = [run_filtered_suite(seed=13, cases=n) for n in (3, 23)]
    monkeypatch.setattr(tanaka.selftest, "_processes", lambda cases: min(5, cases))
    with deadline(60):
        assert [run_filtered_suite(seed=13, cases=n) for n in (3, 23)] == alone


def test_a_raising_case_raises_what_the_case_order_raises_first(monkeypatch):
    """transition raises from case 1 on, naming the case: the call raises

    case 1's error, though another process may check case 1 and this
    one case 2.
    """
    rng = random.Random(17)
    frames = [make_filtered_from_graded(*tanaka.selftest._draw_case(rng)[:2])[1]
              for _ in range(3)]
    assert len(set(frames)) == 3
    real = tanaka.selftest.transition

    def transition(f, g):
        if f.frame in frames[1:]:
            raise ValueError(f"case {frames.index(f.frame)}")
        return real(f, g)

    monkeypatch.setattr(tanaka.selftest, "transition", transition)
    for cases in (3, 200):
        with deadline(60), pytest.raises(ValueError, match="^case 1$"):
            run_filtered_suite(seed=17, cases=cases)
        with one_cpu(), pytest.raises(ValueError, match="^case 1$"):
            run_filtered_suite(seed=17, cases=cases)


def test_a_broken_transition_fails_the_suite_without_hanging(monkeypatch):
    def transition(f, g):
        raise ArithmeticError("transition is broken")

    monkeypatch.setattr(tanaka.selftest, "transition", transition)
    with deadline(60), pytest.raises(ArithmeticError, match="transition is broken"):
        run_filtered_suite(seed=5)


def test_a_worker_ending_without_a_reply_makes_the_call_raise(monkeypatch):
    parent = os.getpid()
    check_cases = tanaka.selftest._check_cases

    def vanish(seed, indices):
        if os.getpid() != parent:
            os._exit(0)
        return check_cases(seed, indices)

    def killed(seed, indices):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return check_cases(seed, indices)

    monkeypatch.setattr(tanaka.selftest, "_processes", lambda cases: min(3, cases))
    for end in (vanish, killed):
        monkeypatch.setattr(tanaka.selftest, "_check_cases", end)
        with deadline(60), pytest.raises(RuntimeError, match="without a reply"):
            run_filtered_suite(seed=5, cases=9)


def test_workers_are_killed_when_this_process_raises(monkeypatch):
    parent = os.getpid()

    class Interrupted(BaseException):
        pass

    def stuck(seed, indices):
        if os.getpid() != parent:
            time.sleep(120)
            os._exit(0)
        raise Interrupted

    monkeypatch.setattr(tanaka.selftest, "_processes", lambda cases: min(3, cases))
    monkeypatch.setattr(tanaka.selftest, "_check_cases", stuck)
    start = time.monotonic()
    with deadline(60), pytest.raises(Interrupted):
        run_filtered_suite(seed=5, cases=9)
    assert time.monotonic() - start < 30


def test_the_queue_holds_more_indices_than_a_pipe(monkeypatch):
    """40,000 four-byte indices outgrow a pipe's 64 KiB: the call still

    returns the sequential report, each case checked once, with its
    own draw.
    """
    monkeypatch.setattr(tanaka.selftest, "_draw_case", lambda rng: rng.random())
    monkeypatch.setattr(tanaka.selftest, "_check_case",
                        lambda drawn: [(f"law {int(drawn * 3)}", drawn > 0.001)])
    monkeypatch.setattr(tanaka.selftest, "_processes", lambda cases: 1)
    alone = run_filtered_suite(seed=23, cases=40_000)
    assert alone.checks == 40_000 and len(alone.failures) == 25
    monkeypatch.setattr(tanaka.selftest, "_processes", lambda cases: min(3, cases))
    with deadline(60):
        assert run_filtered_suite(seed=23, cases=40_000) == alone
