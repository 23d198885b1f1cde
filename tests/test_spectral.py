import cmath
import dataclasses
import gc
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import (ClosureOverflowError, greedy_eigen_tracking,
                     group_closure, jacobian_by_sets, random_set_system,
                     sequential_track_wheel)
from setfield import (SetSystem, eigenvalues, field_matrices, generate,
                      group_order, monodromy_report, presentations, spectral,
                      track_wheel, wheel_permutations)
from setfield.connection import explicit_field, random_field, roots_field
from setfield.scalars import COMPLEX
from setfield.setsystem import random_complex
from setfield.spectral import (SpectralPath, TrackingAmbiguityError,
                               format_cycles, path_permutation, perm_compose,
                               perm_cycles, perm_order, raw_winding_increments,
                               wheel_matrices, wheel_permutation)

ZERO_DIM = SetSystem([[1], [2]])
DIAG_FIELD = explicit_field([1 + 0j, 2 + 0j])


def test_eigenvalues_of_diagonal():
    got = sorted(eigenvalues(np.diag([3 + 0j, -1j, 2 + 2j])),
                 key=lambda z: (z.real, z.imag))
    want = sorted([3 + 0j, -1j, 2 + 2j], key=lambda z: (z.real, z.imag))
    assert np.allclose(got, want)


def test_eigenvalues_of_counting_edge(K2):
    # frozen roots of (q - 1)(q^2 - 4q + 1), the characteristic polynomial
    # of L for the constant field 1 on a single edge complex
    fm = field_matrices(K2, explicit_field([1 + 0j] * 3))
    got = np.sort(eigenvalues(fm.L[0].astype(complex)).real)
    want = np.sort([1.0, 2.0 - math.sqrt(3.0), 2.0 + math.sqrt(3.0)])
    assert np.allclose(got, want, atol=1e-9)


def test_eigenvalues_of_companion_matrix():
    # companion of (q - 2)(q - 3i) = q^2 - (2 + 3i) q + 6i
    C = [[0, -6j], [1, 2 + 3j]]
    got = sorted(eigenvalues(C), key=lambda z: (z.real, z.imag))
    assert np.allclose(got, [3j, 2 + 0j])


def test_stacked_eigenvalues_equal_single_solves():
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(5, 6, 6)) + 1j * rng.normal(size=(5, 6, 6))
    got = eigenvalues(stack)
    for k in range(5):
        assert got[k].tobytes() == eigenvalues(stack[k]).tobytes()
    with pytest.raises(ValueError):
        eigenvalues(np.ones((2, 3, 4)))
    stack[3, 1, 2] = np.nan
    with pytest.raises(ValueError):
        eigenvalues(stack)


def test_eigenvalues_rejects_nonfinite():
    with pytest.raises(ValueError):
        eigenvalues([[np.inf, 0], [0, 1]])
    with pytest.raises(ValueError):
        eigenvalues([[1, 2, 3], [4, 5, 6]])


def test_track_wheel_diagonal_case():
    path = track_wheel(ZERO_DIM, DIAG_FIELD, 0, steps=200)
    perm = path_permutation(path)
    assert perm == (0, 1)
    winds = wheel_permutation(path).windings
    assert winds == (1, 0)
    radii = np.abs(path.values[:, 0])
    assert np.allclose(radii, 1.0, atol=1e-9)  # unit circle
    assert np.allclose(path.values[:, 1], 2.0, atol=1e-9)  # frozen eigenvalue


def test_track_wheel_requires_complex(K2):
    with pytest.raises(ValueError):
        track_wheel(K2, explicit_field([1.0, 1.0, 1.0]), 0)


def test_track_wheel_rejects_zero_field():
    with pytest.raises(ValueError):
        track_wheel(ZERO_DIM, explicit_field([0j, 1 + 0j]), 0)


def test_matrix_returns_after_full_turn(K3):
    h = roots_field(K3, 7)
    path = track_wheel(K3, h, 3, steps=500)
    start = np.sort_complex(path.values[0])
    end = np.sort_complex(path.values[-1])
    assert np.allclose(start, end, atol=1e-8)


def test_eigenvalue_product_tracks_determinant(K3):
    # along the deformation the product of eigenvalues is e^{it} prod(h)
    h = roots_field(K3, 7)
    wheel = 2
    path = track_wheel(K3, h, wheel, steps=500)
    prod_h = np.prod(np.asarray(h.values))
    for idx in (0, 125, 250, 400, path.steps):
        t = path.ts[idx]
        want = cmath.exp(1j * t) * prod_h
        got = np.prod(path.values[idx])
        assert abs(got - want) < 1e-8 * abs(want)


def test_raw_windings_sum_to_one_per_wheel(K3):
    h = roots_field(K3, 7)
    for wheel in range(3):
        path = track_wheel(K3, h, wheel, steps=500)
        raw = raw_winding_increments(path)
        assert abs(raw.sum() - 1.0) < 1e-3
        assert sum(wheel_permutation(path).windings) == 1


def test_winding_rejects_fractional_loop():
    # a lone label spiraling half a turn cannot report an integer winding
    ts = np.linspace(0.0, 2 * math.pi, 51)
    vals = np.exp(0.5j * ts)[:, None]
    path = SpectralPath(0, ts, vals, 50)
    with pytest.raises(ValueError, match="not an integer"):
        wheel_permutation(path)


def test_constant_path_winds_zero():
    ts = np.linspace(0.0, 2 * math.pi, 11)
    vals = np.full((11, 1), 2.0 + 1.0j)
    path = SpectralPath(0, ts, vals, 10)
    assert wheel_permutation(path).windings == (0,)


def _brute_force_matching(prev, new):
    """The permutation p of least total distance |prev[i] - new[p[i]]|."""
    n = len(prev)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    totals = np.abs(prev[None, :] - new[perms]).sum(axis=1)
    return tuple(perms[totals.argmin()].tolist()), totals


def test_ambiguous_end_match_takes_the_minimum_cost_permutation():
    start = np.array([0.0, 1.0, 10.0], dtype=complex)

    def end_match(end):
        return path_permutation(SpectralPath(
            0, np.array([0.0, 2 * math.pi]), np.stack([start, end]), 1))

    # labels 0 and 1 end nearest the same start value: no match is read off
    with pytest.raises(TrackingAmbiguityError, match="wheel 0 ended with two"):
        end_match(np.array([0.9, 0.8, 10.0], dtype=complex))
    # close, but each label has its own nearest start value
    end = np.array([0.9, 0.3, 10.0], dtype=complex)
    assert end_match(end) == _brute_force_matching(end, start)[0] == (1, 0, 2)


def test_greedy_match_that_passes_is_the_minimum_cost_matching():
    """The fact the tracker rests on: where no two labels pick one eigenvalue
    and every move is at most half the gap around its target, the greedy
    match is the brute-force minimum-cost matching; and where that minimum
    passes the half-gap test, the greedy match passes too."""
    rng = np.random.default_rng(37)
    passed = collided = 0
    for t in range(1500):
        n = 1 + t % 7
        prev = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        scale = 10.0 ** rng.uniform(-3, 0.5)
        new = prev + scale * (rng.standard_normal(n)
                              + 1j * rng.standard_normal(n))
        if n > 1 and t % 3 == 0:  # two eigenvalues all but collide
            i, j = rng.choice(n, 2, replace=False)
            new[j] = new[i] + 1e-6 * (rng.standard_normal()
                                      + 1j * rng.standard_normal())
        cols, best, hit = spectral._greedy_match(prev, new)
        gaps = np.abs(new[:, None] - new[None, :])
        np.fill_diagonal(gaps, np.inf)
        gaps = gaps.min(axis=0)
        want, totals = _brute_force_matching(prev, new)
        assert (totals == totals.min()).sum() == 1
        greedy_passes = not hit and (best <= 0.5 * gaps[cols]).all()
        optimum_passes = (np.abs(new[list(want)] - prev)
                          <= 0.5 * gaps[list(want)]).all()
        assert greedy_passes == optimum_passes, (prev, new)
        if greedy_passes:
            assert tuple(cols.tolist()) == want, (prev, new)
            passed += 1
        collided += bool(hit)
    assert passed >= 500 and collided >= 200


def test_each_wheel_matches_its_end_to_its_start_once(K3, monkeypatch,
                                                      capsys):
    from setfield.cli import main

    calls = []
    match = spectral.path_permutation

    def counting(path):
        calls.append(path.wheel)
        return match(path)

    monkeypatch.setattr(spectral, "path_permutation", counting)
    wheel_permutations(K3, roots_field(K3, 7), steps=500)
    assert calls == list(range(7))
    calls.clear()
    assert main(["phase", "--inline", "{{1,2,3}}", "--closure", "--field",
                 "roots:7", "--steps", "500"]) == 0
    assert calls == list(range(7))


def test_wheel_matrices_match_built_L():
    rng = random.Random(23)
    for n in [1] + [rng.randint(2, 16) for _ in range(10)]:
        system = random_set_system(rng, n)
        h = random_field(system, COMPLEX, rng)
        wheel = rng.randrange(n)
        L_at = wheel_matrices(system, np.array(h.values), wheel)
        for t in (0.0, 1.3, 4.0):
            values = list(h.values)
            values[wheel] *= cmath.exp(1j * t)
            turned = dataclasses.replace(h, values=values)
            want = field_matrices(system, turned).L[0].astype(complex)
            assert np.abs(L_at(t) - want).max() <= 1e-12


def test_permutations_match_reference_greedy_oracle(K3):
    h = roots_field(K3, 7)
    n = len(K3)
    J = jacobian_by_sets(K3).astype(complex)

    def L_of(vec):
        return (J @ vec).reshape(n, n)

    perms = wheel_permutations(K3, h, steps=500)
    for wheel in (0, 3, 6):
        oracle = greedy_eigen_tracking(L_of, h.values, wheel, 2000)
        assert perms[wheel].perm == oracle


def test_permutations_stable_under_step_doubling(K3):
    h = roots_field(K3, 7)
    p500 = [w.perm for w in wheel_permutations(K3, h, steps=500)]
    p1000 = [w.perm for w in wheel_permutations(K3, h, steps=1000)]
    assert p500 == p1000


def test_zero_dimensional_wheels_are_trivial():
    system = SetSystem([[1], [2], [3]])
    h = explicit_field([1 + 0j, 2 + 0j, 3j])
    perms = wheel_permutations(system, h, steps=200)
    assert all(w.perm == (0, 1, 2) for w in perms)
    # labels sort by (re, im), so 3j is label 0 and the diagonal entries
    # 1 and 2 are labels 1 and 2; each wheel winds exactly its own eigenvalue
    assert [w.windings for w in perms] == [(0, 1, 0), (0, 0, 1), (1, 0, 0)]


def _count_solves(monkeypatch):
    """A list that grows by the number of matrices each eigenvalue call of
    the tracker solves."""
    solved = []
    solve = spectral.eigenvalues
    monkeypatch.setattr(spectral, "eigenvalues", lambda M: solved.append(
        math.prod(np.shape(M)[:-2])) or solve(M))
    return solved


def test_tracking_ambiguity_error_on_exact_collisions(monkeypatch):
    # roots of unity on a diagonal matrix force true eigenvalue collisions;
    # the eigenvalue turned by wheel 0 meets another at t = 2pi/3
    system = SetSystem([[1], [2], [3]])
    h = roots_field(system, 3)
    solved = _count_solves(monkeypatch)
    # the last attempt names the start of its first ambiguous step
    with pytest.raises(TrackingAmbiguityError, match="wheel 0 stayed "
                       "ambiguous near t = 2.0923 at 8000 steps; two "
                       "eigenvalues meet or nearly meet there"):
        track_wheel(system, h, 0, steps=500)
    # each of the five attempts solves the circle up to the chunk that fails
    assert sum(solved) > 2000


def test_wheel_permutations_leave_no_reference_cycles():
    # a cycle would hold its arrays until the cyclic collector runs
    system = generate([[1, 2, 3, 4]])
    h = roots_field(system, 15)
    gc.collect()
    gc.disable()
    try:
        wheel_permutations(system, h)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_secular_path_solves_one_spectrum_per_system(monkeypatch,
                                                     tracked_wheels):
    # every wheel of the worked cases is followed on the secular equation;
    # tracked by eigenvalues they take 3508, 5019 and 7523 matrices
    solved = _count_solves(monkeypatch)
    for gens, order in (([[1, 2, 3]], 7), ([[1, 2], [2, 3], [3, 4], [5, 6]], 10),
                        ([[1, 2, 3, 4]], 15)):
        system = generate(gens)
        solved.clear()
        wheel_permutations(system, roots_field(system, order), 500)
        assert solved == [1] and tracked_wheels == []


def test_wheel_permutations_peak_memory_on_full_4():
    # each wheel keeps its current labels and running angle sums, never a
    # (steps + 1) x n path
    system = generate([[1, 2, 3, 4]])
    h = roots_field(system, 15)
    wheel_permutations(system, h, 500)  # imports and caches, unmeasured
    tracemalloc.start()
    try:
        wheel_permutations(system, h, 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def _tracked_outcome(system, h, wheel, steps):
    """(permutation, windings) of track_wheel, or the type and message of
    its error."""
    try:
        wp = wheel_permutation(track_wheel(system, h, wheel, steps))
    except (TrackingAmbiguityError, ValueError) as exc:
        return type(exc), str(exc)
    return wp.perm, wp.windings


def test_secular_path_matches_the_eigenvalue_tracker_on_random_systems(
        monkeypatch):
    monkeypatch.setattr(spectral, "ADAPTIVE_DOUBLINGS", 2)  # 40 steps, up to 160
    followed = []
    follow = spectral._secular_permutations
    monkeypatch.setattr(spectral, "_secular_permutations", lambda *a: (
        followed.append(follow(*a)) or followed[-1]))
    rng = random.Random(31)
    certified = failed = 0
    for draw in range(210):
        if draw % 3 == 2:  # in general not closed under subsets
            system = random_set_system(rng, rng.randint(1, 10))
        else:
            system = random_complex(rng, max_generators=3, max_vertices=5,
                                    max_cardinality=3)
        if draw % 5 == 4:
            h = roots_field(system, 2 * len(system) + 1)
        else:
            h = random_field(system, COMPLEX, rng, unit=draw % 2 == 0)
        want = [_tracked_outcome(system, h, w, 40) for w in range(len(system))]
        errors = [w for w in want if isinstance(w[0], type)]
        followed.clear()
        try:
            got = [(wp.perm, wp.windings)
                   for wp in wheel_permutations(system, h, 40)]
        except (TrackingAmbiguityError, ValueError) as exc:
            got = (type(exc), str(exc))
        # the first wheel that fails decides the error, word for word
        assert got == (errors[0] if errors else want)
        for wp, tracked in zip(followed[0] if followed else [], want):
            if wp is not None:
                certified += 1
                assert (wp.perm, wp.windings) == tracked
        failed += len(errors)
    assert certified > 900 and failed > 200


def test_a_step_where_two_labels_pick_one_eigenvalue_fails_the_attempt():
    # labels 0 and 1 start 1e-3 apart and both land nearest 5e-4, each move
    # well within half the target's gap: only the collision fails the step
    ts = np.array([0.0, 1.0])
    solved = np.ones(2, dtype=bool)

    def no_solve(t):
        pytest.fail("every step is already solved")

    raw = np.array([[0, 1e-3, 5], [5e-4, 5, -5]], dtype=complex)
    assert spectral._track_once(no_solve, ts, raw, solved) == (None, 0)
    raw = np.array([[0, 1e-3, 5], [5, 1.1e-3, 1e-4]], dtype=complex)
    values, failed = spectral._track_once(no_solve, ts, raw, solved)
    assert failed is None
    assert values.tolist() == [[0, 1e-3, 5], [1e-4, 1.1e-3, 5]]


def _count_matches(monkeypatch):
    """A list that grows by one pair per attempt of the sequential oracle:
    whether it succeeded, and the number of its steps that
    oracles.match_step resolved by a full assignment (scipy's
    linear_sum_assignment)."""
    from scipy import optimize

    calls, used = [], []
    solve = optimize.linear_sum_assignment
    monkeypatch.setattr(optimize, "linear_sum_assignment",
                        lambda D: calls.append(1) or solve(D))
    track = oracles.track_once

    def counting(L_at, steps, base):
        before = len(calls)
        path = track(L_at, steps, base)
        used.append((path is not None, len(calls) - before))
        return path

    monkeypatch.setattr(oracles, "track_once", counting)
    return used


def _assert_path_matches_oracle(system, h, wheel, steps, oracle=True):
    """Same bits as the one-solve-per-step tracker, or the same failure, at
    the tracker's step cap; returns the steps used (None on failure).
    `oracle=False` skips that tracker, the slow part of the check."""
    try:
        path = track_wheel(system, h, wheel, steps)
    except TrackingAmbiguityError:
        path = None
    if oracle:
        want = sequential_track_wheel(system, h.values, wheel, steps,
                                      steps * 2 ** spectral.ADAPTIVE_DOUBLINGS)
        assert (path is None) == (want is None)
        if want is not None:
            assert path.steps == want[2]
            assert path.ts.tobytes() == want[0].tobytes()
            assert path.values.tobytes() == want[1].tobytes()
    return None if path is None else path.steps


def test_tracking_matches_sequential_oracle_on_worked_cases(monkeypatch):
    matches = _count_matches(monkeypatch)
    cases = [(generate([[1, 2, 3]]), 7, range(7)),
             (generate([[1, 2], [2, 3], [3, 4], [5, 6]]), 10, range(10)),
             # these full-4 wheels fail at 500 steps and retry up to 4000
             (generate([[1, 2, 3, 4]]), 15, (1, 5, 7))]
    used = []
    for system, order, wheels in cases:
        h = roots_field(system, order)
        used += [_assert_path_matches_oracle(system, h, w, 500) for w in wheels]
    assert max(used) == 4000 and sum(u > 500 for u in used) >= 5
    assert 500 in used  # a wheel with no ambiguous step
    # the oracle's assignment ran here, in attempts that fail both ways
    assert any(count for _, count in matches)


def test_tracking_matches_sequential_oracle_on_random_systems(monkeypatch):
    matches = _count_matches(monkeypatch)
    monkeypatch.setattr(spectral, "ADAPTIVE_DOUBLINGS", 2)  # 40 steps, up to 160
    rng = random.Random(29)
    used = []
    for draw in range(200):
        if draw % 3 == 2:  # in general not closed under subsets
            system = random_set_system(rng, rng.randint(1, 10))
        else:
            system = random_complex(rng, max_generators=3, max_vertices=5,
                                    max_cardinality=3)
        h = random_field(system, COMPLEX, rng, unit=draw % 2 == 0)
        used += [_assert_path_matches_oracle(system, h, w, 40,
                                             oracle=draw < 48)
                 for w in range(len(system))]
    assert any(u is not None and u > 40 for u in used)
    assert None in used  # some wheels fail at every step count
    # the oracle's full assignment decided steps of successful attempts, and
    # the greedy-only tracker still gave the same bits there
    assert any(count for succeeded, count in matches if succeeded)


def test_track_wheel_rejects_steps_below_one(K3):
    h = roots_field(K3, 7)
    for steps in (0, -5):
        with pytest.raises(ValueError, match="steps must be at least 1"):
            track_wheel(K3, h, 0, steps)


def test_group_closure_basics():
    assert group_closure([(0, 1, 2)])[0] == 1
    klein = [(1, 0, 2, 3), (0, 1, 3, 2)]
    order, elements = group_closure(klein)
    assert order == 4
    assert (1, 0, 3, 2) in elements
    with pytest.raises(RuntimeError):
        big = tuple(list(range(1, 13)) + [0])
        group_closure([big], cap=5)


def test_closure_overflow_error_names_its_cap():
    big = tuple(list(range(1, 13)) + [0])
    with pytest.raises(ClosureOverflowError) as info:
        group_closure([big], cap=5)
    assert isinstance(info.value, RuntimeError) and info.value.cap == 5
    assert "group closure exceeded cap 5" in str(info.value)


def _cycle(degree, points):
    p = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        p[a] = b
    return tuple(p)


def _random_generators(rng, degree):
    """One to four permutations; half the sets are short cycles, which keep
    the generated group small."""
    gens = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            gens.append(_cycle(degree, rng.sample(range(degree),
                                                  min(degree, rng.randint(1, 3)))))
        else:
            p = list(range(degree))
            rng.shuffle(p)
            gens.append(tuple(p))
    return gens


def test_group_order_matches_closure():
    rng = random.Random(41)
    cap = 20000
    exact = 0
    for _ in range(240):
        gens = _random_generators(rng, rng.randint(1, 9))
        order = group_order(gens)
        try:
            want = group_closure(gens, cap)[0]
        except ClosureOverflowError:
            assert order > cap
            continue
        assert order == want, gens
        exact += 1
    assert exact >= 200


def test_group_order_known_families():
    assert group_order([(0,)]) == 1
    assert group_order([(0, 1, 2), (0, 1, 2)]) == 1
    assert group_order([(1, 0, 2, 3), (0, 1, 3, 2)]) == 4  # Klein four
    for n in range(1, 13):
        rotation = _cycle(n, list(range(n)))
        reflection = tuple((-i) % n for i in range(n))
        assert group_order([rotation, reflection]) == (2 * n if n > 2 else n)
        swap = _cycle(n, [0, 1]) if n > 1 else (0,)
        assert group_order([rotation, swap]) == math.factorial(n)
        if n >= 3:
            three_cycles = [_cycle(n, [0, 1, k]) for k in range(2, n)]
            assert group_order(three_cycles) == math.factorial(n) // 2


def test_group_order_matches_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(43)
    for _ in range(30):
        degree = rng.randint(2, 30)
        gens = _random_generators(rng, degree)
        want = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g)) for g in gens]).order()
        assert group_order(gens) == want, gens


def test_group_order_rejects_bad_input():
    with pytest.raises(ValueError):
        group_order([])
    with pytest.raises(ValueError):
        group_order([(0, 1), (0, 1, 2)])


def test_full_simplex_group_order_past_any_closure():
    # the group of the full 4-vertex simplex with 15th roots has 14! elements
    system = generate([[1, 2, 3, 4]])
    report = monodromy_report(system, roots_field(system, 15))
    assert report.group_order == 87178291200 == math.factorial(14)
    assert report.relations_verified


def test_perm_utilities():
    p = (1, 2, 0, 4, 3)
    assert perm_cycles(p) == [(0, 1, 2), (3, 4)]
    assert perm_order(p) == 6
    assert format_cycles(p) == "(1 2 3)(4 5)"
    assert format_cycles((0, 1)) == "()"
    assert perm_compose(p, p) == (2, 0, 1, 3, 4)


def test_triangle_roots_group_order_36(K3):
    report = monodromy_report(K3, roots_field(K3, 7))
    assert report.group_order == 36
    assert report.relations_verified


def test_linear_complex_group_order_72(linear10):
    report = monodromy_report(linear10, roots_field(linear10, 10))
    assert report.group_order == 72


def test_group_order_invariant_under_global_phase(K3):
    phase = cmath.exp(0.7j)
    h = roots_field(K3, 7)
    rotated = explicit_field([phase * v for v in h.values])
    assert monodromy_report(K3, rotated).group_order == 36


def test_presentations_shapes():
    big, small = presentations([(0, 1, 2), (0, 1, 2), (0, 1, 2)])
    assert small.startswith("Z^3")
    assert "g1^1 = 1" in big
    big1, small1 = presentations([(0,)])
    assert small1.startswith("Z^1")


def test_presentation_uses_measured_orders(K3):
    report = monodromy_report(K3, roots_field(K3, 7))
    for w in report.generators:
        assert ("g%d^%d = 1" % (w.wheel + 1, w.order)) \
            in report.pi_big_presentation


def test_duplicate_and_multiwinding_surfaced(linear10):
    report = monodromy_report(linear10, roots_field(linear10, 10))
    # wheels 4 and 7 of the 10-element path complex produce one deformation
    assert isinstance(report.duplicate_wheels, list)
    assert isinstance(report.multi_winding_wheels, list)
