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
from oracles import (ClosureOverflowError, eigenvalues, greedy_eigen_tracking,
                     group_closure, jacobian_by_sets, path_permutation,
                     random_set_system, raw_winding_increments,
                     wheel_permutation)
from setfield import (SetSystem, field_matrices, generate, group_order,
                      monodromy_report, presentations, spectral,
                      wheel_permutations)
from setfield.connection import explicit_field, random_field, roots_field
from setfield.scalars import COMPLEX
from setfield.setsystem import random_complex
from setfield.spectral import (SpectralPath, TrackingAmbiguityError,
                               format_cycles, perm_compose, perm_cycles,
                               perm_order)

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


def _path(system, h, wheel, steps):
    """The labels of one wheel on the grid of `steps` intervals, as `phase`
    writes them."""
    return wheel_permutations(system, h, steps, [wheel], paths=True)[0].path


def test_track_wheel_diagonal_case():
    path = _path(ZERO_DIM, DIAG_FIELD, 0, 200)
    perm = path_permutation(path)
    assert perm == (0, 1)
    winds = wheel_permutation(path).windings
    assert winds == (1, 0)
    radii = np.abs(path.values[:, 0])
    assert np.allclose(radii, 1.0, atol=1e-9)  # unit circle
    assert np.allclose(path.values[:, 1], 2.0, atol=1e-9)  # frozen eigenvalue


def test_track_wheel_requires_complex(K2):
    with pytest.raises(ValueError):
        wheel_permutations(K2, explicit_field([1.0, 1.0, 1.0]), wheels=[0])


def test_track_wheel_rejects_zero_field():
    with pytest.raises(ValueError):
        wheel_permutations(ZERO_DIM, explicit_field([0j, 1 + 0j]), wheels=[0])


def test_matrix_returns_after_full_turn(K3):
    h = roots_field(K3, 7)
    path = _path(K3, h, 3, 500)
    start = np.sort_complex(path.values[0])
    end = np.sort_complex(path.values[-1])
    assert np.allclose(start, end, atol=1e-8)


def test_eigenvalue_product_tracks_determinant(K3):
    # along the deformation the product of eigenvalues is e^{it} prod(h)
    h = roots_field(K3, 7)
    wheel = 2
    path = _path(K3, h, wheel, 500)
    prod_h = np.prod(np.asarray(h.values))
    for idx in (0, 125, 250, 400, path.steps):
        t = path.ts[idx]
        want = cmath.exp(1j * t) * prod_h
        got = np.prod(path.values[idx])
        assert abs(got - want) < 1e-8 * abs(want)


def test_raw_windings_sum_to_one_per_wheel(K3):
    h = roots_field(K3, 7)
    for wheel in range(3):
        path = _path(K3, h, wheel, 500)
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


def test_one_step_fails_the_winding_sum():
    # det L is the product of the field values, so it turns once around 0
    # with each wheel and a wheel's windings sum to 1; one step from t = 0
    # straight to 2 pi never samples the circle and reads 0
    system = SetSystem([[1]])
    h = roots_field(system, 1)
    with pytest.raises(ValueError,
                       match=r"windings of wheel 0 sum to 0, not 1 "
                             r"\(steps = 1\)"):
        wheel_permutations(system, h, steps=1)
    assert [wp.windings for wp in wheel_permutations(system, h, steps=2)] \
        == [(1,)]


def _brute_force_matching(prev, new):
    """The permutation p of least total distance |prev[i] - new[p[i]]|."""
    n = len(prev)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    totals = np.abs(prev[None, :] - new[perms]).sum(axis=1)
    return tuple(perms[totals.argmin()].tolist()), totals


def test_ambiguous_end_match_takes_the_minimum_cost_permutation():
    start = np.array([0.0, 1.0, 10.0], dtype=complex)

    def end_match(end):
        return spectral._wheel_permutation(0, 3, np.arange(3), start, end,
                                           np.zeros(3), 1).perm

    # close, but each label has its own nearest start value
    end = np.array([0.9, 0.3, 10.0], dtype=complex)
    assert end_match(end) == _brute_force_matching(end, start)[0] == (1, 0, 2)


def test_two_end_labels_nearest_one_start_value_fail_the_wheel():
    # labels 0 and 1 end nearest the same start value: no match is read off
    start = np.array([0.0, 1.0, 10.0], dtype=complex)
    end = np.array([0.9, 0.8, 10.0], dtype=complex)
    with pytest.raises(TrackingAmbiguityError,
                       match="^eigenvalue tracking for wheel 4 ended with two "
                             "labels nearest one start value at 37 steps$"):
        spectral._wheel_permutation(4, 6, np.array([1, 2, 5]), start, end,
                                    np.zeros(3), 37)


def _second_block():
    """The labels and t=0 eigenvalues of the block of {3}, {4}, {3, 4} in
    the system generated by {1, 2} and {3, 4} under roots:13: the global
    labels 0, 1 and 3, which are not the block's own 0, 1 and 2."""
    system = generate([[1, 2], [3, 4]])
    _, mu, blocks = spectral._start(system, roots_field(system, 13), [2], 1)
    (_, labels, _), = [b for b in blocks if b[0] == [2, 3, 5]]
    assert labels.tolist() == [0, 1, 3]
    return len(mu), labels, mu[labels]


def test_a_fractional_cycle_names_its_global_labels():
    n, labels, start = _second_block()
    # the block's first and last labels trade places: the global cycle
    # (0 3), which block-local numbers would write (0 2)
    with pytest.raises(ValueError,
                       match=r"^winding of cycle \(0, 3\) is 0\.750000, not an "
                             r"integer"):
        spectral._wheel_permutation(2, n, labels, start, start[[2, 1, 0]],
                                    np.array([0.25, 0.0, 0.5]), 500)


def test_labels_outside_the_block_stay_fixed_with_winding_0():
    n, labels, start = _second_block()
    wp = spectral._wheel_permutation(2, n, labels, start, start[[2, 1, 0]],
                                     np.array([0.25, 0.0, 0.75]), 500)
    # the cycle's winding goes to its arc that turned most, label 3
    assert wp.perm == (3, 1, 2, 0, 4, 5) and wp.order == 2
    assert wp.windings == (0, 0, 0, 1, 0, 0)


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
        cols, best, hit = oracles.greedy_match(prev, new)
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
    match = spectral._wheel_permutation

    def counting(wheel, *args):
        calls.append(wheel)
        return match(wheel, *args)

    monkeypatch.setattr(spectral, "_wheel_permutation", counting)
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
        L_at = oracles.wheel_matrices(system, np.array(h.values), wheel)
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
    """A list that grows by the number of matrices each LAPACK eigen-solve
    (np.linalg.eig or np.linalg.eigvals, from the library or the oracle)
    solves."""
    solved = []
    for name in ("eig", "eigvals"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda M, solve=solve: (
            solved.append(math.prod(np.shape(M)[:-2])) or solve(M)))
    return solved


def test_tracking_ambiguity_error_on_exact_collisions(monkeypatch):
    # on {1}, {1,2} two eigenvalues of L coincide where 4 h(1)^2 + h(2)^2 = 0:
    # turning h(1) = 1 with h(2) = 2, at t = pi/2, inside the one block
    system = SetSystem([[1], [1, 2]])
    h = explicit_field([1 + 0j, 2 + 0j])
    solved = _count_solves(monkeypatch)
    meeting = ("wheel 0 stayed ambiguous near t = 1.5700 at 8000 steps; two "
               "eigenvalues meet or nearly meet there")
    # the step of 1/16 of a step that fails is named by its start
    with pytest.raises(TrackingAmbiguityError, match=meeting):
        wheel_permutations(system, h, 500)
    assert solved == [1]
    # the oracle tracker's last attempt names its first ambiguous step, the
    # same one, tracking the whole L(t) or its block
    for in_block in (False, True):
        solved.clear()
        with pytest.raises(TrackingAmbiguityError, match=meeting):
            oracles.track_wheel(system, h, 0, 500, in_block)
        # each of the five attempts solves the circle up to the chunk that
        # fails
        assert sum(solved) > 2000


@pytest.mark.parametrize("values, crossing", [
    ([cmath.exp(2j * math.pi * k / 3) for k in range(3)], 0),  # roots:3
    ([1 + 0j, 2 + 0j, 2j], 1),
    ([1 + 0.5j, 1 + 0.5j, 2 + 0j], 0)])
def test_crossings_between_blocks_are_not_branch_points(values, crossing):
    # each singleton of {1}, {2}, {3} is a comparability block, and L is
    # diagonal: the turned value crosses (roots:3, and 2 e^{it} = 2i) or
    # starts on (1 + 0.5i twice) another block's eigenvalue, which only the
    # whole-matrix tracker sees.  Tracked inside their blocks, every wheel
    # turns its own label once and permutes nothing
    system = SetSystem([[1], [2], [3]])
    h = explicit_field(values)
    got = wheel_permutations(system, h, 500)
    for wp in got:
        want = wheel_permutation(oracles.track_wheel(system, h, wp.wheel, 500,
                                                     in_block=True))
        assert (wp.perm, wp.windings) == (want.perm, want.windings)
        assert wp.perm == (0, 1, 2) and sorted(wp.windings) == [0, 0, 1]
    with pytest.raises(TrackingAmbiguityError, match="wheel %d" % crossing):
        oracles.track_wheel(system, h, crossing, 500)


def test_labels_and_poles_are_one_eig_of_the_field_matrices_L():
    # _start solves each comparability block's part of FieldMatrices' L(0)
    # once: all the blocks' eigenvalues in (re, im) order are both the
    # labels and the poles, and each block's V columns follow its labels.
    # A system of one block solves L(0) itself; on the worked cases the
    # labels are the first row phase writes
    rng = random.Random(7)
    cases = [(system, roots_field(system, order)) for system, order in (
        (generate([[1, 2, 3]]), 7), (generate([[1, 2, 3, 4]]), 15),
        (generate([[1, 2], [2, 3], [3, 4], [5, 6]]), 10))]
    for n in (1, 4, 9, 12):
        system = random_set_system(rng, n)
        cases.append((system, random_field(system, COMPLEX, rng)))
    system = SetSystem([[3], [1], [1, 2], [4, 5], [4]])
    cases.append((system, random_field(system, COMPLEX, rng)))
    split = 0
    for system, h in cases:
        h0, mu, blocks = spectral._start(system, h, [0], 500)
        assert h0.tobytes() == np.asarray(h.values, dtype=complex).tobytes()
        L0 = field_matrices(system, h).L[0].astype(complex)
        assert sorted(sum((m for m, _, _ in blocks), [])) == list(
            range(len(system)))
        assert mu.tobytes() == np.sort_complex(mu).tobytes()
        assert sorted(np.concatenate([lab for _, lab, _ in blocks])) == list(
            range(len(system)))
        for members, labels, V in blocks:
            assert members == oracles.comparability_block(
                system, members[0]).tolist()
            values, vectors = np.linalg.eig(L0[np.ix_(members, members)])
            order = np.argsort(values, kind="stable")
            assert mu[labels].tobytes() == values[order].tobytes()
            assert V.tobytes() == vectors[:, order].tobytes()
        if len(blocks) == 1:  # the eig of L(0) itself
            values, vectors = np.linalg.eig(L0)
            order = np.argsort(values, kind="stable")
            assert mu.tobytes() == values[order].tobytes()
            assert blocks[0][2].tobytes() == vectors[:, order].tobytes()
        split += len(blocks) > 1
    assert split >= 2
    for system, h in cases[:3]:
        path = wheel_permutations(system, h, 500, [0], paths=True)[0].path
        assert path.values[0].tobytes() == spectral._start(
            system, h, [0], 500)[1].tobytes()


def test_non_finite_L_is_reported_before_any_solve(monkeypatch):
    # the field values are finite, but the entries of L overflow
    solved = _count_solves(monkeypatch)
    system = generate([[1, 2]])
    with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        wheel_permutations(system, explicit_field([1e308 + 0j] * 3))
    assert solved == []


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


def test_secular_path_solves_one_spectrum_per_system(monkeypatch, tmp_path,
                                                     capsys):
    # every wheel of the worked cases is followed on the secular equation,
    # with one eig per comparability block (path+edge has blocks of 7 and
    # 3); tracked by eigenvalues they take 3508, 5019 and 7523 matrices
    from setfield.cli import main

    solved = _count_solves(monkeypatch)
    for gens, order, blocks in (
            ([[1, 2, 3]], 7, 1), ([[1, 2], [2, 3], [3, 4], [5, 6]], 10, 2),
            ([[1, 2, 3, 4]], 15, 1)):
        system = generate(gens)
        solved.clear()
        wheel_permutations(system, roots_field(system, order), 500)
        assert solved == [1] * blocks
        solved.clear()
        inline = "{%s}" % ",".join("{%s}" % ",".join(map(str, g))
                                   for g in gens)
        assert main(["phase", "--inline", inline, "--closure", "--field",
                     "roots:%d" % order, "--output", str(tmp_path)]) == 0
        assert solved == [1] * blocks
    capsys.readouterr()


def test_wheel_permutations_peak_memory_on_the_worked_cases():
    # each wheel keeps its current labels and running angle sums, never a
    # (steps + 1) x n path; a run of coarse steps holds at most
    # SECULAR_BLOCK entries in its two (run, wheels, n, n) Newton temporaries
    # together
    for gens, order in (([[1, 2, 3]], 7),
                        ([[1, 2], [2, 3], [3, 4], [5, 6]], 10),
                        ([[1, 2, 3, 4]], 15)):
        system = generate(gens)
        h = roots_field(system, order)
        wheel_permutations(system, h, 500)  # imports and caches, unmeasured
        tracemalloc.start()
        try:
            wheel_permutations(system, h, 500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def test_predictors_extrapolate_polynomials_exactly():
    # row j - 1 of order m takes the polynomial of degree m through the last
    # m + 1 rows (newest first) to its value j steps ahead; for j = 1 the
    # cubic's weights are 4, -6, 4, -1
    table = spectral._predictors(40)
    assert table[3, 0].tolist() == [4, -6, 4, -1]
    rng = np.random.default_rng(3)
    for m in range(spectral.PREDICTOR_ORDER + 1):
        coeffs = rng.integers(-5, 6, size=m + 1)
        rows = np.polyval(coeffs, -np.arange(spectral.PREDICTOR_ORDER + 1))
        assert (table[m] @ rows).tolist() == np.polyval(
            coeffs, np.arange(1, 41)).tolist()


def test_every_predictor_table_is_a_slice_of_the_longest():
    # no entry depends on the horizon, so one cached table of a power of two
    # serves every shorter run; the slices are fresh builds, bit for bit
    build = spectral._predictors.__wrapped__
    longest = build(spectral.SECULAR_BLOCK // 2)  # the longest run
    for horizon in (1, 2, 3, 7, 23, 64, 1000):
        assert longest[:, :horizon].tobytes() == build(horizon).tobytes()
    assert spectral._predictors(64) is spectral._predictors(64)


def test_the_follower_reads_predictor_tables_of_powers_of_two(monkeypatch):
    # runs of 245 and 23 steps would ask for tables of those horizons
    horizons = []
    cached = spectral._predictors
    monkeypatch.setattr(spectral, "_predictors", lambda horizon: (
        horizons.append(horizon) or cached(horizon)))
    for gens, order in (([[1]], 3), ([[1, 2, 3]], 7)):
        system = generate(gens)
        wheel_permutations(system, roots_field(system, order), 500)
    assert max(horizons) == 256
    assert all(horizon & (horizon - 1) == 0 for horizon in horizons)


def _count_secular_solves(monkeypatch):
    """A list that grows by one for each _secular_step call."""
    solves = []
    step = spectral._secular_step
    monkeypatch.setattr(spectral, "_secular_step", lambda *a: (
        solves.append(1) or step(*a)))
    return solves


def test_runs_of_coarse_steps_amortize_the_secular_solves(monkeypatch):
    # one Newton call solves a run of coarse steps of all wheels: 500 steps
    # take 9 calls on {{1}} and 42 on the triangle (one per step before)
    solves = _count_secular_solves(monkeypatch)
    for gens, order, most in (([[1]], 3, 25), ([[1, 2, 3]], 7, 100)):
        system = generate(gens)
        solves.clear()
        wheel_permutations(system, roots_field(system, order), 500)
        assert 0 < len(solves) <= most


def _random_draws(seed, count):
    """(system, field) of each of the first count draws of the seed: set
    systems of up to 10 elements and complexes on up to 5 vertices, with
    random fields and roots:(2n + 1)."""
    rng = random.Random(seed)
    for draw in range(count):
        if draw % 3 == 2:  # in general not closed under subsets
            system = random_set_system(rng, rng.randint(1, 10))
        else:
            system = random_complex(rng, max_generators=3, max_vertices=5,
                                    max_cardinality=3)
        if draw % 5 == 4:
            h = roots_field(system, 2 * len(system) + 1)
        else:
            h = random_field(system, COMPLEX, rng, unit=draw % 2 == 0)
        yield system, h


def _wheel_outcomes(system, h, steps):
    """Each wheel's (permutation, windings), or the type and message of the
    error wheel_permutations raises."""
    try:
        return [(wp.perm, wp.windings)
                for wp in wheel_permutations(system, h, steps)]
    except ValueError as exc:
        return type(exc), str(exc)


def test_runs_of_coarse_steps_give_the_outcomes_of_one_step_per_solve(
        monkeypatch):
    # a SECULAR_BLOCK of 1 follows each wheel alone, one coarse step per
    # Newton call; runs of steps of all wheels must give the same
    # permutations, windings and errors, word for word
    solves = _count_secular_solves(monkeypatch)
    failed = run_solves = single_solves = 0
    for system, h in _random_draws(5, 280):
        for steps in (40, 500):
            solves.clear()
            got = _wheel_outcomes(system, h, steps)
            run_solves += len(solves)
            solves.clear()
            with monkeypatch.context() as m:
                m.setattr(spectral, "SECULAR_BLOCK", 1)
                want = _wheel_outcomes(system, h, steps)
            single_solves += len(solves)
            assert got == want
            failed += isinstance(want[0], type)
    assert failed > 30 and run_solves * 5 < single_solves


def _tracked_outcome(system, h, wheel, steps):
    """(permutation, windings) of the oracle tracker in its per-block mode,
    or the type and message of its error."""
    try:
        wp = wheel_permutation(oracles.track_wheel(system, h, wheel, steps,
                                                   in_block=True))
    except ValueError as exc:
        return type(exc), str(exc)
    return wp.perm, wp.windings


def test_secular_path_matches_the_eigenvalue_tracker_on_random_systems(
        monkeypatch):
    monkeypatch.setattr(spectral, "ADAPTIVE_DOUBLINGS", 2)  # 40 steps, up to 160
    certified_wps = []  # each wheel of a run that passes its end match
    match = spectral._wheel_permutation
    monkeypatch.setattr(spectral, "_wheel_permutation", lambda *a: (
        certified_wps.append(match(*a)) or certified_wps[-1]))
    certified = failed = 0
    for system, h in _random_draws(31, 250):
        want = [_tracked_outcome(system, h, w, 40) for w in range(len(system))]
        errors = [w for w in range(len(system))
                  if isinstance(want[w][0], type)]
        # all wheels, then again from the wheel after each that fails
        rest = list(range(len(system)))
        while rest:
            certified_wps.clear()
            try:
                got = [(wp.perm, wp.windings)
                       for wp in wheel_permutations(system, h, 40, rest)]
            except ValueError as exc:
                got = (type(exc), str(exc))
            if len(rest) == len(system):
                # the first wheel that fails decides the error, word for word
                assert got == (want[errors[0]] if errors else want)
            # blocks are followed one after another, so wheels past the one
            # that fails can be certified too
            for wp in certified_wps:
                assert (wp.perm, wp.windings) == want[wp.wheel]
            certified += len(certified_wps)
            done = {wp.wheel for wp in certified_wps}
            rest = [] if isinstance(got, list) else rest[1 + next(
                i for i, w in enumerate(rest) if w not in done):]
        failed += len(errors)
    assert certified > 900 and failed > 200


# seed 31, draw 184: roots:27 on a 13-element complex; wheel 9 permutes
# labels 2, 6 and 3 and winds label 2 once
FOUND_WHEEL = ((0, 1, 6, 2, 4, 5, 3) + tuple(range(7, 13)),
               (0, 0, 1) + (0,) * 10)


def _found_draw():
    return next(itertools.islice(_random_draws(31, 185), 184, None))


@pytest.mark.xfail(strict=True, reason=(
    "FOUND in CHANGES.md, line 444: at 2 doublings the secular path fails "
    "wheel 9 of seed 31, draw 184 near t = 6.0476, where the eigenvalue "
    "tracker follows it"))
def test_two_doublings_follow_the_wheel_the_tracker_follows(monkeypatch):
    monkeypatch.setattr(spectral, "ADAPTIVE_DOUBLINGS", 2)
    system, h = _found_draw()
    assert _tracked_outcome(system, h, 9, 40) == FOUND_WHEEL
    try:
        got = [(wp.perm, wp.windings)
               for wp in wheel_permutations(system, h, 40, [9])]
    except TrackingAmbiguityError as exc:
        got = str(exc)
    assert got == [FOUND_WHEEL]


def test_three_doublings_follow_the_wheel_the_tracker_follows(monkeypatch):
    # the wheel of the xfail above: from 3 doublings on (and at the default)
    # the secular path and the per-block tracker give one outcome
    system, h = _found_draw()
    for doublings in (spectral.ADAPTIVE_DOUBLINGS, 3):
        monkeypatch.setattr(spectral, "ADAPTIVE_DOUBLINGS", doublings)
        assert _tracked_outcome(system, h, 9, 40) == FOUND_WHEEL
        assert [(wp.perm, wp.windings) for wp in wheel_permutations(
            system, h, 40, [9])] == [FOUND_WHEEL]


def test_a_step_where_two_labels_pick_one_eigenvalue_fails_the_attempt():
    # labels 0 and 1 start 1e-3 apart and both land nearest 5e-4, each move
    # well within half the target's gap: only the collision fails the step,
    # whichever of the two labels is given 5e-4
    prev = np.array([0, 1e-3, 5], dtype=complex)
    for new in ([5e-4, 5, -5], [5, 5e-4, -5]):
        assert not spectral._step_holds(prev, np.array(new, dtype=complex))
    assert spectral._step_holds(prev, np.array([1e-4, 1.1e-3, 5],
                                               dtype=complex))


def test_one_pass_step_test_gives_the_greedy_self_match_verdict():
    # the step test of the secular path (every label within half its gap)
    # against the greedy match's test and each label matched to itself.  They
    # differ only on an exact tie: lam = [0, 2], new = [1, 3] passes here,
    # while the greedy match sends lam_1 to the lower index and collides
    rng = np.random.default_rng(47)
    passed = failed = 0
    for draw in range(1200):
        W, n = rng.integers(1, 6), rng.integers(1, 8)
        lam = rng.normal(size=(W, n)) + 1j * rng.normal(size=(W, n))
        scale = 10.0 ** rng.uniform(-4, 0)
        new = lam + scale * (rng.normal(size=(W, n))
                             + 1j * rng.normal(size=(W, n)))
        if draw % 3 == 1 and n > 1:  # two values nearly equal
            i, j = rng.choice(n, 2, replace=False)
            new[:, j] = new[:, i] + 10.0 ** rng.uniform(-16, -6) * (
                rng.normal(size=W) + 1j * rng.normal(size=W))
        elif draw % 3 == 2 and n > 1:  # two labels swap their values
            i, j = rng.choice(n, 2, replace=False)
            new[:, [i, j]] = new[:, [j, i]]
        ok, cols = oracles.step_passes(lam, new)
        want = ok & (cols == np.arange(n)).all(axis=-1)
        got = spectral._step_holds(lam, new)
        assert got.tolist() == want.tolist()
        passed += int(want.sum())
        failed += int((~want).sum())
    assert passed > 1000 and failed > 1000


def test_wheel_groups_of_one_give_the_outcomes_of_one_group(monkeypatch,
                                                            linear10):
    # a SECULAR_BLOCK of 1 puts one wheel in each group and one coarse step
    # in each Newton call, and every group reads the one offset table, so
    # each wheel's rows are the bits of following it alone.  One group of
    # all wheels solves runs of coarse steps, from other guesses, and a
    # call's Newton iterations stop when all of its labels converged, so its
    # rows differ from those only in the last bits
    h = roots_field(linear10, 10)
    one_group = wheel_permutations(linear10, h, paths=True)
    monkeypatch.setattr(spectral, "SECULAR_BLOCK", 1)
    grouped = wheel_permutations(linear10, h, paths=True)
    for wheel, (wp, together, single) in enumerate(zip(grouped, one_group, (
            wheel_permutations(linear10, h, wheels=[w], paths=True)[0]
            for w in range(len(linear10))))):
        assert wp.wheel == single.wheel == wheel
        assert (wp.perm, wp.windings) == (together.perm, together.windings)
        assert (wp.perm, wp.windings) == (single.perm, single.windings)
        assert wp.path.values.tobytes() == single.path.values.tobytes()
        scale = np.abs(together.path.values).max()
        assert (np.abs(wp.path.values - together.path.values).max()
                < 1e-14 * scale)


def test_polished_rows_lie_near_the_eigenvalue_tracker(linear10):
    # the rows phase --output writes, polished until a Newton step is at most
    # 4 eps max |mu|, against the oracle's LAPACK eigenvalues at the same
    # times: within 5e-14 of the largest modulus at that time (1.0e-14,
    # 9.9e-15 and 2.2e-14 measured on the three cases)
    for system, order in ((generate([[1, 2, 3]]), 7), (linear10, 10),
                          (generate([[1, 2, 3, 4]]), 15)):
        h = roots_field(system, order)
        for wp in wheel_permutations(system, h, 500, paths=True):
            want = oracles.track_wheel(system, h, wp.wheel, 500)
            every = want.steps // wp.path.steps  # the oracle may double
            assert np.array_equal(want.ts[::every], wp.path.ts)
            values = want.values[::every]
            scale = np.abs(values).max(axis=1, keepdims=True)
            assert (np.abs(wp.path.values - values) <= 5e-14 * scale).all()


def test_end_collision_names_the_requested_steps(monkeypatch):
    # two labels that end nearest one start value leave no permutation.  A
    # failing step is refined by nested calls of _follow_wheels at half the
    # stride, so only the outer call, at the full coarse stride, is altered
    follow = spectral._follow_wheels

    def colliding(mu, off, C, h, lam, ticks, *rest):
        followed, ts, rows = follow(mu, off, C, h, lam, ticks, *rest)
        if ticks.step == 2 ** spectral.ADAPTIVE_DOUBLINGS:
            at, last, turned = followed[0]
            followed[0] = at, np.concatenate([last[:1], last[:-1]]), turned
        return followed, ts, rows

    monkeypatch.setattr(spectral, "_follow_wheels", colliding)
    K3 = generate([[1, 2, 3]])
    with pytest.raises(TrackingAmbiguityError, match="wheel 0 ended with two "
                       "labels nearest one start value at 40 steps$"):
        wheel_permutations(K3, roots_field(K3, 7), 40)


def test_grid_angles_are_the_bits_of_linspace():
    # _follow_wheels makes the angle of point j of a grid of fine intervals
    # as j 2pi / fine, and point fine as 2pi: bit for bit the points of
    # np.linspace on the coarse grid, on the slices a refined step follows
    # at half the stride, and at single points (at 25 steps, 25 * (2pi / 25)
    # is not 2pi).  One pole of weight 1 moves as e^{it}
    one = np.ones((1, 1), dtype=complex)
    off = np.full((1, 1), np.inf, dtype=complex)
    for steps, stride in itertools.product(
            (1, 2, 3, 7, 25, 40, 500, 777, 4000), (1, 4, 16)):
        fine = steps * stride
        want = np.linspace(0.0, 2.0 * math.pi, fine + 1)
        spans = [range(0, fine + 1, stride)] + [
            range(j, j + stride + 1, max(1, stride // 2))
            for j in (0, steps // 2 * stride, fine - stride)]
        for ticks in spans:
            followed, t, _ = spectral._follow_wheels(
                one[0], off, one, one[0], one, ticks, fine, 1e-9, False)
            assert followed[0][0] is None
            assert t.tobytes() == want[ticks.start:ticks.stop:ticks.step] \
                .tobytes()
            for k in (0, len(ticks) // 2, -1):
                assert t[k].tobytes() == want[ticks[k]].tobytes()


def _nested_follows(monkeypatch):
    """A list of (depth, stride, points, wheels) of each _follow_wheels
    call, depth 0 for the calls _follow_block makes."""
    follow = spectral._follow_wheels
    calls, depth = [], [0]

    def nested(mu, off, C, h, lam, ticks, *rest):
        calls.append((depth[0], ticks.step, len(ticks), len(C)))
        depth[0] += 1
        try:
            return follow(mu, off, C, h, lam, ticks, *rest)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(spectral, "_follow_wheels", nested)
    return calls


def test_a_failing_step_is_followed_again_at_half_the_stride(monkeypatch,
                                                             K3):
    # a step that fails for a wheel is followed again by _follow_wheels, for
    # that wheel alone, as 2 steps at half the stride, and so on down to one
    # spacing of the fine grid: at most ADAPTIVE_DOUBLINGS levels deep
    calls = _nested_follows(monkeypatch)
    stride = 2 ** spectral.ADAPTIVE_DOUBLINGS
    wps = wheel_permutations(K3, roots_field(K3, 7), 500)
    assert group_order([wp.perm for wp in wps]) == 36
    assert calls[0] == (0, stride, 501, 7) and (1, 8, 3, 1) in calls

    def nested_correctly():
        return all((step, points, wheels) == (stride >> depth, 3, 1)
                   and 1 <= depth <= spectral.ADAPTIVE_DOUBLINGS
                   for depth, step, points, wheels in calls[1:])

    assert nested_correctly()
    # an exact meeting fails at every level, down to one spacing
    calls.clear()
    with pytest.raises(TrackingAmbiguityError, match="near t = 1.5700"):
        wheel_permutations(SetSystem([[1], [1, 2]]),
                           explicit_field([1 + 0j, 2 + 0j]), 500)
    assert calls[0][:2] == (0, stride) and nested_correctly()
    assert calls[-1][:2] == (spectral.ADAPTIVE_DOUBLINGS, 1)


def test_a_long_circle_holds_no_fine_grid():
    # the angles are made per follow, (steps + 1) of them and their turns,
    # not as an array of the steps * 2^ADAPTIVE_DOUBLINGS + 1 fine points
    # (12.8 MB at 100 000 steps)
    system = generate([[1, 2]])
    h = roots_field(system, 5)
    wheel_permutations(system, h, 500)  # imports and caches, unmeasured
    tracemalloc.start()
    try:
        wheel_permutations(system, h, 100000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_track_wheel_rejects_steps_below_one(K3):
    h = roots_field(K3, 7)
    for steps in (0, -5):
        with pytest.raises(ValueError, match="steps must be at least 1"):
            wheel_permutations(K3, h, steps, [0])


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


def _generators_with_a_2_cycle(rng, degree):
    """One to four permutations; about half are one 2-cycle and odd cycles
    on random points, whose power of half their order is that 2-cycle."""
    gens = []
    for _ in range(rng.randint(1, 4)):
        points = rng.sample(range(degree), degree)
        if rng.random() < 0.5 and degree > 1:
            p, points = _cycle(degree, points[:2]), points[2:]
            while points:
                size = rng.choice([k for k in (1, 3, 5) if k <= len(points)])
                p = perm_compose(_cycle(degree, points[:size]), p)
                points = points[size:]
            gens.append(p)
        else:
            gens.append(tuple(points))
    return gens


def _seeded_generator_sets(seed, count):
    rng = random.Random(seed)
    for draw in range(count):
        make = _generators_with_a_2_cycle if draw % 2 else _random_generators
        yield make(rng, rng.randint(1, 12))


def test_transposition_certificate_agrees_with_schreier_sims():
    certified = fell_back = 0
    for gens in _seeded_generator_sets(53, 600):
        want = spectral._schreier_sims_order(gens)
        got = spectral._transposition_certificate(gens)
        if got is None:
            fell_back += 1
        else:
            assert got == want, gens
            certified += 1
        assert group_order(gens) == want, gens
    assert certified > 150 and fell_back > 150


def test_transposition_certificate_and_fallback_match_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    certified = fell_back = 0
    for gens in _seeded_generator_sets(59, 300):
        want = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g)) for g in gens]).order()
        got = spectral._transposition_certificate(gens)
        certified += got is not None
        fell_back += got is None
        assert got in (None, want), gens
        assert spectral._schreier_sims_order(gens) == want, gens
    assert certified > 100 and fell_back > 100


def test_worked_wheel_groups_certified_or_by_fallback():
    # the full 4- and 5-simplex wheel groups are the whole products, 14! and
    # 29!; the bowtie's transpositions leave an orbit in pieces, so its
    # order comes from Schreier-Sims
    for gens, order, want, certified in (
            ([[1, 2, 3, 4]], 15, math.factorial(14), True),
            ([[1, 2, 3], [3, 4, 5]], 13, 172800, False),
            ([[1, 2, 3, 4, 5]], 63, math.factorial(29), True)):
        system = generate(gens)
        perms = [wp.perm for wp in wheel_permutations(
            system, roots_field(system, order))]
        assert spectral._transposition_certificate(perms) == (
            want if certified else None)
        assert spectral._schreier_sims_order(perms) == want
        assert group_order(perms) == want


def test_transposition_certificate_falls_back():
    # <(0 1 2)> has no transposition; D4 = <(0 1 2 3), (0 2)> has (0 2) and
    # its conjugate (1 3), which do not connect its orbit; A4 = <(0 1 2),
    # (1 2 3)> has none
    for gens, want in (([(1, 2, 0)], 3),
                       ([(1, 2, 3, 0), (2, 1, 0, 3)], 8),
                       ([(1, 2, 0, 3), (0, 2, 3, 1)], 12)):
        assert spectral._transposition_certificate(gens) is None
        assert group_order(gens) == want


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


def test_perm_order_is_the_least_power_that_is_the_identity():
    # the power relations g^order = 1 of a group report hold because each
    # order is perm_order; the powers here are taken one by one
    rng = random.Random(29)
    for trial in range(400):
        degree = 1 + trial % 12
        p = list(range(degree))
        rng.shuffle(p)
        p, identity = tuple(p), tuple(range(degree))
        power, k = p, 1
        while power != identity:
            power = tuple(p[i] for i in power)
            k += 1
        assert perm_order(p) == k


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
