"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with `pytest tests/test_acceptance.py -v -s`)."""

import contextlib
import io
import random
import time

import numpy as np

from oracles import (entrywise_conjugate, group_closure, mat_mul,
                     path_permutation, raw_winding_increments)
from setfield import (COMPLEX, GAUSSIAN, OCTONION, QUATERNION, REAL,
                      SetSystem, bareiss_det, det_formula_check,
                      energy_check, field_matrices, gauss_bonnet_check,
                      generate, green_star_check, kernel, leibniz_det,
                      spectral_signature_check, unimodularity_check,
                      wheel_permutations)
from setfield import scalars
from setfield.connection import explicit_field, random_field, roots_field
from setfield.kaehler import complete_complex_exponent, kaehler_form
from setfield.setsystem import complete_complex, random_complex
from setfield.cli import main
from setfield.spectral import SpectralPath, perm_cycles

NONCLOSED_GOLDEN = SetSystem([[1], [1, 3, 4], [1, 4, 5], [4], [1, 4]])
DESCENDING = SetSystem([[1, 2], [2, 3], [1], [2], [3]])
LINEAR_GENERATORS = [[1, 2], [2, 3], [3, 4], [5, 6]]


def _matrices(system, h):
    """L and g of connection.field_matrices as lists of rows of scalars."""
    fm = field_matrices(system, h)
    return [kernel.from_array(M, h.kind, fm.scale) for M in (fm.L, fm.g)]


def _report(number, text, ok):
    print("criterion %2d [%s] %s" % (number, "PASS" if ok else "FAIL", text),
          flush=True)
    assert ok, "criterion %d failed: %s" % (number, text)


def test_criterion_01_determinant_formula():
    rng = random.Random(1001)
    kinds = [COMPLEX, QUATERNION, GAUSSIAN]
    t0 = time.time()
    ok = True
    for trial in range(200):
        system = random_complex(rng, max_generators=5, max_vertices=8)
        kind = kinds[trial % 3]
        h = random_field(system, kind, rng)
        report = det_formula_check(system, h, tol=1e-9)
        if not report.holds or (kind is GAUSSIAN and not report.exact_equal):
            ok = False
            break
    elapsed = time.time() - t0
    _report(1, "determinant formula on 200 random fields (%.1fs)" % elapsed,
            ok and elapsed < 30.0)


def test_criterion_02_golden_matrix_values():
    ok = True
    rng = random.Random(1002)
    # Leibniz value -24 X on the non-closed five-element system
    for X in [rng.uniform(-5, 5) for _ in range(5)]:
        L, _ = _matrices(NONCLOSED_GOLDEN, explicit_field([2, 4, 3, -1, X]))
        det = leibniz_det(L)
        ok &= abs(det - (-24 * X)) <= 1e-12 * max(1.0, abs(24 * X))

    # edge complex: displayed L, g and conjugate(g) L entrywise
    K2 = generate([[1, 2]])
    for _ in range(5):
        U, V, W = (scalars.random_nonzero(COMPLEX, rng) for _ in range(3))
        L, g = _matrices(K2, explicit_field([U, V, W]))
        wantL = [[U, 0, U], [0, V, V], [U, V, U + V + W]]
        wantg = [[U + W, W, -W], [W, V + W, -W], [-W, -W, W]]
        nU, nV, nW = (scalars.norm_sq(v) for v in (U, V, W))
        wantgL = [[nU, 0, nU - nW], [0, nV, nV - nW], [0, 0, nW]]
        gotgL = mat_mul(entrywise_conjugate(g), L, COMPLEX)
        for i in range(3):
            for j in range(3):
                ok &= abs(L[i][j] - wantL[i][j]) <= 1e-12
                ok &= abs(g[i][j] - wantg[i][j]) <= 1e-12
                ok &= abs(gotgL[i][j] - wantgL[i][j]) <= 1e-12

    # descending order: lower triangular g L with frozen last row
    for X in (2, 5, -3):
        L, g = _matrices(DESCENDING, explicit_field([1, 1, 1, 1, X]))
        gL = mat_mul(g, L, REAL)
        ok &= gL[4] == [0, X * X - 1, 0, 0, X * X]
        ok &= all(gL[i][j] == 0 for i in range(5) for j in range(i + 1, 5))
    _report(2, "golden matrix and determinant values", ok)


def test_criterion_03_green_star():
    rng = random.Random(1003)
    ok = True
    for trial in range(100):
        system = random_complex(rng)
        kind = COMPLEX if trial % 2 == 0 else QUATERNION
        h = random_field(system, kind, rng, unit=True)
        report = green_star_check(system, h, tol=1e-9)
        ok &= report.holds and report.max_abs_deviation < 1e-9
        ok &= report.details["gL_deviation"] < 1e-9
        ok &= report.details["Lg_deviation"] < 1e-9
        if not ok:
            break
    # non-unit fields: diagonal still |h|^2, product must miss the identity
    trials = 0
    while trials < 20:
        system = random_complex(rng)
        kind = COMPLEX if trials % 2 == 0 else QUATERNION
        h = random_field(system, kind, rng)
        if h.all_units(1e-3):
            continue
        trials += 1
        report = green_star_check(system, h, tol=1e-9)
        ok &= report.details["diagonal_matches_norms"]
        ok &= not report.holds and bool(report.witnesses)
        if not ok:
            break
    _report(3, "green-star inversion for unit fields plus non-unit witnesses",
            ok)


def test_criterion_04_energy_identity():
    rng = random.Random(1004)
    ok = True
    for _ in range(100):
        system = random_complex(rng)
        h = random_field(system, GAUSSIAN, rng)
        r1 = energy_check(system, h)
        r2 = gauss_bonnet_check(system, h)
        ok &= r1.holds and r1.max_abs_deviation == 0.0
        ok &= r2.holds and r2.max_abs_deviation == 0.0
        if not ok:
            break
    for kind in (COMPLEX, QUATERNION, OCTONION):
        for _ in range(20):
            system = random_complex(rng)
            h = random_field(system, kind, rng)
            r1 = energy_check(system, h, tol=1e-9)
            r2 = gauss_bonnet_check(system, h, tol=1e-9)
            ok &= r1.holds and r2.holds
            if not ok:
                break
    _report(4, "energy, super-trace and potential identities over all kinds",
            ok)


def test_criterion_05_unimodularity():
    rng = random.Random(1005)
    ok = True
    for _ in range(50):
        system = random_complex(rng)
        report = unimodularity_check(system)
        ok &= report.holds and report.details["det_L"] in (1, -1)
        if not ok:
            break
    _report(5, "integer unimodular inverse pairs for the sign field", ok)


def test_criterion_06_spectral_signature():
    rng = random.Random(1006)
    ok = True
    done = 0
    while done < 50:
        system = random_complex(rng)
        values = tuple(rng.choice([-1, 1]) * rng.uniform(0.1, 2.0)
                       for _ in system.elements)
        h = explicit_field(values)
        L = field_matrices(system, h).L[0]
        eig = np.linalg.eigvalsh(L.astype(float))
        if np.abs(eig).min() <= 1e-6:
            continue  # rejected draw per the criterion
        done += 1
        report = spectral_signature_check(system, h)
        ok &= report.holds
        if not ok:
            break
    _report(6, "negative eigenvalue count equals negative field count", ok)


def _group_order(system, h, steps):
    perms = wheel_permutations(system, h, steps=steps)
    order, _ = group_closure([w.perm for w in perms])
    return order, perms


def test_criterion_07_monodromy_group_orders():
    ok = True
    K3 = generate([[1, 2, 3]])
    t0 = time.time()
    order500, _ = _group_order(K3, roots_field(K3, 7), 500)
    order1000, _ = _group_order(K3, roots_field(K3, 7), 1000)
    t_k3 = time.time() - t0
    ok &= order500 == 36 and order1000 == 36 and t_k3 < 120.0

    linear = generate(LINEAR_GENERATORS)
    t0 = time.time()
    lorder500, _ = _group_order(linear, roots_field(linear, 10), 500)
    lorder1000, _ = _group_order(linear, roots_field(linear, 10), 1000)
    t_lin = time.time() - t0
    ok &= lorder500 == 72 and lorder1000 == 72 and t_lin < 120.0
    _report(7, "group orders 36 and 72, stable at doubled steps "
               "(%.1fs, %.1fs)" % (t_k3, t_lin), ok)


def _phase_paths(inline, field, out):
    """The paths `phase --output` writes as CSV, read back, by wheel."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["phase", "--inline", inline, "--closure", "--field",
                     field, "--steps", "500", "--output", str(out)]) == 0
    paths = []
    for csv in sorted(out.glob("wheel_*.csv")):
        rows = np.loadtxt(csv, delimiter=",", skiprows=1)
        values = rows[:, 1::2] + 1j * rows[:, 2::2]
        paths.append(SpectralPath(len(paths), rows[:, 0], values, 500))
    return paths


def test_criterion_08_winding_consistency(tmp_path):
    ok = True
    for inline, field, n in (("{{1,2,3}}", "roots:7", 7),
                             ("{{1,2},{2,3},{3,4},{5,6}}", "roots:10", 10)):
        paths = _phase_paths(inline, field, tmp_path / field)
        ok &= len(paths) == n
        for path in paths:
            raw = raw_winding_increments(path)
            perm = path_permutation(path)
            fixed = [(k,) for k in range(path.n) if perm[k] == k]
            for cyc in perm_cycles(perm) + fixed:
                total = float(sum(raw[m] for m in cyc))
                ok &= abs(total - round(total)) <= 1e-3
            ok &= abs(raw.sum() - 1.0) <= 1e-3
            if not ok:
                break
    _report(8, "windings are integers per closed loop and sum to one", ok)


def test_criterion_09_kaehler_determinants():
    ok = True
    t0 = time.time()
    ok &= bareiss_det(kaehler_form(generate([[1, 2]]))) == 9
    ok &= bareiss_det(kaehler_form(generate([[1, 2, 3]]))) == 19683
    det4 = bareiss_det(kaehler_form(complete_complex(4)))
    # two candidate values circulate for this case; exact computation picks 3^28
    ok &= det4 in (3 ** 15, 3 ** 28)
    ok &= det4 == 3 ** 28
    for n in (2, 3, 4):
        ok &= (bareiss_det(kaehler_form(complete_complex(n)))
               == 3 ** complete_complex_exponent(n))
    big = generate([[1, 2, 3, 4, 5], [3, 4, 5, 6, 7]])
    assert len(big) == 55
    ok &= bareiss_det(kaehler_form(big)) == 3 ** 113 * 5 ** 7 * 7 ** 7
    elapsed = time.time() - t0
    _report(9, "exact bilinear form determinants incl. the 55-element case "
               "(%.1fs; full 4-vertex simplex resolved to 3^28)" % elapsed,
            ok and elapsed < 300.0)


def test_criterion_10_divisibility_evidence():
    rng = random.Random(1010)
    ok = True
    offenders = []
    for _ in range(20):
        system = random_complex(rng, min_dimension=1)
        det = bareiss_det(kaehler_form(system))
        if det % 3 != 0:
            offenders.append((system, det))
            ok = False
    assert not offenders, ("divisibility-by-3 counterexample found, "
                           "investigate: %r" % offenders)
    _report(10, "20 positive-dimensional complexes all divisible by 3", ok)
