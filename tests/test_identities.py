import random

import numpy as np
import pytest

from oracles import build_matrices_by_sets, entrywise_conjugate, mat_mul
from setfield import (COMPLEX, GAUSSIAN, OCTONION, QUATERNION, REAL,
                      SetSystem, energy_check, field_matrices,
                      gauss_bonnet_check, generate, green_star_check,
                      spectral_signature_check, unimodularity_check)
from setfield import scalars
from setfield.connection import (explicit_field, omega_field, ones_field,
                                 random_field, roots_field)
from setfield.identities import run_checks
from setfield.setsystem import random_complex

DESCENDING = SetSystem([[1, 2], [2, 3], [1], [2], [3]])


def test_green_star_holds_for_roots_on_triangle(K3):
    report = green_star_check(K3, roots_field(K3, 7))
    assert report.holds
    assert report.max_abs_deviation < 1e-9
    assert report.applicability is None
    assert report.details["upper_triangular"] is True


def test_green_star_holds_for_unit_quaternions(K3):
    rng = random.Random(3)
    report = green_star_check(K3, random_field(K3, QUATERNION, rng, unit=True))
    assert report.holds and report.max_abs_deviation < 1e-9


def test_green_star_holds_for_unit_octonions(K2):
    rng = random.Random(4)
    report = green_star_check(K2, random_field(K2, OCTONION, rng, unit=True))
    assert report.holds and report.max_abs_deviation < 1e-9


def test_green_star_fails_off_complex(nonclosed_pair):
    h = explicit_field([1, 1])
    cm = build_matrices_by_sets(nonclosed_pair, h)
    gL = mat_mul(entrywise_conjugate(cm.g), cm.L, h.kind)
    assert gL == [[3, 2], [4, 3]]
    report = green_star_check(nonclosed_pair, h)
    assert not report.holds
    assert report.applicability is not None
    assert report.witnesses


def test_green_star_descending_order_golden():
    for X in (3, -2, 7):
        h = explicit_field([1, 1, 1, 1, X])
        cm = build_matrices_by_sets(DESCENDING, h)
        gL = mat_mul(cm.g, cm.L, h.kind)  # real field: conjugation trivial
        assert gL[4] == [0, X * X - 1, 0, 0, X * X]
        for i in range(5):
            for j in range(i + 1, 5):
                assert gL[i][j] == 0, "descending order must give lower triangular"


def test_green_star_nonunit_diagonal_and_witness(K2):
    h = explicit_field([2 + 0j, 1j, 3 + 0j])
    report = green_star_check(K2, h)
    assert not report.holds
    assert report.applicability is not None  # not unit valued
    assert report.details["diagonal_matches_norms"] is True
    diag = [d[0] for d in report.details["diagonal"]]
    assert diag == pytest.approx([4.0, 1.0, 9.0])
    assert report.witnesses


def test_green_star_necessity_random():
    rng = random.Random(11)
    for _ in range(10):
        system = random_complex(rng)
        h = random_field(system, COMPLEX, rng)
        if h.all_units(1e-6):
            continue
        report = green_star_check(system, h)
        assert not report.holds
        assert report.details["diagonal_matches_norms"] is True


def test_energy_check_symbolic_edge(K2):
    rng = random.Random(5)
    for _ in range(3):
        U, V, W = (scalars.random_scalar(COMPLEX, rng) for _ in range(3))
        report = energy_check(K2, explicit_field([U, V, W]))
        assert report.holds
        lhs = complex(*report.details["lhs"])
        assert abs(lhs - (U + V + W)) < 1e-9


def test_energy_check_zero_field(K3):
    h = explicit_field([0j] * 7, COMPLEX)
    report = energy_check(K3, h)
    assert report.holds and report.max_abs_deviation == 0.0


def test_energy_check_omega_triangle(K3):
    report = energy_check(K3, omega_field(K3))
    assert report.holds
    assert report.details["rhs"] == 1  # chi of the full triangle


def test_energy_check_all_kinds():
    rng = random.Random(7)
    for kind in (REAL, COMPLEX, QUATERNION, OCTONION, GAUSSIAN):
        for _ in range(3):
            system = random_complex(rng)
            report = energy_check(system, random_field(system, kind, rng))
            assert report.holds, kind.name
            if kind is GAUSSIAN:
                assert report.max_abs_deviation == 0.0


def test_energy_check_off_complex_reports_applicability(nonclosed_pair):
    report = energy_check(nonclosed_pair, explicit_field([1.0, 1.0]))
    assert report.applicability is not None


def test_each_check_off_complexes_names_what_is_not_guaranteed(
        nonclosed_pair, K3):
    h = explicit_field([1.0, -2.0])
    reports = [green_star_check(nonclosed_pair, h),
               energy_check(nonclosed_pair, h),
               gauss_bonnet_check(nonclosed_pair, h),
               unimodularity_check(nonclosed_pair),
               spectral_signature_check(nonclosed_pair, h)]
    assert [r.applicability for r in reports] == [
        "not a simplicial complex; " + what for what in (
            "inversion not expected", "identity not guaranteed",
            "identity not guaranteed", "inverse pairing not guaranteed",
            "signature rule not guaranteed")]
    omega = omega_field(K3)
    for check in (green_star_check, energy_check, gauss_bonnet_check,
                  spectral_signature_check):
        assert check(K3, omega).applicability is None
    assert unimodularity_check(K3).applicability is None


def test_gauss_bonnet_on_edge_and_zero_dim(K2):
    assert gauss_bonnet_check(K2, omega_field(K2)).holds
    system = SetSystem([[1], [2], [3]])
    h = explicit_field([1.5, -2.0, 0.25])
    report = gauss_bonnet_check(system, h)
    assert report.holds
    assert report.details["super_trace"] == pytest.approx(-0.25)


def test_gauss_bonnet_random_path_complex():
    rng = random.Random(13)
    system = generate([[1, 2], [2, 3]])
    report = gauss_bonnet_check(system, random_field(system, COMPLEX, rng))
    assert report.holds and report.max_abs_deviation < 1e-9


def test_green_star_with_a_nan_deviation_does_not_hold():
    # |h|^2 overflows: every entry of conj(g) L is NaN, and the tolerance,
    # scaled by the largest |h|^2, is inf
    K3 = generate([[1, 2, 3]])
    with np.errstate(all="ignore"):
        report = green_star_check(K3, explicit_field([1e155] * 7, REAL))
    assert not report.holds and np.isnan(report.max_abs_deviation)
    # all 49 cells are NaN: the first eight in index order
    assert report.witnesses == [divmod(k, 7) for k in range(8)]
    assert np.isnan(report.details["gL_deviation"])


def test_green_star_with_an_inf_deviation_does_not_hold():
    # an inf deviation is not within an inf tolerance
    K3 = generate([[1, 2, 3]])
    with np.errstate(all="ignore"):
        report = green_star_check(K3, explicit_field(
            [1e200, -1e200, 1e200, 1, 1, 1, 1], REAL))
    assert not report.holds and report.max_abs_deviation == np.inf
    assert len(report.witnesses) == 8


def test_gauss_bonnet_and_energy_with_non_finite_deviations_fail():
    # V - K is NaN at {1} (inf - inf) and -inf at {1, 2}; the super trace
    # and the total of g alone are off by inf
    K2 = generate([[1, 2]])
    with np.errstate(all="ignore"):
        report = gauss_bonnet_check(K2, explicit_field([1e308, -1e308, 1e308],
                                                       REAL))
    assert not report.holds and np.isnan(report.max_abs_deviation)
    assert report.witnesses == [(0, 0), (2, 2)]
    with np.errstate(all="ignore"):
        energy = energy_check(K2, explicit_field([1e308, -1e308, 1e308], REAL))
    assert not energy.holds and energy.max_abs_deviation == np.inf


def test_unimodularity_edge_and_triangle(K2, K3):
    r2 = unimodularity_check(K2)
    assert r2.holds and r2.details["det_L"] == -1
    r3 = unimodularity_check(K3)
    assert r3.holds and r3.details["det_L"] == -1


def test_unimodularity_single_vertex():
    report = unimodularity_check(SetSystem([[1]]))
    assert report.holds and report.details["det_L"] == 1


def test_signature_counts(K2, K3):
    assert spectral_signature_check(K2, ones_field(K2)).holds
    r = spectral_signature_check(K3, omega_field(K3))
    assert r.holds
    assert r.details["negative_eigenvalues"] == 3  # one per edge
    system = SetSystem([[1], [2]])
    r = spectral_signature_check(system, explicit_field([-1.0, 2.0]))
    assert r.holds and r.details["negative_eigenvalues"] == 1


def test_signature_rejects_zero_values(K2):
    with pytest.raises(ValueError):
        spectral_signature_check(K2, explicit_field([1.0, 0.0, 1.0]))


def test_positive_field_gives_positive_definite(K2):
    r = spectral_signature_check(K2, ones_field(K2))
    assert r.details["negative_eigenvalues"] == 0


def test_inverse_pair_is_isospectral_under_inversion():
    rng = random.Random(17)
    for _ in range(5):
        system = random_complex(rng)
        fm = field_matrices(system, omega_field(system))
        L = fm.L[0].astype(float)
        g = fm.g[0].astype(float)
        eg = np.sort(np.linalg.eigvalsh(g))
        el_inv = np.sort(1.0 / np.linalg.eigvalsh(L))
        assert np.max(np.abs(eg - el_inv)) < 1e-8


def test_run_checks_all_names(K2):
    reports = run_checks(K2, roots_field(K2, 3),
                         ["greenstar", "energy", "gaussbonnet", "unimodular",
                          "signature"])
    assert [r.name for r in reports] == ["greenstar", "energy", "gaussbonnet",
                                         "unimodular", "signature"]
    assert all(r.holds for r in reports)
