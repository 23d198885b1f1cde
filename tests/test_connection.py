import random
from fractions import Fraction

import pytest

from oracles import entrywise_conjugate, mat_mul
from setfield import (COMPLEX, GAUSSIAN, SetSystem, build_matrices,
                      energy_sum, generate, green_diagonal, omega,
                      omega_field, potential_and_curvature, super_trace)
from setfield import scalars
from setfield.connection import (explicit_field, ones_field, random_field,
                                 roots_field)
from setfield.setsystem import random_complex


def expected_K2_matrices(U, V, W):
    L = [[U, 0, U], [0, V, V], [U, V, U + V + W]]
    g = [[U + W, W, -W], [W, V + W, -W], [-W, -W, W]]
    return L, g


def test_omega_signs():
    assert omega({1}) == 1
    assert omega({1, 2}) == -1
    assert omega({1, 2, 3}) == 1


def test_energy_sum_basics(K3, K2):
    h = omega_field(K3)
    assert energy_sum(K3, h, []) == 0
    assert energy_sum(K3, h, range(7)) == 1  # Euler characteristic of a simplex
    hv = explicit_field([2 + 1j, 3 - 1j, 0.5j])
    assert energy_sum(K2, hv, range(3)) == (2 + 1j) + (3 - 1j) + 0.5j


def test_edge_matrices_match_symbolic_form(K2):
    rng = random.Random(17)
    for _ in range(5):
        U, V, W = (scalars.random_nonzero(COMPLEX, rng) for _ in range(3))
        cm = build_matrices(K2, explicit_field([U, V, W]))
        L, g = expected_K2_matrices(U, V, W)
        for i in range(3):
            for j in range(3):
                assert abs(cm.L[i][j] - L[i][j]) < 1e-12
                assert abs(cm.g[i][j] - g[i][j]) < 1e-12
    assert cm.signs == (1, 1, -1)


def test_nonclosed_pair_matrices(nonclosed_pair):
    X = 5
    cm = build_matrices(nonclosed_pair, explicit_field([1, X]))
    assert cm.L == ((X + 1, X), (X, X))
    assert cm.g == ((1, 1), (1, X + 1))


def test_zero_dimensional_matrices_are_diagonal():
    system = SetSystem([[1], [2]])
    cm = build_matrices(system, explicit_field([2.5, -4.0]))
    assert cm.L == ((2.5, 0), (0, -4.0))
    assert cm.g == ((2.5, 0), (0, -4.0))


def test_field_length_mismatch(K2):
    with pytest.raises(ValueError):
        build_matrices(K2, explicit_field([1.0]))


def test_super_trace_cases(K2, K3):
    n = len(K2)
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert super_trace(ident, (1, 1, -1)) == 1
    cm = build_matrices(K3, omega_field(K3))
    assert super_trace(cm.g, cm.signs) == 1  # equals chi(K3)
    zero = [[0] * n for _ in range(n)]
    assert super_trace(zero, (1, 1, -1)) == 0


def test_potential_equals_curvature_on_complexes(K2):
    V, K = potential_and_curvature(K2, omega_field(K2))
    assert V == K
    system = SetSystem([[1], [2]])
    V, K = potential_and_curvature(system, explicit_field([3.0, -1.0]))
    assert V == K == [3.0, -1.0]


def test_potential_and_curvature_reported_separately_off_complex(nonclosed_pair):
    V, K = potential_and_curvature(nonclosed_pair, explicit_field([1, 1]))
    # brute force: g = [[1,1],[1,2]], row sums (2,3); signed diagonal (1,2)
    assert V == [2, 3]
    assert K == [1, 2]
    assert V != K


def test_matrices_symmetric_for_noncommutative_field(K3):
    # entries are sums, so the arrays must be symmetric even over quaternions;
    # recomputed from the definition rather than trusting the builder
    from setfield.scalars import QUATERNION

    rng = random.Random(29)
    h = random_field(K3, QUATERNION, rng)
    cm = build_matrices(K3, h)
    n = len(K3)
    for i in range(n):
        for j in range(n):
            core_sum = energy_sum(K3, h, set(K3.core(i)) & set(K3.core(j)))
            assert cm.L[i][j] == cm.L[j][i] == core_sum
            star_sum = energy_sum(K3, h, set(K3.star(i)) & set(K3.star(j)))
            sgn = omega(K3.elements[i]) * omega(K3.elements[j])
            assert cm.g[i][j] == cm.g[j][i] == sgn * star_sum


def test_green_diagonal_is_g_diagonal(K2):
    rng = random.Random(3)
    h = random_field(K2, COMPLEX, rng)
    diag = green_diagonal(K2, h)
    cm = build_matrices(K2, h)
    assert all(abs(diag[k] - cm.g[k][k]) < 1e-12 for k in range(3))
    U, V, W = h.values
    assert abs(diag[0] - (U + W)) < 1e-12
    assert abs(diag[1] - (V + W)) < 1e-12
    assert abs(diag[2] - W) < 1e-12


def test_green_diagonal_identity_on_zero_dimensional():
    system = SetSystem([[1], [2], [3]])
    h = explicit_field([1.5, -2.0, 7.0])
    assert green_diagonal(system, h) == [1.5, -2.0, 7.0]


def _link_characteristic(system, k):
    """chi of the link {y \\ x : y strictly above x}, summed with signs."""
    x = system.elements[k]
    return sum(omega(y - x) for y in system.elements if x < y)


def test_green_diagonal_link_formula_for_omega():
    # with h = omega the diagonal Green entry is omega(x) (1 - chi(link(x)))
    rng = random.Random(23)
    cases = [generate([[1, 2]]), generate([[1, 2, 3]]),
             generate([[1, 2], [2, 3], [3, 4], [5, 6]])]
    cases += [random_complex(rng) for _ in range(10)]
    for system in cases:
        diag = green_diagonal(system, omega_field(system))
        for k in range(len(system)):
            pred = omega(system.elements[k]) * (1 - _link_characteristic(system, k))
            assert diag[k] == pred, (system, k)


def test_entries_are_affine_in_each_field_value():
    rng = random.Random(31)
    system = random_complex(rng)
    n = len(system)
    base = [scalars.random_scalar(COMPLEX, rng) for _ in range(n)]
    for k in range(min(n, 4)):
        mats = []
        for t in (0.0, 1.0, 2.0):
            vals = list(base)
            vals[k] = vals[k] + t
            cm = build_matrices(system, explicit_field(vals))
            mats.append(cm)
        for M0, M1, M2 in ((mats[0].L, mats[1].L, mats[2].L),
                           (mats[0].g, mats[1].g, mats[2].g)):
            for i in range(n):
                for j in range(n):
                    d1 = M1[i][j] - M0[i][j]
                    d2 = M2[i][j] - M1[i][j]
                    assert abs(d1 - d2) < 1e-10


def test_trace_of_conjugate_g_L_is_total_norm():
    rng = random.Random(41)
    for kind, tol in ((COMPLEX, 1e-9), (GAUSSIAN, 0)):
        for _ in range(5):
            system = random_complex(rng)
            h = random_field(system, kind, rng)
            cm = build_matrices(system, h)
            prod = mat_mul(entrywise_conjugate(cm.g), cm.L, kind)
            tr = kind.zero
            for k in range(len(system)):
                tr = tr + prod[k][k]
            target = kind.zero
            for v in h.values:
                n2 = scalars.norm_sq(v)
                target = target + (scalars.GaussianRational(n2)
                                   if kind is GAUSSIAN else n2)
            if kind is GAUSSIAN:
                assert tr == target
            else:
                assert abs(tr - target) <= tol * max(1.0, abs(target))


def test_roots_field_values(K3):
    h = roots_field(K3, 7)
    assert len(h) == 7
    assert all(scalars.is_unit(v) for v in h.values)
    assert abs(h.values[6] - 1.0) < 1e-12  # k = 7 lands on 1


def test_ones_and_replace():
    system = SetSystem([[1], [2]])
    h = ones_field(system, GAUSSIAN)
    assert h.values[0] == scalars.GaussianRational(1)
    h2 = h.replace_value(1, scalars.GaussianRational(Fraction(1, 3)))
    assert h2.values[1] == scalars.GaussianRational(Fraction(1, 3))
    assert h.values[1] == scalars.GaussianRational(1)


def test_chain_characteristic_oracle_self_check():
    from oracles import (chain_euler_characteristic,
                         chain_euler_characteristic_by_enumeration)

    rng = random.Random(7)
    for _ in range(15):
        system = random_complex(rng, max_generators=2, max_cardinality=3)
        poset = list(system.elements)[:10]
        assert (chain_euler_characteristic(poset)
                == chain_euler_characteristic_by_enumeration(poset))


def test_join_genus_identity_for_omega_via_chain_oracle():
    # 1 - chi(S(x)) = (1 - chi(S-)) (1 - chi(S+)) where the spheres are the
    # strict lower / upper comparables and chi counts inclusion chains
    from oracles import chain_euler_characteristic

    rng = random.Random(53)
    cases = [generate([[1, 2, 3]])] + [random_complex(rng) for _ in range(6)]
    for system in cases:
        for k, x in enumerate(system.elements):
            below = [y for y in system.elements if y < x]
            above = [y for y in system.elements if x < y]
            sphere = below + above
            lhs = 1 - chain_euler_characteristic(sphere)
            rhs = ((1 - chain_euler_characteristic(below))
                   * (1 - chain_euler_characteristic(above)))
            assert lhs == rhs
            assert 1 - chain_euler_characteristic(below) == omega(x)
