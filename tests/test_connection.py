import dataclasses
import random
from fractions import Fraction

import pytest

import oracles
from oracles import entrywise_conjugate, mat_mul
from setfield import (COMPLEX, GAUSSIAN, SetSystem, energy_check,
                      field_matrices, gauss_bonnet_check, generate, omega,
                      omega_field)
from setfield import kernel, scalars
from setfield.connection import (explicit_field, ones_field, random_field,
                                 roots_field)
from setfield.setsystem import random_complex


def _matrices(system, h):
    """L and g of connection.field_matrices as lists of rows of scalars."""
    fm = field_matrices(system, h)
    return [kernel.from_array(M, h.kind, fm.scale) for M in (fm.L, fm.g)]


def _potential_and_curvature(system, h):
    """FieldMatrices.potential_and_curvature as two lists of scalars."""
    fm = field_matrices(system, h)
    return tuple(kernel.from_array(X[:, None], h.kind, fm.scale)[0]
                 for X in fm.potential_and_curvature())


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
    L, _ = _matrices(K3, h)
    assert L[0][1] == 0  # H of core({1}) & core({2}), which is empty
    # H(G), the energy check's right-hand side
    assert energy_check(K3, h).details["rhs"] == 1  # Euler characteristic of a simplex
    hv = explicit_field([2 + 1j, 3 - 1j, 0.5j])
    assert energy_check(K2, hv).details["rhs"] == scalars.to_jsonable(
        (2 + 1j) + (3 - 1j) + 0.5j)


def test_edge_matrices_match_symbolic_form(K2):
    rng = random.Random(17)
    for _ in range(5):
        U, V, W = (scalars.random_nonzero(COMPLEX, rng) for _ in range(3))
        h = explicit_field([U, V, W])
        gotL, gotg = _matrices(K2, h)
        L, g = expected_K2_matrices(U, V, W)
        for i in range(3):
            for j in range(3):
                assert abs(gotL[i][j] - L[i][j]) < 1e-12
                assert abs(gotg[i][j] - g[i][j]) < 1e-12
    assert field_matrices(K2, h).signs == (1, 1, -1)


def test_nonclosed_pair_matrices(nonclosed_pair):
    X = 5
    L, g = _matrices(nonclosed_pair, explicit_field([1, X]))
    assert L == [[X + 1, X], [X, X]]
    assert g == [[1, 1], [1, X + 1]]


def test_zero_dimensional_matrices_are_diagonal():
    system = SetSystem([[1], [2]])
    L, g = _matrices(system, explicit_field([2.5, -4.0]))
    assert L == [[2.5, 0], [0, -4.0]]
    assert g == [[2.5, 0], [0, -4.0]]


def test_field_length_mismatch(K2):
    with pytest.raises(ValueError):
        field_matrices(K2, explicit_field([1.0]))


def test_super_trace_cases(K2, K3):
    def super_trace(system, values):
        h = explicit_field(values)
        return gauss_bonnet_check(system, h).details["super_trace"]

    # h = (0, 0, 1) gives g on K2 the diagonal (1, 1, 1); signs (1, 1, -1)
    _, g = _matrices(K2, explicit_field([0, 0, 1]))
    assert [row[k] for k, row in enumerate(g)] == [1, 1, 1]
    assert super_trace(K2, [0, 0, 1]) == 1
    assert super_trace(K3, omega_field(K3).values) == 1  # equals chi(K3)
    assert super_trace(K2, [0, 0, 0]) == 0


def test_potential_equals_curvature_on_complexes(K2):
    V, K = _potential_and_curvature(K2, omega_field(K2))
    assert V == K
    system = SetSystem([[1], [2]])
    V, K = _potential_and_curvature(system, explicit_field([3.0, -1.0]))
    assert V == K == [3.0, -1.0]


def test_potential_and_curvature_reported_separately_off_complex(nonclosed_pair):
    V, K = _potential_and_curvature(nonclosed_pair, explicit_field([1, 1]))
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
    L, g = _matrices(K3, h)
    sets = K3.elements
    core = [{k for k, y in enumerate(sets) if y <= x} for x in sets]
    star = [{k for k, y in enumerate(sets) if x <= y} for x in sets]
    n = len(K3)
    for i in range(n):
        for j in range(n):
            core_sum = oracles.energy(h, core[i] & core[j])
            assert L[i][j] == L[j][i] == core_sum
            star_sum = oracles.energy(h, star[i] & star[j])
            sgn = omega(sets[i]) * omega(sets[j])
            assert g[i][j] == g[j][i] == sgn * star_sum


def test_green_diagonal_is_g_diagonal(K2):
    rng = random.Random(3)
    h = random_field(K2, COMPLEX, rng)
    _, g = _matrices(K2, h)
    diag = [row[k] for k, row in enumerate(g)]
    U, V, W = h.values
    assert abs(diag[0] - (U + W)) < 1e-12
    assert abs(diag[1] - (V + W)) < 1e-12
    assert abs(diag[2] - W) < 1e-12


def test_green_diagonal_identity_on_zero_dimensional():
    system = SetSystem([[1], [2], [3]])
    h = explicit_field([1.5, -2.0, 7.0])
    _, g = _matrices(system, h)
    assert [row[k] for k, row in enumerate(g)] == [1.5, -2.0, 7.0]


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
        _, g = _matrices(system, omega_field(system))
        for k in range(len(system)):
            pred = omega(system.elements[k]) * (1 - _link_characteristic(system, k))
            assert g[k][k] == pred, (system, k)


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
            mats.append(_matrices(system, explicit_field(vals)))
        for M0, M1, M2 in zip(*mats):  # L, then g
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
            L, g = _matrices(system, h)
            prod = mat_mul(entrywise_conjugate(g), L, kind)
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
    h2 = dataclasses.replace(
        h, values=(h[0], scalars.GaussianRational(Fraction(1, 3))))
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
