import random

import pytest

from oracles import (fraction_det_rank, jacobian_by_sets, laplace_det,
                     random_set_system)
from setfield import SetSystem, field_matrices, generate
from setfield.connection import explicit_field
from setfield.determinants import bareiss_det
from setfield import kaehler
from setfield.kaehler import (CompositeCofactorError,
                              complete_complex_exponent, factorize,
                              kaehler_form, kaehler_report)
from setfield.setsystem import complete_complex, random_complex


def test_jacobian_zero_dimensional_is_identity_like():
    system = SetSystem([[1], [2]])
    J = jacobian_by_sets(system)
    assert J.shape == (4, 2)
    form = kaehler_form(system)
    assert form == [[1, 0], [0, 1]]
    assert bareiss_det(form) == 1


def test_jacobian_single_multiset():
    system = SetSystem([[1, 2, 3]])
    J = jacobian_by_sets(system)
    assert J.shape == (1, 1) and J[0, 0] == 1


def test_jacobian_matches_symbolic_edge_matrix(K2):
    # column k of the Jacobian must be the flattened L for the k-th basis
    # field; cross-checked against L built the ordinary way
    J = jacobian_by_sets(K2)
    n = len(K2)
    for k in range(n):
        basis = [0.0] * n
        basis[k] = 1.0
        L = field_matrices(K2, explicit_field(basis)).L[0]
        flat = L.ravel().tolist()
        assert list(J[:, k]) == flat


def test_zeta_and_form_match_set_oracles():
    rng = random.Random(41)
    for n in [0, 1, 1] + [rng.randint(2, 24) for _ in range(20)]:
        system = random_set_system(rng, n)
        Z = system.zeta
        assert Z.shape == (n, n) and not Z.flags.writeable
        assert Z.tolist() == [[int(a <= b) for b in system] for a in system]
        J = jacobian_by_sets(system)
        assert kaehler_form(system) == (J.T @ J).tolist()


def test_edge_form_and_det(K2):
    form = kaehler_form(K2)
    assert form == [[4, 1, 1], [1, 4, 1], [1, 1, 1]]
    assert bareiss_det(form) == 9
    assert laplace_det(form) == 9


def test_triangle_det_is_three_to_ninth(K3):
    assert bareiss_det(kaehler_form(K3)) == 3 ** 9


def test_form_symmetry_and_diagonal():
    rng = random.Random(3)
    for _ in range(5):
        system = random_complex(rng)
        form = kaehler_form(system)
        assert form == [list(column) for column in zip(*form)]
        assert all(v >= 0 for row in form for v in row)
        for k in range(len(system)):
            assert form[k][k] == system.star_rows[k].bit_count() ** 2


def test_full_rank_on_generated_complexes():
    rng = random.Random(5)
    for _ in range(8):
        system = random_complex(rng)
        report = kaehler_report(system)
        assert report.rank == report.n
        assert report.det > 0


def test_form_is_positive_definite_on_every_set_system():
    # Z is unitriangular up to order, so J has full column rank: the report
    # never needs an exact rank, and an elimination over Fractions agrees
    rng = random.Random(53)
    systems = [random_complex(rng, max_generators=3, max_vertices=5)
               for _ in range(100)]
    systems += [random_set_system(rng, rng.randint(1, 12)) for _ in range(100)]
    for system in systems:
        report = kaehler_report(system)
        assert report.det > 0
        assert report.rank == len(system) == fraction_det_rank(report.form)[1]


def test_triangle_boundary_det_is_not_divisible_by_3():
    # a cycle graph: gamma(vertex) = d^2 + d + 1 = 7, gamma(edge) = 1
    cycle = generate([[1, 2], [2, 3], [1, 3]])
    report = kaehler_report(cycle)
    assert report.det == 343 == 7 ** 3
    assert report.factorization == [(7, 3)]


def test_det_multiplies_over_disjoint_union():
    rng = random.Random(7)
    for _ in range(5):
        a = random_complex(rng, max_generators=2, max_vertices=4)
        b_raw = random_complex(rng, max_generators=2, max_vertices=4)
        shift = max(a.vertex_union) if a.vertex_union else 0
        b = SetSystem([{v + shift for v in e} for e in b_raw.elements])
        union = SetSystem(list(a.elements) + list(b.elements))
        det_a = bareiss_det(kaehler_form(a))
        det_b = bareiss_det(kaehler_form(b))
        assert bareiss_det(kaehler_form(union)) == det_a * det_b


def test_factorize_basics():
    assert factorize(1) == []
    assert factorize(9) == [(3, 2)]
    assert factorize(12) == [(2, 2), (3, 1)]
    big = 3 ** 40 * 5 ** 3
    assert factorize(big) == [(3, 40), (5, 3)]
    p = 1000003  # prime just past the trial-division bound
    assert factorize(p * 9) == [(3, 2), (p, 1)]


def test_composite_cofactor_keeps_the_exact_determinant(K2, monkeypatch):
    # both primes exceed the trial-division bound, so their product is left
    cofactor = 1000003 * 1000033
    with pytest.raises(CompositeCofactorError) as info:
        factorize(4 * cofactor)
    assert info.value.factors == [(2, 2)]
    assert info.value.cofactor == cofactor
    assert "composite cofactor %d" % cofactor in str(info.value)

    monkeypatch.setattr(kaehler, "bareiss_det", lambda form: 9 * cofactor)
    report = kaehler_report(K2)
    assert report.det == 9 * cofactor and report.rank == 3
    assert report.factorization == [(3, 2)]
    assert report.unfactored == cofactor
    monkeypatch.undo()
    assert kaehler_report(K2).unfactored is None


def test_complete_complex_formula_small():
    assert complete_complex_exponent(2) == 2
    assert complete_complex_exponent(3) == 9
    assert complete_complex_exponent(4) == 28
    assert complete_complex_exponent(5) == 75


def test_tetrahedron_det_resolves_conflicting_values():
    # two candidate values circulate for the full complex on 4 vertices
    # (3^15 and 3^28); the exact computation decides between them
    det = bareiss_det(kaehler_form(complete_complex(4)))
    assert det != 3 ** 15
    assert det == 3 ** 28
    assert det == 3 ** complete_complex_exponent(4)


def test_report_bundle(K2):
    report = kaehler_report(K2)
    assert report.n == 3
    assert report.det == 9
    assert report.factorization == [(3, 2)]
    assert report.rank == 3
    assert [len(row) for row in report.form] == [3, 3, 3]
