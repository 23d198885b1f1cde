import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import setfield
from oracles import (fraction_det_rank, intersection_closure,
                     jacobian_by_sets, laplace_det, random_set_system)
from setfield import (SetSystem, determinants, field_matrices, generate,
                      kaehler)
from setfield.connection import explicit_field
from setfield.determinants import bareiss_det
from setfield.kaehler import (complete_complex_exponent, factorize,
                              intersection_counts, kaehler_form,
                              kaehler_report)
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
        assert report.rank == len(system) == fraction_det_rank(
            kaehler_form(system))[1]


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
    assert factorize(1) == ([], None)
    assert factorize(9) == ([(3, 2)], None)
    assert factorize(12) == ([(2, 2), (3, 1)], None)
    big = 3 ** 40 * 5 ** 3
    assert factorize(big) == ([(3, 40), (5, 3)], None)
    p = 1000003  # prime just past the trial-division bound
    assert factorize(p * 9) == ([(3, 2), (p, 1)], None)


def test_composite_cofactor_keeps_the_exact_determinant(monkeypatch):
    # both primes exceed the trial-division bound, so their product is left
    cofactor = 1000003 * 1000033
    assert factorize(4 * cofactor) == ([(2, 2)], cofactor)
    assert factorize(cofactor) == ([], cofactor)

    # {2} is missing, so the determinant comes from Bareiss
    unclosed = SetSystem([[1, 2], [2, 3]])
    monkeypatch.setattr(determinants, "bareiss_det",
                        lambda form: 9 * cofactor)
    report = kaehler_report(unclosed)
    assert report.det == 9 * cofactor and report.rank == 2
    assert report.factorization == [(3, 2)]
    assert report.unfactored == cofactor
    monkeypatch.undo()
    assert kaehler_report(unclosed).unfactored is None


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
    assert [len(row) for row in kaehler_form(K2)] == [3, 3, 3]


def _closed_and_counted(system):
    counts = intersection_counts(system)
    assert counts is not None and all(c >= 1 for c in counts)
    return kaehler_report(system).det


def test_product_of_counts_is_the_bareiss_determinant_on_complexes():
    rng = random.Random(61)
    for _ in range(300):
        system = random_complex(rng)
        assert _closed_and_counted(system) == bareiss_det(kaehler_form(system))


def test_product_of_counts_is_the_bareiss_determinant_on_closures():
    # intersection closures of systems that are not closed under subsets,
    # in draw order: the product needs no canonical order
    rng = random.Random(67)
    not_complexes = 0
    for _ in range(300):
        system = intersection_closure(
            random_set_system(rng, rng.randint(1, 12)))
        not_complexes += not system.is_simplicial_complex()
        assert _closed_and_counted(system) == bareiss_det(kaehler_form(system))
    assert not_complexes > 250


def test_counts_exist_exactly_on_systems_closed_under_intersection():
    rng = random.Random(71)
    unclosed = 0
    for _ in range(300):
        system = random_set_system(rng, rng.randint(1, 12))
        closed = len(intersection_closure(system)) == len(system)
        assert (intersection_counts(system) is not None) == closed
        unclosed += not closed
        assert kaehler_report(system).det == bareiss_det(kaehler_form(system))
    assert unclosed > 150


def test_full_simplex_on_eight_vertices():
    system = complete_complex(8)
    assert complete_complex_exponent(8) == 1016
    assert intersection_counts(system) == [
        3 ** (8 - len(x)) for x in system.elements]
    report = kaehler_report(system)
    assert report.det == 3 ** 1016 and report.factorization == [(3, 1016)]
    assert report.rank == report.n == 255


def test_bareiss_runs_only_on_systems_not_closed_under_intersection(
        monkeypatch):
    calls = []
    original = determinants.bareiss_det

    def counting(form):
        calls.append(len(form))
        return original(form)

    monkeypatch.setattr(determinants, "bareiss_det", counting)
    assert kaehler_report(generate([[1, 2, 3], [3, 4, 5]])).det == 3 ** 14 * 35
    # 7 of the 9 ordered pairs meet in {3}; each triangle meets only itself
    assert kaehler_report(SetSystem([[1, 2, 3], [3, 4, 5], [3]])).det == 7
    assert calls == []
    # without {3} the form is the identity
    assert kaehler_report(SetSystem([[1, 2, 3], [3, 4, 5]])).det == 1
    assert calls == [2]


def test_the_form_is_built_only_for_bareiss(monkeypatch):
    original = kaehler.kaehler_form
    monkeypatch.setattr(kaehler, "kaehler_form",
                        lambda system: pytest.fail("the form was built"))
    for v in range(3, 7):
        assert kaehler_report(complete_complex(v)).det == (
            3 ** complete_complex_exponent(v))
    two_fives = generate([[1, 2, 3, 4, 5], [3, 4, 5, 6, 7]])
    assert kaehler_report(two_fives).det == 3 ** 113 * 5 ** 7 * 7 ** 7
    calls = []

    def counting(system):
        calls.append(len(system))
        return original(system)

    monkeypatch.setattr(kaehler, "kaehler_form", counting)
    # {3} is missing, so the determinant comes from Bareiss
    assert kaehler_report(SetSystem([[1, 2, 3], [3, 4, 5]])).det == 1
    assert calls == [2]


def test_a_complex_needs_neither_determinants_nor_scalars_nor_numpy():
    src = str(Path(setfield.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    unused = ["setfield.determinants", "setfield.scalars", "numpy"]
    script = "\n".join([
        "import sys",
        "from setfield.kaehler import kaehler_report",
        "from setfield.setsystem import SetSystem, generate",
        "report = kaehler_report(generate([[1, 2, 3, 4, 5], [3, 4, 5, 6, 7]]))",
        "before = [m in sys.modules for m in %r]" % (unused,),
        "kaehler_report(SetSystem([[1, 2], [2, 3]]))",
        "print(repr((report.det == 3 ** 113 * 5 ** 7 * 7 ** 7, before,",
        "            'setfield.determinants' in sys.modules)))"])
    proc = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == repr((True, [False] * 3, True))
