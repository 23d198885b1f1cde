import math
import random
from fractions import Fraction

import pytest

from oracles import build_matrices_by_sets, fraction_det_rank, laplace_det
from setfield import (COMPLEX, GAUSSIAN, OCTONION, QUATERNION,
                      GaussianRational, Quaternion, SetSystem, abelianize,
                      bareiss_det, det_formula_check, dieudonne_det,
                      invert, leibniz_det, norm_sq, study_det)
from setfield import determinants, scalars
from setfield.connection import explicit_field, random_field
from setfield.determinants import MatrixSizeError, row_reduce
from setfield.setsystem import random_complex

LEIBNIZ_GOLDEN_SYSTEM = SetSystem([[1], [1, 3, 4], [1, 4, 5], [4], [1, 4]])


def rand_matrix(kind, rng, n):
    return [[scalars.random_scalar(kind, rng) for _ in range(n)]
            for _ in range(n)]


def test_leibniz_two_by_two():
    a, b, c, d = 2 + 1j, -1j, 3.0 + 0j, 1 - 1j
    assert abs(leibniz_det([[a, b], [c, d]]) - (a * d - b * c)) < 1e-12
    assert leibniz_det([[a]]) == a


def test_leibniz_golden_minus_24X():
    for X in (1.0, 2.5, -3.0, 0.25, 10.0):
        h = explicit_field([2, 4, 3, -1, X])
        cm = build_matrices_by_sets(LEIBNIZ_GOLDEN_SYSTEM, h)
        det = leibniz_det(cm.L)
        assert abs(det - (-24 * X)) < 1e-9 * max(1.0, abs(24 * X))
        assert abs(laplace_det(cm.L) - det) < 1e-9


def test_leibniz_cap(monkeypatch):
    n = 11
    M = [[float(i == j) for j in range(n)] for i in range(n)]
    with pytest.raises(MatrixSizeError):
        leibniz_det(M)
    small = [[float(i == j) for j in range(5)] for i in range(5)]
    monkeypatch.setattr(determinants, "DEFAULT_LEIBNIZ_CAP", 4)
    with pytest.raises(MatrixSizeError):
        leibniz_det(small)
    monkeypatch.setattr(determinants, "DEFAULT_LEIBNIZ_CAP", 5)
    assert leibniz_det(small) == 1.0


def test_leibniz_refusal_is_the_text_leibniz_det_raises():
    assert determinants.leibniz_refusal(10) is None
    refusal = "n=11 exceeds the permutation-sum cap 10"
    assert determinants.leibniz_refusal(11) == refusal
    M = [[float(i == j) for j in range(11)] for i in range(11)]
    with pytest.raises(MatrixSizeError) as info:
        leibniz_det(M)
    assert str(info.value) == refusal


def test_dieudonne_two_by_two_formulas():
    rng = random.Random(71)
    for _ in range(20):
        a, b, c, d = (scalars.random_nonzero(QUATERNION, rng) for _ in range(4))
        zero = Quaternion()
        got = dieudonne_det([[zero, b], [c, d]])
        want = abelianize(-(c * b))
        assert abs(got - want) < 1e-9 * max(1.0, want)

        got = dieudonne_det([[a, b], [c, d]])
        want = abelianize(a * d - a * (c * (invert(a) * b)))
        assert abs(got - want) < 1e-9 * max(1.0, want)

        one = Quaternion(1)
        got = dieudonne_det([[one, a], [b, a * b]])
        want = abelianize(a * b - b * a)
        assert abs(got - want) < 2e-9 * max(1.0, want)


def test_study_of_edge_matrix_is_product_of_norms(K2):
    rng = random.Random(5)
    for kind in (COMPLEX, QUATERNION):
        U, V, W = (scalars.random_nonzero(kind, rng) for _ in range(3))
        cm = build_matrices_by_sets(K2, explicit_field([U, V, W]))
        want = math.prod(scalars.norm(v) for v in (U, V, W))
        assert abs(study_det(cm.L) - want) < 1e-9 * want
        assert abs(study_det(cm.g) - want) < 1e-9 * want


def test_study_identity_and_quaternion_diagonal():
    ident = [[Quaternion(1 if i == j else 0) for j in range(4)]
             for i in range(4)]
    assert abs(study_det(ident) - 1.0) < 1e-12
    diag = [[Quaternion(0, 1, 0, 0), Quaternion()],
            [Quaternion(), Quaternion(0, 0, 2, 0)]]
    assert abs(study_det(diag) - 2.0) < 1e-12


def test_row_reduction_detects_singular():
    M = [[1.0 + 0j, 2.0 + 0j], [2.0 + 0j, 4.0 + 0j]]
    assert study_det(M) == 0.0
    assert dieudonne_det(M) == 0j
    exact = [[GaussianRational(1), GaussianRational(2)],
             [GaussianRational(2), GaussianRational(4)]]
    assert dieudonne_det(exact) == GaussianRational(0)


def test_bareiss_matches_laplace_oracle():
    rng = random.Random(13)
    for n in range(1, 6):
        for _ in range(10):
            M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert bareiss_det(M) == laplace_det(M)


def test_bareiss_det_and_rank_match_fraction_elimination():
    # products B C of random integer factors plant a rank deficit, and zero
    # columns end the elimination; the square cuts are the cases
    rng = random.Random(17)
    cases = [[[0] * 3] * 3, [[7]], [[0]], [[-3]]]
    for _ in range(300):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        k = rng.randint(0, min(rows, cols))
        B = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(rows)]
        C = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(k)]
        M = [[sum(b * c for b, c in zip(B[i], col)) for col in zip(*C)]
             if k else [0] * cols for i in range(rows)]
        zeroed = min(cols - 1, rng.choice((0, 0, 1, 3)))
        for j in rng.sample(range(cols), zeroed):
            for row in M:
                row[j] = 0
        if cols >= rows:
            cases.append([row[:rows] for row in M])
    for M in cases:
        assert bareiss_det(M) == fraction_det_rank(M)[0]
    assert bareiss_det([]) == 1


@pytest.mark.parametrize("M, zero_column", [
    ([[1, 0, 2], [3, 0, 4], [5, 0, 6]], 1),
    ([[2, 1, 0, 5], [4, 3, 0, 1], [1, 1, 0, 2], [0, 7, 0, 3]], 2),
    ([[0, 1], [0, 2]], 0),
])
def test_bareiss_stops_at_a_zero_column(M, zero_column):
    # a square matrix with a zero column is singular: the loop ends there
    steps = list(determinants._bareiss_steps([list(row) for row in M]))
    assert len(steps) == zero_column + 1 and steps[-1] is None
    assert bareiss_det(M) == 0 == fraction_det_rank(M)[0]


def test_cauchy_binet_for_study_and_dieudonne_quaternions():
    rng = random.Random(29)
    for n in (2, 3, 5, 8):
        A = rand_matrix(QUATERNION, rng, n)
        B = rand_matrix(QUATERNION, rng, n)
        AB = [[sum((A[i][k] * B[k][j] for k in range(n)), Quaternion())
               for j in range(n)] for i in range(n)]
        sA, sB, sAB = study_det(A), study_det(B), study_det(AB)
        assert abs(sAB - sA * sB) < 1e-8 * max(1.0, sA * sB)
        dA, dB, dAB = (dieudonne_det(M) for M in (A, B, AB))
        assert abs(dAB - dA * dB) < 1e-8 * max(1.0, dA * dB)


def test_leibniz_fails_cauchy_binet_on_noncommuting_pair():
    a = Quaternion(0, 1, 0, 0)
    b = Quaternion(0, 0, 1, 0)
    det_ab = leibniz_det([[a * b]])
    det_ba = leibniz_det([[b * a]])
    assert det_ab == a * b and det_ba == b * a
    assert det_ab != det_ba


def test_row_scaling_multiplies_dieudonne():
    rng = random.Random(37)
    for kind in (COMPLEX, QUATERNION):
        M = rand_matrix(kind, rng, 3)
        mu = scalars.random_nonzero(kind, rng)
        scaled = [row[:] for row in M]
        scaled[1] = [mu * v for v in scaled[1]]
        lhs = dieudonne_det(scaled)
        rhs = abelianize(mu) * dieudonne_det(M)
        assert scalars.norm(lhs - rhs) < 1e-8 * max(1.0, scalars.norm(rhs))


def test_transpose_invariance_commutative_kinds():
    rng = random.Random(43)
    for n in (2, 4):
        M = rand_matrix(COMPLEX, rng, n)
        Mt = [[M[j][i] for j in range(n)] for i in range(n)]
        d, dt = dieudonne_det(M), dieudonne_det(Mt)
        assert scalars.norm(d - dt) < 1e-8 * max(1.0, scalars.norm(d))
        assert abs(study_det(M) - study_det(Mt)) < 1e-8


def test_conjugate_transpose_invariance_quaternions():
    # over a noncommutative ring the *conjugate* transpose is the
    # anti-automorphism that preserves the row-reduction determinant;
    # the plain transpose does not (see the regression below)
    rng = random.Random(43)
    for n in (2, 4, 6):
        M = rand_matrix(QUATERNION, rng, n)
        Mct = [[scalars.conjugate(M[j][i]) for j in range(n)] for i in range(n)]
        d, dt = dieudonne_det(M), dieudonne_det(Mct)
        assert abs(d - dt) < 1e-8 * max(1.0, d)


def test_plain_transpose_can_change_quaternion_determinant():
    rng = random.Random(43)
    M = rand_matrix(QUATERNION, rng, 2)
    Mt = [[M[j][i] for j in range(2)] for i in range(2)]
    d, dt = dieudonne_det(M), dieudonne_det(Mt)
    assert abs(d - dt) > 1.0  # frozen counterexample: 4.7857 vs 13.0627


def test_complex_determinants_are_consistent():
    rng = random.Random(47)
    M = rand_matrix(COMPLEX, rng, 4)
    leib = leibniz_det(M)
    assert abs(dieudonne_det(M) - leib) < 1e-9 * max(1.0, abs(leib))
    assert abs(study_det(M) - abs(leib)) < 1e-9 * max(1.0, abs(leib))
    assert abs(laplace_det(M) - leib) < 1e-9 * max(1.0, abs(leib))


def test_swap_bookkeeping_on_permutation_matrix():
    P = [[0j, 1 + 0j], [1 + 0j, 0j]]
    assert abs(dieudonne_det(P) + 1) < 1e-12  # one swap -> -1 over C
    Pq = [[Quaternion(), Quaternion(1)], [Quaternion(1), Quaternion()]]
    assert abs(dieudonne_det(Pq) - 1.0) < 1e-12  # -1 is a commutator in H


def test_pivot_log_records_operations():
    M = [[0j, 1 + 0j], [2 + 0j, 1j]]
    elim = row_reduce(M, COMPLEX, want_log=True)
    assert any("swap" in line for line in elim.log)
    assert sum("pivot" in line for line in elim.log) == 2


def test_det_formula_on_edge_complex(K2):
    rng = random.Random(53)
    report = det_formula_check(K2, random_field(K2, COMPLEX, rng))
    assert report.holds and report.max_rel_deviation < 1e-9


def test_det_formula_with_zero_value(K2):
    h = explicit_field([1 + 0j, 0j, 2 + 0j])
    report = det_formula_check(K2, h)
    assert report.holds
    assert report.study_L == 0.0 and report.expected_study == 0.0


def test_det_formula_on_nonclosed_golden():
    for X in (1.0, -2.0, 0.5):
        h = explicit_field([2.0, 4.0, 3.0, -1.0, X])
        report = det_formula_check(LEIBNIZ_GOLDEN_SYSTEM, h)
        assert report.holds
        assert abs(report.study_L - 24 * abs(X)) < 1e-9 * max(1.0, 24 * abs(X))


def test_det_formula_exact_gaussian():
    rng = random.Random(59)
    system = random_complex(rng)
    h = random_field(system, GAUSSIAN, rng)
    report = det_formula_check(system, h)
    assert report.holds and report.exact_equal


def test_study_sq_exact_matches_norm_product():
    rng = random.Random(61)
    system = random_complex(rng, max_generators=3)
    h = random_field(system, GAUSSIAN, rng)
    cm = build_matrices_by_sets(system, h)
    want = Fraction(1)
    for v in h.values:
        want *= norm_sq(v)
    assert dieudonne_det(cm.L).norm_sq() == want


def test_det_formula_octonion_study_only():
    rng = random.Random(67)
    system = SetSystem([[1], [2], [1, 2]])
    h = random_field(system, OCTONION, rng)
    report = det_formula_check(system, h)
    assert report.dieudonne_L is None
    assert abs(report.study_L - report.expected_study) \
        < 1e-9 * max(1.0, report.expected_study)


def test_determinants_of_one_matrix_agree(K2):
    h = explicit_field([1 + 0j, 2j, 3 + 0j])
    L = build_matrices_by_sets(K2, h).L
    leibniz, dieudonne = leibniz_det(L), dieudonne_det(L)
    assert leibniz is not None and dieudonne is not None
    assert abs(study_det(L) - abs(leibniz)) < 1e-9
    assert row_reduce(L, want_log=True).log


@pytest.mark.parametrize("kind", [scalars.REAL, COMPLEX, QUATERNION, OCTONION,
                                  GAUSSIAN], ids=lambda k: k.name)
def test_det_formula_check_eliminates_each_matrix_once(kind, monkeypatch):
    # row_reduce serves the float kinds, the Z[i] Bareiss loop the Gaussian
    # rationals; both determinants of L and of g come from one pass each
    calls = []
    for name in ("row_reduce", "_bareiss_echelon"):
        original = getattr(determinants, name)
        monkeypatch.setattr(
            determinants, name,
            lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    system = SetSystem([[1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]])
    report = det_formula_check(system, random_field(system, kind,
                                                    random.Random(8)))
    assert report.holds or kind is OCTONION  # octonion Study values may miss
    assert len(calls) == 2
