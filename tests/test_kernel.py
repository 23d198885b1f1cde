"""The array kernel against the per-entry code it replaced.

Products, conjugates, norms and eliminations of all five kinds must be
repr-equal (zero tolerance, signed zeros and int-valued entries included) to
the per-entry loops kept in oracles.py; Gaussian results are exact and must
be equal.
"""

import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import oracles
import pytest

from setfield import determinants, kernel, scalars
from setfield.connection import omega_field, ones_field, random_field
from setfield.determinants import dieudonne_det, leibniz_det, row_reduce
from setfield.scalars import GAUSSIAN, KINDS, GaussianRational
from setfield.setsystem import random_complex

KIND_CYCLE = ("real", "complex", "quaternion", "octonion", "gaussian")
MAX_ELEMENTS = 12


def _systems(count, seed):
    """Seeded systems, alternating random complexes and systems that are
    not closed under subsets, with at most MAX_ELEMENTS elements."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if len(out) % 2:
            system = oracles.random_set_system(rng, rng.randint(1, 10))
        else:
            system = random_complex(rng, max_generators=3)
        if len(system) <= MAX_ELEMENTS:
            out.append(system)
    return out


def _field(system, kind, rng, variant):
    """variant 0: unit field, 1: nonunit field, 2: nonunit with one zero."""
    h = random_field(system, kind, rng, unit=variant == 0)
    if variant == 2:
        values = list(h.values)
        values[rng.randrange(len(h))] = kind.zero
        h = dataclasses.replace(h, values=values)
    return h


def _cases(count=200, seed=2024):
    rng = random.Random(seed)
    for t, system in enumerate(_systems(count, seed)):
        kind = KINDS[KIND_CYCLE[t % 5]]
        yield kind, oracles.build_matrices_by_sets(
            system, _field(system, kind, rng, t % 3))


def _product(A, B, kind):
    """kernel.product on nested lists of scalars, read back as lists."""
    X, sx = kernel.to_array(A, kind)
    Y, sy = kernel.to_array(B, kind)
    return kernel.from_array(kernel.product(X, Y, kind), kind, sx * sy)


def _elimination_repr(elim):
    return repr(elim.pivots), elim.swaps, elim.singular, elim.log


def test_scalar_products_match_per_entry_formulas():
    rng = random.Random(5)
    special = (0.0, -0.0, 1.0, -1.0)

    def draw(d):
        return tuple(rng.choice(special) if rng.random() < 0.3
                     else rng.uniform(-3, 3) for _ in range(d))

    for _ in range(2000):
        p, q = draw(4), draw(4)
        got = scalars.Quaternion(*p) * scalars.Quaternion(*q)
        assert repr(got.components()) == repr(oracles.quaternion_product(p, q))
        p, q = draw(8), draw(8)
        got = scalars.Octonion(p) * scalars.Octonion(q)
        assert repr(got.components()) == repr(oracles.octonion_product(p, q))


@pytest.mark.parametrize("kind_name", ["quaternion", "octonion"])
def test_term_table_products_keep_signed_zeros(kind_name):
    # few distinct values, signed zeros among them, so that products repeat
    # and group sums cancel exactly to +0.0.  -(a + b) is -0.0 where
    # (-a) + (-b) is +0.0, so a table that folds a group's sign into its
    # terms fails here.
    kind = KINDS[kind_name]
    d = kind.n_components
    formula = scalars.quat_mul if kind is scalars.QUATERNION else scalars.oct_mul
    rng = np.random.default_rng(17)
    values = [0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 2.0, 0.5]
    P, Q = (rng.choice(values, size=(d, 64, 64)) for _ in range(2))
    want = np.array(formula(P, Q))
    assert kernel.multiply(P, Q, kind).tobytes() == want.tobytes()
    P, Q = P[:, :8, :1], Q[:, :1, :8]  # broadcast, as in a block of products
    want = np.array(formula(P, Q))
    assert kernel.multiply(P, Q, kind).tobytes() == want.tobytes()


def test_mat_mul_is_bit_identical_to_per_entry():
    kinds_seen = set()
    for kind, cm in _cases():
        kinds_seen.add(kind.name)
        gbar = oracles.entrywise_conjugate(cm.g)
        for A, B in ((gbar, cm.L), (cm.L, gbar)):
            assert repr(_product(A, B, kind)) == repr(oracles.mat_mul(A, B, kind))
    assert kinds_seen == set(KIND_CYCLE)


def test_integer_products_stay_integers():
    for system in _systems(20, 11):
        for h in (omega_field(system), ones_field(system)):
            cm = oracles.build_matrices_by_sets(system, h)
            got = _product(cm.g, cm.L, h.kind)
            assert repr(got) == repr(oracles.mat_mul(cm.g, cm.L, h.kind))
            assert all(type(v) is int for row in got for v in row)


def test_conjugates_and_norms_match_per_entry():
    for kind, cm in _cases(count=100, seed=8):
        X, scale = kernel.to_array(cm.g, kind)
        got = kernel.from_array(kernel.conjugate(X, kind), kind, scale)
        assert repr(got) == repr(oracles.entrywise_conjugate(cm.g))
        want = [[float(scalars.norm_sq(v)) for v in row] for row in cm.g]
        assert repr(kernel.norms(X, kind, scale).tolist()) == repr(want)


@pytest.mark.parametrize("block_products", [1, 12])
def test_row_reduce_is_bit_identical_to_per_entry(monkeypatch, block_products):
    # 1 puts a row in each block of the update; 12 puts several rows in a
    # block for the one-component kinds near the end of the elimination
    singular = 0
    for kind, cm in _cases():
        for M in (cm.L, cm.g):
            got = row_reduce(M, kind, want_log=True)
            want = oracles.row_reduce(M, kind, want_log=True)
            assert _elimination_repr(got) == _elimination_repr(want)
            assert repr(row_reduce(M, kind).pivots) == repr(want.pivots)
            with monkeypatch.context() as patch:
                patch.setattr(kernel, "BLOCK_PRODUCTS", block_products)
                got = row_reduce(M, kind, want_log=True)
            assert _elimination_repr(got) == _elimination_repr(want)
            singular += got.singular
    assert singular  # the zero field values reach the singular branch


def test_gaussian_row_reduce_memory_stays_near_per_entry():
    """Gaussian entries grow as the elimination goes on; read off the
    Bareiss loop, which keeps only the rows still to be eliminated, the
    peak stays within 1.2 times the per-entry Fraction loop's, with the
    same pivots, swaps and log."""
    rng = random.Random(23)
    n = 24
    M = [[scalars.random_scalar(GAUSSIAN, rng) for _ in range(n)]
         for _ in range(n)]
    peaks = []
    for reduce in (row_reduce, oracles.row_reduce):
        tracemalloc.start()
        try:
            reduce(M, GAUSSIAN)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.2 * peaks[1], peaks
    got = row_reduce(M, GAUSSIAN, want_log=True)
    want = oracles.row_reduce(M, GAUSSIAN, want_log=True)
    assert not want.singular
    assert _elimination_repr(got) == _elimination_repr(want)


@pytest.mark.parametrize("kind_name", ["quaternion", "octonion", "gaussian",
                                       "real", "complex"])
def test_rectangular_and_blocked_products(monkeypatch, kind_name):
    kind = KINDS[kind_name]
    rng = random.Random(7)
    A = [[scalars.random_scalar(kind, rng) for _ in range(5)] for _ in range(3)]
    B = [[scalars.random_scalar(kind, rng) for _ in range(4)] for _ in range(5)]
    want = repr(oracles.mat_mul(A, B, kind))
    assert repr(_product(A, B, kind)) == want
    monkeypatch.setattr(kernel, "BLOCK_PRODUCTS", 5)  # blocks of one k
    assert repr(_product(A, B, kind)) == want


def _old_gaussian_dets(M):
    """|det|^2 and det from the Fraction elimination's pivots."""
    elim = oracles.row_reduce(M, GAUSSIAN)
    if elim.singular:
        return Fraction(0), GaussianRational()
    sq = math.prod(scalars.norm_sq(p) for p in elim.pivots)
    det = scalars.product_right(elim.pivots)
    return sq, (-det if elim.swaps % 2 else det)


def test_gaussian_integer_det_matches_fraction_elimination(monkeypatch):
    count = 0
    for kind, cm in _cases(count=200, seed=99):
        if kind is not GAUSSIAN:
            continue
        for M in (cm.L, cm.g):
            sq, det = _old_gaussian_dets(M)
            monkeypatch.setattr(determinants, "DEFAULT_LEIBNIZ_CAP", len(M))
            assert leibniz_det(M, GAUSSIAN).norm_sq() == sq
            got = dieudonne_det(M, GAUSSIAN)
            assert got == det and repr(got) == repr(det)
            count += 1
    assert count == 80


def test_gaussian_integer_det_matches_laplace():
    rng = random.Random(31)
    for n in range(1, 7):
        for trial in range(12):
            M = [[scalars.random_scalar(GAUSSIAN, rng) for _ in range(n)]
                 for _ in range(n)]
            if trial % 4 == 0 and n > 1:  # a repeated row: singular
                M[-1] = list(M[0])
            if trial % 4 == 1:  # a zero leading column forces a swap
                for row in M[:-1]:
                    row[0] = GaussianRational()
            want = oracles.laplace_det(M)
            assert dieudonne_det(M, GAUSSIAN) == want
            assert leibniz_det(M, GAUSSIAN).norm_sq() == want.norm_sq()


def test_to_gaussian_integers_scales_by_lcm():
    M = [[GaussianRational(Fraction(1, 2), Fraction(-1, 3)), GaussianRational(2)],
         [GaussianRational(0, Fraction(3, 4)), GaussianRational()]]
    X, D = kernel.to_array(M, GAUSSIAN)
    assert D == 12
    re, im = X.tolist()
    assert re == [[6, 24], [0, 0]] and im == [[-4, 0], [9, 0]]


# ---------------------------------------------------------------------------
# the Gaussian elimination, read off the Bareiss loop, against the Fraction
# elimination in oracles.py

def _gaussian(re, im=0, den=1):
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def _assert_gaussian_elimination_matches(M):
    got = row_reduce(M, GAUSSIAN, want_log=True)
    want = oracles.row_reduce(M, GAUSSIAN, want_log=True)
    assert _elimination_repr(got) == _elimination_repr(want)
    assert repr(row_reduce(M, GAUSSIAN).pivots) == repr(want.pivots)
    X, scale = kernel.to_array(M, GAUSSIAN)
    got = row_reduce((X, scale), GAUSSIAN, want_log=True)
    assert _elimination_repr(got) == _elimination_repr(want)
    return want


def test_gaussian_elimination_zero_first_column_is_singular_at_once():
    rng = random.Random(3)
    M = [[_gaussian(0)] + [scalars.random_scalar(GAUSSIAN, rng)
                           for _ in range(3)] for _ in range(4)]
    want = _assert_gaussian_elimination_matches(M)
    assert want.singular and not want.pivots
    assert want.log == ["column 0 has no usable pivot; matrix is singular"]


def test_gaussian_elimination_swap_then_singular_column():
    rng = random.Random(5)
    for _ in range(20):
        M = [[scalars.random_scalar(GAUSSIAN, rng) for _ in range(4)]
             for _ in range(4)]
        M[0][0] = _gaussian(0)  # the first pivot needs a swap
        # the last row is a combination of the first two: singular later
        a, b = (scalars.random_scalar(GAUSSIAN, rng) for _ in range(2))
        M[3] = [a * x + b * y for x, y in zip(M[0], M[1])]
        want = _assert_gaussian_elimination_matches(M)
        assert want.swaps and want.singular and want.pivots


def test_gaussian_elimination_of_the_empty_matrix():
    want = _assert_gaussian_elimination_matches([])
    assert (want.pivots, want.swaps, want.singular, want.log) == \
        ([], 0, False, [])


def test_gaussian_elimination_with_a_matrix_scale():
    # denominators 2, 3, 4 and 5: the Gaussian integers are 60 times M
    rng = random.Random(9)
    for n in range(1, 6):
        M = [[_gaussian(rng.randint(-4, 4), rng.randint(-4, 4),
                        rng.choice((2, 3, 4, 5))) for _ in range(n)]
             for _ in range(n)]
        M[0][0] = _gaussian(1, 1, 60)
        assert kernel.to_array(M, GAUSSIAN)[1] == 60
        _assert_gaussian_elimination_matches(M)
