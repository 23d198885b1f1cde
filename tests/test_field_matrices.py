"""L and g built on the inclusion matrix, and the identity checks run on
component arrays, against the per-entry code they replaced.

The set-intersection construction and the per-entry checks live in oracles.py.
Every entry of L and g sums field values in increasing element order from
zero in both, so matrices and reports must be repr-equal: zero tolerance,
signed zeros and Python number types included.  The checks on one
(system, field) pair share one build of L and g.
"""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import oracles
import pytest

from setfield import connection, determinants, identities, kernel, scalars
from setfield.connection import (EnergyFunction, field_matrices, omega_field,
                                 ones_field, random_field)
from setfield.determinants import MatrixSizeError, det_formula_check, leibniz_det
from setfield.scalars import (COMPLEX, GAUSSIAN, KINDS, OCTONION, QUATERNION,
                              REAL, GaussianRational, Octonion, Quaternion)
from setfield.setsystem import SetSystem, random_complex

KIND_CYCLE = ("real", "complex", "quaternion", "octonion", "gaussian")
VARIANTS = ("unit", "nonunit", "one-zero", "signed-zeros")
CHECKS = ((identities.green_star_check, oracles.green_star_by_entries),
          (identities.energy_check, oracles.energy_by_entries),
          (identities.gauss_bonnet_check, oracles.gauss_bonnet_by_entries),
          (det_formula_check, oracles.det_formula_by_entries))


def _signed_zero(kind, rng):
    """A value whose zero components carry random signs."""
    def comp():
        return rng.choice((0.0, -0.0, rng.uniform(-2, 2)))

    if kind is REAL:
        return rng.choice((0.0, -0.0))
    if kind is COMPLEX:
        return complex(comp(), rng.choice((0.0, -0.0)))
    if kind is QUATERNION:
        return Quaternion(*(comp() for _ in range(4)))
    if kind is OCTONION:
        return Octonion(tuple(comp() for _ in range(8)))
    return GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 6)))


def _field(system, kind, rng, variant):
    h = random_field(system, kind, rng, unit=variant == "unit")
    values = list(h.values)
    if variant == "one-zero":
        values[rng.randrange(len(h))] = kind.zero
    elif variant == "signed-zeros":
        for k in rng.sample(range(len(h)), (len(h) + 1) // 2):
            values[k] = _signed_zero(kind, rng)
    return dataclasses.replace(h, values=values)


def _systems(count, seed, max_elements=16):
    """Random complexes alternating with systems not closed under subsets."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if len(out) % 2:
            system = oracles.random_set_system(rng, rng.randint(1, 14))
        else:
            system = random_complex(rng, max_generators=3)
        if len(system) <= max_elements:
            out.append(system)
    return out


def _cases(count, seed):
    """(system, field) pairs: every kind and variant, plus the integer-valued
    real fields omega and ones, and Gaussian fields with denominators."""
    rng = random.Random(seed)
    for t, system in enumerate(_systems(count, seed)):
        kind = KINDS[KIND_CYCLE[t % 5]]
        yield system, _field(system, kind, rng, VARIANTS[(t // 5) % 4])
        if t % 5 == 0:
            yield system, omega_field(system)
            yield system, ones_field(system)
        if t % 5 == 4:
            yield system, ones_field(system, GAUSSIAN)


def _matrices(system, h):
    """L and g of field_matrices as tuples of rows of scalars."""
    fm = field_matrices(system, h)
    return [tuple(map(tuple, kernel.from_array(M, h.kind, fm.scale)))
            for M in (fm.L, fm.g)]


def test_build_matches_set_intersections():
    seen = set()
    for system, h in _cases(160, 11):
        fm = field_matrices(system, h)
        L, g = _matrices(system, h)
        want = oracles.build_matrices_by_sets(system, h)
        assert repr(L) == repr(want.L), (system, h)
        assert repr(g) == repr(want.g), (system, h)
        assert fm.signs == want.signs and fm.kind is h.kind
        seen.add(h.kind.name)
        if h.kind is GAUSSIAN:
            seen.add("gaussian-denominators" if any(
                v.re.denominator > 1 or v.im.denominator > 1
                for v in h.values) else "gaussian-integers")
        if h.kind is REAL and all(type(v) is int for v in h.values):
            assert all(type(v) is int for row in L for v in row)
            seen.add("int-valued")
    assert seen >= set(KIND_CYCLE) | {"gaussian-denominators",
                                      "gaussian-integers", "int-valued"}


def test_running_sum_adds_one_term_at_a_time():
    """Floats with signed zeros and wide magnitudes, where a pairwise sum
    would differ, and Python numbers whose types must survive."""
    rng = random.Random(17)

    def loop(row, zero):
        total = row[0] if zero is None else zero + row[0]
        for v in row[1:]:
            total = total + v
        return total

    for _ in range(200):
        n = rng.randint(1, 40)
        rows = [[rng.choice((0.0, -0.0, rng.uniform(-1, 1)
                             * 10.0 ** rng.randint(-12, 12)))
                 for _ in range(n)] for _ in range(3)]
        mixed = [[rng.choice((rng.randint(-3, 3), rng.uniform(-1, 1),
                              complex(rng.uniform(-1, 1), -0.0)))
                  for _ in range(n)]]
        for X, zero in ((np.array(rows), 0.0), (np.array(rows), None),
                        (np.array(mixed, dtype=object), 0),
                        (np.array(mixed, dtype=object), None)):
            want = [loop(row, zero) for row in X.tolist()]
            assert repr(kernel.running_sum(X, zero).tolist()) == repr(want)


def test_build_of_empty_system():
    system = SetSystem([])
    for kind in KINDS.values():
        h = random_field(system, kind, random.Random(0))
        assert _matrices(system, h) == [(), ()]
        assert field_matrices(system, h).signs == ()


def test_checks_match_per_entry_reports():
    """repr of all four reports equals the per-entry code's, every kind."""
    seen = set()
    for system, h in _cases(100, 12):
        for check, by_entries in CHECKS:
            got = check(system, h)
            want = by_entries(system, h)
            assert repr(got) == repr(want), (check.__name__, system, h)
            seen.add((h.kind.name, type(got).__name__, got.holds))
    for kind in KIND_CYCLE:  # both verdicts reached for every kind
        assert (kind, "IdentityReport", True) in seen
        assert (kind, "IdentityReport", False) in seen


def test_checks_match_on_larger_complexes():
    """Sizes 12 to 18, where quaternion and octonion matrices are eliminated
    on component arrays."""
    rng = random.Random(13)
    done = 0
    while done < 10:
        system = random_complex(rng)
        if not 12 <= len(system) <= 18:
            continue
        kind = KINDS[KIND_CYCLE[done % 5]]
        h = _field(system, kind, rng, VARIANTS[done % 2])
        for check, by_entries in CHECKS:
            assert repr(check(system, h)) == repr(by_entries(system, h))
        done += 1


def test_checks_on_one_pair_build_l_and_g_once(monkeypatch):
    """The most recent (system, field) pair keeps its L and g; another pair,
    or an equal field that is another object, builds its own."""
    calls = []
    original = connection._block_sums

    def counting(values, blocks, zero):
        calls.append(blocks.shape)
        return original(values, blocks, zero)

    monkeypatch.setattr(connection, "_block_sums", counting)
    rng = random.Random(18)
    system = random_complex(rng)
    for kind in (REAL, QUATERNION, GAUSSIAN):
        h = random_field(system, kind, rng, unit=True)
        calls.clear()
        reports = [check(system, h) for check, _ in CHECKS]
        assert all(r.holds for r in reports)
        assert len(calls) == 2  # L and g, once
    other = random_complex(rng)
    det_formula_check(other, ones_field(other))
    assert len(calls) == 4


@pytest.mark.parametrize("first, second", [(1, 1.0), (0.0, -0.0)])
def test_equal_fields_that_are_other_objects_rebuild(monkeypatch, first,
                                                     second):
    system = SetSystem([[1], [2], [1, 2]])
    h1, h2 = (EnergyFunction(REAL, (v, 2, v)) for v in (first, second))
    assert h1 == h2 and hash(h1) == hash(h2)
    got = [connection.field_matrices(system, h) for h in (h1, h2, h1)]
    want = []
    for h in (h1, h2):
        monkeypatch.setattr(connection, "_LAST", None)
        want.append(connection.field_matrices(system, h))
    for fm, fresh in zip(got, want + want[:1]):
        for a, b in ((fm.values, fresh.values), (fm.L, fresh.L),
                     (fm.g, fresh.g)):
            assert repr(a.tolist()) == repr(b.tolist())
    assert repr(got[0].values.tolist()) != repr(got[1].values.tolist())


def test_field_matrices_are_read_only():
    system = random_complex(random.Random(19))
    fm = connection.field_matrices(system, omega_field(system))
    for X in (fm.values, fm.L, fm.g):
        with pytest.raises(ValueError, match="read-only"):
            X[(0,) * X.ndim] = 5


def test_green_star_by_transpose_matches_both_products():
    """Over the commutative kinds L conjugate(g) is read off conjugate(g) L
    transposed; reports, witnesses and details equal the per-entry code,
    which forms both products, on complexes and on systems not closed
    under subsets."""
    seen = set()
    for t, system in enumerate(_systems(200, 20)):
        rng = random.Random(t)
        kind = (REAL, COMPLEX, GAUSSIAN)[t % 3]
        variant = ("unit", "nonunit", "omega", "ones")[(t // 3) % 4]
        if variant == "omega":
            h = omega_field(system)
        elif variant == "ones":
            h = ones_field(system, kind)
        else:
            h = random_field(system, kind, rng, unit=variant == "unit")
        got = identities.green_star_check(system, h)
        assert repr(got) == repr(oracles.green_star_by_entries(system, h)), \
            (system, h)
        seen.add((h.kind.name, variant, got.holds, bool(got.witnesses)))
    for kind in ("real", "complex", "gaussian"):
        assert (kind, "unit", True, False) in seen
        assert (kind, "nonunit", False, True) in seen


def test_potential_curvature_and_green_diagonal_unchanged():
    for system, h in _cases(60, 14):
        cm = oracles.build_matrices_by_sets(system, h)
        V, K = [], []
        for i in range(cm.n):
            total = h.kind.zero
            for v in cm.g[i]:
                total = total + v
            V.append(total)
            K.append(cm.g[i][i] if cm.signs[i] == 1 else -cm.g[i][i])
        fm = field_matrices(system, h)
        got = tuple(kernel.from_array(X[:, None], h.kind, fm.scale)[0]
                    for X in fm.potential_and_curvature())
        assert repr(got) == repr((V, K))
        sets = system.elements
        diag = [oracles.energy(h, {k for k, y in enumerate(sets) if x <= y})
                for x in sets]
        _, g = _matrices(system, h)
        assert repr([row[k] for k, row in enumerate(g)]) == repr(diag)


def _gaussian_matrices(rng):
    """Square Gaussian-rational matrices of order 0 to 7, some singular."""
    def entry():
        if rng.random() < 0.3:
            return GaussianRational()
        return GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                                Fraction(rng.randint(-5, 5), rng.randint(1, 4)))

    yield []
    for t in range(62):
        n = 7 if t >= 60 else 1 + t % 6  # n = 7 has 5040 terms: two of them
        M = [[entry() for _ in range(n)] for _ in range(n)]
        if t % 3 == 1 and n > 1:  # a repeated row
            M[-1] = list(M[0])
        elif t % 3 == 2 and n > 1:  # a row combined from two others
            f = GaussianRational(Fraction(1, 2), 1)
            M[-1] = [a + f * b for a, b in zip(M[0], M[1])]
        yield M


def test_gaussian_leibniz_is_the_exact_determinant():
    rng = random.Random(15)
    singular = 0
    for M in _gaussian_matrices(rng):
        got = leibniz_det(M, GAUSSIAN)
        want = oracles.leibniz_sum(M, GAUSSIAN)
        assert type(got) is GaussianRational and got == want, M
        singular += not want
    assert singular >= 18
    assert leibniz_det([], GAUSSIAN) == GaussianRational(1)


def test_gaussian_leibniz_keeps_its_cap(monkeypatch):
    M = [[GaussianRational(int(i == j)) for j in range(5)] for i in range(5)]
    monkeypatch.setattr(determinants, "DEFAULT_LEIBNIZ_CAP", 4)
    with pytest.raises(MatrixSizeError, match="exceeds the permutation-sum cap 4"):
        leibniz_det(M, GAUSSIAN)
    with pytest.raises(ValueError, match="square"):
        leibniz_det([[GaussianRational(1), GaussianRational(2)]], GAUSSIAN)


def test_det_formula_gaussian_feeds_bareiss_once_per_matrix(monkeypatch):
    rng = random.Random(16)
    system = random_complex(rng)
    h = random_field(system, GAUSSIAN, rng)
    calls = []
    original = determinants._bareiss_echelon

    def counting(rows, ring=determinants.INTEGERS):
        calls.append(ring)
        return original(rows, ring)

    monkeypatch.setattr(determinants, "_bareiss_echelon", counting)
    report = det_formula_check(system, h)
    assert report.exact_equal and report.holds
    assert calls == [determinants.GAUSSIAN_INTEGERS] * 2
