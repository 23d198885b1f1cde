import cmath
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setfield import scalars
from setfield.scalars import (COMPLEX, GAUSSIAN, KINDS, OCTONION, QUATERNION,
                              GaussianRational, Octonion, Quaternion,
                              abelianize, conjugate, format_scalar, invert,
                              is_unit, norm_sq, parse_scalar, product_right)

finite = st.floats(min_value=-3, max_value=3, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)
octs = st.builds(lambda *c: Octonion(c), *([finite] * 8))


def _close(a, b, tol):
    return norm_sq(a - b) <= tol * tol


def test_gaussian_rationals_are_hypercomplex_with_fraction_components():
    assert issubclass(GaussianRational, scalars.Hypercomplex)
    g = GaussianRational(1, Fraction(2, 3))
    assert all(type(x) is Fraction for x in (g * 3).c + (g * g).c)
    assert g * 3 == GaussianRational(3, 2)
    assert (g.re, g.im) == (1, Fraction(2, 3))


def test_zero_values_are_false():
    assert not Quaternion(0) and not Octonion() and not GaussianRational(0)
    assert Quaternion(0, 0, 0, -1) and GaussianRational(0, Fraction(1, 3))


@pytest.mark.parametrize("other", [0.5, 1j, Quaternion(1)],
                         ids=["float", "complex", "quaternion"])
def test_gaussian_values_do_not_mix_with_floats(other):
    g = GaussianRational(1, 2)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(g, other)
    for op in (operator.add, operator.mul):
        with pytest.raises(TypeError):
            op(other, g)


def test_conjugate_examples():
    assert conjugate(2 + 3j) == 2 - 3j
    assert conjugate(Quaternion(0, 1, 0, 0)) == Quaternion(0, -1, 0, 0)
    assert conjugate(5.0) == 5.0


def test_conjugate_involution():
    q = Quaternion(1, -2, 3, 0.5)
    assert conjugate(conjugate(q)) == q


def test_norm_sq_examples():
    assert norm_sq(Quaternion(1, 2, 3, 0)) == 14
    half = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    assert norm_sq(half) == Fraction(1, 2)
    e5 = Octonion(tuple(1.0 if k == 5 else 0.0 for k in range(8)))
    assert norm_sq(e5) == 1.0


def test_abs_is_finite_where_the_norm_overflows():
    assert abs(Quaternion(0, 3, 0, 4)) == 5.0
    assert abs(Octonion((1.0,) * 8)) == math.sqrt(8)
    big = Quaternion(3.0 * 2 ** 700, 0, -4.0 * 2 ** 700, 0)
    assert norm_sq(big) == math.inf and abs(big) == 5.0 * 2 ** 700


def test_quaternion_table():
    i = Quaternion(0, 1, 0, 0)
    j = Quaternion(0, 0, 1, 0)
    k = Quaternion(0, 0, 0, 1)
    assert i * j == k
    assert j * k == i
    assert k * i == j
    assert i * i == Quaternion(-1)


def test_quaternion_commutator_is_minus_one():
    i = Quaternion(0, 1, 0, 0)
    j = Quaternion(0, 0, 1, 0)
    comm = product_right([i, j, invert(i), invert(j)])
    assert comm == Quaternion(-1)


def test_octonion_units_square_to_minus_one():
    for k in range(1, 8):
        e = Octonion(tuple(1.0 if m == k else 0.0 for m in range(8)))
        assert (e * e) == Octonion(-1)


def test_invert_examples():
    assert invert(1j) == -1j
    s = 1 / math.sqrt(2)
    q = Quaternion(s, s, 0, 0)
    qi = invert(q)
    assert _close(qi, Quaternion(s, -s, 0, 0), 1e-12)
    g = invert(GaussianRational(1, 1))
    assert g == GaussianRational(Fraction(1, 2), Fraction(-1, 2))
    with pytest.raises(ZeroDivisionError):
        invert(GaussianRational(0))


def test_abelianize_examples():
    assert abelianize(Quaternion(-1)) == 1.0
    assert abelianize(3j) == 3j
    assert abelianize(Quaternion(0, 0, 0, 2)) == 2.0
    with pytest.raises(ValueError):
        abelianize(Octonion(1))


def test_abelianize_multiplicative_on_random_products():
    rng = random.Random(5)
    for _ in range(100):
        a = scalars.random_nonzero(QUATERNION, rng)
        b = scalars.random_nonzero(QUATERNION, rng)
        lhs = abelianize(a * b)
        rhs = abelianize(a) * abelianize(b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_is_unit_examples():
    assert is_unit(cmath.exp(2j * cmath.pi / 7))
    assert is_unit(Quaternion(0.5, 0.5, 0.5, 0.5))
    assert not is_unit(2 + 0j)
    assert is_unit(GaussianRational(0, -1))
    assert not is_unit(GaussianRational(Fraction(1, 2), Fraction(1, 2)))


def test_gaussian_unit_circle_point_is_exact():
    # |3/5 + 4/5 i|^2 = 1 exactly, so the exact-kind unit test must accept it
    g = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    assert norm_sq(g) == 1
    assert is_unit(g)


@given(quats, quats)
@settings(max_examples=80)
def test_quaternion_norm_composition(a, b):
    lhs = norm_sq(a * b)
    rhs = norm_sq(a) * norm_sq(b)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@given(octs, octs)
@settings(max_examples=80)
def test_octonion_norm_composition(a, b):
    lhs = norm_sq(a * b)
    rhs = norm_sq(a) * norm_sq(b)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_gaussian_norm_composition_exact():
    rng = random.Random(2)
    for _ in range(50):
        a = scalars.random_scalar(GAUSSIAN, rng)
        b = scalars.random_scalar(GAUSSIAN, rng)
        assert norm_sq(a * b) == norm_sq(a) * norm_sq(b)


@given(quats, quats, quats)
@settings(max_examples=60)
def test_quaternion_associativity(a, b, c):
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert _close(lhs, rhs, 1e-9)


def test_gaussian_associativity_exact():
    rng = random.Random(19)
    for _ in range(40):
        a, b, c = (scalars.random_scalar(GAUSSIAN, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_complex_norm_composition():
    rng = random.Random(21)
    for _ in range(40):
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        lhs = norm_sq(a * b)
        rhs = norm_sq(a) * norm_sq(b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


@given(octs, octs, octs)
@settings(max_examples=60)
def test_octonion_moufang_identity(a, b, c):
    lhs = a * (b * (a * c))
    rhs = ((a * b) * a) * c
    scale = max(1.0, math.sqrt(norm_sq(a)) ** 2 * math.sqrt(norm_sq(b))
                * math.sqrt(norm_sq(c)))
    assert math.sqrt(norm_sq(lhs - rhs)) <= 1e-12 * scale


@given(quats, quats)
@settings(max_examples=60)
def test_conjugation_antiautomorphism_quaternions(a, b):
    assert _close(conjugate(a * b), conjugate(b) * conjugate(a), 1e-9)


@given(octs, octs)
@settings(max_examples=60)
def test_conjugation_antiautomorphism_octonions(a, b):
    assert _close(conjugate(a * b), conjugate(b) * conjugate(a), 1e-9)


def test_gaussian_exactness_no_drift():
    a = GaussianRational(Fraction(1, 3), Fraction(1, 7))
    acc = GaussianRational(1)
    for _ in range(20):
        acc = acc * a
    for _ in range(20):
        acc = acc * invert(a)
    assert acc == GaussianRational(1)
    assert invert(a) * a == GaussianRational(1)


def test_product_right_bracketing_matters_for_octonions():
    rng = random.Random(9)
    found = False
    for _ in range(20):
        a, b, c = (scalars.random_nonzero(OCTONION, rng) for _ in range(3))
        right = product_right([a, b, c])
        left = (a * b) * c
        assert _close(right, a * (b * c), 1e-9)
        if not _close(right, left, 1e-9):
            found = True
    assert found, "octonions should witness non-associativity"


def test_parse_scalar_literals():
    assert parse_scalar("1.5") == 1.5
    assert parse_scalar("2+3i") == 2 + 3j
    assert parse_scalar("1+2i+3j+4k") == Quaternion(1, 2, 3, 4)
    assert parse_scalar("-i") == -1j
    assert parse_scalar("o(1,0,0,0,0,0,0,1)") == Octonion((1, 0, 0, 0, 0, 0, 0, 1))
    assert parse_scalar("q(3/4+1/4i)") == GaussianRational(Fraction(3, 4),
                                                           Fraction(1, 4))
    assert parse_scalar("q(-1/2i)") == GaussianRational(0, Fraction(-1, 2))
    # spaces at the ends or next to a sign
    assert parse_scalar("1 + 2i") == 1 + 2j
    assert parse_scalar(" 2 ") == 2.0
    assert parse_scalar("q(1/2 + i)") == GaussianRational(Fraction(1, 2), 1)
    assert parse_scalar("+i-j") == Quaternion(0, 1, -1, 0)


def test_parse_with_forced_kind():
    assert parse_scalar("2", KINDS["quaternion"]) == Quaternion(2)
    assert parse_scalar("2", KINDS["complex"]) == 2 + 0j
    assert parse_scalar("3/4", KINDS["gaussian"]) == GaussianRational(Fraction(3, 4))


def test_format_round_trips():
    values = [1.25, 2 - 3j, Quaternion(1, -2, 3, -4),
              Octonion((1, 2, 0, 0, 0, 0, 0, -1)),
              GaussianRational(Fraction(3, 4), Fraction(-1, 4))]
    for v in values:
        assert parse_scalar(format_scalar(v)) == v


@pytest.mark.parametrize("kind", [COMPLEX, QUATERNION, OCTONION, GAUSSIAN],
                         ids=lambda k: k.name)
def test_format_round_trips_components_of_both_signs(kind):
    # every component after the first is written with its sign, '+' included
    rng = random.Random(31)
    values = [scalars.random_scalar(kind, rng) for _ in range(200)]
    later = [c for v in values for c in (
        (v.imag,) if kind is COMPLEX else v.components()[1:])]
    assert min(later) < 0 < max(later)
    for v in values:
        assert parse_scalar(format_scalar(v), kind) == v, format_scalar(v)


def test_random_unit_is_unit():
    rng = random.Random(13)
    for name, kind in KINDS.items():
        for _ in range(10):
            u = scalars.random_unit(kind, rng)
            assert is_unit(u, 1e-9), name


# ---------------------------------------------------------------------------
# Quaternion and Octonion share one class, Hypercomplex

SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, -3.25)


def test_hypercomplex_constructor_forms():
    assert Quaternion(1).components() == (1.0, 0.0, 0.0, 0.0)
    assert Quaternion(1, 2, 3, 4).components() == (1.0, 2.0, 3.0, 4.0)
    assert Quaternion().components() == (0.0,) * 4
    c = (1, -2, 3, 0, 0.5, 0, 0, 7)
    assert Octonion(c) == Octonion(*c) == Octonion(list(c))
    assert Octonion(c).components() == tuple(map(float, c))
    assert Octonion(2).components() == (2.0,) + (0.0,) * 7
    assert all(type(a) is float
               for v in (Quaternion(1, 2), Octonion(c), 2 * Quaternion(1),
                         Quaternion(1) * np.float64(0.5))
               for a in v.components())


def test_hypercomplex_rejects_extra_components_and_mixed_algebras():
    with pytest.raises(ValueError, match="at most 4"):
        Quaternion(1, 2, 3, 4, 5)
    with pytest.raises(ValueError, match="at most 8"):
        Octonion(tuple(range(9)))
    q, o = Quaternion(1, 2), Octonion(1, 2)
    for op in (operator.add, operator.sub, operator.mul):
        for a, b in ((q, o), (o, q), (q, Fraction(1, 2)), (o, 1j)):
            with pytest.raises(TypeError):
                op(a, b)
    assert q != o and o != q


def test_hypercomplex_repr_is_unchanged():
    assert repr(Quaternion(1, -2, 0.5, -0.0)) == \
        "Quaternion(1.0, -2.0, 0.5, -0.0)"
    assert repr(Octonion(1, 2)) == \
        "Octonion(1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)"


def test_a_number_minus_a_value_is_the_difference_of_components():
    # o - v is (-v) + o, and IEEE arithmetic defines a - b as a + (-b):
    # each component is o[k] - v[k] bit for bit, signed zeros included
    rng = random.Random(43)
    for trial in range(200):
        for cls in (Quaternion, Octonion):
            c = tuple(rng.choice(SPECIAL) if trial % 2 else
                      rng.uniform(-2, 2) for _ in range(cls.dimension))
            v = cls(c)
            for o in (1, 0, -2, 0.0, -0.0, 0.5, rng.uniform(-2, 2)):
                want = tuple(a - b for a, b in zip(cls(o).components(), c))
                got = o - v
                assert type(got) is cls
                assert repr(got.components()) == repr(want)
    for v in (GaussianRational(1, 2), GaussianRational(Fraction(-1, 2)),
              GaussianRational(0, Fraction(7, 3))):
        for o in (1, 0, -3, Fraction(1, 3)):
            want = tuple(a - b for a, b in zip(GaussianRational(o).c, v.c))
            got = o - v
            assert type(got) is GaussianRational and got.c == want
            assert all(type(a) is Fraction for a in got.c)
    for o, v in ((Fraction(1, 2), Quaternion(1)), (1j, Octonion(1)),
                 (0.5, GaussianRational(1))):
        with pytest.raises(TypeError):
            o - v


def _component_formulas(c):
    """conjugate, |c|^2 (added left to right) and inverse on a tuple."""
    conj = (c[0],) + tuple(-a for a in c[1:])
    n2 = c[0] * c[0]
    for a in c[1:]:
        n2 = n2 + a * a
    return conj, n2, tuple(a / n2 for a in conj) if n2 else None


def test_conjugate_norm_and_inverse_are_the_component_formulas():
    rng = random.Random(41)
    for trial in range(400):
        for cls in (Quaternion, Octonion):
            c = tuple(rng.choice(SPECIAL) if trial % 2 or rng.random() < 0.3
                      else rng.uniform(-2, 2) for _ in range(cls.dimension))
            v = cls(c)
            conj, n2, inv = _component_formulas(c)
            assert repr(v.conjugate().components()) == repr(conj)
            assert repr(v.norm_sq()) == repr(n2)
            if inv is None:
                with pytest.raises(ZeroDivisionError):
                    v.inverse()
            else:
                assert repr(v.inverse().components()) == repr(inv)
            for s in (2, -0.5):
                want = tuple(s * a for a in c)
                assert repr((s * v).components()) == repr(want)
                assert repr((v * s).components()) == repr(want)
