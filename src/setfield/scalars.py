"""Scalar tower: reals, complexes, quaternions, octonions and exact Gaussian rationals.

All five kinds carry conjugation, the norm |a|^2 = a* a, units and (where it
exists) the abelianization map used by row-reduction determinants.  Reals
and complexes are Python's numbers.  The other three are one class,
`Hypercomplex`: a tuple of components in the field its subclass names
(`component`) and the product formula of its algebra (`formula`).
Quaternions and octonions have float components and `quat_mul`, `oct_mul`;
the Gaussian rationals have `Fraction` pairs and `complex_mul`, so
determinant identities can be checked with zero tolerance.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
from fractions import Fraction

DEFAULT_TOL = 1e-9


# ---------------------------------------------------------------------------
# product formulas on component sequences.  The scalar classes apply them to
# their components; the matrix kernel (kernel.py) evaluates the float ones
# once on symbolic components and runs the same IEEE operations, in the same
# order, from the term table it reads off.

def complex_mul(p, q):
    """Product (a + b i)(c + d i) of component pairs."""
    a, b = p
    c, d = q
    return (a * c - b * d, a * d + b * c)


def quat_mul(p, q):
    """Hamilton product of components (w, x, y, z) with i j = k."""
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e)


def quat_conj(p):
    w, x, y, z = p
    return (w, -x, -y, -z)


def oct_mul(p, q):
    """Cayley-Dickson product (a,b)(c,d) = (ac - d*b, da + bc*) of octonion
    components, each half a quaternion."""
    a, b, c, d = p[:4], p[4:], q[:4], q[4:]
    ac, db = quat_mul(a, c), quat_mul(quat_conj(d), b)
    da, bc = quat_mul(d, a), quat_mul(b, quat_conj(c))
    return (ac[0] - db[0], ac[1] - db[1], ac[2] - db[2], ac[3] - db[3],
            da[0] + bc[0], da[1] + bc[1], da[2] + bc[2], da[3] + bc[3])


def _componentwise(op, d):
    """(a, b) -> (a[0] op b[0], ..., a[d-1] op b[d-1]), written out: map()
    over four components takes three times as long as the operations."""
    terms = ", ".join("a[%d] %s b[%d]" % (k, op, k) for k in range(d))
    return eval("lambda a, b: (%s,)" % terms)


_new = object.__new__


class Hypercomplex:
    """A tuple of `dimension` components in the field `component` and the
    product `formula` of its algebra: the arithmetic of Quaternion, Octonion
    and GaussianRational, written once.

    Built from up to `dimension` numbers, or from one tuple or list of them,
    padded with zeros; results are built from ready tuples of components.
    Values mix with ints, with numbers of their component field and with
    values of their own class only.
    """

    __slots__ = ("c",)
    dimension = 0
    component = float
    formula = None

    def __init_subclass__(cls):
        cls._add = staticmethod(_componentwise("+", cls.dimension))
        cls._sub = staticmethod(_componentwise("-", cls.dimension))

    def __init__(self, *components):
        if len(components) == 1 and isinstance(components[0], (tuple, list)):
            components = components[0]
        pad = self.dimension - len(components)
        if pad < 0:
            raise ValueError("%s takes at most %d components"
                             % (type(self).__name__.lower(), self.dimension))
        zero = self.component(0)
        self.c = tuple(map(self.component, components)) + (zero,) * pad

    @classmethod
    def _of(cls, c):
        value = _new(cls)
        value.c = c
        return value

    def _components_of(self, v):
        if isinstance(v, type(self)):
            return v.c
        if isinstance(v, (int, self.component)):
            return type(self)(v).c
        raise TypeError("cannot mix %r with %ss"
                        % (v, type(self).__name__.lower()))

    def components(self):
        return self.c

    def __add__(self, other):
        # sums are built in place, with the same-class test first: a call
        # to _of or _components_of would take a sixth of their time each
        value = _new(type(self))
        value.c = self._add(self.c, other.c if type(other) is type(self)
                            else self._components_of(other))
        return value

    __radd__ = __add__

    def __sub__(self, other):
        value = _new(type(self))
        value.c = self._sub(self.c, other.c if type(other) is type(self)
                            else self._components_of(other))
        return value

    def __rsub__(self, other):
        # a - b is a + (-b) in IEEE arithmetic, bit for bit
        return (-self) + other

    def __neg__(self):
        return self._of(tuple(map(operator.neg, self.c)))

    def __mul__(self, other):
        if isinstance(other, (int, self.component)):
            s = self.component(other)
            return self._of(tuple([s * a for a in self.c]))
        return self._of(self.formula(self.c, self._components_of(other)))

    # a number times a value is the value times the number; an algebra
    # product never gets here, other classes raise in _components_of
    __rmul__ = __mul__

    def conjugate(self):
        return self._of(self.c[:1] + tuple(map(operator.neg, self.c[1:])))

    def __abs__(self):
        """|a| as a float, finite where the norm |a|^2 overflows."""
        return math.hypot(*self.c)

    def norm_sq(self):
        """Sum of the squared components, added left to right."""
        c = self.c
        total = c[0] * c[0]
        for a in c[1:]:
            total += a * a
        return total

    def inverse(self):
        n2 = self.norm_sq()
        if not n2:
            raise ZeroDivisionError("inverse of zero %s"
                                    % type(self).__name__.lower())
        c = self.c
        return self._of((c[0] / n2,) + tuple([-a / n2 for a in c[1:]]))

    def __bool__(self):
        return any(self.c)

    def __eq__(self, other):
        if isinstance(other, (int, self.component)):
            other = type(self)(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        return "%s%r" % (type(self).__name__, self.c)


class Quaternion(Hypercomplex):
    """Hamilton quaternion w + x i + y j + z k with i j = k, j k = i, k i = j."""

    __slots__ = ()
    dimension = 4
    formula = staticmethod(quat_mul)


class Octonion(Hypercomplex):
    """Octonion in the basis e0..e7 built by doubling the quaternions.

    The product is the Cayley-Dickson formula (a,b)(c,d) = (ac - d*b, da + bc*)
    on quaternion pairs a + b l, so e.g. e1 e2 = e3, e1 e4 = e5, e2 e4 = e6
    and every imaginary unit squares to -e0.  Multiplication is alternative
    but not associative; chained products must fix a bracketing.
    """

    __slots__ = ()
    dimension = 8
    formula = staticmethod(oct_mul)


class GaussianRational(Hypercomplex):
    """Exact a + b i with rational a, b; arithmetic never rounds."""

    __slots__ = ()
    dimension = 2
    component = Fraction
    formula = staticmethod(complex_mul)
    re = property(lambda self: self.c[0])
    im = property(lambda self: self.c[1])


class ScalarKind:
    """One of the five supported scalar algebras, with its zero and one.
    `cls` makes its values (from ints; from components for quaternions and
    octonions); for the reals it is `int`, so that ints stay ints."""

    def __init__(self, name, cls, exact, n_components):
        self.name = name
        self.cls = cls
        self.exact = exact
        self.n_components = n_components
        self.zero = cls(0)
        self.one = cls(1)

    def from_int(self, n):
        return self.cls(n)

    def __repr__(self):
        return "ScalarKind(%s)" % self.name

    def __eq__(self, other):
        return isinstance(other, ScalarKind) and other.name == self.name

    def __hash__(self):
        return hash(self.name)


REAL = ScalarKind("real", int, False, 1)
COMPLEX = ScalarKind("complex", complex, False, 2)
QUATERNION = ScalarKind("quaternion", Quaternion, False, Quaternion.dimension)
OCTONION = ScalarKind("octonion", Octonion, False, Octonion.dimension)
GAUSSIAN = ScalarKind("gaussian", GaussianRational, True, 2)

KINDS = {k.name: k for k in (REAL, COMPLEX, QUATERNION, OCTONION, GAUSSIAN)}


def kind_of(a) -> ScalarKind:
    for kind in (QUATERNION, OCTONION, GAUSSIAN, COMPLEX):
        if isinstance(a, kind.cls):
            return kind
    if isinstance(a, (int, float, Fraction)):
        return REAL
    raise TypeError("not a scalar: %r" % (a,))


def conjugate(a):
    if isinstance(a, (Hypercomplex, complex)):
        return a.conjugate()
    return a


def norm_sq(a):
    """a* a as a real number (exact Fraction for Gaussian rationals)."""
    if isinstance(a, Hypercomplex):
        return a.norm_sq()
    if isinstance(a, complex):
        return a.real * a.real + a.imag * a.imag
    return a * a


def norm(a) -> float:
    return math.sqrt(float(norm_sq(a)))


def invert(a):
    """a^-1 = a* / |a|^2; raises ZeroDivisionError on zero input."""
    if isinstance(a, Hypercomplex):
        return a.inverse()
    if a == 0:
        raise ZeroDivisionError("inverse of zero scalar")
    if isinstance(a, complex):
        return 1.0 / a
    if isinstance(a, Fraction):
        return 1 / a
    return 1.0 / a


def is_zero(a):
    if isinstance(a, Hypercomplex):
        return not a.norm_sq()
    return a == 0


def abelianize(a):
    """Image of a scalar in the abelianized multiplicative group (plus 0).

    Reals, complexes and Gaussian rationals are already commutative and map
    to themselves.  For quaternions the commutator subgroup is the whole unit
    sphere, so the class of a is represented by the nonnegative real |a|
    (in particular -1 maps to 1).  Octonions are rejected: there is no
    abelianized row-reduction determinant there, callers fall back to the
    norm-valued one.
    """
    if isinstance(a, Octonion):
        raise ValueError("abelianization is not defined for octonions")
    if isinstance(a, Quaternion):
        return norm(a)
    return a


def is_unit(a, tol=DEFAULT_TOL):
    n2 = norm_sq(a)
    if kind_of(a).exact:
        return n2 == 1
    return abs(float(n2) - 1.0) <= tol


def product_right(factors, kind=None):
    """Product of a sequence evaluated with right bracketing a(b(c...)).

    The bracketing only matters for octonions, but the same convention is
    applied everywhere so cross-kind comparisons test identical expressions.
    """
    factors = list(factors)
    if not factors:
        if kind is None:
            raise ValueError("empty product needs an explicit kind")
        return kind.one
    acc = factors[-1]
    for f in reversed(factors[:-1]):
        acc = f * acc
    return acc


# ---------------------------------------------------------------------------
# literal parsing / formatting (CLI surface)

_TERM = re.compile(r"([+-]?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+|))([ijk]?)")
_RAT_TERM = re.compile(r"([+-]?(?:\d+(?:/\d+)?)?)(i?)")


def _terms(text, pattern, number, error):
    """Sums by unit of the signed terms of `text` that `pattern` reads as
    (coefficient, unit), e.g. '1+2i-3i' -> {'': 1, 'i': -1}, each from
    number('0') in the order written; a unit with no coefficient is 1.
    Every term after the first starts with a sign, and spaces stand only at
    the ends or next to a sign ('1 + 2i', not '1 2i').  Empty text, a term
    that is a bare sign or nothing, or terms written next to each other
    ('2i3', 'ii') raise ValueError(error)."""
    text = text.strip()
    if re.search(r"[^+-] +[^ +-]", text):
        raise ValueError(error)
    text = text.replace(" ", "")
    sums = {}
    pos = 0
    while pos < len(text) or not sums:
        m = pattern.match(text, pos)  # matches, if only the empty string
        coeff, unit = m.groups()
        if not (coeff.strip("+-") or unit) or pos and text[pos] not in "+-":
            raise ValueError(error)
        value = number(coeff if coeff.strip("+-") else coeff + "1")
        sums[unit] = sums.get(unit, number("0")) + value
        pos = m.end()
    return sums


def _fraction(text):
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def parse_scalar(text, kind=None):
    """Parse a literal like 1.5, 2+3i, 1+2i+3j+4k, o(...), q(3/4+1/4i); a
    literal of another kind than `kind`, when given, or with a component
    that is not finite (1e400, o(nan)) is an error."""
    value = _parse_literal(text.strip(), kind)
    if kind is not None and kind_of(value) != kind:
        raise ValueError("%r is not a %s literal" % (text, kind.name))
    parts = value.components() if hasattr(value, "components") else [value]
    if not kind_of(value).exact and not all(map(cmath.isfinite, parts)):
        raise ValueError("%r is not a finite number" % text)
    return value


def _parse_literal(text, kind):
    if kind is GAUSSIAN and not text.startswith("q("):
        text = "q(%s)" % text
    if text.startswith("o(") and text.endswith(")"):
        return Octonion([float(p) for p in text[2:-1].split(",")])
    if text.startswith("q(") and text.endswith(")"):
        terms = _terms(text[2:-1], _RAT_TERM, _fraction,
                       "bad Gaussian rational literal: %r" % text)
        return GaussianRational(terms.get("", 0), terms.get("i", 0))
    terms = _terms(text, _TERM, float, "bad scalar literal: %r" % text)
    a, i, j, k = (terms.get(unit, 0.0) for unit in ("", "i", "j", "k"))
    if kind is QUATERNION or j or k:
        return Quaternion(a, i, j, k)
    if kind is COMPLEX or i:
        return complex(a, i)
    if kind is OCTONION:
        return Octonion(a)
    return a


def format_scalar(a) -> str:
    k = kind_of(a)
    if k is REAL:
        return repr(float(a)) if isinstance(a, float) else repr(a)
    if k in (COMPLEX, QUATERNION):
        first, *rest = map(repr, (a.real, a.imag) if k is COMPLEX
                           else a.components())
        # '%+r' ignores the '+', so each later component gets its sign here
        return first + "".join(("" if r[0] == "-" else "+") + r + unit
                               for r, unit in zip(rest, "ijk"))
    if k is OCTONION:
        return "o(%s)" % ",".join(repr(c) for c in a.components())
    sign = "+" if a.im >= 0 else "-"
    return "q(%s%s%si)" % (a.re, sign, abs(a.im))


def to_jsonable(a):
    """JSON encoding: numbers for floats, component lists for H/O, exact strings for Q[i]."""
    k = kind_of(a)
    if k is REAL:
        return float(a) if isinstance(a, float) else a
    if k is COMPLEX:
        return [a.real, a.imag]
    if k is GAUSSIAN:
        return format_scalar(a)
    return list(a.components())


# ---------------------------------------------------------------------------
# random draws (seeded rng supplied by caller)

RANDOM_SPAN = 2.0  # float components are drawn from [-RANDOM_SPAN, RANDOM_SPAN]
MIN_NORM = 0.1  # random_nonzero's smallest norm for the float kinds


def random_scalar(kind, rng):
    if kind is GAUSSIAN:
        return GaussianRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
    c = [rng.uniform(-RANDOM_SPAN, RANDOM_SPAN)
         for _ in range(kind.n_components)]
    if kind is REAL:
        return c[0]
    if kind is COMPLEX:
        return complex(*c)
    return kind.cls(c)


def random_nonzero(kind, rng):
    while True:
        a = random_scalar(kind, rng)
        if kind.exact:
            if bool(a):
                return a
        elif float(norm_sq(a)) >= MIN_NORM * MIN_NORM:
            return a


def random_unit(kind, rng):
    """Uniform-ish draw from the unit sphere of the kind (exact units for Q[i])."""
    if kind is GAUSSIAN:
        return rng.choice([GaussianRational(1), GaussianRational(-1),
                           GaussianRational(0, 1), GaussianRational(0, -1)])
    if kind is REAL:
        return rng.choice([-1.0, 1.0])
    a = random_nonzero(kind, rng)
    return a * (1.0 / norm(a))
