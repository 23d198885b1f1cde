"""Matrix kernel for the five scalar kinds.

Every matrix is held as an array of shape (d, n, m), one n x m slice per
component, and `to_array` decides the form from the kind:

- quaternion and octonion: d = 4 or 8 float components;
- Gaussian rational: the matrix scaled by the lcm of its denominators to a
  matrix over the Gaussian integers Z[i], as a (2, n, m) object array of
  Python ints, so exact products run on Python ints instead of Fractions
  (and eliminations too: the Bareiss loop in determinants.py);
- real and complex: d = 1, an object array of the numbers themselves.

Quaternion and octonion products run from a term table read off the
`formula` of their class, `scalars.quat_mul` and `scalars.oct_mul` (see
`_term_table`), real and complex products are Python's `*` on the numbers,
and sums over the inner index run one k at a time from a zero start like a
per-entry loop.  Each entry sees the IEEE operations of the per-entry
arithmetic in its order, so results are bit-identical to it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from . import scalars
from .scalars import COMPLEX, GAUSSIAN, OCTONION, QUATERNION, REAL

_NUMBER_KINDS = (REAL, COMPLEX)
# the start of every sum over entries; the numbers start from their own zero
_ZERO = {QUATERNION: 0.0, OCTONION: 0.0, GAUSSIAN: 0}
_NORM_SQ = np.frompyfunc(scalars.norm_sq, 1, 1)

# Products p_i q_j that one block of `product`, or of the rows an elimination
# step updates, holds at once.  The term table of a kind with d components
# has d^2 terms per entry, so a block holds fewer entries as d grows.
BLOCK_PRODUCTS = 1 << 15


class _Symbol:
    """A product formula run on symbols: a component of the left (side 0) or
    right (side 1) factor with a sign, or, from products on, `groups`
    [(sign, [(sign, i, j), ...]), ...] of signed products p_i q_j that stand
    for G_1 + s_2 G_2 + ..., each group G summed left to right."""

    def __init__(self, groups=None, side=0, index=0, sign=1):
        self.groups, self.side, self.index, self.sign = groups, side, index, sign

    def __neg__(self):
        return _Symbol(None, self.side, self.index, -self.sign)

    def __mul__(self, other):
        p, q = sorted((self, other), key=lambda c: c.side)
        return _Symbol([(1, [(p.sign * q.sign, p.index, q.index)])])

    def __add__(self, other, sign=1):
        (_, terms), = other.groups
        if len(self.groups) == 1 and len(terms) == 1:  # x - p q is x + (-p) q
            (s, i, j), = terms
            return _Symbol([(1, self.groups[0][1] + [(sign * s, i, j)])])
        return _Symbol(self.groups + [(sign, terms)])

    def __sub__(self, other):
        return self.__add__(other, -1)


@functools.cache  # on first use, so that importing stays cheap
def _term_table(kind):
    """(S, I, J, G) for the product formula of the kind on d components:
    term t of group g of output component k is S[t, r] p[I[t, r]] q[J[t, r]]
    with r = g d + k, and group g > 0 enters with sign G[g, k].  (-p) q is
    -(p q) and x - y is x + (-y) bit for bit, so signs fold into the terms,
    but not a group's sign: -(a + b) is -0.0 where (-a) + (-b) is +0.0."""
    d = kind.n_components
    out = kind.cls.formula([_Symbol(None, 0, i) for i in range(d)],
                           [_Symbol(None, 1, j) for j in range(d)])
    rows = [c.groups[g] for g in range(len(out[0].groups)) for c in out]
    T = np.array([terms for _, terms in rows]).transpose(1, 0, 2)
    G = np.array([sign for sign, _ in rows], dtype=float).reshape(-1, d)
    return T[..., 0].astype(float), T[..., 1], T[..., 2], G


def multiply(P: np.ndarray, Q: np.ndarray, kind) -> np.ndarray:
    """Entrywise product of broadcastable arrays of the kind with the same
    number of axes: the term table on quaternion and octonion components,
    Python's `*` on an object array of real or complex numbers."""
    if not issubclass(kind.cls, scalars.Hypercomplex):
        return P * Q
    S, I, J, G = _term_table(kind)
    tail = (1,) * (P.ndim - 1)
    terms = P[I] * S.reshape(S.shape + tail) * Q[J]
    sums = terms[0]
    for t in terms[1:]:  # each group left to right
        sums = sums + t
    out, *later = sums.reshape(G.shape + sums.shape[1:])
    for sign, group in zip(G[1:], later):
        out = out + sign.reshape((-1,) + tail) * group
    return out


def _coerce(M, kind):
    cls = kind.cls
    return [[v if isinstance(v, cls) else cls(v) for v in row] for row in M]


def to_array(M, kind) -> tuple[np.ndarray, int]:
    """(X, scale): the (d, n, m) array of a matrix of scalars of the kind,
    and the int its Gaussian entries were multiplied by (1 otherwise)."""
    if kind in _NUMBER_KINDS:
        return np.array([M], dtype=object), 1
    rows = [[v.c for v in row] for row in _coerce(M, kind)]
    m = len(rows[0]) if rows else 0
    scale = 1
    if kind is GAUSSIAN:  # scaled by the lcm of the denominators to ints
        scale = math.lcm(*(x.denominator for row in rows for c in row
                           for x in c))
        rows = [[[x.numerator * (scale // x.denominator) for x in c]
                 for c in row] for row in rows]
    X = np.array(rows, dtype=object if kind.exact else float).reshape(
        len(rows), m, kind.n_components)
    return X.transpose(2, 0, 1), scale


def field_values(values, kind) -> tuple[np.ndarray, int, object]:
    """(X, scale, zero): the (d, n) array of a sequence of scalars, the int
    they were scaled by, and the zero every sum over entries starts from."""
    X, scale = to_array([values], kind)
    return X[:, 0], scale, _ZERO.get(kind, kind.zero)


def _maker(kind, scale):
    if kind is GAUSSIAN:
        return lambda re, im: scalars.GaussianRational(Fraction(re, scale),
                                                       Fraction(im, scale))
    if issubclass(kind.cls, scalars.Hypercomplex):
        return kind.cls
    return lambda x: x  # real and complex: the number itself


def scalar(X: np.ndarray, kind, scale=1):
    """The scalar whose components are the 1-d array X (divided by `scale`,
    an int, for Gaussian-integer components)."""
    return _maker(kind, scale)(*X.tolist())


def from_array(X: np.ndarray, kind, scale=1) -> list:
    """Nested lists of scalars from a (d, n, m) array (divided by `scale`,
    an int, for Gaussian-integer components)."""
    make = _maker(kind, scale)
    return [[make(*c) for c in row] for row in X.transpose(1, 2, 0).tolist()]


def conjugate(X: np.ndarray, kind) -> np.ndarray:
    """Entrywise conjugate: every imaginary component changes sign."""
    if kind in _NUMBER_KINDS:
        return np.conjugate(X)
    return np.concatenate([X[:1], -X[1:]])


def norm_sq(X: np.ndarray) -> np.ndarray:
    """Entrywise squared norm of a component array, components added left
    to right."""
    total = X[0] * X[0]
    for x in X[1:]:
        total = total + x * x
    return total


def norms(X: np.ndarray, kind, scale=1) -> np.ndarray:
    """Squared norms of the entries of X (divided by `scale` for Gaussian
    integers) as floats, each rounded once from its exact value."""
    if kind in _NUMBER_KINDS:
        return _NORM_SQ(X[0]).astype(float)
    if kind is GAUSSIAN:
        return (norm_sq(X) / scale ** 2).astype(float)
    return norm_sq(X)


def norm_values(X: np.ndarray, kind) -> np.ndarray:
    """|x|^2 as a value of the kind for every entry x of X, in X's form
    (Gaussian integers at the square of X's scale)."""
    if kind in _NUMBER_KINDS:
        return kind.one * norms(X, kind).astype(object)[None]
    one = np.zeros(len(X), dtype=X.dtype)
    one[0] = 1
    return np.multiply.outer(one, norm_sq(X))


def running_sum(X: np.ndarray, zero=None) -> np.ndarray:
    """Sum over the last axis, one term at a time in the order of the
    per-entry loops, from `zero` or, when it is None, from the first term.

    numpy's sum adds pairwise instead.  np.add.accumulate, not np.cumsum:
    on numpy 2.4 the np.cumsum path keeps memory from call to call, so a
    long run grows.
    """
    if zero is not None:
        start = np.full(X.shape[:-1] + (1,), zero, dtype=X.dtype)
        X = np.concatenate([start, X], axis=-1)
    return np.add.accumulate(X, axis=-1)[..., -1]


def product(A: np.ndarray, B: np.ndarray, kind) -> np.ndarray:
    """A B for arrays A (d, n, p) and B (d, p, m) of any kind.

    Gaussian integers multiply exactly, at the product of the two scales.
    Otherwise the products A[:, i, k] B[:, k, j] of a block of k are formed
    at once, then added in increasing k to an accumulator that starts from
    zero (the int 0 on object arrays).
    """
    if kind is GAUSSIAN:
        return np.stack([A[0] @ B[0] - A[1] @ B[1], A[0] @ B[1] + A[1] @ B[0]])
    d, n, p = A.shape
    m = B.shape[2]
    acc = np.zeros((d, n, m), dtype=A.dtype)
    step = max(1, BLOCK_PRODUCTS // max(1, d * d * n * m))
    for k0 in range(0, p, step):
        P = multiply(A[:, :, k0:k0 + step, None], B[:, None, k0:k0 + step, :],
                     kind)
        for k in range(P.shape[2]):
            acc += P[:, :, k]
    return acc
