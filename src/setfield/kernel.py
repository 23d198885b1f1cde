"""Matrix kernel for the five scalar kinds.

Every matrix is held as an array of shape (d, n, m), one n x m slice per
component, and `to_array` decides the form from the kind:

- quaternion and octonion: d = 4 or 8 float components;
- Gaussian rational: the matrix scaled by the lcm of its denominators to a
  matrix over the Gaussian integers Z[i], as a (2, n, m) object array of
  Python ints, so exact products and eliminations run on Python ints
  instead of Fractions;
- real and complex: d = 1, an object array of the numbers themselves.

Products apply the component formulas of `scalars` (`quat_mul`, `oct_mul`,
or Python's `*` on the numbers) to whole arrays.  Each array operation is
the operation the scalar classes perform on a single entry, in the same
order, and sums over the inner index run one k at a time from a zero start
like a per-entry loop.  Results are therefore bit-identical to per-entry
arithmetic.  A structure-tensor GEMM would be faster still, but it sums in
another order and moves the last bits of every report.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from . import scalars
from .scalars import (COMPLEX, GAUSSIAN, OCTONION, QUATERNION, REAL,
                      GaussianRational, Octonion, Quaternion, oct_mul, quat_mul)

COMPONENT_MUL = {QUATERNION: quat_mul, OCTONION: oct_mul}
_NUMBER_KINDS = (REAL, COMPLEX)
_CLASS = {QUATERNION: Quaternion, OCTONION: Octonion, GAUSSIAN: GaussianRational}
# the start of every sum over entries; the numbers start from their own zero
_ZERO = {QUATERNION: 0.0, OCTONION: 0.0, GAUSSIAN: 0}
_NORM_SQ = np.frompyfunc(scalars.norm_sq, 1, 1)

# Entries per component of one block of products in array_mat_mul.  Bigger
# blocks take fewer numpy calls, but oct_mul keeps about 20 block-sized
# arrays alive.
BLOCK_ENTRIES = 1 << 11


def _coerce(M, kind):
    cls = _CLASS[kind]
    return [[v if isinstance(v, cls) else kind.from_int(v) for v in row]
            for row in M]


def to_array(M, kind) -> tuple[np.ndarray, int]:
    """(X, scale): the (d, n, m) array of a matrix of scalars of the kind,
    and the int its Gaussian entries were multiplied by (1 otherwise)."""
    if kind is GAUSSIAN:
        re, im, scale = to_gaussian_integers(M)
        return np.array([re, im], dtype=object), scale
    if kind in _NUMBER_KINDS:
        return np.array([M], dtype=object), 1
    rows = [[v.components() for v in row] for row in _coerce(M, kind)]
    m = len(rows[0]) if rows else 0
    X = np.array(rows, dtype=float).reshape(len(rows), m, kind.n_components)
    return X.transpose(2, 0, 1), 1


def field_values(values, kind) -> tuple[np.ndarray, int, object]:
    """(X, scale, zero): the (d, n) array of a sequence of scalars, the int
    they were scaled by, and the zero every sum over entries starts from."""
    X, scale = to_array([values], kind)
    return X[:, 0], scale, _ZERO.get(kind, kind.zero)


def _maker(kind, scale):
    if kind is GAUSSIAN:
        return lambda re, im: GaussianRational(Fraction(re, scale),
                                               Fraction(im, scale))
    return _CLASS.get(kind, lambda x: x)  # real and complex: the number


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


def array_mat_mul(A: np.ndarray, B: np.ndarray, mul) -> np.ndarray:
    """A B for arrays A (d, n, p) and B (d, p, m) and an entrywise product
    `mul` of component arrays.

    The products A[:, i, k] B[:, k, j] of a block of k are formed at once,
    then added in increasing k to an accumulator that starts from zero (the
    int 0 on object arrays).
    """
    d, n, p = A.shape
    m = B.shape[2]
    acc = np.zeros((d, n, m), dtype=A.dtype)
    step = max(1, BLOCK_ENTRIES // max(1, n * m))
    for k0 in range(0, p, step):
        P = np.array(mul(A[:, :, k0:k0 + step, None],
                         B[:, None, k0:k0 + step, :]))
        for k in range(P.shape[2]):
            acc += P[:, :, k]
    return acc


def to_gaussian_integers(M):
    """(re, im, D) with int matrices re, im and M = (re + i im) / D, where D
    is the lcm of the denominators of M."""
    M = _coerce(M, GAUSSIAN)
    D = math.lcm(*(x.denominator for row in M for v in row
                   for x in (v.re, v.im)))
    re = [[v.re.numerator * (D // v.re.denominator) for v in row] for row in M]
    im = [[v.im.numerator * (D // v.im.denominator) for v in row] for row in M]
    return re, im, D


def gaussian_mat_mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A B for Gaussian-integer component arrays (2, n, p) and (2, p, m)."""
    return np.stack([A[0] @ B[0] - A[1] @ B[1], A[0] @ B[1] + A[1] @ B[0]])


def product(A: np.ndarray, B: np.ndarray, kind) -> np.ndarray:
    """A B for arrays of any kind (Gaussian integers at the product of the
    two scales)."""
    if kind is GAUSSIAN:
        return gaussian_mat_mul(A, B)
    return array_mat_mul(A, B, COMPONENT_MUL.get(kind, operator.mul))
