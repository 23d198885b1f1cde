"""Matrix kernel for the quaternion, octonion and Gaussian kinds.

A quaternion or octonion matrix becomes a float array of shape (d, n, m),
one n x m slice per component.  Products apply the component formulas of
`scalars` (`quat_mul`, `oct_mul`) to whole arrays.  Each array operation is
the IEEE operation the scalar classes perform on a single entry, in the same
order, and sums over the inner index run one k at a time from a zero start
like the per-entry loop.  Results are therefore bit-identical to per-entry
arithmetic.  A structure-tensor GEMM would be faster still, but it sums in
another order and moves the last bits of every report.

A Gaussian-rational matrix is scaled by the lcm of its denominators to a
matrix over the Gaussian integers Z[i], held as two int matrices (or one
(2, n, m) object array of Python ints), so exact products and eliminations
run on Python ints instead of Fractions.  `scalar` and `from_array` also
read real and complex matrices held as (1, n, m) object arrays of their
numbers (connection.field_matrices).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .scalars import (GAUSSIAN, OCTONION, QUATERNION, GaussianRational,
                      Octonion, Quaternion, oct_mul, quat_mul)

COMPONENT_MUL = {QUATERNION: quat_mul, OCTONION: oct_mul}
_CLASS = {QUATERNION: Quaternion, OCTONION: Octonion, GAUSSIAN: GaussianRational}
KINDS = tuple(_CLASS)

# Entries per component of one block of products in mat_mul.  Bigger blocks
# take fewer numpy calls, but oct_mul keeps about 20 block-sized arrays alive.
BLOCK_ENTRIES = 1 << 11


def _coerce(M, kind):
    cls = _CLASS[kind]
    return [[v if isinstance(v, cls) else kind.from_int(v) for v in row]
            for row in M]


def to_array(M, kind) -> np.ndarray:
    """The (d, n, m) component array of a quaternion or octonion matrix."""
    rows = [[v.components() for v in row] for row in _coerce(M, kind)]
    m = len(rows[0]) if rows else 0
    X = np.array(rows, dtype=float).reshape(len(rows), m, kind.n_components)
    return X.transpose(2, 0, 1)


def _maker(kind, scale):
    if kind is GAUSSIAN:
        return lambda re, im: GaussianRational(Fraction(re, scale),
                                               Fraction(im, scale))
    return _CLASS.get(kind, lambda x: x)  # real and complex: the number


def scalar(X: np.ndarray, kind, scale=1):
    """The scalar whose components are the 1-d array X (divided by `scale`,
    an int, for Gaussian-integer components; X holds the number itself for
    the real and complex kinds)."""
    return _maker(kind, scale)(*X.tolist())


def from_array(X: np.ndarray, kind, scale=1) -> list:
    """Nested lists of scalars from a (d, n, m) component array (divided by
    `scale`, an int, for Gaussian-integer components)."""
    make = _maker(kind, scale)
    return [[make(*c) for c in row] for row in X.transpose(1, 2, 0).tolist()]


def norm_sq(X: np.ndarray) -> np.ndarray:
    """Entrywise squared norm, components added left to right."""
    total = X[0] * X[0]
    for x in X[1:]:
        total = total + x * x
    return total


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
    """A B for component arrays A (d, n, p) and B (d, p, m).

    The products A[:, i, k] B[:, k, j] of a block of k are formed at once,
    then added to the accumulator in increasing k.
    """
    d, n, p = A.shape
    m = B.shape[2]
    acc = np.zeros((d, n, m))
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
    """A B for component arrays of any kernel kind."""
    if kind is GAUSSIAN:
        return gaussian_mat_mul(A, B)
    return array_mat_mul(A, B, COMPONENT_MUL[kind])


def mat_mul(A, B, kind) -> list:
    """A B for quaternion, octonion or Gaussian matrices (nested lists)."""
    if kind is GAUSSIAN:
        ar, ai, da = to_gaussian_integers(A)
        br, bi, db = to_gaussian_integers(B)
        C = gaussian_mat_mul(np.array([ar, ai], dtype=object),
                             np.array([br, bi], dtype=object))
        return from_array(C, kind, da * db)
    C = array_mat_mul(to_array(A, kind), to_array(B, kind),
                      COMPONENT_MUL[kind])
    return from_array(C, kind)
