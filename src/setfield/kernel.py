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
matrix over the Gaussian integers Z[i], held as two int matrices, so exact
products and eliminations run on Python ints instead of Fractions.
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


def scalar(X: np.ndarray, kind):
    """The scalar whose components are the 1-d array X."""
    return _CLASS[kind](*X.tolist())


def from_array(X: np.ndarray, kind) -> list:
    """Nested lists of scalars from a (d, n, m) component array."""
    cls = _CLASS[kind]
    return [[cls(*c) for c in row] for row in X.transpose(1, 2, 0).tolist()]


def norm_sq(X: np.ndarray) -> np.ndarray:
    """Entrywise squared norm, components added left to right."""
    total = X[0] * X[0]
    for x in X[1:]:
        total = total + x * x
    return total


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


def mat_mul(A, B, kind) -> list:
    """A B for quaternion, octonion or Gaussian matrices (nested lists)."""
    if kind is GAUSSIAN:
        ar, ai, da = to_gaussian_integers(A)
        br, bi, db = to_gaussian_integers(B)
        ar, ai, br, bi = (np.array(x, dtype=object) for x in (ar, ai, br, bi))
        D = da * db
        re = (ar @ br - ai @ bi).tolist()
        im = (ar @ bi + ai @ br).tolist()
        return [[GaussianRational(Fraction(x, D), Fraction(y, D))
                 for x, y in zip(rr, ir)] for rr, ir in zip(re, im)]
    C = array_mat_mul(to_array(A, kind), to_array(B, kind),
                      COMPONENT_MUL[kind])
    return from_array(C, kind)
