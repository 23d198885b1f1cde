"""Energy valuations on set systems and the connection matrices they induce.

A field h assigns one scalar to every element of a system G.  H(A) sums h
over a subset A of G, the matrix L(x,y) = H(core(x) & core(y)) couples cores,
and g(x,y) = omega(x) omega(y) H(star(x) & star(y)) couples stars with a sign
conjugation.  Entries are plain sums, so L and g are symmetric as arrays for
every scalar kind, commutative or not.

`field_matrices` builds L and g once per (system, field) pair as component
arrays, and its `FieldMatrices` is the one form of them: the checks and the
commands all read it, and kernel.from_array turns an array back into scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernel, scalars
from .scalars import COMPLEX, GAUSSIAN, REAL, ScalarKind
from .setsystem import SetSystem


@dataclass(frozen=True)
class EnergyFunction:
    """One scalar per element of an associated system, all of one kind."""

    kind: ScalarKind
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def __len__(self):
        return len(self.values)

    def __getitem__(self, k):
        return self.values[k]

    def all_units(self, tol=scalars.DEFAULT_TOL) -> bool:
        return all(scalars.is_unit(v, tol) for v in self.values)

    def all_nonzero(self) -> bool:
        return not any(scalars.is_zero(v) for v in self.values)


def omega(x) -> int:
    """The sign (-1)^dim(x) with dim(x) = |x| - 1."""
    return -1 if len(x) % 2 == 0 else 1


def omega_vector(system: SetSystem) -> tuple:
    return tuple(omega(e) for e in system.elements)


class FieldMatrices(NamedTuple):
    """A field's values, L and g as component arrays, and the signs.

    Matrices are (d, n, n) arrays and `values` is (d, n), in the form
    kernel.py gives the kind; Gaussian entries are `scale` times the
    field's, where `scale` is the lcm of its denominators.  Every sum over
    entries starts from `zero`, H(G) included: the running sum of `values`.
    """

    kind: ScalarKind
    values: np.ndarray
    L: np.ndarray
    g: np.ndarray
    signs: tuple
    scale: int
    zero: object

    def potential_and_curvature(self):
        """Row sums V of g, each added from zero along the row, and the
        signed diagonal K(x) = omega(x) g(x,x), as (d, n) arrays."""
        diag = np.diagonal(self.g, axis1=1, axis2=2)
        K = np.where(np.array(self.signs) < 0, -diag, diag)
        return kernel.running_sum(self.g, self.zero), K


# The matrices of the most recent (system, field) pair, as (system, field,
# FieldMatrices): the checks run on one pair one after another, and each
# reads the same L and g.
_LAST = None


def field_matrices(system: SetSystem, h: EnergyFunction) -> FieldMatrices:
    """L = Z^T D_h Z and g = S Z D_h Z^T S from the inclusion matrix Z.

    Row k of Z is the star of x_k, so h(x_k) enters L on the block
    star(x_k) x star(x_k), and g on core(x_k) x core(x_k) (column k).  Each
    entry receives its values in increasing k from zero: H sums a set of
    indices in increasing order, here core(x) & core(y) and star(x) & star(y).

    The result for the most recent pair is kept, and returned again while
    both arguments are the same objects (`is`, not ==: equal fields can
    give different bytes, as 1 and 1.0 or 0.0 and -0.0 do).  Callers share
    it, so its arrays are read-only.
    """
    global _LAST
    last = _LAST  # one read, so that a concurrent call cannot mix two entries
    if last is not None and last[0] is system and last[1] is h:
        return last[2]
    n = len(system)
    if len(h) != n:
        raise ValueError("field has %d values for %d elements" % (len(h), n))
    values, scale, zero = kernel.field_values(h.values, h.kind)
    Z = system.zeta
    L = _block_sums(values, Z, zero)
    G = _block_sums(values, Z.T, zero)
    om = omega_vector(system)
    g = np.where(np.multiply.outer(om, om) < 0, -G, G)
    for X in (values, L, g):
        X.flags.writeable = False
    fm = FieldMatrices(h.kind, values, L, g, om, scale, zero)
    _LAST = (system, h, fm)
    return fm


def _block_sums(values, blocks, zero):
    """S[:, i, j] = sum of values[:, k] over the k with blocks[k, i] and
    blocks[k, j] set, added in increasing k from `zero`."""
    d, n = values.shape
    if values.dtype == object:
        # Python numbers: each value is added only inside its block (an
        # array step per k would make n^3 Python additions)
        S = [[[zero] * n for _ in range(n)] for _ in range(d)]
        for k, row in enumerate(blocks.tolist()):
            block = [i for i, inside in enumerate(row) if inside]
            for Sc, v in zip(S, values[:, k].tolist()):
                for i in block:
                    Si = Sc[i]
                    for j in block:
                        Si[j] = Si[j] + v
        return np.array(S, dtype=object).reshape(d, n, n)
    # floats: one array step per k, adding 0.0 outside block k.  No sum from
    # zero is ever -0.0 (a round-to-nearest sum is -0.0 only when both terms
    # are), so adding 0.0 changes no entry's bits.
    inside = blocks[:, :, None] & blocks[:, None, :] != 0
    S = np.full((d, n, n), zero, dtype=float)
    for k in range(n):
        S += np.where(inside[k], values[:, k, None, None], zero)
    return S


# ---------------------------------------------------------------------------
# field presets

def omega_field(system: SetSystem) -> EnergyFunction:
    """The topological field h = omega; H becomes the Euler characteristic."""
    return EnergyFunction(REAL, omega_vector(system))


def ones_field(system: SetSystem, kind: ScalarKind = REAL) -> EnergyFunction:
    return EnergyFunction(kind, tuple(kind.one for _ in system.elements))


def roots_field(system: SetSystem, order: int) -> EnergyFunction:
    """h(x_k) = exp(2 pi i k / order), k = 1..n; unit complex values."""
    import cmath

    n = len(system)
    vals = tuple(cmath.exp(2j * cmath.pi * (k + 1) / order) for k in range(n))
    return EnergyFunction(COMPLEX, vals)


def random_field(system: SetSystem, kind: ScalarKind, rng,
                 unit=False) -> EnergyFunction:
    if unit:
        vals = tuple(scalars.random_unit(kind, rng) for _ in system.elements)
    else:
        vals = tuple(scalars.random_nonzero(kind, rng) for _ in system.elements)
    return EnergyFunction(kind, vals)


def explicit_field(values, kind: ScalarKind | None = None) -> EnergyFunction:
    vals = tuple(values)
    if kind is None:
        if not vals:
            raise ValueError("cannot infer kind of an empty field")
        kinds = {scalars.kind_of(v) for v in vals}
        if len(kinds) == 1:
            kind = kinds.pop()
        elif kinds == {REAL, COMPLEX}:
            kind = COMPLEX
            vals = tuple(complex(v) for v in vals)
        elif kinds == {REAL, GAUSSIAN}:
            kind = GAUSSIAN
            vals = tuple(v if scalars.kind_of(v) is GAUSSIAN
                         else scalars.GaussianRational(v) for v in vals)
        else:
            raise ValueError("mixed scalar kinds in field: %s"
                             % sorted(k.name for k in kinds))
    return EnergyFunction(kind, vals)
