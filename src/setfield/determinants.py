"""Leibniz, Study and abelianized row-reduction determinants over the scalar tower.

The permutation-sum determinant works over any kind but fails det(AB) =
det(A)det(B) once multiplication stops commuting.  The two row-reduction
determinants (norm valued, and valued in the abelianized multiplicative
group) both satisfy the product relation; they are read off one elimination
that records its pivots.  Over the float kinds it runs on a (d, n, n)
array, float components for quaternions and octonions and the numbers
themselves (d = 1) for reals and complexes, bit-identical to a per-entry
loop.  Over the Gaussian rationals every step of it is read off one
fraction-free elimination over the Gaussian integers, the same Bareiss loop
that gives the exact determinants of integer forms.  That loop eliminates
square matrices only and stops at the first column with no nonzero entry,
where the determinant is 0.  Q(i) commutes, so there the Dieudonne value of
that elimination is the exact determinant, which is also the permutation
sum.  numpy and the kernel are imported by the functions that need them, so
that the Bareiss loop imports without either.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from . import scalars
from .scalars import GAUSSIAN, OCTONION, GaussianRational, ScalarKind, kind_of

DEFAULT_LEIBNIZ_CAP = 10
SINGULAR_PIVOT_RATIO = 1e-12


class MatrixSizeError(ValueError):
    """Raised when the permutation-sum determinant is asked for too large a matrix."""


def leibniz_det(M, kind=None):
    """Permutation sum with right-bracketed products; factorial cost, capped.

    Exact whenever the entries are exact (ints, Gaussian rationals).  Over
    the Gaussian rationals, which commute, the sum is the determinant and
    comes from one fraction-free elimination instead (same cap).
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("matrix must be square")
    if refusal := leibniz_refusal(n):
        raise MatrixSizeError(refusal)
    kind = kind or kind_of(M[0][0])
    if kind is GAUSSIAN:
        from . import kernel

        return _gaussian_integer_det(*kernel.to_array(M, GAUSSIAN))
    total = kind.zero
    for perm in itertools.permutations(range(n)):
        term = scalars.product_right([M[i][perm[i]] for i in range(n)], kind)
        total = total + (term if _perm_parity(perm) == 0 else -term)
    return total


def leibniz_refusal(n):
    """Why an n x n permutation sum is refused (over the cap), else None."""
    if n > DEFAULT_LEIBNIZ_CAP:
        return ("n=%d exceeds the permutation-sum cap %d"
                % (n, DEFAULT_LEIBNIZ_CAP))
    return None


def _perm_parity(perm):
    """0 for even, 1 for odd, via cycle decomposition."""
    seen = [False] * len(perm)
    parity = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        parity ^= (length - 1) & 1
    return parity


@dataclass
class Elimination:
    """Outcome of one row-reduction pass: pivots, swap parity, and a log."""

    pivots: list
    swaps: int
    singular: bool
    log: list = field(default_factory=list)


def row_reduce(M, kind=None, want_log=False) -> Elimination:
    """Reduce to upper triangular form with left-multiplier eliminations.

    Row r picks up  row_r - (M[r][c] * pivot^-1) * row_c, which leaves both
    row-reduction determinants unchanged; swaps flip the sign bookkeeping.
    M is a matrix of scalars or, with `kind` given, its kernel.to_array pair
    (X, scale), the form of connection.field_matrices.  The steps come from
    `_float_steps`, or over the Gaussian rationals from `_gaussian_steps`.
    """
    import numpy as np

    from . import kernel

    kind = kind or kind_of(M[0][0])
    if not (isinstance(M, tuple) and len(M) == 2
            and isinstance(M[0], np.ndarray)):
        M = kernel.to_array(M, kind)
    steps = _gaussian_steps(*M) if kind is GAUSSIAN else _float_steps(M[0], kind)
    log, pivots, swaps = [], [], 0
    for c, step in enumerate(steps):
        if step is None:
            if want_log:
                log.append("column %d has no usable pivot; matrix is singular" % c)
            return Elimination(pivots, swaps, True, log)
        pr, pivot, multipliers = step
        swaps += pr != c
        pivots.append(pivot)
        if want_log:
            if pr != c:
                log.append("swap rows %d and %d" % (c, pr))
            log.append("pivot %d: %s" % (c, scalars.format_scalar(pivot)))
            log.extend("row %d -= (%s) * row %d" % (r, scalars.format_scalar(f), c)
                       for r, f in multipliers)
    return Elimination(pivots, swaps, False, log)


def _float_steps(W, kind):
    """row_reduce's steps on a (d, n, n) float-kind array: per column
    (pivot row, pivot, lazy (row, multiplier) pairs), the pivot being the
    entry of largest norm, or None once that norm is at most
    SINGULAR_PIVOT_RATIO times the matrix's largest.  A pivot updates the
    rows below it with a nonzero entry, in blocks of rows, right of the
    pivot column only."""
    import numpy as np

    from . import kernel

    W = W.copy()
    objects = W.dtype == object
    n = W.shape[1]
    threshold_sq = (SINGULAR_PIVOT_RATIO ** 2
                    * float(kernel.norms(W, kind).max())) if n else 0
    for c in range(n):
        col = W[:, c:, c]  # a view: it follows the swap below
        key = kernel.norms(col, kind)
        pr = c + int(np.argmax(key))
        if key[pr - c] <= threshold_sq:
            yield None
            return
        if pr != c:
            W[:, [c, pr]] = W[:, [pr, c]]
            key[[0, pr - c]] = key[[pr - c, 0]]
        pivot = kernel.scalar(W[:, c, c], kind)
        # the rows below whose entry is not zero (x == 0 for the numbers,
        # a zero norm for quaternions and octonions)
        rows = c + 1 + np.flatnonzero(col[0, 1:] != 0 if objects else key[1:])
        if len(rows):
            inverse = scalars.invert(pivot)
            inverse = (np.full((1, 1), inverse, dtype=object) if objects
                       else np.array(inverse.components())[:, None])
            F = kernel.multiply(W[:, rows, c], inverse, kind)
            step = max(1, kernel.BLOCK_PRODUCTS // (len(W) ** 2 * (n - c)))
            for i in range(0, len(rows), step):  # blocks of rows, as in products
                W[:, rows[i:i + step], c + 1:] -= kernel.multiply(
                    F[:, i:i + step, None], W[:, c, None, c + 1:], kind)
        yield pr, pivot, ((r, kernel.scalar(F[:, i], kind))
                          for i, r in enumerate(rows))


def _gaussian_steps(X, D):
    """row_reduce's steps over the Gaussian rationals X / D, read off the
    Bareiss loop on the Gaussian integers X.  After c steps a Bareiss entry
    is the Fraction elimination's entry times B_{c-1} D, where B_{c-1} is the
    previous Bareiss pivot (B_{-1} = 1).  So the two take the same first
    nonzero pivots and swaps, pivot c is B_c / (B_{c-1} D), and a row's
    multiplier is its leading entry over B_c."""
    prev = GAUSSIAN_INTEGERS.one
    steps = _bareiss_steps(_gaussian_rows(X), GAUSSIAN_INTEGERS)
    for c, step in enumerate(steps):
        if step is None:
            yield None
            return
        p, rows = step
        pivot = rows[0][0]
        yield c + p, _gaussian_ratio(pivot, prev, D), (
            (r, _gaussian_ratio(row[0], pivot))
            for r, row in enumerate(rows[1:], c + 1) if any(row[0]))
        prev = pivot


def _gaussian_ratio(x, y, d=1) -> GaussianRational:
    """x / (y d) for Gaussian integers x, y as (re, im) pairs and an int d."""
    (xr, xi), (yr, yi) = x, y
    den = (yr * yr + yi * yi) * d
    return GaussianRational(Fraction(xr * yr + xi * yi, den),
                            Fraction(xi * yr - xr * yi, den))


def study_det(M, kind=None) -> float:
    """Product of pivot norms after reduction; zero exactly on singular matrices.

    Defined for every kind including octonions, where each elimination step
    multiplies just two values at a time so non-associativity never bites a
    single operation.
    """
    return study_value(row_reduce(M, kind))


def study_value(elim: Elimination) -> float:
    """The Study determinant read off an elimination: product of pivot norms."""
    if elim.singular:
        return 0.0
    return math.prod(scalars.norm(p) for p in elim.pivots)


def dieudonne_det(M, kind=None):
    """Row-reduction determinant in the abelianization of the kind.

    Reals, complexes and Gaussian rationals come back as themselves (ordinary
    determinant, exact over the Gaussian rationals); quaternions as the
    nonnegative norm representative.
    Octonions are rejected: use study_det there.
    """
    kind = kind or kind_of(M[0][0])
    if kind is OCTONION:
        raise ValueError("no abelianized determinant over octonions; use study_det")
    return dieudonne_value(row_reduce(M, kind), kind)


def dieudonne_value(elim: Elimination, kind: ScalarKind):
    """The abelianized determinant read off an elimination over `kind`:
    product of abelianized pivots, negated for an odd number of swaps."""
    if elim.singular:
        return scalars.abelianize(kind.zero)
    det = scalars.abelianize(kind.one)
    for p in elim.pivots:
        det = det * scalars.abelianize(p)
    if elim.swaps % 2:
        det = det * scalars.abelianize(kind.from_int(-1))
    return det


class Ring(NamedTuple):
    """What the Bareiss loop needs of an integral domain: its one, a nonzero
    test, and the step that eliminates the leading column from a block of
    rows, dividing exactly by the previous pivot."""

    one: object
    nonzero: Callable
    eliminate: Callable


def _eliminate_int(rows, pivot, tail, prev):
    out = []
    for row in rows:
        a = row[0]
        out.append([(x * pivot - a * y) // prev
                    for x, y in zip(row[1:], tail)])
    return out


def _eliminate_gaussian_int(rows, pivot, tail, prev):
    # entries are (re, im) pairs; x * pivot - a * y is divided by prev as
    # (.) * conj(prev) / |prev|^2, exact in Z[i]
    pr, pi = pivot
    qr, qi = prev
    nq = qr * qr + qi * qi
    out = []
    for row in rows:
        ar, ai = row[0]
        new = []
        for (xr, xi), (yr, yi) in zip(row[1:], tail):
            ur = xr * pr - xi * pi - (ar * yr - ai * yi)
            ui = xr * pi + xi * pr - (ar * yi + ai * yr)
            new.append(((ur * qr + ui * qi) // nq, (ui * qr - ur * qi) // nq))
        out.append(new)
    return out


INTEGERS = Ring(1, bool, _eliminate_int)
GAUSSIAN_INTEGERS = Ring((1, 0), any, _eliminate_gaussian_int)


def _bareiss_steps(rows, ring=INTEGERS):
    """Fraction-free elimination (Bareiss 1968) of a square matrix over the
    integers or the Gaussian integers; `rows` is a list of row lists,
    consumed.

    Only the rows and columns still to be eliminated are kept.  The first
    row with a nonzero leading entry, at p, is swapped to the top, and
    (p, rows) is yielded before the step; a column without one yields None
    and ends the loop, the matrix being singular.  After r pivots every kept
    entry is an (r+1)-minor of the input, so each division by the previous
    pivot is exact.
    """
    prev = ring.one
    while rows:
        p = next((k for k, row in enumerate(rows) if ring.nonzero(row[0])),
                 None)
        if p is None:
            yield None
            return
        rows[0], rows[p] = rows[p], rows[0]
        yield p, rows
        pivot = rows[0][0]
        rows = ring.eliminate(rows[1:], pivot, rows[0][1:], prev)
        prev = pivot


def _bareiss_echelon(rows, ring=INTEGERS) -> tuple[int, object] | None:
    """(sign of the row swaps, last pivot) of the Bareiss loop, whose
    product is the determinant, or None for a singular matrix."""
    sign, last = 1, ring.one
    for step in _bareiss_steps(rows, ring):
        if step is None:
            return None
        p, rows = step
        sign, last = -sign if p else sign, rows[0][0]
    return sign, last


def _int_rows(M):
    return [[int(v) for v in row] for row in M]


def _gaussian_rows(X):
    """The Bareiss rows, lists of (re, im) pairs, of a (2, n, m) array of
    Gaussian integers."""
    re, im = X.tolist()
    return [list(zip(r, i)) for r, i in zip(re, im)]


def _gaussian_integer_det(X, D) -> GaussianRational:
    """det(X / D) for a (2, n, n) array X of Gaussian integers and an int D,
    the kernel.to_array pair."""
    echelon = _bareiss_echelon(_gaussian_rows(X), GAUSSIAN_INTEGERS)
    if echelon is None:
        return GaussianRational()
    sign, (dr, di) = echelon
    scale = D ** X.shape[1]
    return GaussianRational(Fraction(sign * dr, scale),
                            Fraction(sign * di, scale))


def bareiss_det(M) -> int:
    """Exact integer determinant by fraction-free elimination (big integers)."""
    if any(len(row) != len(M) for row in M):
        raise ValueError("matrix must be square")
    echelon = _bareiss_echelon(_int_rows(M))
    return 0 if echelon is None else echelon[0] * echelon[1]


@dataclass
class DetFormulaReport:
    """Comparison of det(L) and det(g) against the product of the field values."""

    kind_name: str
    study_L: float
    study_g: float
    expected_study: float
    dieudonne_L: object
    dieudonne_g: object
    expected_dieudonne: object
    max_rel_deviation: float
    exact_equal: bool
    holds: bool


def det_formula_check(system, h, tol=scalars.DEFAULT_TOL) -> DetFormulaReport:
    """Check det(L) = det(g) = product of abelianized field values.

    Holds for arbitrary finite sets of sets, not only simplicial complexes.
    Exact comparison over Gaussian rationals, relative tolerance elsewhere.
    """
    from .connection import field_matrices

    fm = field_matrices(system, h)
    kind = h.kind
    if kind is GAUSSIAN:
        # one exact elimination per matrix gives the det, hence |det|^2
        dL, dg = (_gaussian_integer_det(M, fm.scale) for M in (fm.L, fm.g))
        target_d = scalars.product_right(list(h.values), kind)
        ok = dL == target_d and dg == target_d
        study = (math.sqrt(float(d.norm_sq())) for d in (dL, dg, target_d))
        return DetFormulaReport(kind.name, *study, dL, dg, target_d,
                                0.0 if ok else 1.0, ok, ok)
    # one elimination per matrix gives both determinants
    elimL = row_reduce((fm.L, fm.scale), kind)
    elimg = row_reduce((fm.g, fm.scale), kind)
    expected_study = math.prod(scalars.norm(v) for v in h.values)
    sL = study_value(elimL)
    sg = study_value(elimg)
    devs = []
    scale = max(expected_study, 1e-300)
    devs.append(abs(sL - expected_study) / scale)
    devs.append(abs(sg - expected_study) / scale)
    if kind is OCTONION:
        dL = dg = target_d = None
    else:
        dL = dieudonne_value(elimL, kind)
        dg = dieudonne_value(elimg, kind)
        target_d = scalars.abelianize(scalars.product_right(list(h.values), kind))
        dscale = max(scalars.norm(target_d), 1e-300)
        devs.append(scalars.norm(dL - target_d) / dscale)
        devs.append(scalars.norm(dg - target_d) / dscale)
    worst = max(devs)
    return DetFormulaReport(kind.name, sL, sg, expected_study, dL, dg, target_d,
                            worst, False, worst <= tol)
