"""Leibniz, Study and abelianized row-reduction determinants over the scalar tower.

The permutation-sum determinant works over any kind but fails det(AB) =
det(A)det(B) once multiplication stops commuting.  The two row-reduction
determinants (norm valued, and valued in the abelianized multiplicative
group) both satisfy the product relation; they are read off one elimination
that records its pivots and runs on a (d, n, n) array for every kind: float
components for quaternions and octonions, the scalars themselves (d = 1)
otherwise, bit-identical to a per-entry loop.  Over the Gaussian rationals
the abelianized determinant and |det|^2 come from one fraction-free
elimination over the Gaussian integers, the same Bareiss loop that serves
integer forms.  numpy and the kernel are imported by the functions that
need them, so that the Bareiss loop imports without either.
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


def leibniz_det(M, kind=None, cap=DEFAULT_LEIBNIZ_CAP):
    """Permutation sum with right-bracketed products; factorial cost, capped.

    Exact whenever the entries are exact (ints, Gaussian rationals).  Over
    the Gaussian rationals, which commute, the sum is the determinant and
    comes from one fraction-free elimination instead (same cap).
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("matrix must be square")
    if n > cap:
        raise MatrixSizeError("n=%d exceeds the permutation-sum cap %d" % (n, cap))
    kind = kind or kind_of(M[0][0])
    if kind is GAUSSIAN:
        return _gaussian_det(M)
    total = kind.zero
    for perm in itertools.permutations(range(n)):
        term = scalars.product_right([M[i][perm[i]] for i in range(n)], kind)
        total = total + (term if _perm_parity(perm) == 0 else -term)
    return total


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
    Float kinds pick the largest-norm pivot per column, the exact kind takes
    the first nonzero one.  Each pivot updates the rows below it with a
    nonzero entry in one array step, right of the pivot column only (no
    later step reads the others).  M may also be a component array in the
    form of connection.field_matrices (not Gaussian), with `kind` given.
    """
    import numpy as np

    from . import kernel

    kind = kind or kind_of(M[0][0])
    W = (M.copy() if isinstance(M, np.ndarray)
         else np.array([M], dtype=object) if kind is GAUSSIAN  # exact entries
         else kernel.to_array(M, kind)[0])
    objects = W.dtype == object
    n = W.shape[1]
    log = [] if want_log else None
    threshold_sq = 0 if kind.exact or not n else (
        SINGULAR_PIVOT_RATIO ** 2 * float(kernel.norms(W, kind).max()))
    pivots, swaps = [], 0
    for c in range(n):
        col = W[:, c:, c]  # a view: it follows the swap below
        # the first nonzero entry (False <= 0), or the largest norm
        key = col[0] != 0 if kind.exact else kernel.norms(col, kind)
        pr = c + int(np.argmax(key))
        if key[pr - c] <= threshold_sq:
            if log is not None:
                log.append("column %d has no usable pivot; matrix is singular" % c)
            return Elimination(pivots, swaps, True, log or [])
        if pr != c:
            W[:, [c, pr]] = W[:, [pr, c]]
            key[[0, pr - c]] = key[[pr - c, 0]]
            swaps += 1
            if log is not None:
                log.append("swap rows %d and %d" % (c, pr))
        pivot = W[0, c, c] if objects else kernel.scalar(W[:, c, c], kind)
        pivots.append(pivot)
        if log is not None:
            log.append("pivot %d: %s" % (c, scalars.format_scalar(pivot)))
        # the rows below whose entry is not zero (x == 0 for the numbers,
        # a zero norm for quaternions and octonions)
        rows = c + 1 + np.flatnonzero(col[0, 1:] != 0 if objects else key[1:])
        if not len(rows):
            continue
        inverse = scalars.invert(pivot)
        inverse = (np.full((1, 1), inverse, dtype=object) if objects
                   else np.array(inverse.components())[:, None])
        F = kernel.multiply(W[:, rows, c], inverse, kind)
        step = max(1, kernel.BLOCK_PRODUCTS // (len(W) ** 2 * (n - c)))
        for i in range(0, len(rows), step):  # blocks of rows, as in products
            W[:, rows[i:i + step], c + 1:] -= kernel.multiply(
                F[:, i:i + step, None], W[:, c, None, c + 1:], kind)
        if log is not None:
            for i, r in enumerate(rows):
                f = F[0, i] if objects else kernel.scalar(F[:, i], kind)
                log.append("row %d -= (%s) * row %d"
                           % (r, scalars.format_scalar(f), c))
    return Elimination(pivots, swaps, False, log or [])


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


def study_det_sq_exact(M):
    """Exact |det|^2 as a Fraction, for Gaussian-rational matrices
    (Bareiss over the Gaussian integers, see _gaussian_det)."""
    return _gaussian_det(M).norm_sq()


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
    if kind is GAUSSIAN:
        return _gaussian_det(M)
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


def _bareiss_echelon(rows, ring=INTEGERS) -> tuple[int, object, int]:
    """Fraction-free row echelon form (Bareiss 1968) over the integers or
    the Gaussian integers; `rows` is a list of row lists, consumed.

    Only the rows and columns still to be eliminated are kept.  A column
    without a nonzero entry there is skipped, so the matrix may be
    rectangular or rank deficient.  After r pivots every kept entry is an
    (r+1)-minor of the input, which makes each division by the previous pivot
    exact.  Returns (sign of the row swaps, last pivot, rank); for a square
    matrix of full rank the determinant is sign * last pivot.
    """
    sign = 1
    prev = ring.one
    rank = 0
    while rows and rows[0]:
        p = next((k for k, row in enumerate(rows) if ring.nonzero(row[0])),
                 None)
        if p is None:
            rows = [row[1:] for row in rows]
            continue
        if p:
            rows[0], rows[p] = rows[p], rows[0]
            sign = -sign
        pivot = rows[0][0]
        rows = ring.eliminate(rows[1:], pivot, rows[0][1:], prev)
        prev = pivot
        rank += 1
    return sign, prev, rank


def _int_rows(M):
    return [[int(v) for v in row] for row in M]


def _gaussian_det(M) -> GaussianRational:
    """Determinant of a square Gaussian-rational matrix, exactly."""
    from . import kernel

    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("matrix must be square")
    return _gaussian_integer_det(*kernel.to_gaussian_integers(M))


def _gaussian_integer_det(re, im, D) -> GaussianRational:
    """det((re + i im) / D) for square int matrices re, im (nested lists)."""
    n = len(re)
    rows = [list(zip(r, i)) for r, i in zip(re, im)]
    sign, (dr, di), rank = _bareiss_echelon(rows, GAUSSIAN_INTEGERS)
    if rank < n:
        return GaussianRational()
    scale = D ** n
    return GaussianRational(Fraction(sign * dr, scale),
                            Fraction(sign * di, scale))


def bareiss_det(M) -> int:
    """Exact integer determinant by fraction-free elimination (big integers)."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("matrix must be square")
    sign, last_pivot, rank = _bareiss_echelon(_int_rows(M))
    return sign * last_pivot if rank == n else 0


def exact_rank(M) -> int:
    """Rank over the rationals of an integer matrix (same elimination)."""
    return _bareiss_echelon(_int_rows(M))[2]


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
        # one exact elimination per matrix gives the det and |det|^2
        target_sq = scalars.norm_sq(h.values[0])
        for v in h.values[1:]:
            target_sq = target_sq * scalars.norm_sq(v)
        dL, dg = (_gaussian_integer_det(*M.tolist(), fm.scale)
                  for M in (fm.L, fm.g))
        sqL = dL.norm_sq()
        sqg = dg.norm_sq()
        target_d = scalars.product_right(list(h.values), kind)
        ok = (sqL == target_sq and sqg == target_sq
              and dL == target_d and dg == target_d)
        return DetFormulaReport(kind.name, math.sqrt(float(sqL)),
                                math.sqrt(float(sqg)),
                                math.sqrt(float(target_sq)), dL, dg, target_d,
                                0.0 if ok else 1.0, ok, ok)
    # one elimination per matrix gives both determinants
    elimL = row_reduce(fm.L, kind)
    elimg = row_reduce(fm.g, kind)
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
