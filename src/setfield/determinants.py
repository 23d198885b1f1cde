"""Leibniz, Study and abelianized row-reduction determinants over the scalar tower.

The permutation-sum determinant works over any kind but fails det(AB) =
det(A)det(B) once multiplication stops commuting.  The two row-reduction
determinants (norm valued, and valued in the abelianized multiplicative
group) both satisfy the product relation; they are computed from one shared
elimination pass that records its pivots.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import scalars
from .scalars import GAUSSIAN, OCTONION, ScalarKind, kind_of

DEFAULT_LEIBNIZ_CAP = 10
SINGULAR_PIVOT_RATIO = 1e-12


class MatrixSizeError(ValueError):
    """Raised when the permutation-sum determinant is asked for too large a matrix."""


def _matrix_kind(M, kind=None) -> ScalarKind:
    if kind is not None:
        return kind
    return kind_of(M[0][0])


def leibniz_det(M, kind=None, cap=DEFAULT_LEIBNIZ_CAP):
    """Permutation sum with right-bracketed products; factorial cost, capped.

    Exact whenever the entries are exact (ints, Gaussian rationals).
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("matrix must be square")
    if n > cap:
        raise MatrixSizeError("n=%d exceeds the permutation-sum cap %d" % (n, cap))
    kind = _matrix_kind(M, kind)
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
    the first nonzero one.
    """
    kind = _matrix_kind(M, kind)
    n = len(M)
    W = [list(row) for row in M]
    log = [] if want_log else None
    exact = kind.exact
    if exact:
        threshold_sq = 0
    else:
        max_norm_sq = max((float(scalars.norm_sq(v)) for row in W for v in row),
                          default=0.0)
        threshold_sq = (SINGULAR_PIVOT_RATIO ** 2) * max_norm_sq
    pivots = []
    swaps = 0
    for c in range(n):
        if exact:
            pr = next((r for r in range(c, n) if bool(W[r][c])), None)
        else:
            pr = max(range(c, n), key=lambda r: float(scalars.norm_sq(W[r][c])))
            if float(scalars.norm_sq(W[pr][c])) <= threshold_sq:
                pr = None
        if pr is None:
            if log is not None:
                log.append("column %d has no usable pivot; matrix is singular" % c)
            return Elimination(pivots, swaps, True, log or [])
        if pr != c:
            W[c], W[pr] = W[pr], W[c]
            swaps += 1
            if log is not None:
                log.append("swap rows %d and %d" % (c, pr))
        pivot = W[c][c]
        pivots.append(pivot)
        if log is not None:
            log.append("pivot %d: %s" % (c, scalars.format_scalar(pivot)))
        inv_pivot = scalars.invert(pivot)
        for r in range(c + 1, n):
            if scalars.is_zero(W[r][c]):
                continue
            f = W[r][c] * inv_pivot
            W[r] = [W[r][k] - f * W[c][k] for k in range(n)]
            if log is not None:
                log.append("row %d -= (%s) * row %d"
                           % (r, scalars.format_scalar(f), c))
    return Elimination(pivots, swaps, False, log or [])


def study_det(M, kind=None) -> float:
    """Product of pivot norms after reduction; zero exactly on singular matrices.

    Defined for every kind including octonions, where each elimination step
    multiplies just two values at a time so non-associativity never bites a
    single operation.
    """
    elim = row_reduce(M, kind)
    if elim.singular:
        return 0.0
    return math.prod(scalars.norm(p) for p in elim.pivots)


def study_det_sq_exact(M):
    """Exact |det|^2 as a Fraction, for Gaussian-rational matrices."""
    elim = row_reduce(M, GAUSSIAN)
    if elim.singular:
        from fractions import Fraction

        return Fraction(0)
    prod = scalars.norm_sq(elim.pivots[0])
    for p in elim.pivots[1:]:
        prod = prod * scalars.norm_sq(p)
    return prod


def dieudonne_det(M, kind=None):
    """Row-reduction determinant in the abelianization of the kind.

    Reals, complexes and Gaussian rationals come back as themselves (ordinary
    determinant); quaternions as the nonnegative norm representative.
    Octonions are rejected: use study_det there.
    """
    kind = _matrix_kind(M, kind)
    if kind is OCTONION:
        raise ValueError("no abelianized determinant over octonions; use study_det")
    elim = row_reduce(M, kind)
    if elim.singular:
        return scalars.abelianize(kind.zero)
    det = scalars.abelianize(kind.one)
    for p in elim.pivots:
        det = det * scalars.abelianize(p)
    if elim.swaps % 2:
        det = det * scalars.abelianize(kind.from_int(-1))
    return det


@dataclass
class DetResult:
    """Bundle of the requested determinants of one matrix."""

    study: float
    leibniz: object = None
    dieudonne: object = None
    pivot_log: list = field(default_factory=list)


def all_determinants(M, kind=None, with_leibniz=True,
                     cap=DEFAULT_LEIBNIZ_CAP) -> DetResult:
    kind = _matrix_kind(M, kind)
    elim = row_reduce(M, kind, want_log=True)
    if elim.singular:
        study = 0.0
        dieu = None if kind is OCTONION else scalars.abelianize(kind.zero)
    else:
        study = math.prod(scalars.norm(p) for p in elim.pivots)
        if kind is OCTONION:
            dieu = None
        else:
            dieu = scalars.abelianize(kind.one)
            for p in elim.pivots:
                dieu = dieu * scalars.abelianize(p)
            if elim.swaps % 2:
                dieu = dieu * scalars.abelianize(kind.from_int(-1))
    leib = None
    if with_leibniz and len(M) <= cap:
        leib = leibniz_det(M, kind, cap)
    return DetResult(study=study, leibniz=leib, dieudonne=dieu,
                     pivot_log=elim.log)


def _bareiss_echelon(M) -> tuple[int, int, int]:
    """Fraction-free row echelon form of an integer matrix (Bareiss 1968).

    Only the rows and columns still to be eliminated are kept.  A column
    without a nonzero entry there is skipped, so M may be rectangular or rank
    deficient.  After r pivots every kept entry is an (r+1)-minor of M,
    which makes each division by the previous pivot exact.  Returns (sign of
    the row swaps, last pivot, rank); for a square M of full rank the
    determinant is sign * last pivot.
    """
    rows = [[int(v) for v in row] for row in M]
    sign = 1
    prev = 1
    rank = 0
    while rows and rows[0]:
        p = next((k for k, row in enumerate(rows) if row[0]), None)
        if p is None:
            rows = [row[1:] for row in rows]
            continue
        if p:
            rows[0], rows[p] = rows[p], rows[0]
            sign = -sign
        pivot = rows[0][0]
        tail = rows[0][1:]
        rest = []
        for row in rows[1:]:
            a = row[0]
            rest.append([(x * pivot - a * y) // prev
                         for x, y in zip(row[1:], tail)])
        rows = rest
        prev = pivot
        rank += 1
    return sign, prev, rank


def bareiss_det(M) -> int:
    """Exact integer determinant by fraction-free elimination (big integers)."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("matrix must be square")
    sign, last_pivot, rank = _bareiss_echelon(M)
    return sign * last_pivot if rank == n else 0


def exact_rank(M) -> int:
    """Rank over the rationals of an integer matrix (same elimination)."""
    return _bareiss_echelon(M)[2]


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
    from .connection import build_matrices

    cm = build_matrices(system, h)
    kind = h.kind
    if kind is GAUSSIAN:
        target_sq = scalars.norm_sq(h.values[0])
        for v in h.values[1:]:
            target_sq = target_sq * scalars.norm_sq(v)
        sqL = study_det_sq_exact(cm.L)
        sqg = study_det_sq_exact(cm.g)
        dL = dieudonne_det(cm.L, kind)
        dg = dieudonne_det(cm.g, kind)
        target_d = scalars.product_right(list(h.values), kind)
        ok = (sqL == target_sq and sqg == target_sq
              and dL == target_d and dg == target_d)
        return DetFormulaReport(kind.name, math.sqrt(float(sqL)),
                                math.sqrt(float(sqg)),
                                math.sqrt(float(target_sq)), dL, dg, target_d,
                                0.0 if ok else 1.0, ok, ok)
    expected_study = math.prod(scalars.norm(v) for v in h.values)
    sL = study_det(cm.L, kind)
    sg = study_det(cm.g, kind)
    devs = []
    scale = max(expected_study, 1e-300)
    devs.append(abs(sL - expected_study) / scale)
    devs.append(abs(sg - expected_study) / scale)
    if kind is OCTONION:
        dL = dg = target_d = None
    else:
        dL = dieudonne_det(cm.L, kind)
        dg = dieudonne_det(cm.g, kind)
        target_d = scalars.abelianize(scalars.product_right(list(h.values), kind))
        dscale = max(scalars.norm(target_d), 1e-300)
        devs.append(scalars.norm(dL - target_d) / dscale)
        devs.append(scalars.norm(dg - target_d) / dscale)
    worst = max(devs)
    return DetFormulaReport(kind.name, sL, sg, expected_study, dL, dg, target_d,
                            worst, False, worst <= tol)
