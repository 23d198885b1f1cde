"""Independent oracles the tests check the library against.

Everything here is deliberately naive: cofactor expansions, chain
enumerations and per-eigenvalue greedy tracking.  None of it shares code
with the production paths it validates.  The per-entry `mat_mul` and
`row_reduce` at the end are the library's code from before matrices moved to
component arrays and one array elimination served every kind; they work on
scalar objects one entry at a time, with the scalar classes' own products,
which are pinned to `quaternion_product` and `octonion_product` here.
`build_matrices_by_sets` and the four `*_by_entries` checks are the
library's construction of L and g and its identity checks from before they
moved onto the inclusion matrix and component arrays: cores and stars found
by frozenset inclusion and intersected one pair at a time, each sum taken in
increasing element order from the kind's zero, with their own signs omega
and their own closure test, `is_closed_by_enumeration`, which looks up
every subset of every element; L and g come back in their own record,
`Matrices`, as tuples of rows of scalars.  `track_wheel` is the
eigenvalue tracker the library ran before it followed wheels on the secular
equation: LAPACK solves the eigenvalues of every sample (`eigenvalues`),
and the whole circle is redone at twice the steps while a step stays
ambiguous.  It shares only the start checks with their labels (`_start`,
`_repeat_error`) with the library; it matches each step by its own greedy
nearest match (`greedy_match`), and builds L(t) itself, as the BLAS
product (Z^T h) Z plus the turned rank-one term (`wheel_matrices`), where
the library reads L(0) from `field_matrices`.  It tracks the whole L(t),
or, in its per-block mode, the rows and columns of the wheel's
comparability block, found by its own search (`comparability_block`).
Its step test, `step_passes`, is the library's from before the secular
path tested each label against itself in one pass.
`raw_winding_increments` and `wheel_permutation` read a full path, as the
tracker gives one, where the library sums each label's angle steps as it
follows it.  `wheel_permutation` matches the end of the path to its start
by `path_permutation`, which uses `greedy_match` alone, and sums the
windings of each cycle itself; of the library's end match
(`_wheel_permutation`) it shares only the `WheelPermutation` record it
returns, and the rule it states: the winding goes to the arc that turned
most, with the same error texts.
`group_closure` lists a permutation group breadth first, the way group
orders were found before Schreier-Sims.  `intersection_closure` adds
missing pairwise intersections one pair at a time, to make systems on
which the Kaehler determinant is a product of intersection counts.
`intersection_counts_by_pairs` is the library's count of the factors c(x)
of that product from before it became a recursion down the star rows: it
intersects every ordered pair of elements and looks each intersection up.
"""

import cmath
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from setfield import SetSystem, scalars, spectral
from setfield.determinants import (SINGULAR_PIVOT_RATIO, DetFormulaReport,
                                   Elimination)
from setfield.identities import IdentityReport


def laplace_det(M):
    """Cofactor expansion along the first row; commutative scalars, n <= 6."""
    n = len(M)
    if n > 6:
        raise ValueError("laplace oracle is for tiny matrices only")
    if n == 1:
        return M[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = M[0][j] * laplace_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def fraction_det_rank(M):
    """Determinant (None unless square) and rank by Gauss-Jordan elimination
    over Fractions."""
    A = [[Fraction(int(v)) for v in row] for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    det = Fraction(1)
    r = 0
    for c in range(cols):
        pivot = next((k for k in range(r, rows) if A[k][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            A[r], A[pivot] = A[pivot], A[r]
            det = -det
        det *= A[r][c]
        inv = 1 / A[r][c]
        A[r] = [v * inv for v in A[r]]
        for k in range(rows):
            if k != r and A[k][c] != 0:
                f = A[k][c]
                A[k] = [a - f * b for a, b in zip(A[k], A[r])]
        r += 1
        if r == rows:
            break
    if rows != cols:
        return None, r
    return (det if r == rows else Fraction(0)), r


def jacobian_by_sets(system):
    """n^2 x n parametrization Jacobian by set comparisons: entry at
    (flattened (i,j), k) is 1 iff x_k lies in both x_i and x_j."""
    n = len(system)
    sub = np.zeros((n, n), dtype=np.int64)
    for k in range(n):
        ek = system.elements[k]
        for i in range(n):
            sub[k, i] = 1 if ek <= system.elements[i] else 0
    cols = [np.outer(sub[k], sub[k]).reshape(n * n) for k in range(n)]
    if not cols:
        return np.zeros((0, 0), dtype=np.int64)
    return np.stack(cols, axis=1)


def random_set_system(rng, n, max_vertex=6):
    """n distinct random nonempty subsets of 1..max_vertex in draw order;
    in general not closed under subsets."""
    elems = []
    while len(elems) < n:
        e = frozenset(rng.sample(range(1, max_vertex + 1),
                                 rng.randint(1, max_vertex - 2)))
        if e not in elems:
            elems.append(e)
    return SetSystem(elems)


def intersection_closure(system):
    """The elements of the system, in order, then every nonempty
    intersection of two of them that is missing, repeated until none is
    missing: the smallest system over it closed under nonempty pairwise
    intersection."""
    elems = list(system.elements)
    members = set(elems)
    grown = True
    while grown:
        grown = False
        for a, b in itertools.combinations(list(elems), 2):
            x = a & b
            if x and x not in members:
                members.add(x)
                elems.append(x)
                grown = True
    return SetSystem(elems)


def intersection_counts_by_pairs(system):
    """c(x) for each element x, the number of ordered pairs (z, z') of
    elements with z & z' = x, counted pair by pair; None when some nonempty
    pairwise intersection is not an element."""
    elements = system.elements
    index = {x: k for k, x in enumerate(elements)}
    counts = [0] * len(elements)
    for z in elements:
        for w in elements:
            x = z & w
            if x:
                k = index.get(x)
                if k is None:
                    return None
                counts[k] += 1
    return counts


def closure_by_enumeration(generators):
    """All nonempty subsets of the generators, as a set of frozensets."""
    out = set()
    for g in generators:
        members = sorted(set(g))
        for r in range(1, len(members) + 1):
            out.update(map(frozenset, itertools.combinations(members, r)))
    return out


def is_closed_by_enumeration(system):
    """True iff every nonempty proper subset of every element of the system
    is an element too, looked up subset by subset."""
    members = set(system.elements)
    return all(frozenset(sub) in members for e in system.elements
               for r in range(1, len(e))
               for sub in itertools.combinations(e, r))


def chain_euler_characteristic(poset):
    """Euler characteristic of the order complex of a poset of sets.

    Counts every nonempty chain x1 < x2 < ... < xk (strict inclusions) with
    sign (-1)^(k-1); this is the complex the inclusion structure spans, not
    the plain signed count of the member sets.  f(i) sums the signed chains
    whose minimum is element i, so f(i) = 1 - sum of f over elements above i.
    """
    elems = sorted(poset, key=lambda s: (len(s), sorted(s)))
    n = len(elems)
    f = [0] * n
    for i in reversed(range(n)):
        f[i] = 1 - sum(f[j] for j in range(n) if elems[i] < elems[j])
    return sum(f)


def chain_euler_characteristic_by_enumeration(poset):
    """Same quantity by listing every chain; exponential, tiny posets only."""
    elems = sorted(poset, key=lambda s: (len(s), sorted(s)))
    n = len(elems)
    total = 0
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            if all(elems[combo[k]] < elems[combo[k + 1]] for k in range(r - 1)):
                total += (-1) ** (r - 1)
    return total


def greedy_eigen_tracking(L_of_h, h0, wheel, steps):
    """Per-eigenvalue nearest-neighbor tracking, one label at a time.

    Mirrors a straightforward implementation: every label is followed
    independently through the deformation and matched greedily at each step;
    the result maps start labels to the index of the nearest original
    eigenvalue at the end of the turn.
    """
    h0 = np.asarray(h0, dtype=complex)
    V0 = np.sort_complex(np.linalg.eigvals(L_of_h(h0)))
    n = len(V0)
    perm = []
    for m in range(n):
        x = V0[m]
        for s in range(1, steps + 1):
            t = 2 * math.pi * s / steps
            hv = h0.copy()
            hv[wheel] = h0[wheel] * cmath.exp(1j * t)
            V1 = np.linalg.eigvals(L_of_h(hv))
            x = V1[np.abs(V1 - x).argmin()]
        perm.append(int(np.abs(V0 - x).argmin()))
    return tuple(perm)


class ClosureOverflowError(RuntimeError):
    """The group closure grew past its element cap."""

    def __init__(self, cap):
        self.cap = cap
        super().__init__(
            "group closure exceeded cap %d elements (the cap argument of "
            "group_closure); the group is too large to list; group_order "
            "gives its order without listing it" % cap)


def group_closure(perms, cap=10 ** 6):
    """Breadth-first closure of a generator list under composition.

    Returns (order, sorted element list); raises if the closure grows past cap.
    """
    if not perms:
        raise ValueError("need at least one permutation")
    degree = len(perms[0])
    if any(len(p) != degree for p in perms):
        raise ValueError("permutations must share one degree")
    gens = [tuple(p) for p in perms]
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(map(p.__getitem__, q))  # q first, then p
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
                    if len(seen) > cap:
                        raise ClosureOverflowError(cap)
        frontier = nxt
    return len(seen), sorted(seen)


# ---------------------------------------------------------------------------
# per-entry scalar arithmetic, kept as the bit-identity reference for the
# array kernel

def quaternion_product(p, q):
    """Hamilton product of two component 4-tuples, as Quaternion.__mul__
    evaluated it before the formula moved to scalars.quat_mul."""
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e)


def octonion_product(p, q):
    """Cayley-Dickson product (a,b)(c,d) = (ac - d*b, da + bc*) on quaternion
    halves, as Octonion.__mul__ evaluated it before."""
    a, b, c, d = p[:4], p[4:], q[:4], q[4:]

    def conj(x):
        return (x[0], -x[1], -x[2], -x[3])

    z1 = [x - y for x, y in zip(quaternion_product(a, c),
                                quaternion_product(conj(d), b))]
    z2 = [x + y for x, y in zip(quaternion_product(d, a),
                                quaternion_product(b, conj(c)))]
    return tuple(z1 + z2)


def entrywise_conjugate(M):
    return [[scalars.conjugate(v) for v in row] for row in M]


def mat_mul(A, B, kind):
    """C = A B with per-entry accumulation; every product is a binary one,
    so the result is well defined also for the non-associative kind."""
    n = len(A)
    m = len(B[0])
    inner = len(B)
    C = [[kind.zero] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for j in range(m):
            acc = kind.zero
            for k in range(inner):
                acc = acc + Ai[k] * B[k][j]
            C[i][j] = acc
    return C


def row_reduce(M, kind=None, want_log=False) -> Elimination:
    """Reduce to upper triangular form with left-multiplier eliminations.

    Row r picks up  row_r - (M[r][c] * pivot^-1) * row_c, which leaves both
    row-reduction determinants unchanged; swaps flip the sign bookkeeping.
    Float kinds pick the largest-norm pivot per column, the exact kind takes
    the first nonzero one.
    """
    kind = kind or scalars.kind_of(M[0][0])
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


# ---------------------------------------------------------------------------
# L, g and the identity checks one entry at a time, kept as the bit-identity
# reference for the build on the inclusion matrix and the checks on
# component arrays

class Matrices(NamedTuple):
    """L and g as tuples of rows of scalars, and the signs omega(x)."""

    kind: scalars.ScalarKind
    L: tuple
    g: tuple
    signs: tuple

    @property
    def n(self):
        return len(self.signs)


def energy(h, members):
    """H(A): the sum of h over the indices A in increasing order, from the
    kind's zero."""
    total = h.kind.zero
    for k in sorted(members):
        total = total + h.values[k]
    return total


def build_matrices_by_sets(system, h):
    """L(x,y) = H(core(x) & core(y)) and g(x,y) = omega(x) omega(y)
    H(star(x) & star(y)), one intersection of index sets per pair."""
    n = len(system)
    if len(h) != n:
        raise ValueError("field has %d values for %d elements" % (len(h), n))
    sets = system.elements
    cores = [{k for k in range(n) if sets[k] <= sets[i]} for i in range(n)]
    stars = [{k for k in range(n) if sets[i] <= sets[k]} for i in range(n)]
    om = tuple((-1) ** (len(e) - 1) for e in sets)
    L = [[None] * n for _ in range(n)]
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            lij = energy(h, cores[i] & cores[j])
            L[i][j] = L[j][i] = lij
            s = energy(h, stars[i] & stars[j])
            sgn = om[i] * om[j]
            gij = s if sgn == 1 else -s
            g[i][j] = g[j][i] = gij
    return Matrices(h.kind, tuple(tuple(r) for r in L),
                    tuple(tuple(r) for r in g), om)


def _identity_deviation(M, kind):
    n = len(M)
    worst = 0.0
    witnesses = []
    for i in range(n):
        for j in range(n):
            target = kind.one if i == j else kind.zero
            d = float(scalars.norm_sq(M[i][j] - target)) ** 0.5
            if d > worst:
                worst = d
            if d > 0:
                witnesses.append((i, j, d))
    witnesses.sort(key=lambda t: -t[2])
    return worst, [(i, j) for i, j, _ in witnesses[:8]]


def _scaled_tol(h, tol, power=1):
    """tol times max(1, max |h|)^power: power 2 for Green-star, which is
    quadratic in h, 1 for the linear energy and Gauss-Bonnet."""
    if h.kind.exact:
        return 0.0
    peak = max((float(scalars.norm_sq(v)) for v in h.values), default=1.0)
    return tol * max(1.0, peak) ** (power / 2)


def _norm_sq_as_scalar(v, kind):
    n2 = scalars.norm_sq(v)
    if kind is scalars.GAUSSIAN:
        return scalars.GaussianRational(n2)
    return kind.one * float(n2)


def green_star_by_entries(system, h, tol=scalars.DEFAULT_TOL):
    cm = build_matrices_by_sets(system, h)
    kind = h.kind
    gbar = entrywise_conjugate(cm.g)
    gL = mat_mul(gbar, cm.L, kind)
    Lg = mat_mul(cm.L, gbar, kind)
    eff = _scaled_tol(h, tol, 2)
    dev_gL, wit_gL = _identity_deviation(gL, kind)
    dev_Lg, wit_Lg = _identity_deviation(Lg, kind)
    worst = max(dev_gL, dev_Lg)
    complex_ok = is_closed_by_enumeration(system)
    units_ok = h.all_units(tol)
    applicability = None
    if not complex_ok:
        applicability = "not a simplicial complex; inversion not expected"
    elif not units_ok:
        applicability = "field is not unit valued; inversion not expected"
    diag_dev = 0.0
    for k in range(cm.n):
        d = float(scalars.norm_sq(gL[k][k]
                                  - _norm_sq_as_scalar(h.values[k], kind))) ** 0.5
        diag_dev = max(diag_dev, d)
    upper = None
    if complex_ok and system.is_canonical():
        upper = all(float(scalars.norm_sq(gL[i][j])) ** 0.5 <= eff
                    for i in range(cm.n) for j in range(i))
    holds = worst <= eff
    witnesses = [] if holds else (wit_gL or wit_Lg)
    return IdentityReport(
        name="greenstar", holds=holds, max_abs_deviation=worst,
        witnesses=witnesses, applicability=applicability,
        details={
            "diagonal_matches_norms": complex_ok and diag_dev <= eff,
            "diagonal_deviation": diag_dev,
            "diagonal": [scalars.to_jsonable(gL[k][k]) for k in range(cm.n)],
            "upper_triangular": upper,
            "gL_deviation": dev_gL,
            "Lg_deviation": dev_Lg,
        })


def energy_by_entries(system, h, tol=scalars.DEFAULT_TOL):
    cm = build_matrices_by_sets(system, h)
    total = h.kind.zero
    for row in cm.g:
        for v in row:
            total = total + v
    target = energy(h, range(len(system)))
    dev = float(scalars.norm_sq(total - target)) ** 0.5
    eff = _scaled_tol(h, tol)
    applicability = None
    if not is_closed_by_enumeration(system):
        applicability = "not a simplicial complex; identity not guaranteed"
    return IdentityReport("energy", dev <= eff, dev,
                          witnesses=[] if dev <= eff else [(-1, -1)],
                          applicability=applicability,
                          details={"lhs": scalars.to_jsonable(total),
                                   "rhs": scalars.to_jsonable(target)})


def gauss_bonnet_by_entries(system, h, tol=scalars.DEFAULT_TOL):
    cm = build_matrices_by_sets(system, h)
    st = None
    for k, s in enumerate(cm.signs):
        term = cm.g[k][k] if s == 1 else -cm.g[k][k]
        st = term if st is None else st + term
    if st is None:
        raise ValueError("empty matrix has no super trace")
    target = energy(h, range(len(system)))
    dev = float(scalars.norm_sq(st - target)) ** 0.5
    witnesses = []
    for i in range(cm.n):
        row_total = h.kind.zero
        for v in cm.g[i]:
            row_total = row_total + v
        curv = cm.g[i][i] if cm.signs[i] == 1 else -cm.g[i][i]
        d = float(scalars.norm_sq(row_total - curv)) ** 0.5
        if d > dev:
            dev = d
        if d > 0:
            witnesses.append((i, i))
    eff = _scaled_tol(h, tol)
    applicability = None
    if not is_closed_by_enumeration(system):
        applicability = "not a simplicial complex; identity not guaranteed"
    return IdentityReport("gaussbonnet", dev <= eff, dev,
                          witnesses=[] if dev <= eff else witnesses,
                          applicability=applicability,
                          details={"super_trace": scalars.to_jsonable(st)})


def _study(elim):
    if elim.singular:
        return 0.0
    return math.prod(scalars.norm(p) for p in elim.pivots)


def _dieudonne(elim, kind):
    if elim.singular:
        return scalars.abelianize(kind.zero)
    det = scalars.abelianize(kind.one)
    for p in elim.pivots:
        det = det * scalars.abelianize(p)
    if elim.swaps % 2:
        det = det * scalars.abelianize(kind.from_int(-1))
    return det


def det_formula_by_entries(system, h, tol=scalars.DEFAULT_TOL):
    """det(L) = det(g) = product of the abelianized field values, from one
    per-entry elimination per matrix (exact Fraction pivots over the
    Gaussian rationals)."""
    cm = build_matrices_by_sets(system, h)
    kind = h.kind
    elimL = row_reduce(cm.L, kind)
    elimg = row_reduce(cm.g, kind)
    if kind is scalars.GAUSSIAN:
        target_sq = scalars.norm_sq(h.values[0])
        for v in h.values[1:]:
            target_sq = target_sq * scalars.norm_sq(v)
        dL = _dieudonne(elimL, kind)
        dg = _dieudonne(elimg, kind)
        sqL = dL.norm_sq()
        sqg = dg.norm_sq()
        target_d = scalars.product_right(list(h.values), kind)
        ok = (sqL == target_sq and sqg == target_sq
              and dL == target_d and dg == target_d)
        return DetFormulaReport(kind.name, math.sqrt(float(sqL)),
                                math.sqrt(float(sqg)),
                                math.sqrt(float(target_sq)), dL, dg, target_d,
                                0.0 if ok else 1.0, ok, ok)
    expected_study = math.prod(scalars.norm(v) for v in h.values)
    sL = _study(elimL)
    sg = _study(elimg)
    scale = max(expected_study, 1e-300)
    devs = [abs(sL - expected_study) / scale, abs(sg - expected_study) / scale]
    if kind is scalars.OCTONION:
        dL = dg = target_d = None
    else:
        dL = _dieudonne(elimL, kind)
        dg = _dieudonne(elimg, kind)
        target_d = scalars.abelianize(scalars.product_right(list(h.values), kind))
        dscale = max(scalars.norm(target_d), 1e-300)
        devs.append(scalars.norm(dL - target_d) / dscale)
        devs.append(scalars.norm(dg - target_d) / dscale)
    worst = max(devs)
    return DetFormulaReport(kind.name, sL, sg, expected_study, dL, dg, target_d,
                            worst, False, worst <= tol)


def leibniz_sum(M, kind):
    """Permutation sum with right-bracketed products, n! terms."""
    n = len(M)
    total = kind.zero
    for perm in itertools.permutations(range(n)):
        term = scalars.product_right([M[i][perm[i]] for i in range(n)], kind)
        odd = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total = total + (-term if odd % 2 else term)
    return total


# ---------------------------------------------------------------------------
# the eigenvalue tracker: one LAPACK solve per sample

# Steps solved by one stacked eigenvalue call and matched together; also the
# most work an attempt does past the step that fails it.
TRACK_CHUNK = 32
WINDING_INT_TOL = 1e-3  # a loop's winding is an integer within this


def eigenvalues(M) -> np.ndarray:
    """All eigenvalues of a dense complex matrix, or of each matrix in a
    stack of shape (..., n, n) (no ordering contract).

    LAPACK solves the matrices of a stack one at a time, so each row of the
    result has the same bits as a call on that matrix alone.
    """
    A = np.asarray(M, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return np.linalg.eigvals(A)


def wheel_matrices(system, h0, wheel):
    """t -> L(t) for the field h0 with h0[wheel] turned to e^{it} h0[wheel].

    L = Z^T D_h Z, so turning one value is a rank-one update:
    L(t) = L(0) + (e^{it} - 1) h0[wheel] z z^T with z the wheel's row of Z.
    For an array of times the result is the stack of matrices, one per time.
    """
    Z = system.zeta
    L0 = (Z.T * h0) @ Z
    z = Z[wheel]
    turn = h0[wheel] * np.outer(z, z)

    def L_at(t):
        phase = np.exp(1j * np.asarray(t)) - 1.0
        return L0 + phase[..., None, None] * turn

    return L_at


def comparability_block(system, wheel):
    """The elements joined to the wheel by a chain of comparable elements
    (one containing the other), in increasing order: a breadth first search
    on the 0/1 matrix Z | Z^T."""
    Z = system.zeta.astype(bool)
    near = Z | Z.T
    reached = near[wheel]
    while True:
        grown = near[reached].any(axis=0)
        if (grown == reached).all():
            return np.flatnonzero(reached)
        reached = grown


def track_wheel(system, h, wheel, steps=spectral.DEFAULT_STEPS,
                in_block=False):
    """Follow all eigenvalue labels while h(wheel) turns once around the circle.

    Labels are the library's t=0 labels (spectral._start: the eigenvalues
    of FieldMatrices' L(0) in (re, im) order); each later sample, of this
    module's own L(t), is matched to the one before by the greedy nearest
    match.  A step is ambiguous when two labels pick one eigenvalue or a
    matched move exceeds half the gap around its target (step_passes).  An
    ambiguous step fails the attempt, and the whole path is recomputed with
    twice the steps, up to 2^ADAPTIVE_DOUBLINGS times the request.  The doubled grid contains
    the failed one (its even points are the same times, bit for bit), so a
    retry solves only the new points.  If the last attempt fails too, the
    error names the start of its first ambiguous step.  A repeated t=0
    eigenvalue is ambiguous at every step count, so it raises
    TrackingAmbiguityError at once.

    With in_block, only the wheel's comparability block
    (comparability_block) is tracked, by the eigenvalues of its rows and
    columns of L(t): the labels of _start's block of the same elements.
    Every other label keeps its t=0 value, and the path names the block's
    labels, so that its end match pairs only those.
    """
    h0, base, blocks = spectral._start(system, h, [wheel], steps)
    L_at = wheel_matrices(system, h0, wheel)
    labels = None
    if in_block:
        members = comparability_block(system, wheel)
        labels = next(lab for elements, lab, _ in blocks
                      if elements == members.tolist())
        whole_at = L_at

        def L_at(t):
            return whole_at(t)[..., members[:, None], members]

    start = base if labels is None else base[labels]
    error = spectral._repeat_error(start, wheel)
    if error is not None:
        raise error
    ts = raw = solved = None
    attempt_steps = steps
    while attempt_steps <= steps * 2 ** spectral.ADAPTIVE_DOUBLINGS:
        grid = np.linspace(0.0, 2.0 * math.pi, attempt_steps + 1)
        samples = np.empty((attempt_steps + 1, len(start)), dtype=complex)
        have = np.zeros(attempt_steps + 1, dtype=bool)
        samples[0], have[0] = start, True
        if ts is not None and np.array_equal(grid[::2], ts):
            samples[::2], have[::2] = raw, solved
        ts, raw, solved = grid, samples, have
        values, failed = _track_once(L_at, ts, raw, solved)
        if failed is None:
            if labels is not None:
                values, tracked = np.tile(base, (len(ts), 1)), values
                values[:, labels] = tracked
            return spectral.SpectralPath(wheel, ts, values, attempt_steps,
                                         labels)
        attempt_steps *= 2
    raise spectral.TrackingAmbiguityError(
        "eigenvalue tracking for wheel %d stayed ambiguous near t = %.4f at "
        "%d steps; two eigenvalues meet or nearly meet there, and a higher "
        "step count resolves only a near meeting"
        % (wheel, ts[failed], attempt_steps // 2))


def greedy_match(prev, new):
    """Greedy nearest matching of stacked steps (..., n): label i of prev goes
    to new[..., cols[..., i]], a distance best[..., i] away; collided is set
    where two labels pick one eigenvalue.  Without a collision cols is a
    minimum-cost matching, as each label is at its nearest.  Returns
    (cols, best, collided)."""
    D = np.abs(prev[..., :, None] - new[..., None, :])
    cols = D.argmin(axis=-1)
    best = np.take_along_axis(D, cols[..., None], axis=-1)[..., 0]
    sorted_cols = np.sort(cols, axis=-1)
    collided = (sorted_cols[..., 1:] == sorted_cols[..., :-1]).any(axis=-1)
    return cols, best, collided


def step_passes(prev, new):
    """Whether each step of a stack (..., n) of eigenvalue rows passes, and
    its greedy match: label i of prev goes to new[..., cols[..., i]].  A
    step fails where two labels pick one eigenvalue, or a label moves more
    than half the gap from its target to the nearest other eigenvalue.

    Each target of a step that passes is nearest its label (any other
    eigenvalue lies a gap from the target, so half a gap from the label);
    so where the greedy match collides, no matching passes, and no
    assignment is needed.  The verdict does not depend on the order of
    either row.  Returns (ok, cols).
    """
    cols, best, collided = greedy_match(prev, new)
    G = np.abs(new[..., :, None] - new[..., None, :])
    diagonal = np.arange(new.shape[-1])
    G[..., diagonal, diagonal] = np.inf
    gaps = G.min(axis=-2)  # nearest other eigenvalue, per raw index
    too_far = best > 0.5 * np.take_along_axis(gaps, cols, axis=-1)
    return ~(collided | too_far.any(axis=-1)), cols


def _track_once(L_at, ts, raw, solved):
    """The labelled eigenvalues at the times ts and None, or None and the
    index s of the first ambiguous step, from ts[s] to ts[s + 1]
    (step_passes).

    raw[s] holds the eigenvalues at ts[s] in LAPACK's order (raw[0] is the
    sorted start, which fixes the labels) where solved[s] is set; the rest
    are solved here, TRACK_CHUNK steps per stacked call, and kept in raw for
    a retry.  A whole chunk is tested raw to raw at once; a loop then
    composes the label permutation.
    """
    steps = len(ts) - 1
    values = np.empty_like(raw)
    values[0] = raw[0]
    perm = np.arange(raw.shape[1])  # label -> index into the current raw row
    for a in range(1, steps + 1, TRACK_CHUNK):
        b = min(a + TRACK_CHUNK, steps + 1)
        todo = a + np.flatnonzero(~solved[a:b])
        if len(todo):
            raw[todo] = eigenvalues(L_at(ts[todo]))
            solved[todo] = True
        ok, cols = step_passes(raw[a - 1:b - 1], raw[a:b])
        if not ok.all():
            return None, a - 1 + int(ok.argmin())
        for k in range(b - a):
            perm = cols[k][perm]
            values[a + k] = raw[a + k][perm]
    return values, None


def raw_winding_increments(path) -> np.ndarray:
    """Total argument increment of each label path, in turns (may be fractional).

    A label whose path ends on a different eigenvalue traces an open arc; only
    the closed loop obtained by concatenating the arcs of one permutation
    cycle has an integer winding.  The sum over all labels equals the winding
    of det(L(t)), which is exactly one turn per wheel.
    """
    vals = path.values
    if np.any(np.abs(vals) == 0.0):
        raise ValueError("path passes through zero; winding undefined")
    increments = np.angle(vals[1:] / vals[:-1])
    return increments.sum(axis=0) / (2.0 * math.pi)


def _path_labels(path):
    """The path's block labels, and their rows at its start and end."""
    labels = np.arange(path.n) if path.labels is None else path.labels
    return (labels,) + tuple(path.values[[0, -1]][:, labels])


def wheel_permutation(path) -> spectral.WheelPermutation:
    """The permutation of a tracked wheel, with its order and the integer
    winding of each label around 0, from the full path (track_wheel's, or
    phase's rows).  The end of the path is matched to its start by
    path_permutation.  Each cycle's loop, fixed labels last, winds by the
    sum of its labels' angle increments, which must be within
    WINDING_INT_TOL of an integer; the winding goes to the label that
    turned most, and the cycle's other labels report 0."""
    turns = np.zeros(path.n)
    labels = _path_labels(path)[0]
    turns[labels] = raw_winding_increments(path)[labels]
    perm = path_permutation(path)
    cycles, seen = [], set()
    for label in range(path.n):
        cycle = []
        while label not in seen:
            seen.add(label)
            cycle.append(label)
            label = perm[label]
        if cycle:
            cycles.append(tuple(cycle))
    cycles.sort(key=lambda cycle: len(cycle) == 1)
    windings = [0] * path.n
    for cycle in cycles:
        total = float(sum(turns[m] for m in cycle))
        if abs(total - round(total)) > WINDING_INT_TOL:
            raise ValueError("winding of cycle %s is %.6f, not an integer "
                             "(tracking failure?)" % (cycle, total))
        windings[max(cycle, key=lambda m: abs(turns[m]))] = round(total)
    return spectral.WheelPermutation(
        path.wheel, perm, math.lcm(*map(len, cycles)), tuple(windings))


def path_permutation(path) -> tuple:
    """The permutation that takes each label of the path's block to the
    start value nearest its end (greedy_match); the other labels are fixed.
    Two labels nearest one start value raise TrackingAmbiguityError."""
    labels, start, end = _path_labels(path)
    cols, _, collided = greedy_match(end, start)
    if collided:
        raise spectral.TrackingAmbiguityError(
            "eigenvalue tracking for wheel %d ended with two labels nearest "
            "one start value at %d steps" % (path.wheel, path.steps))
    perm = list(range(path.n))
    for label, col in zip(labels, cols):
        perm[label] = int(labels[col])
    return tuple(perm)
