"""Eigenvalue monodromy under circular deformation of single field values.

Rotating one complex field value h(x) -> e^{it} h(x) around the full circle
returns the matrix L to itself but in general permutes its eigenvalues.  The
tracked eigenvalue paths, their winding numbers around the origin, the
per-wheel permutations and the group they generate are computed here; only
complex fields are supported (quaternion spectra lack canonical labels).

Two solvers follow the labels, on one time grid and with one step test
(_step_passes).  track_wheel solves the eigenvalues of every sample with
LAPACK; `phase` reads its paths.  wheel_permutations (`group`,
monodromy_report) needs only each wheel's permutation and windings: turning
one value is a rank-one update of L(0), so after one eigendecomposition of
L(0) it follows all wheels together by Newton on the secular equation, and
hands a wheel it cannot certify to track_wheel, whose result or error it
reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .connection import EnergyFunction
from .scalars import COMPLEX, format_scalar
from .setsystem import SetSystem

DEFAULT_STEPS = 500
ADAPTIVE_DOUBLINGS = 4  # step cap = 2**4 * requested steps
WINDING_INT_TOL = 1e-3
# Steps solved by one stacked eigenvalue call and matched together; also the
# most work an attempt does past the step that fails it.
TRACK_CHUNK = 32
# The secular path of wheel_permutations.  A step whose labels have not
# converged after SECULAR_ITERATIONS Newton steps fails; a label has
# converged when its Newton step is at most SECULAR_TOL times the largest
# t=0 eigenvalue modulus (about 3 steps are needed at 500 steps).
SECULAR_ITERATIONS = 12
SECULAR_TOL = 1e-9
# Above this condition number (Frobenius) of L(0)'s eigenvectors every wheel
# falls back: the weights divide by v_j^T v_j, with a relative error near
# 1e-16 * cond(V), 1e-10 at the cap (the worked cases have cond(V) < 25).
SECULAR_COND_CAP = 1e6
# Complex entries of one (wheels, n, n) temporary, which bound the wheels
# followed together.
SECULAR_BLOCK = 2 ** 14


class TrackingAmbiguityError(RuntimeError):
    """Eigenvalue labels could not be told apart: a repeated t=0 eigenvalue,
    a step that stayed ambiguous up to the step cap, or an end collision."""


@dataclass
class SpectralPath:
    """Labeled eigenvalue samples along t in [0, 2pi] for one turned wheel.

    steps is the number of intervals sampled, len(ts) - 1, and the samples
    are evenly spaced.
    """

    wheel: int
    ts: np.ndarray
    values: np.ndarray  # (steps+1, n) complex, column = one label
    steps: int

    @property
    def n(self):
        return self.values.shape[1]


@dataclass
class WheelPermutation:
    wheel: int
    perm: tuple
    order: int
    windings: tuple

    def cycle_string(self):
        return format_cycles(self.perm)


@dataclass
class GroupReport:
    generators: list
    group_order: int
    pi_big_presentation: str
    pi_small_presentation: str
    commuting_pairs: list = field(default_factory=list)
    relations_verified: bool = True
    duplicate_wheels: list = field(default_factory=list)
    multi_winding_wheels: list = field(default_factory=list)


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


def _complex_field_array(h: EnergyFunction) -> np.ndarray:
    if h.kind is not COMPLEX:
        raise ValueError("monodromy tracking needs a complex field, got %s"
                         % h.kind.name)
    return np.asarray(h.values, dtype=complex)


def _greedy_match(prev, new):
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


def track_wheel(system: SetSystem, h: EnergyFunction, wheel: int,
                steps: int = DEFAULT_STEPS) -> SpectralPath:
    """Follow all eigenvalue labels while h(wheel) turns once around the circle.

    Labels are fixed by sorting the t=0 eigenvalues; each later sample is
    matched to the one before by the greedy nearest match.  A step is
    ambiguous when two labels pick one eigenvalue or a matched move exceeds
    half the gap around its target (_step_passes).  An ambiguous step fails
    the attempt, and the whole path is recomputed with twice the steps, up
    to 2^ADAPTIVE_DOUBLINGS times the request.  The doubled grid contains
    the failed one (its even points are the same times, bit for bit), so a
    retry solves only the new points.  If the last attempt fails too, the
    error names the start of its first ambiguous step.  A repeated t=0
    eigenvalue is ambiguous at every step count, so it raises
    TrackingAmbiguityError at once.

    Wheels share no state and may run in parallel.
    """
    L_at, base = _start(system, h, wheel, steps)
    ts = raw = solved = None
    attempt_steps = steps
    while attempt_steps <= steps * 2 ** ADAPTIVE_DOUBLINGS:
        grid = np.linspace(0.0, 2.0 * math.pi, attempt_steps + 1)
        samples = np.empty((attempt_steps + 1, len(base)), dtype=complex)
        have = np.zeros(attempt_steps + 1, dtype=bool)
        samples[0], have[0] = base, True
        if ts is not None and np.array_equal(grid[::2], ts):
            samples[::2], have[::2] = raw, solved
        ts, raw, solved = grid, samples, have
        values, failed = _track_once(L_at, ts, raw, solved)
        if failed is None:
            return SpectralPath(wheel, ts, values, attempt_steps)
        attempt_steps *= 2
    # why a higher --steps may not help: an exact meeting is ambiguous at
    # any resolution
    raise TrackingAmbiguityError(
        "eigenvalue tracking for wheel %d stayed ambiguous near t = %.4f at "
        "%d steps; two eigenvalues meet or nearly meet there, and a higher "
        "step count resolves only a near meeting"
        % (wheel, ts[failed], attempt_steps // 2))


def _start(system: SetSystem, h: EnergyFunction, wheel: int, steps: int):
    """The checks every tracked wheel needs, then its t -> L(t) and the
    sorted t=0 eigenvalues, which fix the labels.  L(0) does not depend on
    the wheel, so neither do the labels."""
    if not (0 <= wheel < len(system)):
        raise ValueError("wheel index out of range")
    if steps < 1:
        raise ValueError("steps must be at least 1, got %d" % steps)
    h0 = _complex_field_array(h)
    if not h.all_nonzero():
        raise ValueError("all field values must be nonzero for tracking")
    L_at = wheel_matrices(system, h0, wheel)
    base = np.sort_complex(eigenvalues(L_at(0.0)))
    twins = np.flatnonzero(base[1:] == base[:-1])
    if len(twins):
        raise TrackingAmbiguityError(
            "eigenvalue tracking for wheel %d: the t=0 spectrum repeats %s"
            % (wheel, format_scalar(complex(base[twins[0]]))))
    return L_at, base


def wheel_matrices(system: SetSystem, h0: np.ndarray, wheel: int):
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


def _step_passes(prev, new):
    """Whether each step of a stack (..., n) of eigenvalue rows passes, and
    its greedy match: label i of prev goes to new[..., cols[..., i]].  A
    step fails where two labels pick one eigenvalue, or a label moves more
    than half the gap from its target to the nearest other eigenvalue.

    Each target of a step that passes is nearest its label (any other
    eigenvalue lies a gap from the target, so half a gap from the label);
    so where the greedy match collides, no matching passes, and no
    assignment is needed.  The verdict does not depend on the order of
    either row, so raw LAPACK rows can be tested before they are labelled.
    Returns (ok, cols).
    """
    cols, best, collided = _greedy_match(prev, new)
    G = np.abs(new[..., :, None] - new[..., None, :])
    diagonal = np.arange(new.shape[-1])
    G[..., diagonal, diagonal] = np.inf
    gaps = G.min(axis=-2)  # nearest other eigenvalue, per raw index
    too_far = best > 0.5 * np.take_along_axis(gaps, cols, axis=-1)
    return ~(collided | too_far.any(axis=-1)), cols


def _track_once(L_at, ts, raw, solved):
    """The labelled eigenvalues at the times ts and None, or None and the
    index s of the first ambiguous step, from ts[s] to ts[s + 1]
    (_step_passes).

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
        ok, cols = _step_passes(raw[a - 1:b - 1], raw[a:b])
        if not ok.all():
            return None, a - 1 + int(ok.argmin())
        for k in range(b - a):
            perm = cols[k][perm]
            values[a + k] = raw[a + k][perm]
    return values, None


def _secular_permutations(system: SetSystem, h0, L0, base, steps):
    """The WheelPermutation of each wheel followed on the secular equation,
    or None for a wheel that must fall back to the eigenvalue tracker.

    L0 = V diag(mu) V^-1, and turning wheel w to the time t adds
    s z_w z_w^T with s = (e^{it} - 1) h0[w].  So the eigenvalues of L(t) are
    the roots of 1 + s sum_j C[w, j] / (mu_j - lam) = 0, with the weights
    C[w, j] = (V^-1 z_w)_j (V^T z_w)_j (Golub 1973; Bunch, Nielsen and
    Sorensen 1978), plus the poles of zero weight.  L0 = Z^T D_h Z is
    complex symmetric, so with distinct eigenvalues V^T V is diagonal and
    V^-1 = diag(1 / v_j^T v_j) V^T: C[w, j] = (v_j^T z_w)^2 / v_j^T v_j,
    and no inverse is formed.  Every wheel falls back when cond(V), in the
    Frobenius norm, passes SECULAR_COND_CAP, which would make the weights
    inexact.  Wheels are followed in groups of at most SECULAR_BLOCK / n^2,
    all steps of a group together.
    """
    n = len(base)
    found = [None] * n
    mu, V = np.linalg.eig(L0)
    cols, _, collided = _greedy_match(base, mu)
    mu, V = mu[cols], V[:, cols]  # pole j is the t=0 position of label j
    # a zero v_j^T v_j makes cond infinite; a diverging Newton step fails
    with np.errstate(all="ignore"):
        norms = (V * V).sum(axis=0)  # v_j^T v_j
        cond = np.linalg.norm(V) * np.linalg.norm(V.T / norms[:, None])
        if collided or not cond <= SECULAR_COND_CAP:
            return found
        C = (system.zeta @ V) ** 2 / norms
        stride = 2 ** ADAPTIVE_DOUBLINGS
        fine = np.linspace(0.0, 2.0 * math.pi, steps * stride + 1)
        tol = SECULAR_TOL * np.abs(base).max()
        size = max(1, SECULAR_BLOCK // n ** 2)
        ends = fine[[0, -1]]
        for first in range(0, n, size):
            wheels = range(first, min(first + size, n))
            followed = _follow_wheels(mu, C[first:wheels.stop],
                                      h0[first:wheels.stop], base, fine,
                                      stride, tol)
            for wheel, got in zip(wheels, followed):
                if got is None:
                    continue
                last, turned = got
                try:
                    found[wheel] = _attribute_windings(
                        SpectralPath(wheel, ends, np.array([base, last]), 1),
                        turned / (2.0 * math.pi))
                except (TrackingAmbiguityError, ValueError):
                    pass
    return found


def _follow_wheels(mu, C, h, base, fine, stride, tol):
    """For the wheels with weights C (W, n) and field values h (W,): the
    labels at t = 2pi and each label's total angle increment in radians, or
    None for a wheel with a step that fails at one spacing of fine.

    All wheels take each coarse step (every stride-th point of fine) as one
    (W, n) Newton solve, started from the linear extrapolation of the last
    two coarse points.  A wheel whose step fails is split by _secular_refine
    on fine; a wheel that fails there is dropped.  Only the current rows and
    the running angle sums are kept.
    """
    turns = np.exp(1j * fine[::stride]) - 1.0
    rows = np.arange(len(C))  # the wheel of each live row
    out = [None] * len(C)
    lam = prev = np.tile(base, (len(C), 1))
    turned = np.zeros(lam.shape)
    for k in range(1, len(turns)):
        new, ok = _secular_step(mu, C, turns[k] * h, lam, 2.0 * lam - prev,
                                tol)
        moved = np.angle(new / lam)
        for r in np.flatnonzero(~ok):
            got = _secular_refine(mu, C[r], h[r], fine, (k - 1) * stride,
                                  k * stride, lam[r], tol)
            if got is None:
                rows[r] = -1
            else:
                new[r], moved[r] = got
        if (rows < 0).any():
            keep = rows >= 0
            if not keep.any():
                break
            rows, C, h, lam, new, moved, turned = (
                x[keep] for x in (rows, C, h, lam, new, moved, turned))
        turned += moved
        prev, lam = lam, new
    for r, wheel in enumerate(rows):
        out[wheel] = lam[r], turned[r]
    return out


def _secular_refine(mu, c, h, fine, start, stop, lam, tol):
    """One wheel's labels at fine[stop] from lam at fine[start], and their
    angle increments: a step that fails is split at its midpoint on fine
    and its first half is tried next.  None when a step of one spacing of
    fine fails.  A list, not a recursive closure, holds the pending
    targets."""
    at, targets = start, [stop]
    moved = np.zeros(len(lam))
    while targets:
        j = targets[-1]
        s = np.array([(np.exp(1j * fine[j]) - 1.0) * h])
        new, ok = _secular_step(mu, c[None], s, lam[None], lam[None], tol)
        if ok[0]:
            moved += np.angle(new[0] / lam)
            lam, at = new[0], targets.pop()
        elif j - at == 1:
            return None
        else:
            targets.append((at + j) // 2)
    return lam, moved


def _secular_step(mu, C, s, lam, guess, tol):
    """The labels (W, n) at the turns s (W,) by Newton from guess, and
    whether each wheel's step from lam passes: every label converged, and
    _step_passes holds with each label matched to itself.

    Each label is anchored at the pole mu_a nearest its guess for the whole
    step and solves s c_a - d (1 + s sum_{k != a} c_k / (mu_k - lam)) = 0
    for d = lam - mu_a, whose roots are the secular roots and which stays
    regular as c_a -> 0.  The anchor is chosen again each step: a label
    whose path ends on another pole (a permuted label) changes poles.
    """
    anchor = np.abs(mu - guess[..., None]).argmin(axis=-1)
    pole = mu[anchor]
    # mu_k - mu_a, and inf for k = a, where 1 / (mu_k - lam) must read 0
    offsets = np.where(anchor[..., None] == np.arange(len(mu)), np.inf,
                       mu - pole[..., None])
    weights = (s[:, None] * C)[..., None]
    pull = weights[np.arange(len(C))[:, None], anchor, 0]  # s c_a
    d = guess - pole
    for _ in range(SECULAR_ITERATIONS):
        inv = 1.0 / (offsets - d[..., None])
        q = 1.0 + (inv @ weights)[..., 0]
        step = (pull - d * q) / (q + d * ((inv * inv) @ weights)[..., 0])
        d += step
        converged = np.abs(step) <= tol
        if converged.all():
            break
    new = pole + d
    ok, cols = _step_passes(lam, new)
    return new, ok & (converged & (cols == np.arange(len(mu)))).all(axis=-1)


def raw_winding_increments(path: SpectralPath) -> np.ndarray:
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


def wheel_permutation(path: SpectralPath) -> WheelPermutation:
    """The permutation of a tracked wheel, with its order and the integer
    winding of each label around 0; the end of the path is matched to its
    start once.

    Fixed labels report the winding of their own closed path.  For a
    permutation cycle the arcs close up only jointly, so the cycle loop's
    winding is attributed to the arc with the largest share of the turning
    and the other labels of the cycle report 0; per-cycle totals must land
    within WINDING_INT_TOL of an integer or tracking is declared failed.
    """
    return _attribute_windings(path, raw_winding_increments(path))


def _attribute_windings(path: SpectralPath, raw) -> WheelPermutation:
    """wheel_permutation from the path's wheel and end rows (path_permutation)
    and the raw winding increments of its labels, in turns."""
    perm = path_permutation(path)
    out = [0] * path.n
    for cyc in perm_cycles(perm) + [(k,) for k in range(path.n)
                                    if perm[k] == k]:
        total = float(sum(raw[m] for m in cyc))
        r = round(total)
        if abs(total - r) > WINDING_INT_TOL:
            raise ValueError(
                "winding of cycle %s is %.6f, not an integer (tracking "
                "failure?)" % (cyc, total))
        carrier = max(cyc, key=lambda m: abs(raw[m]))
        out[carrier] = int(r)
    return WheelPermutation(path.wheel, perm, perm_order(perm), tuple(out))


def path_permutation(path: SpectralPath) -> tuple:
    """Match the end of the path back to the t=0 labels by the greedy
    nearest match, which is the minimum-cost matching when no two labels
    collide; a collision raises TrackingAmbiguityError."""
    cols, _, collided = _greedy_match(path.values[-1], path.values[0])
    if collided:
        raise TrackingAmbiguityError(
            "eigenvalue tracking for wheel %d ended with two labels nearest "
            "one start value at %d steps" % (path.wheel, path.steps))
    return tuple(int(c) for c in cols)


def wheel_permutations(system: SetSystem, h: EnergyFunction,
                       steps: int = DEFAULT_STEPS):
    """One WheelPermutation per element.

    All wheels are followed together on the rank-one secular equation
    (_secular_permutations), at track_wheel's coarse times and with its
    step test (_step_passes); a failing step is split at midpoints down to
    one spacing of track_wheel's grid at the step cap.  A wheel that fails
    there, or whose end match or windings fail, is tracked again by
    track_wheel, the tracker `phase` runs, whose result or error it reports.
    """
    if not len(system):
        return []
    L_at, base = _start(system, h, 0, steps)
    found = _secular_permutations(system, _complex_field_array(h),
                                  L_at(0.0), base, steps)
    return [wp if wp is not None
            else wheel_permutation(track_wheel(system, h, wheel, steps))
            for wheel, wp in enumerate(found)]


# ---------------------------------------------------------------------------
# permutation utilities and group order

def perm_compose(a, b):
    """Apply b first, then a."""
    return tuple(map(a.__getitem__, b))


def perm_order(p) -> int:
    order = 1
    for cyc in perm_cycles(p):
        order = order * len(cyc) // math.gcd(order, len(cyc))
    return order


def perm_cycles(p):
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        if len(cyc) > 1:
            cycles.append(tuple(cyc))
    return cycles


def format_cycles(p) -> str:
    cycles = perm_cycles(p)
    if not cycles:
        return "()"
    return "".join("(%s)" % " ".join(str(v + 1) for v in cyc) for cyc in cycles)


def _inverse(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def group_order(perms) -> int:
    """Order of the group the permutations generate, by Schreier-Sims.

    Deterministic Schreier-Sims (Sims 1970; Seress, Permutation Group
    Algorithms, 2003, ch. 4) with base 0, 1, ..., n-1.  Level i keeps the
    strong generators that fix 0..i-1 and a transversal of the orbit of i
    under them: a map from each orbit point b to a pair (u, u^-1) with
    u[i] = b.  Levels are completed from the last up: each Schreier
    generator u_{s(b)}^-1 s u_b of level i is sifted through the levels
    below; a nonidentity residue becomes a new strong generator at the level
    where its sift stopped, and checking resumes there.  When every level is
    complete the order is the product of the orbit lengths.  Nothing close
    to the group's size is ever stored, unlike a breadth-first closure.
    """
    if not perms:
        raise ValueError("need at least one permutation")
    degree = len(perms[0])
    if any(len(p) != degree for p in perms):
        raise ValueError("permutations must share one degree")
    ident = tuple(range(degree))
    strong = [[] for _ in range(degree)]  # by first moved point
    trans = [{i: (ident, ident)} for i in range(degree)]
    checked = [set() for _ in range(degree)]  # (orbit point, generator)

    def level_gens(i):
        return [g for j in range(i, degree) for g in strong[j]]

    def add_strong(g):
        """File g under its first moved point j and extend the orbits of
        every level it belongs to; returns j."""
        j = next(i for i in range(degree) if g[i] != i)
        strong[j].append(g)
        for i in range(j + 1):
            gens = level_gens(i)
            orbit = trans[i]
            points = list(orbit)
            for b in points:  # grows while it is walked
                u = orbit[b][0]
                for s in gens:
                    c = s[b]
                    if c not in orbit:
                        v = perm_compose(s, u)
                        orbit[c] = (v, _inverse(v))
                        points.append(c)
        return j

    def sift(g, start):
        """What is left of g where it leaves the chain (it fixes every
        earlier base point and moves the next one), or None if it sifts to
        the identity."""
        for i in range(start, degree):
            if g[i] == i:
                continue
            entry = trans[i].get(g[i])
            if entry is None:
                return g
            g = perm_compose(entry[1], g)
        return None

    for g in perms:
        g = tuple(g)
        if g != ident:
            add_strong(g)
    i = degree - 1
    while i >= 0:
        resume = None
        orbit = trans[i]
        gens = level_gens(i)
        for b in list(orbit):
            u = orbit[b][0]
            for s in gens:
                if (b, s) in checked[i]:
                    continue
                checked[i].add((b, s))
                h = perm_compose(orbit[s[b]][1], perm_compose(s, u))
                residue = sift(h, i + 1)
                if residue is not None:
                    resume = add_strong(residue)
                    break
            if resume is not None:
                break
        i = resume if resume is not None else i - 1
    return math.prod(len(orbit) for orbit in trans)


def _power(p, k):
    out = tuple(range(len(p)))
    for _ in range(k):
        out = perm_compose(p, out)
    return out


def presentations(perms: list) -> tuple[str, str]:
    """Generator/relation text for the finite group and its relation-only sibling.

    The finite presentation lists the measured generator orders n_k and the
    mixed relations g_i^{n_i} g_j^{n_j} g_i^{-n_i} g_j^{-n_j} = 1; dropping
    the power relations leaves the infinite finitely presented group, which
    collapses to Z^n when every wheel permutation is trivial.
    """
    n = len(perms)
    orders = [p.order if isinstance(p, WheelPermutation) else perm_order(p)
              for p in perms]
    gens = ", ".join("g%d" % (k + 1) for k in range(n))
    power_rels = ["g%d^%d = 1" % (k + 1, orders[k]) for k in range(n)]
    mixed_rels = []
    for i in range(n):
        for j in range(i + 1, n):
            mixed_rels.append(
                "g%d^%d g%d^%d g%d^-%d g%d^-%d = 1"
                % (i + 1, orders[i], j + 1, orders[j],
                   i + 1, orders[i], j + 1, orders[j]))
    big = "< %s | %s >" % (gens, ", ".join(power_rels + mixed_rels))
    if all(o == 1 for o in orders):
        small = ("Z^%d = < %s | %s >"
                 % (n, gens, ", ".join("g%d g%d g%d^-1 g%d^-1 = 1"
                                       % (i + 1, j + 1, i + 1, j + 1)
                                       for i in range(n)
                                       for j in range(i + 1, n))))
    else:
        small = "< %s | %s >" % (gens, ", ".join(mixed_rels))
    return big, small


def monodromy_report(system: SetSystem, h: EnergyFunction,
                     steps: int = DEFAULT_STEPS, cap=10 ** 6) -> GroupReport:
    """Full pipeline: track every wheel, order the group, emit presentations.

    The wheels come from wheel_permutations: all of them on the secular
    equation at once, and a wheel that cannot be certified there by the
    eigenvalue tracker.  The order comes from group_order (Schreier-Sims),
    which lists no group elements; `cap` is accepted for existing callers
    and bounds nothing.
    """
    perms = wheel_permutations(system, h, steps)
    order = group_order([w.perm for w in perms])
    big, small = presentations(perms)

    # every listed relation must hold in the concrete permutation group
    ident = tuple(range(len(system)))
    verified = True
    for w in perms:
        if _power(w.perm, w.order) != ident:
            verified = False
    for i in range(len(perms)):
        pi = _power(perms[i].perm, perms[i].order)
        for j in range(i + 1, len(perms)):
            pj = _power(perms[j].perm, perms[j].order)
            if perm_compose(pi, pj) != perm_compose(pj, pi):
                verified = False

    commuting = [(i, j) for i in range(len(perms))
                 for j in range(i + 1, len(perms))
                 if perm_compose(perms[i].perm, perms[j].perm)
                 == perm_compose(perms[j].perm, perms[i].perm)]
    duplicates = [(i, j) for i in range(len(perms))
                  for j in range(i + 1, len(perms))
                  if perms[i].perm == perms[j].perm]
    multi = [w.wheel for w in perms
             if sum(1 for x in w.windings if x != 0) > 1
             or any(abs(x) > 1 for x in w.windings)]
    return GroupReport(perms, order, big, small, commuting, verified,
                       duplicates, multi)
