"""Eigenvalue monodromy under circular deformation of single field values.

Rotating one complex field value h(x) -> e^{it} h(x) around the full circle
returns the matrix L to itself but in general permutes its eigenvalues.  The
tracked eigenvalue paths, their winding numbers around the origin, the
per-wheel permutations and the group they generate are computed here; only
complex fields are supported (quaternion spectra lack canonical labels).

One solver follows the labels, wheel_permutations: turning one value is a
rank-one update of L(0) that moves only the eigenvalues of the value's
comparability block, so after one eigendecomposition of each block of L(0),
read from connection.field_matrices (the labels are all their eigenvalues
in (re, im) order), it follows the wheels of a block together by Newton on
the block's secular equation.
One Newton call solves a run of coarse steps, each started from the
polynomial through the last four coarse rows, and the run's longest prefix
of steps that pass a one-pass step test (_step_holds) is taken; the run
length follows the Newton iterations the solves take.  The same loop
(_follow_wheels) follows a step that fails for a wheel again, for that
wheel alone, as two steps at half the spacing.
`group` (monodromy_report) reads each wheel's permutation and windings;
`phase` reads the same, and the labels on the requested grid.  The order of
the wheel group comes from a certificate of transpositions when it applies,
else from Schreier-Sims (group_order).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .connection import EnergyFunction, field_matrices
from .scalars import COMPLEX, format_scalar
from .setsystem import SetSystem

DEFAULT_STEPS = 500
ADAPTIVE_DOUBLINGS = 4  # a failing step is halved down to 2**-4 of a step
WINDING_INT_TOL = 1e-3
# A step whose labels have not converged after SECULAR_ITERATIONS Newton
# steps fails; a label has converged when its Newton step is at most
# SECULAR_TOL times the largest t=0 eigenvalue modulus (a Newton call of a
# run of coarse steps takes 3.4-4.2 on average on the worked cases at 500
# steps).
SECULAR_ITERATIONS = 12
SECULAR_TOL = 1e-9
# Above this condition number (Frobenius) of L(0)'s eigenvectors tracking
# fails: the weights divide by v_j^T v_j, with a relative error near
# 1e-16 * cond(V), 1e-10 at the cap (the worked cases have cond(V) < 25).
SECULAR_COND_CAP = 1e6
# Complex entries of one (wheels, n_c, n_c) temporary, n_c the size of the
# comparability block, which bound the wheels followed together.  A run of
# several coarse steps holds two (run, wheels, n_c, n_c) temporaries,
# together at most this many entries.
SECULAR_BLOCK = 2 ** 14
# A run of coarse steps is solved together, row j of it (j steps ahead)
# started from the polynomial through the last PREDICTOR_ORDER + 1 coarse
# rows (_predictors).
PREDICTOR_ORDER = 3


@functools.cache
def _predictors(horizon):
    """Weights (PREDICTOR_ORDER + 1, horizon, PREDICTOR_ORDER + 1) of the
    guesses: entry [m, j - 1, i] weights the i-th newest of the last m + 1
    coarse rows in the polynomial of degree m through them, j steps ahead,
    prod_{l != i} (j + l) / (l - i) over l <= m (0 for i > m).  The weights
    are integers; for j = 1 they are (-1)^i binom(m + 1, i + 1), the cubic's
    4, -6, 4, -1.  No entry depends on horizon (the tables are cached)."""
    ahead = np.arange(1, horizon + 1)
    table = np.zeros((PREDICTOR_ORDER + 1, horizon, PREDICTOR_ORDER + 1),
                     dtype=complex)
    for m in range(PREDICTOR_ORDER + 1):
        for i in range(m + 1):
            others = [l for l in range(m + 1) if l != i]
            table[m, :, i] = (np.prod([ahead + l for l in others], axis=0)
                              // math.prod(l - i for l in others))
    return table


class TrackingAmbiguityError(ValueError):
    """Eigenvalue labels could not be told apart: a repeated t=0 eigenvalue
    in a comparability block, eigenvectors of a block of L(0) too
    ill-conditioned to weight the secular equation, a step that stayed
    ambiguous at the finest spacing, or an end collision; a ValueError, as
    every refusal of an input is."""


@dataclass
class SpectralPath:
    """Labeled eigenvalue samples along t in [0, 2pi] for one turned wheel.

    steps is the number of even intervals of the grid the wheel was followed
    on, and values holds a row for each of its steps + 1 times ts.  labels
    are the columns of the wheel's comparability block, in increasing order
    (None: all of them); every other column stays at its t=0 value.
    """

    wheel: int
    ts: np.ndarray
    values: np.ndarray  # (len(ts), n) complex, column = one label
    steps: int
    labels: np.ndarray | None = None

    @property
    def n(self):
        return self.values.shape[1]


@dataclass
class WheelPermutation:
    wheel: int
    perm: tuple
    order: int
    windings: tuple
    # the labels on the requested grid, when wheel_permutations keeps them
    path: SpectralPath | None = field(default=None, compare=False,
                                      repr=False)

    def cycle_string(self):
        return format_cycles(self.perm)


@dataclass
class GroupReport:
    generators: list
    group_order: int
    commuting_pairs: list = field(default_factory=list)
    # always True, since each order is perm_order of its generator; kept
    # only because the perfbench monodromy and cli-cold checks read it
    relations_verified: bool = True
    duplicate_wheels: list = field(default_factory=list)
    multi_winding_wheels: list = field(default_factory=list)


def _complex_field_array(h: EnergyFunction) -> np.ndarray:
    if h.kind is not COMPLEX:
        raise ValueError("monodromy tracking needs a complex field, got %s"
                         % h.kind.name)
    return np.asarray(h.values, dtype=complex)


def _start(system: SetSystem, h: EnergyFunction, wheels, steps: int):
    """The checks every followed wheel needs, then the field values h0, the
    labels mu and the comparability blocks.

    Elements are comparable when one contains the other.  The blocks, the
    components of that relation (_components on the pairs star_rows
    lists), split FieldMatrices' L(0) block diagonally.  Each is (members,
    labels, V): its elements, increasing; V from one eig of its part of
    L(0), its columns in the (re, im) order (np.sort_complex's) of their
    eigenvalues; and the indices of those in mu, all blocks' eigenvalues in
    (re, im) order.  A system of one block makes one eig of L(0) itself."""
    if not all(0 <= wheel < len(system) for wheel in wheels):
        raise ValueError("wheel index out of range")
    if steps < 1:
        raise ValueError("steps must be at least 1, got %d" % steps)
    h0 = _complex_field_array(h)
    if not h.all_nonzero():
        raise ValueError("all field values must be nonzero for tracking")
    L0 = field_matrices(system, h).L[0].astype(complex)
    if not np.isfinite(L0).all():
        raise ValueError("matrix has non-finite entries")
    members = _components(len(system), [
        (i, k) for i, row in enumerate(system.star_rows)
        for k in range(row.bit_length()) if row >> k & 1])
    values, vectors = [], []
    for block in members:
        mu, V = np.linalg.eig(L0[np.ix_(block, block)])
        order = np.argsort(mu, kind="stable")
        values.append(mu[order])
        vectors.append(V[:, order])
    mu = np.concatenate(values)
    order = np.argsort(mu, kind="stable")
    bounds = np.cumsum(list(map(len, members)))[:-1]
    labels = np.split(np.argsort(order), bounds)
    return h0, mu[order], list(zip(members, labels, vectors))


def _repeat_error(poles, wheel):
    """The TrackingAmbiguityError, naming the wheel, when the t=0
    eigenvalues poles of its block, in (re, im) order, repeat a value (no
    step count can label them), else None."""
    twins = np.flatnonzero(poles[1:] == poles[:-1])
    if len(twins):
        return TrackingAmbiguityError(
            "eigenvalue tracking for wheel %d: the t=0 spectrum repeats %s"
            % (wheel, format_scalar(complex(poles[twins[0]]))))
    return None


def wheel_permutations(system: SetSystem, h: EnergyFunction,
                       steps: int = DEFAULT_STEPS, wheels=None,
                       paths: bool = False):
    """One WheelPermutation for each of the wheels (by default every
    element), in order; with paths, each carries its SpectralPath on the
    grid of `steps` intervals.

    z_w, row w of Z, lies in w's comparability block (_start), so turning
    wheel w moves only that block's eigenvalues: each block is followed
    alone (_follow_block), and a label of another block is a fixed point
    of winding 0.  A crossing between blocks is no branch point.

    The first wheel in order that fails raises a ValueError: the subclass
    TrackingAmbiguityError for a repeated t=0 eigenvalue or a cond(V) above
    SECULAR_COND_CAP in its block, a step that fails at the finest spacing,
    2^-ADAPTIVE_DOUBLINGS of a step (naming its start), or a failed end
    match; a plain one when the windings are not integers or do not sum to 1.
    Wheels after the first failure found so far are not followed.
    """
    wheels = list(range(len(system)) if wheels is None else wheels)
    if not wheels:
        return []
    h0, mu, blocks = _start(system, h, wheels, steps)
    tol = SECULAR_TOL * np.abs(mu).max()
    found = [None] * len(wheels)
    failed, error = len(wheels), None  # the first position that fails
    # a zero v_j^T v_j makes cond infinite; a diverging Newton step fails
    with np.errstate(all="ignore"):
        for members, labels, V in blocks:
            mine = [p for p in range(failed) if wheels[p] in members]
            if not mine:
                continue
            done, exc = _follow_block([wheels[p] for p in mine], members,
                                      labels, V, mu, h0, system.zeta, steps,
                                      tol, paths)
            for p, wp in zip(mine, done):
                found[p] = wp
            if exc is not None:
                failed, error = mine[len(done)], exc
    if error is not None:
        raise error
    return found


def _follow_block(wheels, members, labels, V, mu, h0, Z, steps, tol, paths):
    """The WheelPermutation of each of the wheels of one block (members,
    labels, V of _start), in order up to the first that fails, and that
    one's error, else None.

    The poles are the block's t=0 eigenvalues mu[labels].  Turning wheel w
    adds s z_w z_w^T with s = (e^{it} - 1) h0[w], so the block's
    eigenvalues are the roots of 1 + s sum_j C[w, j] / (mu_j - lam) = 0,
    with C[w, j] = (V^-1 z_w)_j (V^T z_w)_j (Golub 1973; Bunch, Nielsen and
    Sorensen 1978), plus the poles of zero weight.  L0 is complex
    symmetric, so with distinct eigenvalues V^-1 = diag(1 / v_j^T v_j) V^T
    and C[w, j] = (v_j^T z_w)^2 / v_j^T v_j.  A repeated pole or a cond(V)
    (Frobenius norm) above SECULAR_COND_CAP, which would make the weights
    inexact, fails the first wheel before any is followed.  Wheels are
    followed in groups of at most SECULAR_BLOCK / n_c^2, n_c the block's
    size, each group on one table of the pole offsets (_follow_wheels), on
    every 2^ADAPTIVE_DOUBLINGS-th point of the grid of fine intervals; a
    wheel's end labels meet the poles once, in _wheel_permutation.
    """
    found = []
    poles = mu[labels]
    error = _repeat_error(poles, wheels[0])
    if error is not None:
        return found, error
    norms = (V * V).sum(axis=0)  # v_j^T v_j
    cond = np.linalg.norm(V) * np.linalg.norm(V.T / norms[:, None])
    if not cond <= SECULAR_COND_CAP:
        return found, TrackingAmbiguityError(
            "eigenvalue tracking: the eigenvectors V of L(0) have "
            "cond(V) = %.4g, above the cap %.4g, so the secular weights "
            "are inexact" % (cond, SECULAR_COND_CAP))
    C = (Z[np.ix_(members, members)] @ V) ** 2 / norms
    # mu_k - mu_a, and inf for k = a, where 1 / (mu_k - lam) must read 0
    off = poles - poles[:, None]
    np.fill_diagonal(off, np.inf)
    fine = steps * 2 ** ADAPTIVE_DOUBLINGS
    size = max(1, SECULAR_BLOCK // len(poles) ** 2)
    for first in range(0, len(wheels), size):
        group = wheels[first:first + size]
        followed, ts, rows = _follow_wheels(
            poles, off, C[np.searchsorted(members, group)], h0[group],
            np.tile(poles, (len(group), 1)),
            range(0, fine + 1, 2 ** ADAPTIVE_DOUBLINGS), fine, tol, paths)
        for r, (wheel, (at, last, turned)) in enumerate(zip(group, followed)):
            if at is not None:
                # why a higher --steps may not help: an exact meeting is
                # ambiguous at any resolution
                return found, TrackingAmbiguityError(
                    "eigenvalue tracking for wheel %d stayed ambiguous near "
                    "t = %.4f at %d steps; two eigenvalues meet or nearly "
                    "meet there, and a higher step count resolves only a "
                    "near meeting" % (wheel, at, fine))
            try:
                wp = _wheel_permutation(wheel, len(mu), labels, poles, last,
                                        turned / (2.0 * math.pi), steps)
            except ValueError as exc:
                return found, exc
            if sum(wp.windings) != 1:
                return found, ValueError(
                    "the windings of wheel %d sum to %d, not 1 (steps = %d): "
                    "det L, the product of the field values, turns once "
                    "around 0 with the wheel (tracking failure?)"
                    % (wheel, sum(wp.windings), steps))
            if paths:
                values = np.tile(mu, (len(rows), 1))
                values[:, labels] = rows[:, r]
                wp.path = SpectralPath(wheel, ts, values, steps, labels)
            found.append(wp)
    return found, None


def _follow_wheels(mu, off, C, h, lam, ticks, fine, tol, paths):
    """For the wheels with weights C (W, n), field values h (W,) and labels
    lam (W, n) at the first of ticks, a range of points of the grid of fine
    intervals: one (at, last, turned) per wheel, the angles t of ticks, and
    with paths the labels at each of them, (len(ticks), W, n), else None.
    Point j lies at j 2pi / fine and point fine at 2pi, the bits of
    np.linspace(0, 2pi, fine + 1)[j]; t and its turns are the one place
    that knows the path is a circle.  at is the angle where a wheel's step
    of one spacing fails, else None; last are the labels at the last of
    ticks and turned each label's total angle increment in radians.

    All wheels take a run of steps as one (run, W, n) Newton solve.  Row j
    of a run starts from the polynomial through the last PREDICTOR_ORDER + 1
    rows, j steps ahead (_predictors; the first steps, with fewer rows, use
    the lower degrees), and holds when it converged and passes _step_holds
    against the row before it.  The longest prefix of rows that hold for
    every wheel is taken.  When the first row fails for some wheels, the
    others take it, and each of those follows the step again alone, by a
    nested call at half the stride; a wheel whose step of one spacing fails
    is dropped, with its rows of the history.  The run length starts at 1
    and follows the solver: it doubles after a run taken whole in at most
    3 Newton iterations, halves after one that took more than 4, and falls
    to the prefix taken when a row fails.  A run of more than one step
    holds at most SECULAR_BLOCK / 2 entries in each of its two
    (run, W, n, n) Newton temporaries, and its step test runs after they
    are freed.  Besides t, turns and the kept rows, only the last rows and
    the running angle sums are kept.  The rows a run takes are kept
    polished by further Newton iterations on a copy, in one call, until
    every Newton step is at most 4 eps max |mu|; the stepping never reads
    them and they are not tested.  off is the table of pole offsets
    (_secular_step).
    """
    t = np.arange(ticks.start, ticks.stop, ticks.step) * (2 * math.pi / fine)
    if ticks[-1] == fine:
        t[-1] = 2 * math.pi
    turns = np.exp(1j * t) - 1.0
    steps, n = len(turns) - 1, len(mu)
    live = np.arange(len(C))  # the wheel of each live row
    out = [None] * len(C)
    # the last rows, newest first
    history = np.repeat(lam[None], PREDICTOR_ORDER + 1, axis=0)
    turned = np.zeros(lam.shape)
    rows = None
    if paths:
        rows = np.empty((len(turns),) + lam.shape, dtype=complex)
        rows[0] = lam
        polish = 4.0 * np.finfo(float).eps * np.abs(mu).max()
    weights = _predictors(1)
    k, horizon = 0, 1  # coarse steps taken, length of the next run
    while k < steps:
        run = min(horizon, steps - k,
                  max(1, SECULAR_BLOCK // (2 * len(live) * n * n)))
        if run > weights.shape[1]:  # a power of two: at most 14 tables
            weights = _predictors(1 << (run - 1).bit_length())
        guess = (weights[min(k, PREDICTOR_ORDER), :run]
                 @ history.reshape(len(history), -1)).reshape(
                     (run,) + lam.shape)
        new, converged, iterations = _secular_step(
            mu, off, C, turns[k + 1:k + run + 1, None] * h, guess, tol)
        prev = np.concatenate((lam[None], new[:-1]))
        holds = converged & _step_holds(prev, new)
        moved = np.angle(new / prev)
        whole = holds.all(axis=1)
        taken = run if whole.all() else int(whole.argmin())
        if taken == run:
            horizon = (2 * run if iterations <= 3
                       else max(1, run // 2) if iterations > 4 else run)
        elif taken:
            horizon = taken
        else:
            taken = horizon = 1
            for r in np.flatnonzero(~holds[0]):
                # the step again as two at half the stride, down to one
                # spacing, which fails where it starts
                at = t[k]
                if ticks.step > 1:
                    at, last, angles = _follow_wheels(
                        mu, off, C[[r]], h[[r]], lam[[r]],
                        range(ticks[k], ticks[k + 1] + 1, ticks.step // 2),
                        fine, tol, False)[0][0]
                if at is None:
                    new[0, r], moved[0, r] = last, angles
                else:
                    out[live[r]] = at, None, None
                    live[r] = -1
            if (live < 0).any():
                keep = live >= 0
                live, C, h, turned = (x[keep] for x in (live, C, h, turned))
                new, moved, history = (x[:, keep]
                                       for x in (new, moved, history))
                if not len(live):
                    break
        new, moved = new[:taken], moved[:taken]
        if paths:
            rows[k + 1:k + taken + 1, live] = _secular_step(
                mu, off, C, turns[k + 1:k + taken + 1, None] * h, new,
                polish)[0]
        turned += moved.sum(axis=0)
        lam = new[-1]
        history = np.concatenate((new[::-1], history))[:len(history)]
        k += taken
    for r, wheel in enumerate(live):
        out[wheel] = None, lam[r], turned[r]
    return out, t, rows


def _secular_step(mu, off, C, s, guess, tol):
    """The labels (..., W, n) at the turns s (..., W) by Newton from guess,
    for the wheels of weights C (W, n), a stack of any number of times;
    whether each row converged (every label's last Newton step is at most
    tol), and the Newton iterations taken.

    Each label is anchored at the pole mu_a nearest its guess for the whole
    step and solves s c_a - d (1 + s sum_{k != a} c_k / (mu_k - lam)) = 0
    for d = lam - mu_a, whose roots are the secular roots and which stays
    regular as c_a -> 0.  The anchor is chosen again each step: a label
    whose path ends on another pole (a permuted label) changes poles.  Its
    offsets mu_k - mu_a are row a of the table off; each Newton iteration
    writes 1 / (mu_k - lam), then its square, into one buffer.  The
    iterations stop when every label of the stack converged.
    """
    anchor = np.abs(mu - guess[..., None]).argmin(axis=-1)
    pole = mu[anchor]
    offsets = off[anchor]
    weights = (s[..., None] * C)[..., None]
    pull = np.take_along_axis(weights[..., 0], anchor, axis=-1)  # s c_a
    d = guess - pole
    inv = np.empty_like(offsets)
    for iterations in range(1, SECULAR_ITERATIONS + 1):
        np.divide(1.0, np.subtract(offsets, d[..., None], out=inv), out=inv)
        q = 1.0 + (inv @ weights)[..., 0]
        np.multiply(inv, inv, out=inv)
        step = (pull - d * q) / (q + d * (inv @ weights)[..., 0])
        d += step
        converged = np.abs(step) <= tol
        if converged.all():
            break
    return pole + d, converged.all(axis=-1), iterations


def _step_holds(lam, new):
    """Whether each step of a stack (..., n) of label rows passes: every
    label i moves at most half the gap from new_i to the nearest other
    new_j.  Then no new value is nearer lam_i than new_i (any other new_j
    lies a gap from new_i, so at least half a gap from lam_i): each label
    keeps its own value, and no matching or collision test is needed."""
    G = np.abs(new[..., :, None] - new[..., None, :])
    diagonal = np.arange(new.shape[-1])
    G[..., diagonal, diagonal] = np.inf
    return (np.abs(lam - new) <= 0.5 * G.min(axis=-2)).all(axis=-1)


def _wheel_permutation(wheel, n, labels, start, end, raw, steps):
    """The WheelPermutation of the wheel on n labels, from the start and end
    values and the angle increments raw, in turns, of its block's labels
    (the others are fixed, winding 0).  Each end value goes to the nearest
    start value, the minimum-cost matching when no two pick one; a
    collision raises TrackingAmbiguityError.  A fixed label reports its own
    loop's winding; a cycle's arcs close up only jointly, so its winding
    goes to the arc that turned most and its other labels report 0.  A loop
    whose total is not within WINDING_INT_TOL of an integer raises
    ValueError."""
    cols = np.abs(end[:, None] - start).argmin(axis=1)
    if len(np.unique(cols)) < len(cols):
        raise TrackingAmbiguityError(
            "eigenvalue tracking for wheel %d ended with two labels nearest "
            "one start value at %d steps" % (wheel, steps))
    perm = list(range(n))
    turns = np.zeros(n)
    for label, col, turn in zip(labels, cols, raw):
        perm[label], turns[label] = int(labels[col]), turn
    out = [0] * n
    for cyc in perm_cycles(perm) + [(k,) for k in range(n) if perm[k] == k]:
        total = float(sum(turns[m] for m in cyc))
        r = round(total)
        if abs(total - r) > WINDING_INT_TOL:
            raise ValueError(
                "winding of cycle %s is %.6f, not an integer (tracking "
                "failure?)" % (cyc, total))
        carrier = max(cyc, key=lambda m: abs(turns[m]))
        out[carrier] = int(r)
    return WheelPermutation(wheel, tuple(perm), perm_order(perm), tuple(out))


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
    """Order of the group G the permutations generate: by a certificate of
    transpositions when it applies, else by Schreier-Sims.

    G lies in the product of the symmetric groups S(O) of its orbits O.  A
    generator whose only even cycle is a 2-cycle (a b) has the power
    p^(ord p / 2) = (a b), so (a b) is in G, and so is each conjugate
    (g(a) g(b)) by a generator.  When the transpositions found so, closed
    under conjugation, connect each orbit, they generate every S(O): G is
    the whole product and its order is the product of the |O|!.  Otherwise
    (e.g. on the bowtie roots:13, or on D4 = <(0 1 2 3), (0 2)>, whose
    transpositions (0 2), (1 3) leave the orbit in two pieces) the order
    comes from _schreier_sims_order.
    """
    if not perms:
        raise ValueError("need at least one permutation")
    degree = len(perms[0])
    if any(len(p) != degree for p in perms):
        raise ValueError("permutations must share one degree")
    order = _transposition_certificate(perms)
    return _schreier_sims_order(perms) if order is None else order


def _transposition_certificate(perms):
    """The product of |O|! over the orbits O of the group the permutations
    generate, if its transpositions found from the generators' 2-cycles
    connect every orbit (group_order), else None."""
    degree = len(perms[0])
    found = set()
    for p in perms:
        even = [cyc for cyc in perm_cycles(p) if len(cyc) % 2 == 0]
        if len(even) == 1 and len(even[0]) == 2:
            found.add(tuple(sorted(even[0])))
    pending = list(found)
    while pending:  # close under conjugation by the generators
        a, b = pending.pop()
        for p in perms:
            t = (p[a], p[b]) if p[a] < p[b] else (p[b], p[a])
            if t not in found:
                found.add(t)
                pending.append(t)
    orbits = _components(degree, [(i, p[i]) for p in perms
                                  for i in range(degree)])
    if len(_components(degree, found)) != len(orbits):
        return None
    return math.prod(math.factorial(len(orbit)) for orbit in orbits)


def _components(degree, edges):
    """The connected components of the graph on range(degree) with the
    given edges, by union-find: lists of vertices in increasing order, in
    the order of their least vertex."""
    root = list(range(degree))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for a, b in edges:
        root[find(a)] = find(b)
    members = {}
    for i in range(degree):
        members.setdefault(find(i), []).append(i)
    return list(members.values())


def _schreier_sims_order(perms) -> int:
    """Order of the group the permutations (at least one, of one degree)
    generate, by Schreier-Sims.

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
    degree = len(perms[0])
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


def monodromy_report(system: SetSystem, h: EnergyFunction,
                     steps: int = DEFAULT_STEPS, cap=10 ** 6) -> GroupReport:
    """Track every wheel and order the wheel group their permutations generate.

    The wheels come from wheel_permutations, all of them on the secular
    equation at once, and its errors, all ValueErrors, pass through.  The
    order comes from group_order (a certificate of transpositions, else
    Schreier-Sims), which lists no group elements; `cap` is accepted for
    existing callers and bounds nothing.  No presentation is given: the
    wheel group is not the fundamental group of the simple-spectrum set.
    """
    perms = wheel_permutations(system, h, steps)
    order = group_order([w.perm for w in perms])
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
    return GroupReport(perms, order, commuting,
                       duplicate_wheels=duplicates, multi_winding_wheels=multi)
