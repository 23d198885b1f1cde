"""Eigenvalue monodromy under circular deformation of single field values.

Rotating one complex field value h(x) -> e^{it} h(x) around the full circle
returns the matrix L to itself but in general permutes its eigenvalues.  The
tracked eigenvalue paths, their winding numbers around the origin, the
per-wheel permutations and the group they generate are computed here; only
complex fields are supported (quaternion spectra lack canonical labels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .connection import EnergyFunction
from .scalars import COMPLEX
from .setsystem import SetSystem

DEFAULT_STEPS = 500
ADAPTIVE_DOUBLINGS = 4  # step cap = 2**4 * requested steps
AMBIGUITY_MARGIN = 2.0  # second-nearest within this factor -> full assignment
WINDING_INT_TOL = 1e-3


class TrackingAmbiguityError(RuntimeError):
    """Eigenvalue paths could not be separated even at the step-count cap."""

    def __init__(self, wheel, steps):
        self.wheel = wheel
        self.steps = steps
        super().__init__(
            "eigenvalue tracking for wheel %d stayed ambiguous at %d steps; "
            "rerun with a higher step count" % (wheel, steps))


@dataclass
class SpectralPath:
    """Labeled eigenvalue samples along t in [0, 2pi] for one turned wheel."""

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
    """All eigenvalues of a dense complex matrix (no ordering contract)."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return np.linalg.eigvals(A)


def _complex_field_array(h: EnergyFunction) -> np.ndarray:
    if h.kind is not COMPLEX:
        raise ValueError("monodromy tracking needs a complex field, got %s"
                         % h.kind.name)
    return np.asarray(h.values, dtype=complex)


def _match_step(prev, new):
    """Match previous labels to new eigenvalues; greedy first, assignment when
    the greedy choice is ambiguous or collides."""
    D = np.abs(prev[:, None] - new[None, :])
    cols = D.argmin(axis=1)
    ambiguous = len(set(cols.tolist())) != len(cols)
    if not ambiguous:
        n = D.shape[0]
        best = D[np.arange(n), cols]
        D2 = D.copy()
        D2[np.arange(n), cols] = np.inf
        second = D2.min(axis=1)
        ambiguous = bool((second < AMBIGUITY_MARGIN * best).any())
    if ambiguous:
        # scipy costs more to import than a whole small tracking run; only
        # ambiguous steps need it
        from scipy.optimize import linear_sum_assignment

        _, cols = linear_sum_assignment(D)
    return cols


def _local_gaps(new):
    D = np.abs(new[:, None] - new[None, :])
    np.fill_diagonal(D, np.inf)
    return D.min(axis=0)


def track_wheel(system: SetSystem, h: EnergyFunction, wheel: int,
                steps: int = DEFAULT_STEPS,
                max_steps: int | None = None) -> SpectralPath:
    """Follow all eigenvalue labels while h(wheel) turns once around the circle.

    Labels are fixed by sorting the t=0 eigenvalues; each subsequent step is
    matched to the previous one.  If some matched move exceeds half the local
    eigenvalue gap the tracking is ambiguous at this resolution and the whole
    path is recomputed with twice the steps, up to 2^4 times the request (or
    `max_steps`).  Independent wheels share no state and may run in parallel.
    """
    if not (0 <= wheel < len(system)):
        raise ValueError("wheel index out of range")
    h0 = _complex_field_array(h)
    if not h.all_nonzero():
        raise ValueError("all field values must be nonzero for tracking")
    L_at = wheel_matrices(system, h0, wheel)
    if max_steps is None:
        max_steps = steps * 2 ** ADAPTIVE_DOUBLINGS
    base = np.sort_complex(eigenvalues(L_at(0.0)))
    attempt_steps = steps
    while attempt_steps <= max_steps:
        path = _track_once(L_at, attempt_steps, base)
        if path is not None:
            return SpectralPath(wheel, path[0], path[1], attempt_steps)
        attempt_steps *= 2
    raise TrackingAmbiguityError(wheel, attempt_steps // 2)


def wheel_matrices(system: SetSystem, h0: np.ndarray, wheel: int):
    """t -> L(t) for the field h0 with h0[wheel] turned to e^{it} h0[wheel].

    L = Z^T D_h Z, so turning one value is a rank-one update:
    L(t) = L(0) + (e^{it} - 1) h0[wheel] z z^T with z the wheel's row of Z.
    """
    Z = system.zeta
    L0 = (Z.T * h0) @ Z
    z = Z[wheel]
    turn = h0[wheel] * np.outer(z, z)

    def L_at(t):
        return L0 + (np.exp(1j * t) - 1.0) * turn

    return L_at


def _track_once(L_at, steps, base):
    n = len(base)
    ts = np.linspace(0.0, 2.0 * math.pi, steps + 1)
    values = np.empty((steps + 1, n), dtype=complex)
    values[0] = base
    prev = base
    for s in range(1, steps + 1):
        new = eigenvalues(L_at(ts[s]))
        cols = _match_step(prev, new)
        matched = new[cols]
        moves = np.abs(matched - prev)
        gaps = _local_gaps(new)[cols]
        if (moves > 0.5 * gaps).any():
            return None
        values[s] = matched
        prev = matched
    return ts, values


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


def winding_numbers(path: SpectralPath, tol=WINDING_INT_TOL) -> list[int]:
    """Integer winding per label around 0.

    Fixed labels report the winding of their own closed path.  For a
    permutation cycle the arcs close up only jointly, so the cycle loop's
    winding is attributed to the arc with the largest share of the turning
    and the other labels of the cycle report 0; per-cycle totals must land
    within `tol` of an integer or tracking is declared failed.
    """
    raw = raw_winding_increments(path)
    perm = path_permutation(path)
    out = [0] * path.n
    for cyc in perm_cycles(perm) + [(k,) for k in range(path.n)
                                    if perm[k] == k]:
        total = float(sum(raw[m] for m in cyc))
        r = round(total)
        if abs(total - r) > tol:
            raise ValueError(
                "winding of cycle %s is %.6f, not an integer (tracking "
                "failure?)" % (cyc, total))
        carrier = max(cyc, key=lambda m: abs(raw[m]))
        out[carrier] = int(r)
    return out


def path_permutation(path: SpectralPath) -> tuple:
    """Match the end of the path back to the t=0 labels."""
    start = path.values[0]
    end = path.values[-1]
    cols = _match_step(end, start)
    return tuple(int(c) for c in cols)


def wheel_permutations(system: SetSystem, h: EnergyFunction,
                       steps: int = DEFAULT_STEPS,
                       keep_paths: bool = False,
                       max_steps: int | None = None):
    """One WheelPermutation per element; optionally the raw paths as well."""
    perms = []
    paths = []
    for wheel in range(len(system)):
        path = track_wheel(system, h, wheel, steps, max_steps)
        perm = path_permutation(path)
        wind = winding_numbers(path)
        perms.append(WheelPermutation(wheel, perm, perm_order(perm),
                                      tuple(wind)))
        if keep_paths:
            paths.append(path)
    if keep_paths:
        return perms, paths
    return perms


# ---------------------------------------------------------------------------
# permutation utilities and group closure

def perm_compose(a, b):
    """Apply b first, then a."""
    return tuple(a[b[i]] for i in range(len(a)))


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


class ClosureOverflowError(RuntimeError):
    """The group closure grew past its element cap."""

    def __init__(self, cap):
        self.cap = cap
        super().__init__(
            "group closure exceeded cap %d elements (the cap argument of "
            "group_closure / monodromy_report); the group is too large to "
            "list" % cap)


def format_cycles(p) -> str:
    cycles = perm_cycles(p)
    if not cycles:
        return "()"
    return "".join("(%s)" % " ".join(str(v + 1) for v in cyc) for cyc in cycles)


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
                r = perm_compose(p, q)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
                    if len(seen) > cap:
                        raise ClosureOverflowError(cap)
        frontier = nxt
    return len(seen), sorted(seen)


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
                     steps: int = DEFAULT_STEPS, cap=10 ** 6,
                     max_steps: int | None = None) -> GroupReport:
    """Full pipeline: track every wheel, close the group, emit presentations."""
    perms = wheel_permutations(system, h, steps, max_steps=max_steps)
    order, _ = group_closure([w.perm for w in perms], cap)
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
