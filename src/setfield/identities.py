"""Structural identity checks: Green-star inversion, energy sum, Gauss-Bonnet,
unimodularity and the real spectral signature rule.

Checks never raise on a mathematically expected failure; they return a
structured report so both the positive and the negative direction can be
asserted in tests (a non-unit field *must* break the Green-star identity,
and the report carries the witness).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernel, scalars
from .connection import (EnergyFunction, build_matrices, energy_sum,
                         omega_field, omega_vector, super_trace)
from .determinants import bareiss_det
from .setsystem import SetSystem

DEFAULT_TOL = scalars.DEFAULT_TOL


@dataclass
class IdentityReport:
    name: str
    holds: bool
    max_abs_deviation: float
    witnesses: list = field(default_factory=list)
    applicability: str | None = None
    details: dict = field(default_factory=dict)

    def __str__(self):
        state = "holds" if self.holds else "FAILS"
        extra = " (%s)" % self.applicability if self.applicability else ""
        return "%s: %s, max deviation %.3g%s" % (self.name, state,
                                                 self.max_abs_deviation, extra)


# ---------------------------------------------------------------------------
# generic matrix helpers over the scalar tower

def entrywise_conjugate(M):
    return [[scalars.conjugate(v) for v in row] for row in M]


def mat_mul(A, B, kind):
    """C = A B with per-entry accumulation; every product is a binary one,
    so the result is well defined also for the non-associative kind.

    Quaternion, octonion and Gaussian matrices go through kernel.py, with
    the same results as the loop below.
    """
    if kind in kernel.KINDS:
        return kernel.mat_mul(A, B, kind)
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


def identity_deviation(M, kind):
    """Max entry norm of M - I and the offending index pairs."""
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


def _scaled_tol(h: EnergyFunction, tol):
    if h.kind.exact:
        return 0.0
    peak = max((float(scalars.norm_sq(v)) for v in h.values), default=1.0)
    return tol * max(1.0, peak)


# ---------------------------------------------------------------------------
# the checks

def green_star_check(system: SetSystem, h: EnergyFunction,
                     tol=DEFAULT_TOL) -> IdentityReport:
    """conjugate(g) L = L conjugate(g) = 1 for unit fields on simplicial complexes.

    The diagonal of conjugate(g).L equals |h(x)|^2 on any simplicial complex,
    unit field or not, and in ascending canonical order the product is upper
    triangular; both facts are recorded in the report details.
    """
    cm = build_matrices(system, h)
    kind = h.kind
    gbar = entrywise_conjugate(cm.g)
    gL = mat_mul(gbar, cm.L, kind)
    Lg = mat_mul(cm.L, gbar, kind)
    eff = _scaled_tol(h, tol)
    dev_gL, wit_gL = identity_deviation(gL, kind)
    dev_Lg, wit_Lg = identity_deviation(Lg, kind)
    worst = max(dev_gL, dev_Lg)

    complex_ok = system.is_simplicial_complex()
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


def _norm_sq_as_scalar(v, kind):
    n2 = scalars.norm_sq(v)
    if kind is scalars.GAUSSIAN:
        return scalars.GaussianRational(n2)
    return kind.one * float(n2)


def energy_check(system: SetSystem, h: EnergyFunction,
                 tol=DEFAULT_TOL) -> IdentityReport:
    """Total of all g entries equals H(G); additive, so valid for every kind."""
    cm = build_matrices(system, h)
    total = h.kind.zero
    for row in cm.g:
        for v in row:
            total = total + v
    target = energy_sum(system, h, range(len(system)))
    dev = float(scalars.norm_sq(total - target)) ** 0.5
    eff = _scaled_tol(h, tol)
    applicability = None
    if not system.is_simplicial_complex():
        applicability = "not a simplicial complex; identity not guaranteed"
    return IdentityReport("energy", dev <= eff, dev,
                          witnesses=[] if dev <= eff else [(-1, -1)],
                          applicability=applicability,
                          details={"lhs": scalars.to_jsonable(total),
                                   "rhs": scalars.to_jsonable(target)})


def gauss_bonnet_check(system: SetSystem, h: EnergyFunction,
                       tol=DEFAULT_TOL) -> IdentityReport:
    """Super trace of g equals the total energy, and potential equals curvature."""
    cm = build_matrices(system, h)
    st = super_trace(cm.g, cm.signs)
    target = energy_sum(system, h, range(len(system)))
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
    if not system.is_simplicial_complex():
        applicability = "not a simplicial complex; identity not guaranteed"
    return IdentityReport("gaussbonnet", dev <= eff, dev,
                          witnesses=[] if dev <= eff else witnesses,
                          applicability=applicability,
                          details={"super_trace": scalars.to_jsonable(st)})


def unimodularity_check(system: SetSystem) -> IdentityReport:
    """With h = omega, L and g are integer matrices, g L = 1 exactly, and
    det(L) is the product of the signs, hence +1 or -1."""
    h = omega_field(system)
    cm = build_matrices(system, h)
    L = [[int(v) for v in row] for row in cm.L]
    g = [[int(v) for v in row] for row in cm.g]
    n = len(L)
    witnesses = []
    for i in range(n):
        for j in range(n):
            want = 1 if i == j else 0
            got = sum(g[i][k] * L[k][j] for k in range(n))
            if got != want:
                witnesses.append((i, j))
    det = bareiss_det(L)
    expected = 1
    for s in omega_vector(system):
        expected *= s
    ok = not witnesses and det == expected and det in (1, -1)
    applicability = None
    if not system.is_simplicial_complex():
        applicability = "not a simplicial complex; inverse pairing not guaranteed"
    return IdentityReport("unimodular", ok, 0.0 if ok else 1.0,
                          witnesses=witnesses, applicability=applicability,
                          details={"det_L": det, "expected_det": expected})


def spectral_signature_check(system: SetSystem, h: EnergyFunction,
                             gap=0.0) -> IdentityReport:
    """Real fields: negative h values and negative eigenvalues of L are equinumerous."""
    if h.kind is not scalars.REAL:
        raise ValueError("spectral signature needs a real field")
    if not h.all_nonzero():
        raise ValueError("spectral signature needs a nowhere-zero field")
    cm = build_matrices(system, h)
    L = np.array([[float(v) for v in row] for row in cm.L])
    eig = np.linalg.eigvalsh(L)
    neg_eig = int((eig < 0).sum())
    neg_h = sum(1 for v in h.values if v < 0)
    min_abs = float(np.abs(eig).min()) if len(eig) else 0.0
    applicability = None
    if not system.is_simplicial_complex():
        applicability = "not a simplicial complex; signature rule not guaranteed"
    if gap and min_abs <= gap:
        applicability = "eigenvalue within %g of zero; count unreliable" % gap
    ok = neg_eig == neg_h
    return IdentityReport("signature", ok, 0.0 if ok else abs(neg_eig - neg_h),
                          witnesses=[], applicability=applicability,
                          details={"negative_eigenvalues": neg_eig,
                                   "negative_values": neg_h,
                                   "min_abs_eigenvalue": min_abs})


ALL_CHECKS = {
    "greenstar": green_star_check,
    "energy": energy_check,
    "gaussbonnet": gauss_bonnet_check,
    "signature": spectral_signature_check,
}


def run_checks(system: SetSystem, h: EnergyFunction, names,
               tol=DEFAULT_TOL) -> list[IdentityReport]:
    reports = []
    for name in names:
        if name == "unimodular":
            reports.append(unimodularity_check(system))
        elif name == "signature":
            if h.kind is scalars.REAL and h.all_nonzero():
                reports.append(spectral_signature_check(system, h))
            else:
                reports.append(IdentityReport(
                    "signature", True, 0.0,
                    applicability="skipped: needs a nowhere-zero real field"))
        else:
            reports.append(ALL_CHECKS[name](system, h, tol))
    return reports
