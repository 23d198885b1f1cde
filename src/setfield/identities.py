"""Structural identity checks: Green-star inversion, energy sum, Gauss-Bonnet,
unimodularity and the real spectral signature rule.

Checks never raise on a mathematically expected failure; they return a
structured report so both the positive and the negative direction can be
asserted in tests (a non-unit field *must* break the Green-star identity,
and the report carries the witness).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from . import kernel, scalars
from .connection import (EnergyFunction, field_matrices, omega_field,
                         omega_vector)
from .determinants import bareiss_det
from .setsystem import SetSystem

DEFAULT_TOL = scalars.DEFAULT_TOL
# the kinds whose products commute bit for bit
_COMMUTATIVE = (scalars.REAL, scalars.COMPLEX, scalars.GAUSSIAN)


@dataclass
class IdentityReport:
    name: str
    holds: bool
    max_abs_deviation: float
    witnesses: list = field(default_factory=list)
    applicability: str | None = None
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# helpers on arrays in the form of connection.field_matrices

def _worst(devs):
    """The largest deviation, NaN if one is NaN: max drops a NaN not first."""
    return np.nan if any(d != d for d in devs) else max(devs, default=0.0)


def _deviation(norms):
    """(max over entries of sqrt(norm), index pairs of the eight largest
    nonzero ones, largest first) for a 2-d float array of squared norms;
    NaN entries rank above all others, in index order."""
    at = np.flatnonzero(norms > 0)
    roots = [v ** 0.5 for v in norms.flat[at].tolist()]
    order = sorted(range(len(roots)), key=lambda t: -roots[t])[:8]
    nan = np.flatnonzero(np.isnan(norms))[:8].tolist()
    cells = (nan + [int(at[t]) for t in order])[:8]
    return (np.nan if nan else max(roots, default=0.0),
            [divmod(k, norms.shape[1]) for k in cells])


def _minus_identity(X, one):
    Y = X.copy()
    diag = np.arange(X.shape[1])
    Y[0, diag, diag] -= one
    return Y


def _total_energy(fm):
    """H(G): the field values added in element order from zero."""
    return kernel.scalar(kernel.running_sum(fm.values, fm.zero), fm.kind,
                         fm.scale)


def _on_complexes_only(system: SetSystem, what):
    """None on a simplicial complex, else the applicability text for what."""
    if system.is_simplicial_complex():
        return None
    return "not a simplicial complex; " + what


def _scaled_tol(h: EnergyFunction, tol, quadratic=False):
    """tol times max(1, max |h|), squared for an identity quadratic in h;
    finite even where that overflows, so that an inf deviation fails."""
    if h.kind.exact:
        return 0.0
    scale = max([1.0, *map(abs, h.values)])
    return min(tol * scale * (scale if quadratic else 1.0), sys.float_info.max)


# ---------------------------------------------------------------------------
# the checks

def green_star_check(system: SetSystem, h: EnergyFunction,
                     tol=DEFAULT_TOL) -> IdentityReport:
    """conjugate(g) L = L conjugate(g) = 1 for unit fields on simplicial complexes.

    The diagonal of conjugate(g).L equals |h(x)|^2 on any simplicial complex,
    unit field or not, and in ascending canonical order the product is upper
    triangular; both facts are recorded in the report details.

    L and conjugate(g) are symmetric as arrays, so over the commutative kinds
    (real, complex, Gaussian), whose products commute bit for bit, L
    conjugate(g) is the transpose of conjugate(g) L, each entry summed in the
    same order: it is not formed again, and the norms of its entries are
    read off transposed.
    """
    fm = field_matrices(system, h)
    kind = h.kind
    n = len(fm.signs)
    gbar = kernel.conjugate(fm.g, kind)
    gL = kernel.product(gbar, fm.L, kind)
    scale = fm.scale ** 2  # of the products, for Gaussian integers
    eff = _scaled_tol(h, tol, quadratic=True)
    # squared norms of the entries of gL - 1 and Lg - 1
    sq_gL = kernel.norms(_minus_identity(gL, scale), kind, scale)
    if kind in _COMMUTATIVE:
        sq_Lg = sq_gL.T
    else:
        sq_Lg = kernel.norms(
            _minus_identity(kernel.product(fm.L, gbar, kind), scale), kind,
            scale)
    dev_gL, wit_gL = _deviation(sq_gL)
    dev_Lg, wit_Lg = _deviation(sq_Lg)
    worst = _worst([dev_gL, dev_Lg])

    applicability = _on_complexes_only(system, "inversion not expected")
    complex_ok = applicability is None
    if complex_ok and not h.all_units(tol):
        applicability = "field is not unit valued; inversion not expected"

    diag = np.diagonal(gL, axis1=1, axis2=2)
    diag_dev = _worst([v ** 0.5 for v in kernel.norms(
        diag - kernel.norm_values(fm.values, kind), kind, scale).tolist()])
    upper = None
    if complex_ok and system.is_canonical():
        # below the diagonal, gL - 1 is gL
        lower = sq_gL[np.tril_indices(n, -1)]
        upper = all(v ** 0.5 <= eff for v in lower.tolist())

    holds = worst <= eff
    witnesses = [] if holds else (wit_gL or wit_Lg)
    return IdentityReport(
        name="greenstar", holds=holds, max_abs_deviation=worst,
        witnesses=witnesses, applicability=applicability,
        details={
            "diagonal_matches_norms": complex_ok and diag_dev <= eff,
            "diagonal_deviation": diag_dev,
            "diagonal": [scalars.to_jsonable(v) for v in
                         kernel.from_array(diag[:, None], kind, scale)[0]],
            "upper_triangular": upper,
            "gL_deviation": dev_gL,
            "Lg_deviation": dev_Lg,
        })


def energy_check(system: SetSystem, h: EnergyFunction,
                 tol=DEFAULT_TOL) -> IdentityReport:
    """Total of all g entries equals H(G); additive, so valid for every kind."""
    fm = field_matrices(system, h)
    # every entry added in turn, row by row, from zero
    total = kernel.scalar(
        kernel.running_sum(fm.g.reshape(len(fm.g), -1), fm.zero),
        h.kind, fm.scale)
    target = _total_energy(fm)
    dev = float(scalars.norm_sq(total - target)) ** 0.5
    eff = _scaled_tol(h, tol)
    return IdentityReport("energy", dev <= eff, dev,
                          witnesses=[] if dev <= eff else [(-1, -1)],
                          applicability=_on_complexes_only(
                              system, "identity not guaranteed"),
                          details={"lhs": scalars.to_jsonable(total),
                                   "rhs": scalars.to_jsonable(target)})


def gauss_bonnet_check(system: SetSystem, h: EnergyFunction,
                       tol=DEFAULT_TOL) -> IdentityReport:
    """Super trace of g equals the total energy, and potential equals curvature."""
    fm = field_matrices(system, h)
    V, K = fm.potential_and_curvature()
    if not K.shape[1]:
        raise ValueError("empty matrix has no super trace")
    # the super trace is the sum of the curvatures, from the first one on
    st = kernel.scalar(kernel.running_sum(K), h.kind, fm.scale)
    target = _total_energy(fm)
    dev = float(scalars.norm_sq(st - target)) ** 0.5
    roots = [v ** 0.5 for v in kernel.norms(V - K, h.kind, fm.scale).tolist()]
    dev = _worst([dev] + roots)
    witnesses = [(i, i) for i, d in enumerate(roots) if not d <= 0]
    eff = _scaled_tol(h, tol)
    return IdentityReport("gaussbonnet", dev <= eff, dev,
                          witnesses=[] if dev <= eff else witnesses,
                          applicability=_on_complexes_only(
                              system, "identity not guaranteed"),
                          details={"super_trace": scalars.to_jsonable(st)})


def unimodularity_check(system: SetSystem) -> IdentityReport:
    """With h = omega, L and g are integer matrices, g L = 1 exactly, and
    det(L) is the product of the signs, hence +1 or -1."""
    fm = field_matrices(system, omega_field(system))
    gL = kernel.product(fm.g, fm.L, fm.kind)[0]
    witnesses = [tuple(w) for w in
                 np.argwhere(gL != np.eye(len(gL), dtype=int)).tolist()]
    det = bareiss_det(fm.L[0])
    expected = 1
    for s in omega_vector(system):
        expected *= s
    ok = not witnesses and det == expected and det in (1, -1)
    applicability = _on_complexes_only(system, "inverse pairing not guaranteed")
    return IdentityReport("unimodular", ok, 0.0 if ok else 1.0,
                          witnesses=witnesses, applicability=applicability,
                          details={"det_L": det, "expected_det": expected})


def spectral_signature_check(system: SetSystem,
                             h: EnergyFunction) -> IdentityReport:
    """Real fields: negative h values and negative eigenvalues of L are equinumerous."""
    if h.kind is not scalars.REAL:
        raise ValueError("spectral signature needs a real field")
    if not h.all_nonzero():
        raise ValueError("spectral signature needs a nowhere-zero field")
    eig = np.linalg.eigvalsh(field_matrices(system, h).L[0].astype(float))
    neg_eig = int((eig < 0).sum())
    neg_h = sum(1 for v in h.values if v < 0)
    min_abs = float(np.abs(eig).min()) if len(eig) else 0.0
    ok = neg_eig == neg_h
    return IdentityReport("signature", ok, 0.0 if ok else abs(neg_eig - neg_h),
                          witnesses=[], applicability=_on_complexes_only(
                              system, "signature rule not guaranteed"),
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
    # unimodular runs last: its omega field, a new object, would evict h's
    # L and g from the one-entry cache of connection.field_matrices
    reports = {}
    for name in sorted(names, key=lambda name: name == "unimodular"):
        if name == "unimodular":
            reports[name] = unimodularity_check(system)
        elif name == "signature":
            if h.kind is scalars.REAL and h.all_nonzero():
                reports[name] = spectral_signature_check(system, h)
            else:
                reports[name] = IdentityReport(
                    "signature", True, 0.0,
                    applicability="skipped: needs a nowhere-zero real field")
        else:
            reports[name] = ALL_CHECKS[name](system, h, tol)
    return [reports[name] for name in names]
