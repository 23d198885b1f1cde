"""Spans around the library's public functions, recorded from outside.

`instrument(tracer)` replaces selected module attributes of the imported
`setfield` package with wrappers that open a span per call, and returns a
function that puts the originals back.  Nothing under src/ changes: the
wrappers sit at the call sites the library itself uses (a module-global
lookup), so a check calls the same functions in the same order as it does
untraced, each inside a span.  Functions a later version no longer has are
skipped and their metrics read 0.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, child time]."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._open = []

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0.0])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._open.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def count(self, name, amount):
        self.counts[name] += amount

    def totals(self):
        """Seconds per span name; a span nested in one of the same name is
        already inside its parent's total and is not added again."""
        out = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if not self._has_ancestor(parent, name):
                out[name] += end - start
        return out

    def self_time(self, name):
        return sum(end - start - child
                   for n, start, end, _, child in self.spans if n == name)

    def covered(self):
        """Time inside top-level spans that named child spans account for;
        a top-level span without instrumented children counts whole."""
        return sum(child if child > 0 else end - start
                   for _, start, end, parent, child in self.spans if parent < 0)

    def _has_ancestor(self, idx, name):
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False


def _wrap(tracer, fn, name_of, after=None, on_error=None):
    sig = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        arg = bound.arguments
        name = name_of(arg)
        idx = tracer.begin(name) if name else None
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if idx is not None:
                tracer.end(idx)
            if on_error:
                on_error(tracer, arg, exc)
            raise
        if idx is not None:
            tracer.end(idx)
        if after:
            after(tracer, arg, result)
        return result

    return wrapper


def _kind_name(M, kind):
    if kind is not None:
        return kind.name
    from setfield import scalars
    return scalars.kind_of(M[0][0]).name


def _targets():
    """(owner modules, attribute, span name from bound args, after, on_error)."""
    def fixed(name):
        return lambda a: name

    def count(name, amount_of):
        return lambda t, a, r: t.count(name, amount_of(a, r))

    def closure_overflow(t, a, exc):
        if isinstance(exc, RuntimeError):
            t.count("spectral.group_elements", a["cap"] + 1)

    return [
        (("determinants",), "det_formula_check",
         fixed("identities.check_s.detformula"), None, None),
        (("identities",), "green_star_check",
         fixed("identities.check_s.greenstar"), None, None),
        (("identities",), "energy_check",
         fixed("identities.check_s.energy"), None, None),
        (("identities",), "gauss_bonnet_check",
         fixed("identities.check_s.gaussbonnet"), None, None),
        (("connection", "identities"), "build_matrices",
         fixed("connection.build_matrices_s"),
         count("connection.matrix_entries",
               lambda a, r: 2 * len(a["system"]) ** 2), None),
        (("identities",), "entrywise_conjugate",
         fixed("identities.entrywise_conjugate_s"), None, None),
        (("identities",), "mat_mul",
         lambda a: "identities.mat_mul_s." + a["kind"].name,
         count("identities.mat_mul_products",
               lambda a, r: len(a["A"]) * len(a["B"]) * len(a["B"][0])),
         None),
        (("identities",), "identity_deviation",
         fixed("identities.identity_deviation_s"), None, None),
        (("determinants",), "study_det",
         lambda a: "determinants.row_reduce_s." + _kind_name(a["M"], a["kind"]),
         None, None),
        (("determinants",), "dieudonne_det",
         lambda a: "determinants.row_reduce_s." + _kind_name(a["M"], a["kind"]),
         None, None),
        (("determinants",), "study_det_sq_exact",
         fixed("determinants.row_reduce_s.gaussian"), None, None),
        (("determinants",), "row_reduce", lambda a: None,
         count("determinants.pivot_swaps", lambda a, r: r.swaps), None),
        (("determinants", "identities", "kaehler"), "bareiss_det",
         fixed("determinants.bareiss_det_s"),
         count("determinants.bareiss_det_bits",
               lambda a, r: abs(r).bit_length()), None),
        (("kaehler", "spectral"), "jacobian_dr",
         fixed("kaehler.jacobian_dr_s"),
         count("kaehler.jacobian_bytes", lambda a, r: 8 * len(a["system"]) ** 3),
         None),
        (("kaehler",), "kaehler_form", fixed("kaehler.kaehler_form"), None,
         None),
        (("kaehler",), "kaehler_report", fixed("kaehler.kaehler_report"),
         None, None),
        (("kaehler",), "exact_rank", fixed("kaehler.exact_rank_s"), None, None),
        (("kaehler",), "factorize", fixed("kaehler.factorize_s"), None, None),
        (("spectral",), "monodromy_report",
         fixed("spectral.monodromy_report"), None, None),
        (("spectral",), "track_wheel", fixed("spectral.track_wheel_s"),
         lambda t, a, r: (t.count("spectral.steps_requested", a["steps"]),
                          t.count("spectral.steps_used", r.steps)), None),
        (("spectral",), "path_permutation", fixed("spectral.winding_s"),
         None, None),
        (("spectral",), "winding_numbers", fixed("spectral.winding_s"),
         None, None),
        (("spectral",), "group_closure", fixed("spectral.group_closure_s"),
         count("spectral.group_elements", lambda a, r: r[0]),
         closure_overflow),
    ]


def instrument(tracer):
    """Install the wrappers; the returned function restores the originals."""
    import importlib

    saved = []
    for owners, attr, name_of, after, on_error in _targets():
        mods = [importlib.import_module("setfield." + m) for m in owners]
        present = [m for m in mods if hasattr(m, attr)]
        if not present:
            continue
        original = getattr(present[0], attr)
        wrapper = _wrap(tracer, original, name_of, after, on_error)
        for mod in present:
            if getattr(mod, attr) is original:
                saved.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def restore():
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)

    return restore
