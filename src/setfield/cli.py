"""Command line surface: gen / matrices / det / check / phase / group / kaehler.

Every number in a report comes straight from the library; the CLI only
parses, dispatches and serializes.  Every setting of a run is a flag of the
command that reads it.  Reports are deterministic for a fixed (input, seed):
JSON is emitted with sorted keys, the random field preset uses Python's
seeded Mersenne Twister, and SVG plots are assembled by hand.

`gen` and `kaehler` are integer combinatorics, and malformed input fails
before a field is built, so this module imports nothing that imports numpy.
The float commands (matrices, det, check, phase, group) import numpy and
the modules built on it only once their system has been parsed.  Each
command imports only the modules it runs (`kaehler` only for `kaehler`,
and its Bareiss determinants only for a system not closed under
intersection; `spectral` only for `phase` and `group`), since a cold
process compiles every module it imports when no bytecode cache is
written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

from . import __version__, scalars
from .scalars import KINDS
from .setsystem import SetSystem, parse_system, system_to_json


def load_system(config: argparse.Namespace) -> SetSystem:
    if config.input_path:
        with open(config.input_path) as fh:
            text = fh.read()
    elif config.inline:
        text = config.inline
    else:
        raise ValueError("need --input FILE or --inline TEXT")
    try:
        system = parse_system(text, closure=config.closure)
    except ValueError as exc:
        flag = ("--input %s" % config.input_path if config.input_path
                else "--inline")
        raise ValueError("%s: %s" % (flag, exc)) from None
    if not len(system) and config.command in ("matrices", "check", "group"):
        # their matrix products, and a group's generators, need an element
        raise ValueError("%s needs a nonempty set system" % config.command)
    return system


def split_literals(text):
    """Split a comma list of scalar literals, ignoring commas inside parens."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def parse_kind(name: str) -> scalars.ScalarKind:
    if name not in KINDS:
        raise ValueError("unknown scalar kind %r (one of %s)"
                         % (name, ", ".join(sorted(KINDS))))
    return KINDS[name]


def _preset_int(part: str, preset: str) -> int:
    try:
        return int(part)
    except ValueError:
        raise ValueError("--field %s: %r is not an integer"
                         % (preset, part)) from None


def make_field(system: SetSystem, config: argparse.Namespace):
    from .connection import (explicit_field, omega_field, ones_field,
                             random_field, roots_field)

    preset = config.preset
    kind = KINDS[config.kind_name] if config.kind_name else None
    if preset == "omega":
        h = omega_field(system)
    elif preset == "ones":
        h = ones_field(system, kind or scalars.REAL)
    elif preset.startswith("roots:"):
        order = _preset_int(preset.split(":", 1)[1], preset)
        if order < 1:
            raise ValueError("roots:N needs N >= 1, got %d" % order)
        h = roots_field(system, order)
    elif preset.startswith("random:"):
        parts = preset.split(":")
        if parts[3:] not in ([], ["unit"]):
            raise ValueError("expected random:SEED, random:SEED:KIND or "
                             "random:SEED:KIND:unit, got %r" % preset)
        rkind = (parse_kind(parts[2]) if len(parts) > 2
                 else kind or scalars.COMPLEX)
        seed = _preset_int(parts[1], preset)
        h = random_field(system, rkind, random.Random(seed),
                         unit=len(parts) == 4)
    elif preset.startswith("values:"):
        lits = split_literals(preset.split(":", 1)[1])
        values = [scalars.parse_scalar(t, kind) for t in lits]
        if len(values) != len(system):
            raise ValueError("field has %d values for %d elements"
                             % (len(values), len(system)))
        h = explicit_field(values, kind)
    else:
        raise ValueError("unknown field preset %r" % preset)
    if kind not in (None, h.kind):
        raise ValueError("--field %s is a %s field, not --kind %s"
                         % (preset, h.kind.name, kind.name))
    return h


def matrix_to_json(M):
    return [[scalars.to_jsonable(v) for v in row] for row in M]


def emit(report: dict, config: argparse.Namespace, name: str) -> None:
    report = dict(report)
    report["version"] = __version__
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False,
                          default=_json_default)
    except ValueError:  # inf or nan
        raise ValueError("the report has a number that is not finite: the "
                         "input overflows double precision") from None
    print(text)
    if config.output_dir:
        os.makedirs(config.output_dir, exist_ok=True)
        with open(os.path.join(config.output_dir, name + ".json"), "w") as fh:
            fh.write(text + "\n")


def _json_default(v):
    if isinstance(v, scalars.Hypercomplex):
        return scalars.to_jsonable(v)
    if hasattr(v, "item"):
        return v.item()
    raise TypeError("not JSON serializable: %r" % (v,))


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen(config: argparse.Namespace, system: SetSystem) -> int:
    emit({
        "elements": system_to_json(system),
        "n": len(system),
        "dimension": system.dimension,
        "is_simplicial_complex": system.is_simplicial_complex(),
        "vertices": sorted(system.vertex_union),
    }, config, "gen")
    return 0


def cmd_matrices(config: argparse.Namespace, system: SetSystem) -> int:
    from . import kernel
    from .connection import field_matrices

    h = make_field(system, config)
    fm = field_matrices(system, h)
    gbar_L = kernel.product(kernel.conjugate(fm.g, h.kind), fm.L, h.kind)
    emit({
        "elements": system_to_json(system),
        "kind": h.kind.name,
        "field": [scalars.to_jsonable(v) for v in h.values],
        "L": matrix_to_json(kernel.from_array(fm.L, h.kind, fm.scale)),
        "g": matrix_to_json(kernel.from_array(fm.g, h.kind, fm.scale)),
        "S": list(fm.signs),
        "conj_g_L": matrix_to_json(
            kernel.from_array(gbar_L, h.kind, fm.scale ** 2)),
    }, config, "matrices")
    return 0


def cmd_det(config: argparse.Namespace, system: SetSystem) -> int:
    from . import determinants, kernel
    from .connection import field_matrices

    h = make_field(system, config)
    if config.method == "dieudonne" and h.kind is scalars.OCTONION:
        raise ValueError("--method dieudonne: no abelianized determinant "
                         "over octonions; use --method study")
    fm = field_matrices(system, h)
    study = config.method in ("study", "all")
    dieudonne = (config.method in ("dieudonne", "all")
                 and h.kind is not scalars.OCTONION)
    leibniz = config.method in ("leibniz", "all")
    skipped = determinants.leibniz_refusal(len(system)) if leibniz else None
    leibniz = leibniz and skipped is None
    # Q(i) commutes: there the permutation sum is the determinant, which the
    # elimination gives exactly, so Bareiss runs once per matrix
    exact = leibniz and h.kind is scalars.GAUSSIAN
    out = {"kind": h.kind.name, "n": len(system), "method": config.method}
    for label, X in (("L", fm.L), ("g", fm.g)):
        entry = {}
        # one elimination gives the log and both row-reduction determinants
        elim = (determinants.row_reduce((X, fm.scale), h.kind, config.pivot_log)
                if config.pivot_log or study or dieudonne or exact else None)
        if study:
            entry["study"] = determinants.study_value(elim)
        if dieudonne:
            entry["dieudonne"] = scalars.to_jsonable(
                determinants.dieudonne_value(elim, h.kind))
        if exact:
            entry["leibniz"] = scalars.to_jsonable(
                determinants.dieudonne_value(elim, h.kind))
        elif leibniz:
            entry["leibniz"] = scalars.to_jsonable(determinants.leibniz_det(
                kernel.from_array(X, h.kind, fm.scale), h.kind))
        elif skipped:
            entry["leibniz_skipped"] = skipped
        if config.pivot_log:
            entry["pivot_log"] = elim.log
        out[label] = entry
    emit(out, config, "det")
    return 0


def cmd_check(config: argparse.Namespace, system: SetSystem) -> int:
    from . import identities

    h = make_field(system, config)
    names = (["greenstar", "energy", "gaussbonnet", "unimodular", "signature"]
             if config.identity == "all" else [config.identity])
    reports = identities.run_checks(system, h, names, config.tolerance)
    failed = [r.name for r in reports if r.applicability is None and not r.holds]
    emit({
        "checks": [{
            "name": r.name,
            "holds": r.holds,
            "max_abs_deviation": r.max_abs_deviation,
            "applicability": r.applicability,
            "witnesses": [list(w) for w in r.witnesses],
            "details": r.details,
        } for r in reports],
        "failed": failed,
    }, config, "check")
    return 1 if failed else 0


def cmd_phase(config: argparse.Namespace, system: SetSystem) -> int:
    from . import spectral

    h = make_field(system, config)
    wheels = None if config.wheel is None else [config.wheel]
    steps = spectral.DEFAULT_STEPS if config.steps is None else config.steps
    found = spectral.wheel_permutations(system, h, steps, wheels,
                                        paths=bool(config.output_dir))
    summary = [{
        "wheel": wp.wheel,
        "steps": steps,
        "permutation": wp.cycle_string(),
        "windings": list(wp.windings),
    } for wp in found]
    # no file is written until every wheel has been followed
    if config.output_dir:
        os.makedirs(config.output_dir, exist_ok=True)
        for wp in found:
            base = os.path.join(config.output_dir, "wheel_%02d" % wp.wheel)
            _write_path_csv(base + ".csv", wp.path)
            _write_path_svg(base + ".svg", wp.path)
    emit({"wheels": summary, "kind": h.kind.name}, config, "phase")
    return 0


def cmd_group(config: argparse.Namespace, system: SetSystem) -> int:
    from . import spectral

    h = make_field(system, config)
    steps = spectral.DEFAULT_STEPS if config.steps is None else config.steps
    report = spectral.monodromy_report(system, h, steps)
    emit({
        "n": len(system),
        "steps": steps,
        "order": report.group_order,
        "generators": [{
            "wheel": w.wheel,
            "cycles": w.cycle_string(),
            "order": w.order,
            "windings": list(w.windings),
        } for w in report.generators],
        "commuting_pairs": [list(p) for p in report.commuting_pairs],
        "relations_verified": report.relations_verified,
        "duplicate_wheels": [list(p) for p in report.duplicate_wheels],
        "multi_winding_wheels": report.multi_winding_wheels,
    }, config, "group")
    return 0


def cmd_kaehler(config: argparse.Namespace, system: SetSystem) -> int:
    from . import kaehler

    report = kaehler.kaehler_report(system)
    if config.heatmap:
        _write_form_svg(config.heatmap, kaehler.kaehler_form(system))
    out = {
        "n": report.n,
        "rank": report.rank,
        "det": str(report.det),
        "factorization": [[p, e] for p, e in report.factorization],
        "dimension": system.dimension,
        "divisible_by_3": report.det % 3 == 0,
    }
    if report.unfactored is not None:
        out["unfactored"] = str(report.unfactored)
    emit(out, config, "kaehler")
    return 0


# ---------------------------------------------------------------------------
# csv / svg writers

def _write_path_csv(path_name: str, path) -> None:
    with open(path_name, "w") as fh:
        head = ["t"]
        for k in range(path.n):
            head += ["re_lambda_%d" % (k + 1), "im_lambda_%d" % (k + 1)]
        fh.write(",".join(head) + "\n")
        for row, t in zip(path.values, path.ts):
            cells = ["%.12g" % t]
            for v in row:
                cells += ["%.12g" % v.real, "%.12g" % v.imag]
            fh.write(",".join(cells) + "\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f")
PATH_SVG_SIZE = 480  # width and height of a spectral path plot, in pixels
FORM_SVG_CELL = 8  # side of one entry of a form heatmap, in pixels


def _write_path_svg(path_name: str, path) -> None:
    size = PATH_SVG_SIZE
    vals = path.values
    span = max(1e-9, float(abs(vals).max()) * 1.1)

    def sx(x):
        return "%.2f" % (size / 2 + x / span * size / 2)

    def sy(y):
        return "%.2f" % (size / 2 - y / span * size / 2)

    lines = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
             'viewBox="0 0 %d %d">' % (size, size, size, size),
             '<title>spectral curves, wheel %d</title>' % path.wheel,
             '<rect width="%d" height="%d" fill="white"/>' % (size, size),
             '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#999"/>'
             % (sx(-span), sy(0), sx(span), sy(0)),
             '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#999"/>'
             % (sx(0), sy(-span), sx(0), sy(span)),
             '<circle cx="%s" cy="%s" r="3" fill="black"/>' % (sx(0), sy(0))]
    for k in range(path.n):
        pts = " ".join("%s,%s" % (sx(v.real), sy(v.imag)) for v in vals[:, k])
        lines.append('<polyline points="%s" fill="none" stroke="%s" '
                     'stroke-width="1"/>' % (pts, _PALETTE[k % len(_PALETTE)]))
    lines.append("</svg>")
    with open(path_name, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_form_svg(path_name: str, form) -> None:
    cell = FORM_SVG_CELL
    n = len(form)
    peak = max([1] + [v for row in form for v in row])
    lines = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">'
             % (n * cell, n * cell)]
    for i in range(n):
        for j in range(n):
            v = form[i][j]
            shade = 255 - int(200 * math.sqrt(v / peak))
            lines.append('<rect x="%d" y="%d" width="%d" height="%d" '
                         'fill="rgb(%d,%d,%d)"/>'
                         % (j * cell, i * cell, cell, cell,
                            shade, shade, 255 if v else shade))
    lines.append("</svg>")
    with open(path_name, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setfield",
        description="connection matrices, determinant identities, spectral "
                    "monodromy and exact Kaehler forms of fields on finite "
                    "set systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_field=True):
        p.add_argument("--input", dest="input_path", help="file with one complex")
        p.add_argument("--inline", help="inline complex, JSON or {{1,2},{2,3}}")
        p.add_argument("--closure", action="store_true",
                       help="generate the downward closure of the input sets")
        p.add_argument("--output", dest="output_dir", help="report directory")
        if with_field:
            p.add_argument("--field", dest="preset", default="omega",
                           help="omega | ones | roots:N | random:SEED:KIND"
                                " | values:a,b,c")
            p.add_argument("--kind", dest="kind_name", choices=sorted(KINDS),
                           help="scalar kind for ones/values presets")

    p = sub.add_parser("gen", help="parse / close a complex and describe it")
    common(p, with_field=False)

    p = sub.add_parser("matrices", help="emit L, g, S and conjugate(g).L")
    common(p)

    p = sub.add_parser("det", help="determinants of L and g")
    common(p)
    p.add_argument("--method", choices=["leibniz", "study", "dieudonne", "all"],
                   default="all")
    p.add_argument("--pivot-log", dest="pivot_log", action="store_true")

    p = sub.add_parser("check", help="structural identity checks")
    common(p)
    p.add_argument("--identity", default="all",
                   choices=["greenstar", "energy", "gaussbonnet", "unimodular",
                            "signature", "all"])
    p.add_argument("--tolerance", type=float, default=scalars.DEFAULT_TOL)

    p = sub.add_parser("phase", help="eigenvalue paths for turned wheels")
    common(p)
    p.add_argument("--wheel", type=int, help="single wheel index (default all)")
    p.add_argument("--steps", type=int)

    p = sub.add_parser("group", help="monodromy permutation group")
    common(p)
    p.add_argument("--steps", type=int)

    p = sub.add_parser("kaehler", help="exact bilinear form determinant")
    common(p, with_field=False)
    p.add_argument("--heatmap", help="write an SVG heatmap of the form here")
    return parser


COMMANDS = {
    "gen": cmd_gen,
    "matrices": cmd_matrices,
    "det": cmd_det,
    "check": cmd_check,
    "phase": cmd_phase,
    "group": cmd_group,
    "kaehler": cmd_kaehler,
}


def main(argv=None) -> int:
    config = build_parser().parse_args(argv)
    command = COMMANDS[config.command]
    try:
        # inf would let every check hold, nan fail every one
        if config.command == "check" and not 0 <= config.tolerance < math.inf:
            raise ValueError("--tolerance %r is not a finite number >= 0"
                             % config.tolerance)
        system = load_system(config)
        if config.command in ("gen", "kaehler"):  # integers only: no numpy
            return command(config, system)
        import numpy as np

        # an overflow shows as inf or nan in the report, which emit rejects
        with np.errstate(all="ignore"):
            return command(config, system)
    # a tracking failure is a ValueError too; numpy refuses an array too
    # large for memory (a huge --steps) with one line, before it allocates
    except (ValueError, OSError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
