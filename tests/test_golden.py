"""Byte-for-byte CLI reports for all five scalar kinds and for eigenvalue
monodromy.

The files under tests/golden/ hold the stdout of `matrices`, `check` and
`det --pivot-log` as written by the per-entry scalar code, before matrix
products and eliminations moved to component arrays.  The kernel promises
the same floating-point operations in the same order, so the reports must
match to the last byte.  The real and complex `matrices` and `check`
reports were written while L and g were still built by intersecting stars
and cores one pair at a time, before the build moved onto the inclusion
matrix Z.  The real and complex `det --pivot-log` reports were written by
the array elimination; they pin the int-versus-float bytes of pivots,
Dieudonne and Leibniz values.  The `group` reports were written by the
one-matrix-at-a-time tracker, before eigenvalue solves and matching were
batched, and the secular equation gives the same bytes.  The `phase`
reports and the triangle's `phase --output` CSVs were written again when
`phase` moved onto the secular equation: each `steps` field became the
requested 500 (the tracker had doubled some wheels' steps), and a CSV value
changed only in its last printed digits, on 89 of 49098 values, within
1e-13 of the largest eigenvalue modulus at its time.  The CSVs were written
once more when each Newton solve started from a cubic predictor and the
polish of the kept rows stopped at a step of 4 eps max |mu|: 5 of 52605
printed values changed, each by one in its last digit.  They were written
again when one Newton call came to solve a run of coarse steps: 2 of 52605
values changed, each by one in its last digit.  The `gen` and `kaehler`
reports and the edge's `kaehler --heatmap` SVG were written while the
Kaehler form was still an int64 array (Z Z^T)*(Z Z^T) built with numpy.
The twelve complex and quaternion `det --pivot-log` reports were written
again when literals gained an explicit '+' before every later component
that is >= 0: '0.49+0.96i' had been written '0.490.96i', which reads back
as another number.  Only their `pivot_log` lines changed.
Regenerate (only for an intended format change) with
`PYTHONPATH=src python tests/test_golden.py --write`.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from setfield.cli import main

GOLDEN = Path(__file__).parent / "golden"

SYSTEMS = {"triangle": "{{1,2,3}}", "path": "{{1,2},{2,3},{3,4}}",
           "tetrahedron": "{{1,2,3,4}}",
           "path-edge": "{{1,2},{2,3},{3,4},{5,6}}",
           "edge": "{{1,2}}", "cycle": "{{1,2},{2,3},{1,3}}",
           "two-fives": "{{1,2,3,4,5},{3,4,5,6,7}}"}
FIELDS = {
    "quaternion": "random:5:quaternion",
    "quaternion-unit": "random:5:quaternion:unit",
    "octonion": "random:5:octonion",
    "octonion-unit": "random:5:octonion:unit",
    "gaussian": "random:5:gaussian",
    "gaussian-unit": "random:5:gaussian:unit",
    "roots7": "roots:7",
    "roots10": "roots:10",
    "omega": "omega",
    "ones": "ones",
    "real": "random:5:real",
    "real-unit": "random:5:real:unit",
    "complex": "random:5:complex",
    "complex-unit": "random:5:complex:unit",
}
COMMANDS = {"matrices": [], "check": [], "det": ["--pivot-log"],
            "group": [], "phase": []}

# The closure of {1,2,3,4} has 15 elements, the largest eliminations here;
# `matrices` eliminates nothing and skips it.
ALGEBRA_FIELDS = ("quaternion", "quaternion-unit", "octonion", "octonion-unit",
                  "gaussian", "gaussian-unit")
ALGEBRA_CASES = [(cmd, sysname, fname)
                 for cmd in ("matrices", "check", "det")
                 for sysname in ("triangle", "path", "tetrahedron")
                 for fname in ALGEBRA_FIELDS
                 if (cmd, sysname) != ("matrices", "tetrahedron")]
# Real and complex fields, integer-valued ones included, through the reports
# built on L and g and through their eliminations.
NUMBER_FIELDS = ("omega", "ones", "real", "real-unit", "complex",
                 "complex-unit")
NUMBER_CASES = [(cmd, sysname, fname) for cmd in ("matrices", "check", "det")
                for sysname in ("triangle", "path", "tetrahedron")
                for fname in NUMBER_FIELDS]
# The paper's two worked monodromy cases: group orders 36 and 72.
MONODROMY_CASES = [(cmd, sysname, fname) for cmd in ("group", "phase")
                   for sysname, fname in (("triangle", "roots7"),
                                          ("path-edge", "roots10"))]
# `gen` and `kaehler` take no field: the edge, the boundary of the triangle
# (det 7^3) and the 55-element complex (det 3^113 5^7 7^7).
EXACT_CASES = [(cmd, sysname, None) for cmd in ("gen", "kaehler")
               for sysname in ("edge", "cycle", "two-fives")]
CASES = ALGEBRA_CASES + NUMBER_CASES + MONODROMY_CASES + EXACT_CASES
# `phase --output` writes one CSV of labelled eigenvalue samples per wheel.
CSV_CASE = ("phase", "triangle", "roots7")
CSV_WHEELS = 7
HEATMAP = GOLDEN / "kaehler_edge_heatmap.svg"


def _argv(cmd, sysname, fname):
    field = [] if fname is None else ["--field", FIELDS[fname]]
    return ([cmd, "--inline", SYSTEMS[sysname], "--closure"] + field
            + COMMANDS.get(cmd, []))


def _path(cmd, sysname, fname):
    return GOLDEN / ("_".join(p for p in (cmd, sysname, fname) if p)
                     + ".json")


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    return buf.getvalue()


def _csv_path(wheel):
    return GOLDEN / ("%s_%s_%s_wheel_%02d.csv" % (CSV_CASE + (wheel,)))


def _phase_csvs():
    """The CSV texts `phase --output` writes for CSV_CASE, by wheel."""
    with tempfile.TemporaryDirectory() as out:
        _stdout(_argv(*CSV_CASE) + ["--output", out])
        return [(Path(out) / ("wheel_%02d.csv" % w)).read_text()
                for w in range(CSV_WHEELS)]


def _heatmap():
    """The SVG `kaehler --heatmap` writes for the edge."""
    with tempfile.TemporaryDirectory() as out:
        svg = Path(out) / "form.svg"
        _stdout(_argv("kaehler", "edge", None) + ["--heatmap", str(svg)])
        return svg.read_text()


@pytest.mark.parametrize("cmd,sysname,fname", CASES)
def test_cli_report_bytes_match_golden(cmd, sysname, fname):
    want = _path(cmd, sysname, fname).read_text()
    assert _stdout(_argv(cmd, sysname, fname)) == want


@pytest.mark.parametrize("cmd", ["group", "phase"])
def test_condition_cap_exits_2_naming_cond_v(monkeypatch, capsys, cmd):
    # no eigenvector matrix passes a condition cap of 0
    from setfield import spectral

    monkeypatch.setattr(spectral, "SECULAR_COND_CAP", 0.0)
    assert main(_argv(cmd, "triangle", "roots7")) == 2
    captured = capsys.readouterr()
    assert not captured.out
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "cond(V) = " in lines[0] and "above the cap 0" in lines[0]


@pytest.mark.parametrize("sysname,fname", [("triangle", "roots7"),
                                           ("path-edge", "roots10")])
def test_oracle_tracker_gives_the_golden_group_generators(sysname, fname):
    # LAPACK on every sample, not the secular equation
    from oracles import track_wheel, wheel_permutation
    from setfield import parse_system, roots_field

    system = parse_system(SYSTEMS[sysname], closure=True)
    h = roots_field(system, int(FIELDS[fname].split(":")[1]))
    golden = json.loads(_path("group", sysname, fname).read_text())
    tracked = [wheel_permutation(track_wheel(system, h, wheel))
               for wheel in range(len(system))]
    assert [{"wheel": wp.wheel, "cycles": wp.cycle_string(),
             "order": wp.order, "windings": list(wp.windings)}
            for wp in tracked] == golden["generators"]


def test_phase_csv_bytes_match_golden():
    got = _phase_csvs()
    for wheel in range(CSV_WHEELS):
        assert got[wheel] == _csv_path(wheel).read_text(), wheel


def test_kaehler_heatmap_bytes_match_golden():
    assert _heatmap() == HEATMAP.read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        _path(*case).write_text(_stdout(_argv(*case)))
    for wheel, text in enumerate(_phase_csvs()):
        _csv_path(wheel).write_text(text)
    HEATMAP.write_text(_heatmap())
