"""Byte-for-byte CLI reports for the noncommutative and exact kinds.

The files under tests/golden/ hold the stdout of `matrices`, `check` and
`det --pivot-log` as written by the per-entry scalar code, before matrix
products and eliminations moved to component arrays.  The kernel promises
the same floating-point operations in the same order, so the reports must
match to the last byte.  Regenerate (only for an intended format change)
with `PYTHONPATH=src python tests/test_golden.py --write`.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from setfield.cli import main

GOLDEN = Path(__file__).parent / "golden"

SYSTEMS = {"triangle": "{{1,2,3}}", "path": "{{1,2},{2,3},{3,4}}",
           "tetrahedron": "{{1,2,3,4}}"}
FIELDS = {
    "quaternion": "random:5:quaternion",
    "quaternion-unit": "random:5:quaternion:unit",
    "octonion": "random:5:octonion",
    "octonion-unit": "random:5:octonion:unit",
    "gaussian": "random:5:gaussian",
    "gaussian-unit": "random:5:gaussian:unit",
}
COMMANDS = {"matrices": [], "check": [], "det": ["--pivot-log"]}

# The closure of {1,2,3,4} has 15 elements, enough for eliminations to run on
# component arrays; `matrices` eliminates nothing and skips it.
CASES = [(cmd, sysname, fname) for cmd in COMMANDS for sysname in SYSTEMS
         for fname in FIELDS if (cmd, sysname) != ("matrices", "tetrahedron")]


def _argv(cmd, sysname, fname):
    return ([cmd, "--inline", SYSTEMS[sysname], "--closure",
             "--field", FIELDS[fname]] + COMMANDS[cmd])


def _path(cmd, sysname, fname):
    return GOLDEN / ("%s_%s_%s.json" % (cmd, sysname, fname))


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    return buf.getvalue()


@pytest.mark.parametrize("cmd,sysname,fname", CASES)
def test_cli_report_bytes_match_golden(cmd, sysname, fname):
    want = _path(cmd, sysname, fname).read_text()
    assert _stdout(_argv(cmd, sysname, fname)) == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        _path(*case).write_text(_stdout(_argv(*case)))
