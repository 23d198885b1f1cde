"""Fuzzed --inline, --field and --tolerance text: every run exits 0, 1 or 2,
never with a traceback or a warning, exit 2 comes with exactly one `error:`
line on stderr, and every other run prints a report in strict JSON.  No
command reads the environment: a run with SETFIELD_* variables set to fuzzed
text prints what it prints with them unset.

Systems stay at no more than four vertices (or a dozen characters of free
text), and step counts at a few dozen, so each run takes milliseconds.
"""

import contextlib
import io
import json
import math
import os
import warnings
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from setfield.cli import main
from setfield.setsystem import parse_system

GOOD_SETS = st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=4,
                              unique=True), min_size=1, max_size=3,
                     unique_by=frozenset)
ODD_SETS = st.lists(st.lists(st.integers(-1, 4), max_size=4), max_size=4)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 4) | st.floats(-2, 5)
    | st.text("ab1", max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("ab", max_size=1), inner, max_size=2),
    max_leaves=6)


def _braces(sets):
    return "{%s}" % ",".join("{%s}" % ",".join(map(str, s)) for s in sets)


INLINE = st.one_of(
    GOOD_SETS.map(_braces),
    GOOD_SETS.map(json.dumps),
    ODD_SETS.map(_braces),
    st.lists(JSON, max_size=3).map(json.dumps),
    st.text(alphabet="{}[],0123456789- .x", max_size=12),
)
LITERAL = st.one_of(
    st.text(alphabet="0123456789./-+ijkeq()o,", max_size=10),
    st.sampled_from(["1", "-2.5", "1+2i", "1-j+k", "q(1/2+1/3i)", "q(1/0)",
                     "1/0", "3/4", "o(1,2,3,4,5,6,7,8)", "o(1)", "0", "nan",
                     "1e400"]),
)
# not finite, or finite but overflowing once multiplied
HUGE = st.sampled_from(["1e400", "o(nan,0,0,0,0,0,0,0)", "o(inf)", "o(1e400)",
                        "-1e400j", "1e200", "-1e308", "1e200+1e200i", "1e154k",
                        "o(0,1e200)"])
KIND_NAMES = ("real", "complex", "quaternion", "octonion", "gaussian", "foo", "")
PRESET = st.one_of(
    st.sampled_from(["omega", "ones", "", "values:", "random:", "roots:"]),
    st.integers(-2, 12).map("roots:{}".format),
    st.tuples(st.integers(-1, 99), st.sampled_from(KIND_NAMES),
              st.sampled_from(["", ":unit", ":x"])).map(
        lambda t: "random:%d:%s%s" % t),
    st.text(alphabet="abdefgimnorstuvw:0123456789,-", max_size=12),
)
PHASE = st.tuples(st.integers(-1, 3), st.integers(-2, 40)).map(
    lambda t: ["phase", "--wheel", str(t[0]), "--steps", str(t[1])])
KIND = st.sampled_from([[], ["--kind", "real"], ["--kind", "complex"],
                        ["--kind", "quaternion"], ["--kind", "gaussian"]])
# unset (None), empty, numbers and text that is none
ENV_VALUE = (st.none()
             | st.sampled_from(["", "x", "1e-9", "-1", "0", "1.5", " 7 ", "1_0",
                                "0x10", "1e400", "nan", "inf", "-inf"])
             | st.integers(-2, 300).map(str)
             | st.text(alphabet="-+.eEinfa x", max_size=4))
ENV = st.fixed_dictionaries({name: ENV_VALUE for name in (
    "SETFIELD_TOLERANCE", "SETFIELD_STEP_CAP", "SETFIELD_LEIBNIZ_CAP")})
# --tolerance text that parses as a float, finite or not (text that does
# not is an argparse usage error)
TOLERANCE_FLAG = (st.none()
                  | st.sampled_from(["0", "-0.0", "1e-9", "-1", "nan", "inf",
                                     "-inf", "1e400", "-1e-300"])
                  | st.floats().map(repr))
# well-formed runs of every command; `det` skips the permutation sum, whose
# factorial cost the fuzz cannot afford
ENV_ARGV = st.tuples(
    st.sampled_from([["gen"], ["kaehler"], ["matrices"], ["check"],
                     ["det", "--method", "study"],
                     ["det", "--method", "dieudonne"],
                     ["phase", "--wheel", "0", "--steps", "20",
                      "--field", "roots:5"],
                     ["group", "--steps", "4", "--field", "roots:5"]]),
    GOOD_SETS.map(_braces), st.booleans()).map(
    lambda t: t[0] + ["--inline=" + t[1]] + (["--closure"] if t[2] else []))


def _size(inline, closure):
    try:
        return len(parse_system(inline, closure))
    except ValueError:
        return 1


def _values(literals):
    return "values:" + ",".join(literals)


@st.composite
def argvs(draw):
    argv = draw(st.sampled_from([
        ["gen"], ["matrices"], ["check"], ["kaehler"],
        ["det", "--method", "study"], ["det", "--method", "dieudonne"], None]))
    argv = list(argv or draw(PHASE))
    inline = draw(INLINE)
    closure = draw(st.booleans())
    argv += ["--inline=" + inline] + (["--closure"] if closure else [])
    if argv[0] in ("gen", "kaehler"):
        return argv
    # a values list of the system's length, so that most of them parse
    n = _size(inline, closure)
    field = draw(PRESET
                 | st.lists(LITERAL, min_size=n, max_size=n).map(_values)
                 | HUGE.map(lambda x: _values([x] * n)))
    return argv + ["--field=" + field] + draw(KIND)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would reach stderr
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject(constant):
    raise ValueError("%s is not JSON" % constant)


def _assert_clean_exit(argv, code, out, err):
    assert code in (0, 1, 2), argv
    if code == 2:
        lines = err.strip().splitlines()
        assert not out and len(lines) == 1 and lines[0].startswith("error:"), \
            (argv, err)
    else:  # a report in strict JSON: no Infinity or NaN
        assert not err and json.loads(out, parse_constant=_reject), argv


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_cli_text_exits_cleanly(argv):
    _assert_clean_exit(argv, *_run(argv))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ENV_ARGV, ENV, TOLERANCE_FLAG)
def test_env_overrides_exit_cleanly(argv, env, flag):
    checks = argv[0] == "check"  # the one command that takes a tolerance
    if flag is not None and checks:
        argv = argv + ["--tolerance=" + flag]
    with mock.patch.dict(os.environ):
        for name in env:
            os.environ.pop(name, None)
        unset = _run(argv)
        os.environ.update({name: text for name, text in env.items()
                           if text is not None})
        result = _run(argv)
    assert result == unset, (argv, env)
    _assert_clean_exit(argv, *result)
    # a tolerance that is not finite, or is negative, is an input error
    # naming the flag
    if checks and flag is not None and not 0 <= float(flag) < math.inf:
        code, _, err = result
        assert code == 2 and "--tolerance" in err, (argv, err)
