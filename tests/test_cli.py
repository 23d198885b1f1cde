import ast
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import setfield
from setfield.cli import COMMANDS, main, split_literals


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_gen_inline_braces(capsys):
    code, data = run_json(capsys, "gen", "--inline", "{{1,2},{2,3}}",
                          "--closure")
    assert code == 0
    assert data["n"] == 5
    assert data["is_simplicial_complex"]
    assert data["elements"][0] == [1]


def test_gen_from_file(tmp_path, capsys):
    path = tmp_path / "complex.json"
    path.write_text("[[1,2,3]]")
    code, data = run_json(capsys, "gen", "--input", str(path), "--closure")
    assert code == 0 and data["n"] == 7


def test_gen_as_given_vs_closure(capsys):
    _, raw = run_json(capsys, "gen", "--inline", "[[1,2],[2,3]]")
    assert raw["n"] == 2 and not raw["is_simplicial_complex"]


def test_matrices_output_golden(capsys):
    code, data = run_json(capsys, "matrices", "--inline", "[[1,3,4],[4]]",
                          "--field", "values:1,5")
    assert code == 0
    assert data["L"] == [[6, 5], [5, 5]]
    assert data["g"] == [[1, 1], [1, 6]]
    assert data["S"] == [1, 1]


def test_matrices_gaussian_exact_strings(capsys):
    code, data = run_json(capsys, "matrices", "--inline", "{{1,2}}",
                          "--closure", "--kind", "gaussian",
                          "--field", "values:q(1/2+1/2i),q(1),q(-1/3i)")
    assert code == 0
    assert data["kind"] == "gaussian"
    assert data["L"][0][0] == "q(1/2+1/2i)"


def test_det_leibniz_golden(capsys):
    code, data = run_json(capsys, "det", "--inline",
                          "[[1],[1,3,4],[1,4,5],[4],[1,4]]",
                          "--field", "values:2,4,3,-1,1", "--method", "all")
    assert code == 0
    assert data["L"]["leibniz"] == pytest.approx(-24.0)
    assert data["L"]["study"] == pytest.approx(24.0)


def test_det_pivot_log(capsys):
    code, data = run_json(capsys, "det", "--inline", "{{1,2}}", "--closure",
                          "--field", "roots:3", "--pivot-log")
    assert code == 0
    assert any("pivot" in line for line in data["L"]["pivot_log"])


@pytest.mark.parametrize("kind", ["real", "complex", "quaternion",
                                  "octonion", "gaussian"])
def test_det_pivot_log_eliminates_each_matrix_once(capsys, monkeypatch, kind):
    # one elimination per matrix, with or without the log, on the arrays of
    # connection.field_matrices, yields the Study value and, except over the
    # octonions, the Dieudonne one; over the Gaussian rationals it is read
    # off the Bareiss loop
    from setfield import determinants

    calls = []
    original = determinants.row_reduce
    monkeypatch.setattr(determinants, "row_reduce",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    argv = ["det", "--inline", "{{1,2,3}}", "--closure",
            "--field", "random:5:" + kind]
    code, data = run_json(capsys, *argv, "--pivot-log")
    assert code == 0 and len(calls) == 2
    assert data["L"]["pivot_log"] and data["g"]["study"] > 0
    code, plain = run_json(capsys, *argv)
    assert code == 0 and len(calls) == 4
    for label in ("L", "g"):
        del data[label]["pivot_log"]
    assert plain == data


@pytest.mark.parametrize("method", ["leibniz", "study", "dieudonne", "all"])
def test_gaussian_det_runs_bareiss_once_per_matrix(capsys, monkeypatch,
                                                   method):
    # Q(i) commutes, so the Leibniz entry is the exact determinant that the
    # elimination behind the Study and Dieudonne values already gives
    from setfield import determinants

    calls = []
    original = determinants._bareiss_steps
    monkeypatch.setattr(determinants, "_bareiss_steps",
                        lambda *a: calls.append(1) or original(*a))
    code, data = run_json(capsys, "det", "--inline", "{{1,2,3}}", "--closure",
                          "--field", "random:1:gaussian", "--method", method)
    assert code == 0 and len(calls) == 2
    if method == "all":
        assert data["L"]["leibniz"] == data["L"]["dieudonne"]


def test_det_pivot_log_on_gaussian_swaps_matches_fraction_elimination(capsys):
    # not closed under subsets; g(x0, x0) = H(star {1}) = 1/2 + 1/3 - 5/6 = 0,
    # so g needs a swap, and the denominators give the matrices a scale of 6
    import oracles

    from setfield.connection import explicit_field
    from setfield.determinants import dieudonne_value, study_value
    from setfield.scalars import GAUSSIAN, parse_scalar, to_jsonable
    from setfield.setsystem import parse_system

    text, values = "{{1},{1,2},{1,3}}", ["q(1/2+i)", "q(1/3)", "q(-5/6-i)"]
    code, data = run_json(capsys, "det", "--inline", text, "--kind",
                          "gaussian", "--field", "values:" + ",".join(values),
                          "--pivot-log")
    assert code == 0
    system = parse_system(text)
    assert not system.is_simplicial_complex()
    h = explicit_field([parse_scalar(v, GAUSSIAN) for v in values], GAUSSIAN)
    cm = oracles.build_matrices_by_sets(system, h)
    for label, M in (("L", cm.L), ("g", cm.g)):
        want = oracles.row_reduce(M, GAUSSIAN, want_log=True)
        assert data[label]["pivot_log"] == want.log
        assert data[label]["study"] == study_value(want)
        assert data[label]["dieudonne"] == to_jsonable(
            dieudonne_value(want, GAUSSIAN))
    assert any(line.startswith("swap") for line in data["g"]["pivot_log"])


def test_check_all_builds_the_field_matrices_once_per_field(capsys,
                                                            monkeypatch):
    # the caller's field and the omega field of the unimodularity check
    from setfield import connection

    calls = []
    original = connection._block_sums
    monkeypatch.setattr(connection, "_block_sums",
                        lambda *a: calls.append(1) or original(*a))
    code, data = run_json(capsys, "check", "--inline", "{{1,2,3}}",
                          "--closure", "--field", "random:1:real")
    assert [c["name"] for c in data["checks"]] == [
        "greenstar", "energy", "gaussbonnet", "unimodular", "signature"]
    assert len(calls) == 4  # L and g of each field


def test_check_all_pass_exit_zero(capsys):
    code, data = run_json(capsys, "check", "--inline", "{{1,2}}", "--closure",
                          "--field", "roots:3", "--identity", "all")
    assert code == 0
    assert data["failed"] == []


def test_check_applicable_failure_exits_nonzero(capsys):
    # a zero tolerance turns float roundoff in the (always applicable) energy
    # identity into a recorded failure, which must flip the exit code
    code, data = run_json(capsys, "check", "--inline", "{{1,2},{2,3}}",
                          "--closure", "--field", "roots:5",
                          "--identity", "energy", "--tolerance", "0")
    assert code == 1
    assert data["failed"] == ["energy"]


def test_check_inapplicable_failure_keeps_exit_zero(capsys):
    code, data = run_json(capsys, "check", "--inline", "[[1,3,4],[4]]",
                          "--field", "values:1,1", "--identity", "greenstar")
    assert code == 0
    assert not data["checks"][0]["holds"]
    assert data["checks"][0]["applicability"]


def test_group_reproduces_triangle_order(capsys):
    code, data = run_json(capsys, "group", "--inline", "{{1,2,3}}",
                          "--closure", "--field", "roots:7")
    assert code == 0
    assert data["order"] == 36
    assert len(data["generators"]) == 7
    assert all(sum(g["windings"]) == 1 for g in data["generators"])


def test_phase_writes_csv_and_svg(tmp_path, capsys):
    out = str(tmp_path / "reports")
    code, data = run_json(capsys, "phase", "--inline", "{{1,2}}", "--closure",
                          "--field", "roots:3", "--wheel", "0",
                          "--steps", "100", "--output", out)
    assert code == 0
    assert data["wheels"][0]["windings"] and sum(data["wheels"][0]["windings"]) == 1
    csv_path = os.path.join(out, "wheel_00.csv")
    svg_path = os.path.join(out, "wheel_00.svg")
    assert os.path.exists(csv_path) and os.path.exists(svg_path)
    header = open(csv_path).readline().strip().split(",")
    assert header[:3] == ["t", "re_lambda_1", "im_lambda_1"]
    svg = open(svg_path).read()
    assert svg.count("<polyline") == 3


def test_kaehler_edge_and_heatmap(tmp_path, capsys):
    heat = str(tmp_path / "form.svg")
    code, data = run_json(capsys, "kaehler", "--inline", "{{1,2}}",
                          "--closure", "--heatmap", heat)
    assert code == 0
    assert data["det"] == "9"
    assert data["factorization"] == [[3, 2]]
    assert data["rank"] == 3
    assert data["divisible_by_3"]
    assert os.path.exists(heat)


def test_kaehler_heatmap_of_an_unclosed_system_draws_the_form(tmp_path,
                                                              capsys):
    # {3} and {1, 3} are missing, so the determinant comes from Bareiss;
    # the heatmap draws J^T J of the set-comparison Jacobian all the same
    import oracles
    from setfield import SetSystem
    from setfield.cli import _write_form_svg

    sets = [[1, 2, 3], [3, 4, 5], [1, 2], [2]]
    J = oracles.jacobian_by_sets(SetSystem(sets))
    want = str(tmp_path / "want.svg")
    _write_form_svg(want, (J.T @ J).tolist())
    heat = str(tmp_path / "form.svg")
    code, data = run_json(capsys, "kaehler", "--inline", json.dumps(sets),
                          "--heatmap", heat)
    assert code == 0 and data["n"] == 4
    assert open(heat).read() == open(want).read()
    assert open(heat).read().count("<rect") == 16


def test_json_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "matrices", "--inline", "{{1,2}}", "--closure",
                       "--field", "random:42:complex")
    _, second = run_cli(capsys, "matrices", "--inline", "{{1,2}}", "--closure",
                        "--field", "random:42:complex")
    assert first == second


def test_split_literals_respects_parens():
    assert split_literals("1,2+3i,o(1,2,3,4,5,6,7,8),q(1/2+1/2i)") == [
        "1", "2+3i", "o(1,2,3,4,5,6,7,8)", "q(1/2+1/2i)"]


def test_field_length_mismatch_is_reported(capsys):
    code = main(["matrices", "--inline", "{{1,2}}", "--closure",
                 "--field", "values:1,2"])
    assert code == 2


@pytest.mark.parametrize("values, kind, field", [
    ("1,2+1i,3", "complex", [[1.0, 0.0], [2.0, 1.0], [3.0, 0.0]]),
    ("1,q(1/2),3", "gaussian", ["q(1+0i)", "q(1/2+0i)", "q(3+0i)"]),
], ids=["complex", "gaussian"])
def test_values_field_promotes_numbers_to_the_other_kind(capsys, values, kind,
                                                        field):
    code, data = run_json(capsys, "matrices", "--inline", "{{1,2}}",
                          "--closure", "--field", "values:" + values)
    assert code == 0
    assert data["kind"] == kind and data["field"] == field


def test_values_field_of_mixed_kinds_reports_one_line(capsys):
    # 1+1j is the quaternion 1 + 1 j, which no number promotes to
    _assert_one_error_line(capsys, ["matrices", "--inline", "{{1,2}}",
                                    "--closure", "--field", "values:1,1+1j,2"],
                           "mixed scalar kinds")


@pytest.mark.parametrize("literal", ["1+", "+", "-", "1+-2", "1++2", "2i+",
                                     "q(1+)", "q(+)", "q()"])
def test_literal_term_with_a_bare_sign_or_nothing_reports_one_line(capsys,
                                                                   literal):
    _assert_one_error_line(capsys, ["matrices", "--inline", "{{1}}", "--field",
                                    "values:" + literal],
                           "literal: %r" % literal)


@pytest.mark.parametrize("literal", ["2i3", "1i2", "ii", "q(ii)", "2k3j", "3 4",
                                     "1 2i", "q(1 2)"])
def test_literal_terms_without_a_sign_between_report_one_line(capsys,
                                                             literal):
    # a term after the first starts with a sign; spaces stand only at the
    # ends or next to a sign
    _assert_one_error_line(capsys, ["matrices", "--inline", "{{1}}", "--field",
                                    "values:" + literal],
                           "literal: %r" % literal)


@pytest.mark.parametrize("argv", [
    ["--field", "values:q(i)"],
    ["--kind", "gaussian", "--field", "values:i"],
], ids=["q(i)", "gaussian-kind-i"])
def test_gaussian_unit_without_coefficient_reads_as_i(capsys, argv):
    code, data = run_json(capsys, "matrices", "--inline", "{{1}}", *argv)
    assert code == 0 and data["field"] == ["q(0+1i)"]


def test_bad_input_is_reported(capsys):
    code = main(["gen", "--inline", "not a complex"])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["check", "--inline", "{{1,2}}", "--field", "random:1:foo"],
     "unknown scalar kind 'foo'"),
    (["check", "--inline", "{{1,2}}", "--closure", "--field", "roots:0"],
     "roots:N needs N >= 1"),
    (["check", "--inline", "{{1,2}}", "--closure",
      "--field", "values:q(1/0),1,1"], "zero denominator in '1/0'"),
    (["check", "--inline", "{{1,2}}", "--closure", "--kind", "gaussian",
      "--field", "values:1,2,1/0"], "zero denominator in '1/0'"),
    (["check", "--inline", "{{1}}", "--kind", "real",
      "--field", "values:1+2i"], "'1+2i' is not a real literal"),
    (["group", "--inline", "{{1,2,3}}", "--closure", "--field", "roots:7",
      "--steps", "0"], "steps must be at least 1, got 0"),
    (["group", "--inline", "{{1,2,3}}", "--closure", "--field", "roots:7",
      "--steps", "-5"], "steps must be at least 1, got -5"),
    (["phase", "--inline", "{{1},{1,2}}", "--field", "values:1+0i,2+0i",
      "--kind", "complex", "--wheel", "0", "--steps", "2"],
     "stayed ambiguous"),
    (["matrices", "--inline", "{{1}}", "--field", "values:1e400"],
     "'1e400' is not a finite number"),
    (["matrices", "--inline", "{{1}}", "--field",
      "values:o(nan,0,0,0,0,0,0,0)"],
     "'o(nan,0,0,0,0,0,0,0)' is not a finite number"),
    (["check", "--inline", "{{1,2}}", "--closure",
      "--field", "values:1e200,1e200,1e200"], "not finite"),
    (["check", "--inline", "{{1,2}}", "--closure", "--kind", "octonion",
      "--field", "values:o(1e200),1,1"], "not finite"),
    (["gen", "--inline", "{{1,2}"], "malformed brace notation: '{{1,2}'"),
    (["gen", "--inline", "{1,2}}"], "malformed brace notation: '{1,2}}'"),
    (["gen", "--inline", "{{1,2}x{3}}"],
     "malformed brace notation: '{{1,2}x{3}}'"),
    (["gen", "--inline", "{{1,2}}{{3}}"],
     "malformed brace notation: '{{1,2}}{{3}}'"),
    (["gen", "--inline", "{{1,2},{2,3}}junk"],
     "malformed brace notation: '{{1,2},{2,3}}junk'"),
    (["gen", "--inline", "{{1,,2}}"], "malformed brace notation: '{{1,,2}}'"),
    (["check", "--inline", "{{1,2}}", "--closure",
      "--field", "random:1:real:unti"], "got 'random:1:real:unti'"),
    (["check", "--inline", "{{1,2}}", "--closure",
      "--field", "random:1:real:unit:x"], "got 'random:1:real:unit:x'"),
    (["check", "--inline", "{{1,2}}", "--closure", "--field", "omega",
      "--kind", "quaternion"],
     "--field omega is a real field, not --kind quaternion"),
    (["check", "--inline", "{{1,2}}", "--closure", "--field", "random:1:real",
      "--kind", "octonion"],
     "--field random:1:real is a real field, not --kind octonion"),
    (["gen", "--inline", "{a}"],
     "--inline: brace notation takes integer vertices: '{a}'"),
    (["gen", "--inline", "{{1,b},{2}}"],
     "--inline: brace notation takes integer vertices: '{{1,b},{2}}'"),
    (["check", "--inline", "{{1,2}}", "--closure", "--field", "roots:x"],
     "--field roots:x: 'x' is not an integer"),
    (["check", "--inline", "{{1,2}}", "--closure",
      "--field", "random:x:complex"],
     "--field random:x:complex: 'x' is not an integer"),
    # one step from t = 0 to 2 pi never samples the circle: winding 0
    (["phase", "--inline", "{{1}}", "--field", "roots:1", "--steps", "1"],
     "the windings of wheel 0 sum to 0, not 1 (steps = 1)"),
], ids=["random-kind", "roots-0", "gaussian-literal-zero-denominator",
        "gaussian-kind-zero-denominator", "literal-of-other-kind",
        "steps-0", "steps-negative", "phase-ambiguous", "literal-overflow",
        "literal-nan", "report-overflow-real", "report-overflow-octonion",
        "braces-unclosed", "braces-unopened", "braces-text-between",
        "braces-second-list", "braces-text-after", "braces-empty-item",
        "random-fourth-part", "random-fifth-part", "omega-other-kind",
        "random-other-kind", "braces-vertex-not-integer",
        "braces-second-vertex-not-integer", "roots-not-integer",
        "random-seed-not-integer", "phase-one-step"])
def test_malformed_input_exits_two_with_one_line(capsys, argv, message):
    _assert_one_error_line(capsys, argv, message)


def _assert_one_error_line(capsys, argv, message):
    # a warning (numpy's overflow warnings among them) fails the run here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert code == 2 and not captured.out
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert message in lines[0]


@pytest.mark.parametrize("command", ["det", "check", "gen"])
def test_tolerance_errors_name_the_flag(capsys, monkeypatch, command):
    # only check takes --tolerance, and no command reads a tolerance from
    # the environment
    argv = [command, "--inline", "{{1,2}}", "--closure"]
    monkeypatch.setenv("SETFIELD_TOLERANCE", "x")
    assert run_cli(capsys, *argv)[0] == 0
    if command != "check":
        with pytest.raises(SystemExit):
            main(argv + ["--tolerance=0"])
        return
    # inf would let every check hold, nan fail every one
    for text in ("inf", "-inf", "nan", "-1", "1e400"):
        _assert_one_error_line(
            capsys, argv + ["--tolerance=" + text],
            "--tolerance %r is not a finite number >= 0" % float(text))


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_empty_system_succeeds_or_reports_one_line(capsys, command):
    # an exception escaping main() is what prints a traceback
    code = main([command, "--inline", "[]"])
    captured = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        assert not captured.out
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
    if command in ("matrices", "check", "group"):
        # refused before a field is built
        assert (code, captured.err) == (
            2, "error: %s needs a nonempty set system\n" % command)


def test_import_does_not_load_scipy():
    src = str(Path(setfield.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, setfield, setfield.cli; "
            "sys.exit('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


# integer work, or input that fails before a field is built
NUMPY_FREE_RUNS = [["gen", "--inline", "{{1,2,3},{3,4,5}}", "--closure"],
                   ["kaehler", "--inline", "{{1,2,3,4,5},{3,4,5,6,7}}",
                    "--closure"],
                   ["det", "--inline", "{{1,2"],
                   ["check", "--inline", "[]"],
                   ["group", "--inline", "[]"]]


def _cold_main(runs, block_numpy):
    """(numpy imported with the package, [(code, stdout, stderr)]) for
    main() on each argv in a fresh interpreter; `block_numpy` makes any
    numpy import fail."""
    src = str(Path(setfield.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    script = "\n".join([
        "import contextlib, io, sys",
        "if %r:" % block_numpy,
        "    sys.modules['numpy'] = None",
        "import setfield, setfield.cli",
        "loaded = sys.modules.get('numpy') is not None",
        "results = []",
        "for argv in %r:" % (runs,),
        "    out, err = io.StringIO(), io.StringIO()",
        "    with contextlib.redirect_stdout(out), "
        "contextlib.redirect_stderr(err):",
        "        code = setfield.cli.main(argv)",
        "    results.append((code, out.getvalue(), err.getvalue()))",
        "print(repr((loaded, results)))"])
    proc = subprocess.run([sys.executable, "-c", script], env=env, timeout=120,
                          capture_output=True, text=True, check=True)
    return ast.literal_eval(proc.stdout)


def test_cold_path_is_numpy_free():
    loaded, normal = _cold_main(NUMPY_FREE_RUNS, block_numpy=False)
    assert not loaded  # `import setfield, setfield.cli` leaves numpy out
    assert [code for code, _, _ in normal] == [0, 0, 2, 2, 2]
    assert _cold_main(NUMPY_FREE_RUNS, block_numpy=True) == (False, normal)


# a command, its exit code and a module it must not import
UNUSED_MODULES = [
    (["gen", "--inline", "{{1,2,3},{3,4,5}}", "--closure"], 0,
     "setfield.determinants"),
    (["det", "--inline", "{{1,2"], 2, "setfield.determinants"),
    (["matrices", "--inline", "{{1,2}}", "--closure"], 0, "setfield.spectral"),
    (["det", "--inline", "{{1,2}}", "--closure"], 0, "setfield.spectral"),
    (["check", "--inline", "{{1,2}}", "--closure"], 0, "setfield.spectral"),
    (["kaehler", "--inline", "{{1,2,3},{3,4,5}}", "--closure"], 0,
     "setfield.determinants")]


@pytest.mark.parametrize("argv, code, module", UNUSED_MODULES)
def test_a_command_imports_only_the_modules_it_runs(argv, code, module):
    # a cold process compiles every module it imports when no bytecode
    # cache is written
    src = str(Path(setfield.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    script = "\n".join([
        "import contextlib, io, sys",
        "import setfield.cli",
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):",
        "    code = setfield.cli.main(%r)" % (argv,),
        "print(repr((code, %r in sys.modules)))" % module])
    proc = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                          capture_output=True, text=True, check=True)
    assert ast.literal_eval(proc.stdout) == (code, False)


def test_package_names_resolve():
    from setfield import (  # noqa: F401  the names the package exported
        COMPLEX, GAUSSIAN, OCTONION, QUATERNION, REAL, EnergyFunction,
        GaussianRational, GroupReport, IdentityReport, KaehlerReport,
        Octonion, Quaternion, SetSystem, SpectralPath,
        TrackingAmbiguityError, WheelPermutation, abelianize, bareiss_det,
        complete_complex, conjugate, det_formula_check, dieudonne_det,
        energy_check, explicit_field, field_matrices, gauss_bonnet_check,
        generate, green_star_check, group_order, invert,
        is_unit, kaehler_form, kaehler_report, leibniz_det, monodromy_report,
        norm_sq, omega, omega_field, ones_field, parse_scalar, parse_system,
        presentations, product_right, random_field, roots_field,
        spectral_signature_check, study_det, unimodularity_check,
        wheel_permutations)
    from setfield import connection, kaehler, spectral

    assert SetSystem is setfield.setsystem.SetSystem
    assert kaehler_form is kaehler.kaehler_form
    assert TrackingAmbiguityError is spectral.TrackingAmbiguityError
    assert omega is connection.omega
    assert field_matrices is connection.field_matrices
    assert setfield.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        setfield.no_such_name
    # the full-path helpers live beside the tracker oracle in tests/
    for name in ("eigenvalues", "raw_winding_increments", "wheel_permutation"):
        assert not hasattr(setfield, name) and not hasattr(spectral, name)


def test_subcommands_do_not_load_scipy():
    runs = [["gen", "--inline", "{{1,2,3},{3,4,5}}", "--closure"],
            ["matrices", "--inline", "{{1,2,3}}", "--closure",
             "--field", "random:3:complex:unit"],
            ["det", "--inline", "{{1,2,3}}", "--closure", "--pivot-log",
             "--field", "random:3:gaussian"],
            ["check", "--inline", "{{1,2},{2,3},{3,4}}", "--closure",
             "--field", "random:3:quaternion:unit"],
            ["group", "--inline", "{{1,2,3}}", "--closure", "--field",
             "roots:7"],
            ["kaehler", "--inline", "{{1,2,3}}", "--closure"],
            ["check", "--inline", "[]"]]
    src = str(Path(setfield.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    script = "\n".join([
        "import sys",
        "from setfield.cli import main",
        "codes = [main(argv) for argv in %r]" % (runs,),
        "print(repr((codes, 'scipy' in sys.modules)))"])
    proc = subprocess.run([sys.executable, "-c", script], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.stdout.strip().splitlines()[-1] == repr(
        ([0, 0, 0, 0, 0, 0, 2], False))


def test_roots_preset_requires_complex_kind(capsys):
    code = main(["matrices", "--inline", "{{1,2}}", "--closure",
                 "--field", "roots:5", "--kind", "quaternion"])
    assert code == 2


def test_output_dir_written(tmp_path, capsys):
    out = str(tmp_path / "out")
    code, _ = run_json(capsys, "gen", "--inline", "{{1,2}}", "--closure",
                       "--output", out)
    assert code == 0
    assert os.path.exists(os.path.join(out, "gen.json"))


# wheel 0 meets an eigenvalue of its own block at t = pi/2: on {1}, {1,2}
# two eigenvalues of L coincide where 4 h(1)^2 + h(2)^2 = 0, h(1) = i here
MEETING = ["--inline", "{{1},{1,2}}", "--field", "values:1+0i,2+0i",
           "--kind", "complex"]


def test_group_closure_overflow_reports_one_line(capsys):
    # `group` no longer lists the group, so a closure cannot overflow; its
    # exit-2 path is reached by tracking that stays ambiguous: two
    # eigenvalues of one comparability block meet exactly
    code = main(["group"] + MEETING + ["--steps", "50"])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    # the first interval of 1/16 step that stays ambiguous, before the
    # eigenvalues meet at t = pi/2
    assert "wheel 0 stayed ambiguous near t = 1.5629 at 800 steps" in lines[0]


def test_group_error_is_the_eigenvalue_trackers_word_for_word(capsys):
    # wheel 0 fails on the secular equation near the meeting, at the angle
    # where the eigenvalue tracker (tests/oracles.py) fails too
    code = main(["group"] + MEETING)
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == (
        "error: eigenvalue tracking for wheel 0 stayed ambiguous near "
        "t = 1.5700 at 8000 steps; two eigenvalues meet or nearly meet "
        "there, and a higher step count resolves only a near meeting\n")


def test_phase_and_group_report_one_tracking_error(capsys):
    errors = []
    for command in ("phase", "group"):
        code = main([command] + MEETING)
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        errors.append(captured.err)
    assert errors == [
        "error: eigenvalue tracking for wheel 0 stayed ambiguous near "
        "t = 1.5700 at 8000 steps; two eigenvalues meet or nearly meet "
        "there, and a higher step count resolves only a near meeting\n"] * 2


@pytest.mark.parametrize("command", ["phase", "group"])
def test_a_tracking_error_is_a_value_error_main_reports(capsys, monkeypatch,
                                                        command):
    # main catches ValueError for every command; a tracking failure is one
    from setfield import spectral

    assert issubclass(spectral.TrackingAmbiguityError, ValueError)

    def fail(*args, **kwargs):
        raise spectral.TrackingAmbiguityError("labels could not be told apart")

    monkeypatch.setattr(spectral, "wheel_permutations", fail)
    _assert_one_error_line(capsys, [command, "--inline", "{{1,2}}",
                                    "--closure", "--field", "roots:5"],
                           "labels could not be told apart")


def test_failing_phase_writes_no_wheel_file(tmp_path, capsys):
    # wheel 0, {3}, is a block of its own and tracks; wheel 1 fails at the
    # meeting of its block {1}, {1,2}: nothing of wheel 0 is written
    out = tmp_path / "reports"
    out.mkdir()
    assert main(["phase", "--inline", "{{3},{1},{1,2}}", "--field",
                 "values:3+0i,1+0i,2+0i", "--kind", "complex",
                 "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert not captured.out and "for wheel 1 stayed ambiguous" in captured.err
    assert not list(out.glob("wheel_*"))


@pytest.mark.parametrize("command, wheel", [(["phase", "--wheel", "2"], 2),
                                            (["group"], 0)])
def test_repeated_start_eigenvalue_fails_at_once(capsys, monkeypatch,
                                                 command, wheel):
    # equal values on the three edges of a star repeat the eigenvalue 2 of
    # L(0) in its one block (e_2 - e_3 and e_2 - e_4 are eigenvectors), which
    # no step count can label, so no tracking attempt is made
    from setfield import spectral

    monkeypatch.setattr(spectral, "_step_holds",
                        lambda *a: pytest.fail("a tracking step was tested"))
    argv = command[:1] + ["--inline", "{{1},{1,2},{1,3},{1,4}}", "--field",
                          "values:1+0i,2+0i,2+0i,2+0i", "--kind",
                          "complex"] + command[1:]
    _assert_one_error_line(capsys, argv, "eigenvalue tracking for wheel %d: "
                           "the t=0 spectrum repeats 2.0+0.0i" % wheel)


def test_kaehler_reports_unfactored_cofactor(capsys, monkeypatch):
    from setfield import determinants

    # {2} is missing, so the determinant comes from Bareiss
    _, plain = run_json(capsys, "kaehler", "--inline", "{{1,2},{2,3}}")
    assert "unfactored" not in plain
    cofactor = 1000003 * 1000033
    monkeypatch.setattr(determinants, "bareiss_det",
                        lambda form: 9 * cofactor)
    code, data = run_json(capsys, "kaehler", "--inline", "{{1,2},{2,3}}")
    assert code == 0
    assert data["det"] == str(9 * cofactor) and data["rank"] == 2
    assert data["factorization"] == [[3, 2]]
    assert data["unfactored"] == str(cofactor)
    monkeypatch.undo()
    assert run_json(capsys, "kaehler", "--inline", "{{1,2},{2,3}}") == (
        0, plain)


def test_dieudonne_over_octonions_names_the_study_method(capsys):
    # the library has no abelianized determinant over octonions; --method
    # all leaves it out of the report, an explicit request fails
    argv = ["det", "--inline", "{{1,2}}", "--closure", "--field",
            "random:1:octonion"]
    _assert_one_error_line(capsys, argv + ["--method", "dieudonne"],
                           "over octonions; use --method study")
    code, data = run_json(capsys, *argv, "--method", "all")
    assert code == 0 and "dieudonne" not in data["L"]


@pytest.mark.parametrize("command", ["group", "phase"])
def test_steps_too_large_for_memory_report_one_line(capsys, command):
    # numpy refuses the circle's (steps + 1)-point arrays, 7.1 PiB of
    # grid indices before the 14 PiB of turns, before it allocates anything
    _assert_one_error_line(capsys, [command, "--inline", "{{1}}", "--field",
                                    "roots:3", "--steps", "1000000000000000"],
                           "Unable to allocate")


@pytest.mark.parametrize("text", ["[[true],[1,2]]", "[[1,true]]"])
def test_boolean_vertices_report_one_line(capsys, text):
    # true would stand for vertex 1, and [1, true] would lose a vertex
    _assert_one_error_line(capsys, ["gen", "--inline", text, "--closure"],
                           "--inline: JSON vertices cannot be true or false")
