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
    # one elimination per matrix, with or without the log, yields the Study
    # value and, except over the Gaussian rationals (Bareiss) and octonions
    # (none), the Dieudonne one
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
    (["phase", "--inline", "{{1},{2}}", "--field", "roots:1", "--wheel", "0",
      "--steps", "1"], "stayed ambiguous"),
    (["matrices", "--inline", "{{1}}", "--field", "values:1e400"],
     "'1e400' is not a finite number"),
    (["matrices", "--inline", "{{1}}", "--field",
      "values:o(nan,0,0,0,0,0,0,0)"],
     "'o(nan,0,0,0,0,0,0,0)' is not a finite number"),
    (["check", "--inline", "{{1,2}}", "--closure",
      "--field", "values:1e200,1e200,1e200"], "not finite"),
    (["check", "--inline", "{{1,2}}", "--closure", "--kind", "octonion",
      "--field", "values:o(1e200),1,1"], "not finite"),
], ids=["random-kind", "roots-0", "gaussian-literal-zero-denominator",
        "gaussian-kind-zero-denominator", "literal-of-other-kind",
        "steps-0", "steps-negative", "phase-ambiguous", "literal-overflow",
        "literal-nan", "report-overflow-real", "report-overflow-octonion"])
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


@pytest.mark.parametrize("cap, message", [
    ("4", "SETFIELD_STEP_CAP=4 is below --steps 10"),
    ("abc", "SETFIELD_STEP_CAP='abc' is not an integer"),
])
@pytest.mark.parametrize("command", ["phase", "group"])
def test_step_cap_errors_name_the_variable(capsys, monkeypatch, command, cap,
                                           message):
    monkeypatch.setenv("SETFIELD_STEP_CAP", cap)
    _assert_one_error_line(capsys, [command, "--inline", "{{1,2}}",
                                    "--closure", "--field", "roots:7",
                                    "--steps", "10"], message)


@pytest.mark.parametrize("command", ["det", "check", "gen"])
def test_tolerance_errors_name_the_variable(capsys, monkeypatch, command):
    # read in main, so a bad value is an input error for every command
    monkeypatch.setenv("SETFIELD_TOLERANCE", "x")
    _assert_one_error_line(capsys, [command, "--inline", "{{1,2}}",
                                    "--closure"],
                           "SETFIELD_TOLERANCE='x' is not a number")


def test_tolerance_override_and_empty_overrides(capsys, monkeypatch):
    energy = ["check", "--inline", "{{1,2}}", "--closure",
              "--identity", "energy"]
    monkeypatch.setenv("SETFIELD_TOLERANCE", "-1")
    assert run_cli(capsys, *energy)[0] == 1  # no deviation is below -1
    assert run_cli(capsys, *energy, "--tolerance", "1e-9")[0] == 0
    # an empty value means unset, for the tolerance and both caps
    for name in ("SETFIELD_TOLERANCE", "SETFIELD_STEP_CAP",
                 "SETFIELD_LEIBNIZ_CAP"):
        monkeypatch.setenv(name, "")
    assert run_cli(capsys, *energy)[0] == 0
    assert run_cli(capsys, "det", "--inline", "{{1,2}}", "--closure")[0] == 0
    assert run_cli(capsys, "phase", "--inline", "{{1,2}}", "--closure",
                   "--field", "roots:7", "--steps", "10")[0] == 0


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
                   ["check", "--inline", "[]"]]


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
    assert [code for code, _, _ in normal] == [0, 0, 2, 2]
    assert _cold_main(NUMPY_FREE_RUNS, block_numpy=True) == (False, normal)


def test_package_names_resolve():
    from setfield import (  # noqa: F401  the names the package exported
        COMPLEX, GAUSSIAN, OCTONION, QUATERNION, REAL, ConnectionMatrices,
        EnergyFunction, GaussianRational, GroupReport, IdentityReport,
        KaehlerReport, Octonion, Quaternion, SetSystem, SpectralPath,
        TrackingAmbiguityError, WheelPermutation, abelianize, bareiss_det,
        build_matrices, complete_complex, conjugate, det_formula_check,
        dieudonne_det, divisibility_scan, eigenvalues, energy_check,
        energy_sum, exact_rank, explicit_field, gauss_bonnet_check, generate,
        green_diagonal, green_star_check, group_order, invert, is_unit,
        kaehler_form, kaehler_report, leibniz_det, monodromy_report,
        norm_sq, omega, omega_field, ones_field, parse_scalar, parse_system,
        potential_and_curvature, presentations, product_right, random_field,
        roots_field, spectral_signature_check, study_det, super_trace,
        track_wheel, unimodularity_check, wheel_permutations,
        winding_numbers)
    from setfield import connection, kaehler, spectral

    assert SetSystem is setfield.setsystem.SetSystem
    assert kaehler_form is kaehler.kaehler_form
    assert TrackingAmbiguityError is spectral.TrackingAmbiguityError
    assert omega is connection.omega
    assert setfield.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        setfield.no_such_name


def test_subcommands_do_not_load_scipy():
    # `group` on the triangle with roots:7 meets an ambiguous tracking step,
    # which needs a full assignment
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
        "from setfield import spectral",
        "from setfield.cli import main",
        "calls = []",
        "solve = spectral.min_cost_assignment",
        "spectral.min_cost_assignment = lambda C: calls.append(1) or solve(C)",
        "codes = [main(argv) for argv in %r]" % (runs,),
        "print(repr((codes, bool(calls), 'scipy' in sys.modules)))"])
    proc = subprocess.run([sys.executable, "-c", script], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.stdout.strip().splitlines()[-1] == repr(
        ([0, 0, 0, 0, 0, 0, 2], True, False))


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


def test_group_closure_overflow_reports_one_line(capsys):
    # `group` no longer lists the group, so a closure cannot overflow; its
    # exit-2 path is reached by tracking that stays ambiguous: roots of
    # unity on a diagonal matrix collide at every step count
    code = main(["group", "--inline", "{{1},{2},{3}}", "--field", "roots:3",
                 "--steps", "50"])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "stayed ambiguous" in lines[0]


def test_kaehler_reports_unfactored_cofactor(capsys, monkeypatch):
    from setfield import kaehler

    _, plain = run_json(capsys, "kaehler", "--inline", "{{1,2}}", "--closure")
    assert "unfactored" not in plain
    cofactor = 1000003 * 1000033
    monkeypatch.setattr(kaehler, "bareiss_det", lambda form: 9 * cofactor)
    code, data = run_json(capsys, "kaehler", "--inline", "{{1,2}}",
                          "--closure")
    assert code == 0
    assert data["det"] == str(9 * cofactor)
    assert data["factorization"] == [[3, 2]]
    assert data["unfactored"] == str(cofactor)
