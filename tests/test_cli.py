"""CLI contract: exit codes, formats, reproducibility."""

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from qcurv import asymptotics, parametrix, spectral, tensor
from qcurv.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def test_constants_csv(runner):
    res = runner.invoke(main, ["constants", "--n", "5..8"])
    assert res.exit_code == 0
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 5  # header + 4 rows
    assert lines[0].startswith("n,Q_sphere")
    assert lines[1].startswith("5,105/8,")


def test_constants_latex_matches_csv_values(runner):
    csv = runner.invoke(main, ["constants", "--n", "5..6"]).stdout
    latex = runner.invoke(main, ["constants", "--n", "5..6", "--format", "latex"]).stdout
    y4_csv = float(csv.strip().splitlines()[1].split(",")[3])
    row5 = [ln for ln in latex.splitlines() if ln.startswith("5 &")][0]
    y4_tex = float(row5.split("&")[3])
    assert abs(y4_csv - y4_tex) <= 1e-9 * y4_csv


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_constants_report_file_is_the_json_stdout(runner, tmp_path, fmt):
    plain = runner.invoke(main, ["constants", "--format", "json"]).stdout
    out = tmp_path / "c.json"
    res = runner.invoke(main, ["constants", "--format", fmt, "--report", str(out)])
    assert res.exit_code == 0
    assert out.read_text() == plain
    if fmt == "json":
        assert res.stdout == plain


def test_constants_bad_range_usage_error(runner):
    res = runner.invoke(main, ["constants", "--n", "8..5"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["constants", "--n", "abc"])
    assert res.exit_code == 2


def test_parametrix_n9_report(runner, tmp_path):
    out = tmp_path / "p9.json"
    res = runner.invoke(main, ["parametrix", "--n", "9", "--seed", "1", "--report", str(out)])
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "qcurv-report/1"
    assert doc["psi4_matches_closed_form"] is True
    assert doc["remainder"] == "O4(r^{9-n})"
    assert doc["pass"] is True


def test_parametrix_n8_log_term(runner):
    res = runner.invoke(main, ["parametrix", "--n", "8", "--seed", "1"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert len(doc["log_terms"]) == 1
    assert doc["n8_log_coefficient"].startswith("-")


def test_parametrix_flat(runner):
    res = runner.invoke(main, ["parametrix", "--n", "7", "--flat"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["remainder"] == "Oinf(1)"
    assert doc["log_terms"] == []


def test_parametrix_jet_file_round_trip(runner, tmp_path):
    from qcurv.parametrix import random_jet

    jet = random_jet(9, seed=5)
    jf = tmp_path / "jet.json"
    jf.write_text(json.dumps(jet.to_json()))
    res = runner.invoke(main, ["parametrix", "--n", "9", "--jet-file", str(jf)])
    assert res.exit_code == 0
    res = runner.invoke(main, ["parametrix", "--n", "10", "--jet-file", str(jf)])
    assert res.exit_code == 2  # dimension mismatch


def test_verify_weyl_exit_zero(runner):
    res = runner.invoke(main, ["verify", "weyl", "--n", "6", "--trials", "5"])
    assert res.exit_code == 0


def test_verify_unknown_suite(runner):
    res = runner.invoke(main, ["verify", "nonsense"])
    assert res.exit_code == 2


def test_spectral_report_written(runner, tmp_path):
    out = tmp_path / "s.json"
    res = runner.invoke(
        main,
        ["spectral", "--n", "5", "--L", "64", "--iters", "3", "--damping", "0.5",
         "--init", "constant", "--report", str(out)],
    )
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "qcurv-report/1"
    assert len(doc["result"]["functional_values"]) == 4


def test_asymptotics_cli_high(runner, tmp_path):
    out = tmp_path / "a.json"
    res = runner.invoke(
        main,
        ["asymptotics", "--case", "high", "--n", "10", "--seed", "7",
         "--lambdas", "0.04,0.02,0.01,0.005", "--report", str(out)],
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    assert doc["fit"]["rel_error"] <= 0.02
    assert doc["config"]["lambdas"] == [0.04, 0.02, 0.01, 0.005]


def test_asymptotics_cli_case_mismatch(runner):
    res = runner.invoke(main, ["asymptotics", "--case", "high", "--n", "9"])
    assert res.exit_code == 2


def test_verify_report_determinism(runner, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "polyalg", "--trials", "8", "--seed", "3"]
    assert runner.invoke(main, args + ["--report", str(a)]).exit_code == 0
    assert runner.invoke(main, args + ["--report", str(b)]).exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def _jet_file(tmp_path, doc) -> str:
    jf = tmp_path / "jet.json"
    jf.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(jf)


def test_parametrix_bad_jet_files_usage_error(runner, tmp_path):
    from qcurv.parametrix import random_jet
    from qcurv.tensor import WeylTensor, fix_trace

    good = random_jet(9, seed=5)
    short = good.to_json()
    short["W"] = short["W"][:-1]
    wrong_trace = good.to_json()
    wrong_trace["J"][0][0] = str(Fraction(wrong_trace["J"][0][0]) + 1)
    # breaks the pair symmetries; J is fixed so the trace constraint holds
    ints = good.W.ints.copy()
    ints[0, 1, 0, 1] += 1
    not_weyl_W = WeylTensor(9, ints, good.W.scale)
    not_weyl = {"n": 9, "W": not_weyl_W.to_json()["W"],
                "J": fix_trace(good.Jh.scale * good.Jh.ints, not_weyl_W).to_json()["J"]}
    # exact input only: a zero denominator, and a float even where its value is right
    zero_den_W, zero_den_J, float_W = good.to_json(), good.to_json(), good.to_json()
    zero_den_W["W"][0][1][0][1] = "1/0"
    zero_den_J["J"][0][0] = "1/0"
    float_W["W"][0][0][0][0] = 0.0
    for doc in (short, wrong_trace, not_weyl, '{"n": 9, "W": [', {"n": 9},
                zero_den_W, zero_den_J, float_W):
        res = runner.invoke(main, ["parametrix", "--n", "9", "--jet-file", _jet_file(tmp_path, doc)])
        assert res.exit_code == 2, res.output
        assert "bad jet file" in res.output


def test_verify_tolerances_pinned(runner):
    """The CLI's tolerances equal the acceptance numbers."""
    want = {
        "asymptotics.flat[n=5]": 0.02,
        "asymptotics.high[n=10]": 0.02,
        "asymptotics.n9[n=9]": 0.05,
        "asymptotics.n8[n=8]": 0.10,
        "spectral.theta4_const[n=5,L=64]": 1e-8,
        "spectral.duality[n=5,L=64]": 1e-10,
        "spectral.theta2_duality[n=5,L=64]": 1e-8,
        "spectral.mobius[n=5,L=64]": 1e-6,
        "constants.moments[n=5]": 1e-12,
        "constants.duality[n=5]": 1e-14,
        "bubble.pde[n=5]": "exact",
    }
    got = {}
    for args in (["constants", "--n", "5"], ["bubbles", "--n", "5"],
                 ["spectral", "--n", "5"], ["asymptotics"]):
        res = runner.invoke(main, ["verify", *args])
        assert res.exit_code == 0, res.output
        got.update({r["check"]: r["tolerance"] for r in json.loads(res.stdout)["reports"]})
    assert got == want


def test_subcommand_tolerances_pinned(runner):
    """The spectral and asymptotics subcommands' tolerances equal the
    acceptance numbers: criteria 6, 7 and 8 for spectral, and the fit
    rtols of criterion 9 for every case (lowdim fits the same mass term as
    flat, with its 2%)."""
    want = {
        "spectral.theta4_constant": 1e-8,
        "spectral.mobius_invariance": 1e-6,
        "spectral.iteration_bounded": 1e-6,
        "spectral.fixed_point_drift": 1e-8,
        "asymptotics.ratio_coefficient[flat,n=5]": 0.02,
        "asymptotics.numerator_coeff[flat,n=5]": 0.02,
        "asymptotics.ratio_coefficient[lowdim,n=6]": 0.02,
        "asymptotics.numerator_coeff[lowdim,n=6]": 0.02,
        "asymptotics.ratio_coefficient[high,n=10]": 0.02,
        "asymptotics.numerator_coeff[high,n=10]": 0.02,
        "asymptotics.norm_integral_coeff[high,n=10]": 0.02,
        "asymptotics.ratio_coefficient[n9,n=9]": 0.05,
        "asymptotics.ratio_coefficient[n8,n=8]": 0.10,
        "asymptotics.numerator_log_coeff[n8]": 0.10,
    }
    got = {}
    for args in (["spectral", "--n", "5"], ["asymptotics", "--case", "flat", "--n", "5"],
                 ["asymptotics", "--case", "lowdim", "--n", "6"],
                 ["asymptotics", "--case", "high", "--n", "10"],
                 ["asymptotics", "--case", "n9", "--n", "9"],
                 ["asymptotics", "--case", "n8", "--n", "8"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        got.update({r["check"]: r["tolerance"] for r in json.loads(res.stdout)["reports"]})
    assert got == want


def _report_check(res, check_id) -> dict:
    return next(r for r in json.loads(res.stdout)["reports"] if r["check"] == check_id)


def test_failing_weyl_check_names_its_witness(runner, monkeypatch):
    from qcurv import tensor

    real, calls = tensor.weyl_identities, []

    def broken(W, Jh):  # lap_quartic fails on the second tensor, seed 2
        calls.append(W.n)
        return [(name, ok and not (len(calls) == 2 and name == "lap_quartic"))
                for name, ok in real(W, Jh)]

    monkeypatch.setattr(tensor, "weyl_identities", broken)
    res = runner.invoke(main, ["verify", "weyl", "--n", "6", "--trials", "3"])
    assert res.exit_code == 1, res.output
    check = _report_check(res, "weyl.identities[n=6,trials=3]")
    assert check["computed"] == "n=6,seed=2: lap_quartic" and check["pass"] is False
    assert "[FAIL] weyl.identities[n=6,trials=3]" in res.stderr


def test_failing_polyalg_check_names_its_witness(runner, monkeypatch):
    from qcurv import polyalg

    real, calls = polyalg.solve_residual, []

    def broken(n, psi, rhs):  # the fifth solve, trial 4, leaves a residual
        calls.append(n)
        residual = real(n, psi, rhs)
        if len(calls) == 5:
            residual += polyalg.LogRadialExpansion.from_poly(polyalg.HomogPoly.constant(n, 1))
        return residual

    monkeypatch.setattr(polyalg, "solve_residual", broken)
    res = runner.invoke(main, ["verify", "polyalg"])
    assert res.exit_code == 1, res.output
    assert _report_check(res, "polyalg.solver[trials=40]")["computed"] == "trial=4: solve_residual"
    assert _report_check(res, "polyalg.decomposition[trials=40]")["computed"] is True


def test_cli_computes_no_identity_itself():
    # each exact identity is defined in the library module that owns it;
    # the CLI only runs the named lists
    import ast
    import pathlib

    import qcurv.cli

    tree = ast.parse(pathlib.Path(qcurv.cli.__file__).read_text())
    called = {getattr(node.func, "attr", getattr(node.func, "id", None))
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not called & {"laplacian", "reassemble", "apply_AA", "invariants_hold",
                         "pulled_constant"}
    assert called >= {"weyl_identities", "split_identities", "solve_residual", "mobius_drifts"}


def test_psi4_solved_once_per_jet(runner, monkeypatch):
    import qcurv.parametrix as par

    calls = []
    solve = par.psi4_solve
    monkeypatch.setattr(par, "psi4_solve", lambda jet: calls.append(jet.n) or solve(jet))
    assert runner.invoke(main, ["parametrix", "--n", "9"]).exit_code == 0
    assert calls == [9]
    calls.clear()
    assert runner.invoke(main, ["verify", "parametrix", "--n", "8,9", "--trials", "2"]).exit_code == 0
    assert calls == [8, 8, 9, 9]


def test_cli_import_leaves_scipy_special_out():
    import os
    import subprocess
    import sys

    import qcurv

    src = os.path.dirname(os.path.dirname(qcurv.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, qcurv.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"
    # the spectral path builds its Gauss-Jacobi rules without scipy
    code = ("import sys\n"
            "from click.testing import CliRunner\n"
            "from qcurv.cli import main\n"
            "for argv in (['spectral'], ['verify', 'spectral']):\n"
            "    assert CliRunner().invoke(main, argv).exit_code == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_no_library_module_imports_scipy():
    # scipy is a test-only dependency: the oracles that use it live in tests/
    import ast
    import pathlib
    import tomllib

    import qcurv

    src = pathlib.Path(qcurv.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert len(modules) >= 9
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(nm.split(".")[0] == "scipy" for nm in names), (path.name, names)
    pyproject = tomllib.loads((src.parent.parent / "pyproject.toml").read_text())
    assert not any(d.startswith("scipy") for d in pyproject["project"]["dependencies"])


def test_parametrix_jet_file_past_int64_bound_usage_error(runner, tmp_path):
    # n = 18 with entries near 1e7: |W|^2 would overflow int64
    W = np.full((18,) * 4, "10000000/1", dtype=object)
    W[0, 0, 0, 0] = "9999999/1"
    doc = {"n": 18, "W": W.tolist(), "J": [["0/1"] * 18 for _ in range(18)]}
    res = runner.invoke(main, ["parametrix", "--n", "18", "--jet-file", _jet_file(tmp_path, doc)])
    assert res.exit_code == 2, res.output
    assert "too large" in res.output


@pytest.mark.parametrize("args", [
    ["spectral", "--n", "4"],
    ["constants", "--n", "4"],
    ["bubbles", "--n", "4"],
    ["parametrix", "--n", "5..7"],
    ["parametrix", "--n", "7,8"],
    ["weyl", "--n", "3"],
])
def test_verify_below_suite_minimum_usage_error(runner, args):
    res = runner.invoke(main, ["verify", *args])
    assert res.exit_code == 2, res.output
    assert "needs n >=" in res.output


@pytest.mark.parametrize("argv", [
    ["parametrix", "--n", "{past}"],
    ["parametrix", "--n", "{past}", "--jet-file", "{jet}"],
    ["parametrix", "--n", "200"],
    ["verify", "weyl", "--n", "{past}"],
    ["verify", "weyl", "--n", "38..{past}"],
    ["verify", "parametrix", "--n", "{past}", "--trials", "1"],
    ["asymptotics", "--case", "high", "--n", "{past}"],
])
def test_weyl_dimension_capped(runner, monkeypatch, tmp_path, argv):
    def no_tensor(*a, **k):
        raise AssertionError("a Weyl tensor was built past the cap")

    for module in (tensor, parametrix):
        monkeypatch.setattr(module, "random_weyl", no_tensor)
    monkeypatch.setattr(tensor.WeylTensor, "from_json", no_tensor)
    # a jet file of the capped dimension is refused before it is read
    jet = _jet_file(tmp_path, {"n": tensor.MAX_N + 1, "W": [], "J": []})
    res = runner.invoke(main, [a.format(past=tensor.MAX_N + 1, jet=jet) for a in argv])
    assert res.exit_code == 2, res.output
    assert f"n <= {tensor.MAX_N}" in res.output


def test_verify_weyl_passes_at_the_dimension_cap(runner):
    res = runner.invoke(main, ["verify", "weyl", "--n", str(tensor.MAX_N), "--trials", "1"])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("n", ["1", "3"])
def test_asymptotics_without_weyl_tensor_usage_error(runner, n):
    # Weyl tensors vanish below n = 4, so there is no |W|^2 to normalize
    res = runner.invoke(main, ["asymptotics", "--case", "high", "--n", n])
    assert res.exit_code == 2, repr(res.exception)


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_trials_must_be_positive(runner, trials):
    res = runner.invoke(main, ["verify", "weyl", "--n", "5", "--trials", trials])
    assert res.exit_code == 2, res.output


def test_lambda_series_evaluated_once_per_model(runner, monkeypatch):
    import qcurv.asymptotics as asym

    calls = []
    evaluate = asym.evaluate_model
    monkeypatch.setattr(asym, "evaluate_model",
                        lambda model, lam: calls.append(lam) or evaluate(model, lam))
    assert runner.invoke(main, ["asymptotics", "--case", "high", "--n", "10"]).exit_code == 0
    assert calls == list(asym.CASES["high"].lambdas)


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("seed", [1, 3])
def test_parametrix_low_dimensions_pass(runner, n, seed):
    # psi_4 belongs to the remainder below n = 8, so no phi_4 source is owed
    res = runner.invoke(main, ["parametrix", "--n", str(n), "--seed", str(seed)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["remainder"] == "O4(r)"


@pytest.mark.parametrize("args", [
    ["verify", "spectral", "--n", "5", "--L", "0"],
    ["verify", "spectral", "--n", "5", "--L", "-3"],
    ["verify", "all", "--L", "1"],
    ["spectral", "--L", "1", "--init", "perturbed"],
    ["spectral", "--L", "0"],
    ["spectral", "--iters", "-1"],
    ["asymptotics", "--case", "flat", "--n", "5", "--lambdas", "0.1,x,0.02,0.01"],
    ["asymptotics", "--case", "flat", "--n", "5", "--a0", "nan"],
    ["asymptotics", "--case", "flat", "--n", "5", "--a0", "inf"],
    ["asymptotics", "--case", "flat", "--n", "5", "--a0", "-inf"],
    ["asymptotics", "--case", "flat", "--n", "5", "--a0", "1e200"],
    ["asymptotics", "--case", "high", "--n", "10", "--lambdas", "1e-80,1e-81,1e-82,1e-83"],
])
def test_bad_numeric_options_usage_error(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output


@pytest.mark.parametrize("args", [
    ["asymptotics", "--case", "flat", "--n", "5", "--a0", "1e200"],
    ["asymptotics", "--case", "lowdim", "--n", "6", "--a0", "-1e200"],
    ["asymptotics", "--case", "high", "--n", "10", "--lambdas", "1e-80,1e-81,1e-82,1e-83"],
])
def test_overflowing_asymptotics_inputs_refused_before_quadrature(runner, monkeypatch, args):
    def no_quadrature(model, lam):
        raise AssertionError("a refused input reached the quadratures")

    monkeypatch.setattr(asymptotics, "evaluate_model", no_quadrature)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = runner.invoke(main, args)
    assert res.exit_code == 2, repr(res.exception)
    assert "overflow" in res.output


@pytest.mark.parametrize("case,n,degree", [
    ("high", 10, 2001), ("n8", 8, asymptotics.MAX_CUTOFF_DEGREE + 2), ("flat", 5, 39),
    ("lowdim", 6, 35), ("n9", 9, 7), ("high", 10, 10),
])
def test_cutoff_degree_bounded(runner, monkeypatch, case, n, degree):
    def no_quadrature(model, lam):
        raise AssertionError("a refused degree reached the quadratures")

    monkeypatch.setattr(asymptotics, "evaluate_model", no_quadrature)
    args = ["asymptotics", "--case", case, "--n", str(n), "--cutoff-degree", str(degree)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = runner.invoke(main, args)
    assert res.exit_code == 2, repr(res.exception)
    assert (f"9<=x<={asymptotics.MAX_CUTOFF_DEGREE}" in res.output
            or f"odd and in [9, {asymptotics.MAX_CUTOFF_DEGREE}]" in res.output), res.output


@pytest.mark.parametrize("case,n", [("flat", 5), ("lowdim", 6), ("n8", 8), ("n9", 9)])
def test_cutoff_degree_at_bound_passes(runner, case, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = runner.invoke(main, ["asymptotics", "--case", case, "--n", str(n),
                                   "--cutoff-degree", str(asymptotics.MAX_CUTOFF_DEGREE)])
    assert res.exit_code == 0, res.output
    assert f"9<=x<={asymptotics.MAX_CUTOFF_DEGREE}" in runner.invoke(
        main, ["asymptotics", "--help"]).output


def test_overflowing_lambda_grid_is_named(runner):
    res = runner.invoke(main, ["asymptotics", "--case", "high", "--n", "10",
                               "--lambdas", "1e-80,1e-81,1e-82,1e-83"])
    assert res.exit_code == 2
    assert "overflow" in res.output and "[1e-80, 1e-81, 1e-82, 1e-83]" in res.output


@pytest.mark.parametrize("argv", [["spectral"], ["verify", "spectral"]])
def test_truncation_degree_capped(runner, monkeypatch, argv):
    def no_solver(*a, **k):
        raise AssertionError("a solver was built past the cap")

    monkeypatch.setattr(spectral, "SphereSolver", no_solver)
    res = runner.invoke(main, [*argv, "--L", str(spectral.MAX_L + 1)])
    assert res.exit_code == 2, res.output
    assert f"2<=x<={spectral.MAX_L}" in res.output
    assert f"2<=x<={spectral.MAX_L}" in runner.invoke(main, [*argv, "--help"]).output


@pytest.mark.parametrize("argv", [["spectral", "--iters", "2"], ["verify", "spectral"]])
def test_spectral_norm_underflow_usage_error(runner, argv):
    # the t = 4 pullback of a constant has an L^p norm that underflows to 0
    res = runner.invoke(main, [*argv, "--n", "400", "--L", "8"])
    assert res.exit_code == 2, repr(res.exception)
    assert "n=400, L=8" in res.output


@pytest.mark.parametrize("argv,shape", [
    (["spectral", "--n", "410", "--L", "8", "--iters", "2"], "n=410, L=8"),
    (["verify", "spectral", "--n", "410", "--L", "2"], "n=410, L=2"),
    (["spectral", "--n", "398", "--L", "8", "--iters", "2"], "n=398, L=8"),
    (["spectral", "--n", "399", "--L", "2", "--iters", "2"], "n=399, L=2"),
    (["verify", "spectral", "--n", "399", "--L", "8"], "n=399, L=8"),
])
def test_pulled_back_constant_out_of_range_names_the_dilation(runner, argv, shape):
    # the weight 4^{-(n+4)/2} of the t = 4 pullback takes the constant out of
    # the float range: its coefficients underflow to 0, or its norm does
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = runner.invoke(main, argv)
    assert res.exit_code == 2, repr(res.exception)
    assert "dilation t=4" in res.output and shape in res.output


@pytest.mark.parametrize("argv,shape", [
    (["spectral", "--n", "2000", "--L", "8"], "n=2000, L=8"),
    (["verify", "spectral", "--n", "454", "--L", "2"], "n=454, L=2"),
    (["spectral", "--n", "440", "--L", "2", "--iters", "2"], "n=440, L=2"),
    (["spectral", "--n", "326", "--L", "256"], "n=326, L=256"),
])
def test_large_n_refused_before_any_transform(runner, monkeypatch, argv, shape):
    # the sphere area or a Gauss-Jacobi weight leaves the normal floats
    def no_transform(*a, **k):
        raise AssertionError("a refused shape reached a transform")

    for name in ("synthesize", "analyze", "synthesize_at"):
        monkeypatch.setattr(spectral.SphereSolver, name, no_transform)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = runner.invoke(main, argv)
    assert res.exit_code == 2, repr(res.exception)
    assert shape in res.output


@pytest.mark.parametrize("argv", [["spectral", "--iters", "2"], ["verify", "spectral"]])
def test_spectral_n327_never_crashes(runner, argv):
    # past n = 326 the sphere norms approach the underflow range: a run
    # either reports or refuses its configuration by name, never a traceback
    res = runner.invoke(main, [*argv, "--n", "327", "--L", "8"])
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    if res.exit_code == 2:
        assert "n=327, L=8" in res.output
    else:
        assert res.exit_code in (0, 1)
        assert json.loads(res.stdout)["pass"] is (res.exit_code == 0)


@pytest.mark.parametrize("args", [
    ["constants", "--n", "341"],
    ["constants", "--n", "5..400"],
    ["constants", "--n", "327"],
    ["verify", "constants", "--n", "327"],
])
def test_constants_past_normal_moments_usage_error(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "n <= 326" in res.output


def test_constants_pass_at_last_normal_moment(runner):
    assert runner.invoke(main, ["verify", "constants", "--n", "326"]).exit_code == 0


@pytest.mark.parametrize("args,flag", [
    (["all", "--n", "5..6"], "--n"),
    (["polyalg", "--n", "5"], "--n"),
    (["asymptotics", "--n", "5"], "--n"),
    (["constants", "--trials", "3"], "--trials"),
    (["bubbles", "--trials", "3"], "--trials"),
    (["spectral", "--trials", "3"], "--trials"),
    (["asymptotics", "--trials", "3"], "--trials"),
    (["weyl", "--L", "32"], "--L"),
    (["polyalg", "--L", "32"], "--L"),
    (["parametrix", "--L", "32"], "--L"),
    (["constants", "--L", "32"], "--L"),
    (["bubbles", "--L", "32"], "--L"),
    (["asymptotics", "--L", "32"], "--L"),
])
def test_verify_refuses_option_suite_ignores(runner, args, flag):
    res = runner.invoke(main, ["verify", *args])
    assert res.exit_code == 2, res.output
    assert f"verify {args[0]} takes no {flag}" in res.output


def test_report_refuses_non_finite():
    from qcurv.report import dump_report

    for x in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            dump_report({"x": x})
