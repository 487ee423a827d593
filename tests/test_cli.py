"""CLI contract: exit codes, formats, reproducibility."""

import copy
import dataclasses
import functools
import inspect
import json
import operator
import warnings
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings, strategies as st

from qcurv import asymptotics, cli, parametrix, sphereforms, spectral, tensor
from qcurv.cli import main
from qcurv.report import SCHEMA
from test_polyalg import expansion_from_json
from test_tensor import legacy_jet


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
    # --format shapes stdout alone: a --report file is the JSON, and the
    # JSON goes to the file instead of stdout, as for every subcommand
    plain = runner.invoke(main, ["constants", "--format", "json"]).stdout
    out = tmp_path / "c.json"
    res = runner.invoke(main, ["constants", "--format", fmt, "--report", str(out)])
    assert res.exit_code == 0
    assert out.read_text() == plain
    assert f"report written to {out}" in res.stderr
    assert res.stdout == ("" if fmt == "json" else runner.invoke(main, ["constants"]).stdout)


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
    assert doc["schema"] == SCHEMA
    assert [(r["check"], r["computed"]) for r in doc["reports"]] == [("parametrix.identities", True)]
    assert doc["remainder"] == "O4(r^{9-n})"
    assert doc["pass"] is True


def test_parametrix_n8_log_term(runner):
    res = runner.invoke(main, ["parametrix", "--n", "8", "--seed", "1"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    # the log shell's polynomial is written once, in the expansion
    assert doc["log_terms"] == [{"deg": 4, "logpow": 1}]
    assert [(t["deg"], t["logpow"]) for t in doc["expansion"]["terms"]].count((4, 1)) == 1
    assert res.stdout.count('"poly"') == len(doc["expansion"]["terms"])
    assert doc["n8_log_coefficient"].startswith("-")


def test_parametrix_flat(runner):
    res = runner.invoke(main, ["parametrix", "--n", "7", "--flat"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["remainder"] == "Oinf(1)"
    assert doc["log_terms"] == []


def _unconfigured(stdout: str) -> str:
    """A parametrix report without its config, which its check repeats."""
    doc = json.loads(stdout)
    del doc["config"], doc["reports"][0]["inputs"]
    return json.dumps(doc, sort_keys=True)


def test_parametrix_jet_file_round_trip(runner, tmp_path):
    """A jet file, compact or legacy, gives the report of the seeded run it
    was written from, byte for byte outside the config: a jet file reads no
    seed."""
    jet = parametrix.random_jet(9, seed=5)
    seeded = runner.invoke(main, ["parametrix", "--n", "9", "--seed", "5"])
    for i, doc in enumerate((jet.to_json(), legacy_jet(jet))):
        jf = tmp_path / f"jet{i}.json"
        jf.write_text(json.dumps(doc))
        res = runner.invoke(main, ["parametrix", "--n", "9", "--jet-file", str(jf)])
        assert res.exit_code == 0
        assert json.loads(res.stdout)["config"] == {"n": 9, "seed": None, "flat": None}
        assert _unconfigured(res.stdout) == _unconfigured(seeded.stdout)
        res = runner.invoke(main, ["parametrix", "--n", "10", "--jet-file", str(jf)])
        assert res.exit_code == 2  # dimension mismatch


def test_parametrix_flat_and_jet_file_usage_error(runner, tmp_path):
    # a jet file is a curved jet: "flat": true beside it would misreport it
    jf = _jet_file(tmp_path, parametrix.random_jet(9, 2).to_json())
    res = runner.invoke(main, ["parametrix", "--n", "9", "--flat", "--jet-file", jf])
    assert res.exit_code == 2, res.output
    assert "parametrix --jet-file takes no --flat" in res.output


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
    assert doc["schema"] == SCHEMA
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


_DROP = object()


def _with(doc, path, value):
    """A deep copy of ``doc`` with the item at ``path`` set to ``value``, or
    deleted for _DROP."""
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = functools.reduce(operator.getitem, head, doc)
    if value is _DROP:
        del parent[last]
    else:
        parent[last] = value
    return doc


def _bad_jets() -> list:
    """Jet files for --n 9 that each break the jet format or a jet identity:
    every case in the legacy "p/q" tables, its twin in the compact form, and
    the cases only the compact form has."""
    good = parametrix.random_jet(9, seed=5)
    legacy, compact = legacy_jet(good), good.to_json()
    # breaks the pair symmetries (its compact twin, which keeps them, the
    # traces); J is fixed so the trace constraint holds
    ints = good.W.ints.copy()
    ints[0, 1, 0, 1] += 1
    not_weyl_W = tensor.WeylTensor(9, ints, good.W.scale)
    not_weyl = parametrix.CurvatureJet(
        9, not_weyl_W, tensor.fix_trace(good.Jh.ints, good.Jh.scale, not_weyl_W))
    W_ints, J_ints = compact["W"]["ints"], compact["J"]["ints"]
    return [
        # legacy: a short W, a wrong trace, a W that is not Weyl, truncated
        # JSON, no W or J, zero denominators, and a float even where its
        # value is right
        _with(legacy, ("W",), legacy["W"][:-1]),
        _with(legacy, ("J", 0, 0), str(Fraction(legacy["J"][0][0]) + 1)),
        legacy_jet(not_weyl),
        '{"n": 9, "W": [',
        {"n": 9},
        _with(legacy, ("W", 0, 1, 0, 1), "1/0"),
        _with(legacy, ("J", 0, 0), "1/0"),
        _with(legacy, ("W", 0, 0, 0, 0), 0.0),
        # their compact twins
        _with(compact, ("W", "ints"), W_ints[:-1]),
        _with(compact, ("J", "ints", 0, 0), J_ints[0][0] + 1),
        not_weyl.to_json(),
        '{"n": 9, "W": {"scale": ',
        _with(compact, ("J",), _DROP),
        _with(compact, ("W", "ints", 1), "1/0"),
        _with(compact, ("J", "scale"), "1/0"),
        _with(compact, ("W", "ints", 0), float(W_ints[0])),
        # compact only: a long ints list, an n far past its length, a
        # missing or inexact scale, a float entry, and a W that breaks
        # Bianchi
        _with(compact, ("W", "ints"), W_ints + [0]),
        _with(compact, ("n",), 10**6),  # refused before any array of n^4 entries is made
        _with(compact, ("W", "scale"), _DROP),
        *(_with(compact, ("W", "scale"), scale) for scale in ("1/0", 0.5, True)),
        _with(compact, ("J", "ints", 1, 1), 2.5),
        # W[0,1,2,3], at (0, 15) of the pair matrix, lies in no trace
        _with(compact, ("W", "ints", 15), W_ints[15] + 1),
    ]


def test_parametrix_bad_jet_files_usage_error(runner, tmp_path):
    for doc in _bad_jets():
        res = runner.invoke(main, ["parametrix", "--n", "9", "--jet-file", _jet_file(tmp_path, doc)])
        assert res.exit_code == 2, (doc if isinstance(doc, str) else doc.get("W", {}), res.output)
        assert "bad jet file" in res.output


def _json_paths(doc, path=()):
    """Every path into a JSON document, the root included."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _json_paths(value, (*path, key))


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                     max_leaves=6)
_JETS5 = (parametrix.random_jet(5, seed=2).to_json(), legacy_jet(parametrix.random_jet(5, seed=2)))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_jet_files_never_crash(runner, tmp_path, data):
    """A jet file with one item replaced or dropped exits 0, 1 or 2, never
    with an uncaught exception, and a report it writes is strict JSON."""
    doc = data.draw(st.sampled_from(_JETS5))
    path = data.draw(st.sampled_from(list(_json_paths(doc))[1:]))
    doc = _with(doc, path, data.draw(_JSON | st.just(_DROP)))
    _assert_cli_contract(runner.invoke(main, ["parametrix", "--n", "5", "--jet-file",
                                              _jet_file(tmp_path, doc)]))


_SPECTRAL_TOLERANCES = {"theta4_const": 1e-8, "duality": 1e-10, "theta2_duality": 1e-8,
                        "mobius": 1e-6}
# the tolerance of every check that `verify all --seed 1` emits, keyed by
# check id: the acceptance numbers of criteria 6, 7 and 8 for spectral, and
# the fit rtols of criterion 9 for every case (lowdim fits the same mass term
# as flat, with its 2%)
VERIFY_TOLERANCES = {
    **{f"weyl.identities[n={n},trials=10]": "exact" for n in range(5, 11)},
    "polyalg.decomposition[trials=40]": "exact",
    "polyalg.solver[trials=40]": "exact",
    **{f"parametrix.identities[n={n},trials=10]": "exact" for n in range(8, 13)},
    **{f"constants.moments[n={n}]": 1e-12 for n in range(5, 13)},
    **{f"constants.duality[n={n}]": 1e-14 for n in range(5, 13)},
    **{f"bubbles.pde[n={n}]": "exact" for n in range(5, 13)},
    **{f"spectral.{name}[n={n},L=64]": tol
       for n in range(5, 10) for name, tol in _SPECTRAL_TOLERANCES.items()},
    "asymptotics.flat[n=5]": 0.02,
    "asymptotics.numerator_coeff[flat,n=5]": 0.02,
    "asymptotics.high[n=10]": 0.02,
    "asymptotics.numerator_coeff[high,n=10]": 0.02,
    "asymptotics.norm_integral_coeff[high,n=10]": 0.02,
    "asymptotics.n9[n=9]": 0.05,
    "asymptotics.n8[n=8]": 0.10,
    "asymptotics.numerator_coeff[n8,n=8]": 0.10,
}
# the tolerance of every check that the pinned subcommands emit; the suite
# checks they share with `verify` read their tolerance from VERIFY_TOLERANCES,
# so one id has one tolerance wherever it is emitted
SUBCOMMAND_TOLERANCES = {
    **{k: VERIFY_TOLERANCES[k] for k in (
        *(f"spectral.{name}[n={n},L=64]" for n in (5, 9) for name in _SPECTRAL_TOLERANCES),
        "asymptotics.flat[n=5]", "asymptotics.numerator_coeff[flat,n=5]",
        "asymptotics.high[n=10]", "asymptotics.numerator_coeff[high,n=10]",
        "asymptotics.norm_integral_coeff[high,n=10]", "asymptotics.n9[n=9]",
        "asymptotics.n8[n=8]", "asymptotics.numerator_coeff[n8,n=8]")},
    **{k: VERIFY_TOLERANCES[k] for n in range(5, 13)
       for k in (f"constants.moments[n={n}]", f"constants.duality[n={n}]")},
    **{f"spectral.{name}[n={n},L=41]": tol
       for n in (6, 8) for name, tol in _SPECTRAL_TOLERANCES.items()},
    "parametrix.identities": "exact",
    "asymptotics.lowdim[n=6]": 0.02,
    "spectral.iteration_bounded": 1e-6,
    "spectral.fixed_point_drift": 1e-8,
    "asymptotics.numerator_coeff[lowdim,n=6]": 0.02,
    # the pins that set --seed, --a0 and --lambdas
    "asymptotics.flat[n=6]": 0.02,
    "asymptotics.numerator_coeff[flat,n=6]": 0.02,
    "asymptotics.high[n=12]": 0.02,
    "asymptotics.numerator_coeff[high,n=12]": 0.02,
    "asymptotics.norm_integral_coeff[high,n=12]": 0.02,
}


def _emitted_tolerances(runner, argvs) -> dict:
    """Check id -> tolerance over the reports of `argvs`; an id emitted twice
    must carry one tolerance."""
    got = {}
    for argv in argvs:
        res = runner.invoke(main, argv)
        assert res.exit_code == 0, res.output
        for r in json.loads(res.stdout).get("reports", []):
            assert got.setdefault(r["check"], r["tolerance"]) == r["tolerance"], r["check"]
    return got


def test_verify_tolerances_pinned(runner):
    """The tolerances of `verify all` equal the acceptance numbers."""
    got = _emitted_tolerances(runner, [["verify", "all", "--seed", "1"]])
    assert set(got) - set(VERIFY_TOLERANCES) == set(), "check ids missing from VERIFY_TOLERANCES"
    assert got == VERIFY_TOLERANCES


def test_subcommand_tolerances_pinned(runner):
    """The tolerances of every pinned subcommand equal the acceptance numbers."""
    from test_report import PINNED

    # a LaTeX table on stdout carries no reports
    argvs = [a for a, _ in PINNED if a[0] != "verify" and "latex" not in a]
    got = _emitted_tolerances(runner, argvs)
    assert set(got) - set(SUBCOMMAND_TOLERANCES) == set(), \
        "check ids missing from SUBCOMMAND_TOLERANCES"
    assert got == SUBCOMMAND_TOLERANCES


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


def test_verify_polyalg_draws_its_trials_lazily(runner, monkeypatch):
    # both checks fail at trial 0, so a run that draws its polynomials as it
    # goes needs one draw per check, whatever --trials says
    from qcurv import polyalg

    real_init, drawn = polyalg.HomogPoly.__init__, []

    def counted(self, *args, **kwargs):
        drawn.append(1)
        if len(drawn) > 50:
            raise RuntimeError("drew more than 50 polynomials")
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(polyalg.HomogPoly, "__init__", counted)
    monkeypatch.setattr(polyalg, "split_identities", lambda p, blocks: [("reassembles", False)])
    monkeypatch.setattr(polyalg, "solve_residual", lambda n, psi, rhs:
                        polyalg.LogRadialExpansion.from_poly(polyalg.HomogPoly.constant(n, 1)))
    res = runner.invoke(main, ["verify", "polyalg", "--trials", "1000000000"])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), repr(res.exception)
    assert "Traceback" not in res.output
    assert _report_check(res, "polyalg.decomposition[trials=1000000000]")["computed"] == (
        "trial=0: reassembles")
    assert _report_check(res, "polyalg.solver[trials=1000000000]")["computed"] == (
        "trial=0: solve_residual")
    assert len(drawn) == 2


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
                         "pulled_constant", "psi4_shell"}
    assert called >= {"weyl_identities", "split_identities", "solve_residual", "mobius_drifts",
                      "shell_identities"}


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
    # the spectral path builds its quadrature rules without scipy
    code = ("import sys\n"
            "from click.testing import CliRunner\n"
            "from qcurv.cli import main\n"
            "for argv in (['spectral'], ['verify', 'spectral']):\n"
            "    assert CliRunner().invoke(main, argv).exit_code == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


_TOML_STRING = r'"(?:[^"\\\n]|\\.)*"|\'[^\'\n]*\''


def project_dependencies(text: str) -> list[str]:
    """``[project] dependencies`` of a pyproject.toml without tomllib, which
    Python 3.10 lacks: the strings of the array that follows the key, each a
    basic (JSON-escaped) or literal string, with comments skipped."""
    import re

    section = re.search(r"^\[project\]\s*$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    array = re.search(rf"^dependencies\s*=\s*\[((?:\s|,|#[^\n]*|{_TOML_STRING})*)\]",
                      section, re.M).group(1)
    items = re.findall(rf"({_TOML_STRING})|#[^\n]*", array)
    return [json.loads(s) if s[0] == '"' else s[1:-1] for s in items if s]


def test_no_library_module_imports_scipy():
    # scipy is a test-only dependency: the oracles that use it live in tests/
    import ast
    import pathlib

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
    text = (src.parent.parent / "pyproject.toml").read_text()
    dependencies = project_dependencies(text)
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        pass
    else:
        assert dependencies == tomllib.loads(text)["project"]["dependencies"]
    assert not any(d.startswith("scipy") for d in dependencies)


def test_no_library_code_only_the_tests_use():
    # every function and class in src/qcurv, bar dunders, the CLI's
    # subcommands and overrides of a base class's method, is named outside
    # its own definition in the library, the benchmark or a demo.  Comments
    # and docstrings do not count; other strings do, since they hold the
    # names that hasattr and getattr read.  Dunders are held by the reach
    # guard in tests/test_reach_audit.py: a statement of one that no run
    # reaches is a refusal or is on its allowlist.  The package __init__ is
    # its docstring alone, so a re-export there cannot count as a use.
    import ast
    import importlib
    import io
    import pathlib
    import re
    import tokenize
    from collections import defaultdict

    import qcurv

    src = pathlib.Path(qcurv.__file__).parent
    init = ast.parse((src / "__init__.py").read_text())
    assert len(init.body) == 1 and ast.get_docstring(init)
    root = src.parent.parent
    files = [*sorted(set(src.glob("*.py")) - {src / "__init__.py"}),
             *sorted((root / "bench").glob("*.py")), *sorted((root / "demos").glob("*.py"))]
    assert len(files) >= 19
    defs, uses = [], defaultdict(list)
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for path in files:
        text = path.read_text()
        tree = ast.parse(text, str(path))
        docstrings, exempt = set(), set()
        if path.parent == src:
            module = importlib.import_module(f"qcurv.{path.stem}")
            for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
                bases = getattr(module, cls.name).__mro__[1:]
                exempt.update(f.lineno for f in cls.body if isinstance(f, ast.FunctionDef)
                              and any(hasattr(b, f.name) for b in bases))
        for node in ast.walk(tree):
            if not isinstance(node, scopes):
                continue
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add((first.lineno, first.col_offset))
            if path.parent != src or isinstance(node, ast.Module) or node.lineno in exempt:
                continue
            dunder = node.name.startswith("__") and node.name.endswith("__")
            command = any(ast.unparse(d).startswith("main.command(") for d in node.decorator_list)
            if not (dunder or command):
                defs.append((node.name, path, node.lineno, node.end_lineno))
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                uses[tok.string].append((path, tok.start[0]))
            elif tok.type == tokenize.STRING and tok.start not in docstrings:
                for word in re.findall(r"[A-Za-z_]\w*", tok.string):
                    uses[word].append((path, tok.start[0]))
    assert len(defs) >= 100
    unused = sorted(f"{path.name}:{line}: {name}" for name, path, line, end in defs
                    if all(p == path and line <= at <= end for p, at in uses[name]))
    assert unused == []


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


@pytest.mark.parametrize("argv", [
    ["parametrix", "--n", "9"],
    ["asymptotics", "--case", "high", "--n", "10"],
    ["verify", "weyl", "--n", "5", "--trials", "1"],
    # runs that never read the seed refuse it too
    ["parametrix", "--n", "8", "--flat"],
    ["asymptotics", "--case", "flat", "--n", "5"],
    ["verify", "constants"],
    ["verify", "bubbles", "--n", "5"],
    ["verify", "spectral", "--n", "5"],
])
def test_negative_seed_usage_error(runner, argv):
    res = runner.invoke(main, [*argv, "--seed", "-1"])
    assert res.exit_code == 2, repr(res.exception)
    assert "'--seed'" in res.output and "x>=0" in res.output


def _probe(*args, **kwargs):
    raise ValueError("probe")


# subcommand -> a library function it calls, and a run that reaches it
_LIBRARY_CALLS = [
    (sphereforms, "constants_table", ["constants", "--n", "5"]),
    (parametrix, "green_leading", ["parametrix", "--n", "9"]),
    (asymptotics, "fit_expansion", ["asymptotics", "--case", "flat", "--n", "5"]),
    (spectral, "spectral_report", ["spectral", "--L", "8", "--iters", "1"]),
    (tensor, "weyl_identities", ["verify", "weyl", "--n", "5", "--trials", "1"]),
]


@pytest.mark.parametrize("module,name,argv", _LIBRARY_CALLS, ids=[a[0] for *_, a in _LIBRARY_CALLS])
def test_library_refusal_is_a_usage_error(runner, monkeypatch, tmp_path, module, name, argv):
    """A ValueError raised inside any subcommand's computation exits 2 with
    its message and the subcommand's usage line, writes no report and
    prints no traceback."""
    monkeypatch.setattr(module, name, _probe)
    out = tmp_path / "r.json"
    res = runner.invoke(main, [*argv, "--report", str(out)])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), repr(res.exception)
    assert "Error: probe" in res.output and f"Usage: main {argv[0]} " in res.output
    assert "Traceback" not in res.output and not out.exists()


@pytest.mark.parametrize("bad", ["missing directory", "directory", "empty"])
@pytest.mark.parametrize("module,name,argv", _LIBRARY_CALLS, ids=[a[0] for *_, a in _LIBRARY_CALLS])
def test_bad_report_path_is_a_usage_error(runner, monkeypatch, tmp_path, module, name, argv, bad):
    """A --report path in a missing directory, naming a directory, or empty
    exits 2 naming --report when the options are parsed, before any
    computation."""
    monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("computed before the refusal"))
    path = {"missing directory": tmp_path / "nodir" / "r.json", "directory": tmp_path,
            "empty": ""}[bad]
    res = runner.invoke(main, [*argv, "--report", str(path)])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), repr(res.exception)
    assert "'--report'" in res.output and "Traceback" not in res.output


def test_ill_conditioned_grid_refused_before_quadrature(runner, monkeypatch):
    monkeypatch.setattr(asymptotics, "evaluate_model",
                        lambda *a: pytest.fail("quadrature ran before the refusal"))
    res = runner.invoke(main, ["asymptotics", "--case", "n8", "--n", "8", "--lambdas",
                               "0.01,0.010000000001,0.010000000002,0.010000000003"])
    assert res.exit_code == 2, repr(res.exception)
    assert "ill-conditioned" in res.output


@pytest.mark.parametrize("n,a0", [(30, "1e-290"), (5, "1e-320")])
def test_tiny_a0_reports_its_failure(runner, tmp_path, n, a0):
    # the fit's relative error |f - e|/|e| leaves the float range: the
    # report writes it as null and the ratio check fails
    out = tmp_path / "r.json"
    res = runner.invoke(main, ["asymptotics", "--case", "flat", "--n", str(n), "--a0", a0,
                               "--report", str(out)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), repr(res.exception)
    assert "Traceback" not in res.output
    doc = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(f"non-strict JSON {c}"))
    assert doc["fit"]["rel_error"] is None and not doc["reports"][0]["pass"]


def test_unwritable_report_stays_a_program_fault(runner, monkeypatch):
    # a NaN in the payload is the program's fault, not the user's: the
    # ValueError of dump_report is not mapped to a usage error
    real = sphereforms.constants_table
    monkeypatch.setattr(sphereforms, "constants_table",
                        lambda ns: [{**row, "Theta4": float("nan")} for row in real(ns)])
    res = runner.invoke(main, ["constants", "--n", "5", "--format", "json"])
    assert isinstance(res.exception, ValueError) and res.exit_code == 1
    assert "Error:" not in res.output and res.stdout == ""


def test_constants_reports_its_checks(runner):
    # the constants report carries the checks behind its verdict, the same
    # as verify constants, check by check
    res = runner.invoke(main, ["constants", "--n", "5..6", "--format", "json"])
    suite = runner.invoke(main, ["verify", "constants", "--n", "5..6"])
    assert res.exit_code == suite.exit_code == 0
    reports = json.loads(res.stdout)["reports"]
    assert [r["check"] for r in reports] == [f"constants.{c}[n={n}]" for n in (5, 6)
                                             for c in ("moments", "duality")]
    assert reports == json.loads(suite.stdout)["reports"]
    for r in reports:
        assert f"[pass] {r['check']}" in res.stderr


def _no_quadrature(model, lam):
    raise AssertionError("quadrature ran")


@pytest.mark.parametrize("a0", ["0", "-0.0", "5e-324"])
def test_asymptotics_zero_closed_form_usage_error(runner, monkeypatch, a0):
    # A0 times a closed form is 0.0, so no relative check can hold: refused
    # before any quadrature, naming A0
    monkeypatch.setattr(asymptotics, "evaluate_model", _no_quadrature)
    res = runner.invoke(main, ["asymptotics", "--case", "flat", "--n", "5", f"--a0={a0}"])
    assert res.exit_code == 2, repr(res.exception)
    assert "A0 = " in res.output and "n=5" in res.output and "zero" in res.output


def test_asymptotics_negative_a0_still_runs(runner):
    res = runner.invoke(main, ["asymptotics", "--case", "flat", "--n", "5", "--a0=-1"])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("case,n,a0", [("n8", 8, "-7"), ("n9", 9, "-7"), ("high", 10, "1.0")])
def test_asymptotics_a0_refused_where_no_row_reads_it(runner, monkeypatch, case, n, a0):
    # a case that reads a jet reads no A0, even one given at its default
    monkeypatch.setattr(asymptotics, "evaluate_model", _no_quadrature)
    res = runner.invoke(main, ["asymptotics", "--case", case, "--n", str(n), "--a0", a0])
    assert res.exit_code == 2, repr(res.exception)
    assert f"asymptotics --case {case} takes no --a0" in res.output


def test_asymptotics_empty_lambdas_refused(runner, monkeypatch):
    # an empty grid is a bad --lambdas, not a request for the row's own
    monkeypatch.setattr(asymptotics, "evaluate_model", _no_quadrature)
    res = runner.invoke(main, ["asymptotics", "--case", "flat", "--n", "5", "--lambdas", ""])
    assert res.exit_code == 2, repr(res.exception)
    assert "bad --lambdas ''" in res.output


@pytest.mark.parametrize("n", [172, 360])
def test_asymptotics_closed_form_overflow_usage_error(runner, monkeypatch, n):
    # at n = 172 Gamma(n) in the split-check lead, at n = 360 Gamma(n/2) in
    # the flat numerator closed form, leave the float range: refused before
    # any quadrature, naming the case and n
    monkeypatch.setattr(asymptotics, "evaluate_model", _no_quadrature)
    res = runner.invoke(main, ["asymptotics", "--case", "flat", "--n", str(n),
                               "--lambdas", "0.2,0.21,0.22,0.23"])
    assert res.exit_code == 2, repr(res.exception)
    assert f"case 'flat' at n={n}" in res.output


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


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_parametrix_report_writes_the_green_expansion(runner, n):
    """A parametrix report holds ``GreenExpansion.to_json()`` whole: a curved
    jet at n = 5..7 carries the mass term A, and a flat jet carries none.
    Each written polynomial, the n = 8 log shell and the psi_4 shell among
    them, reads back through ``HomogPoly.from_vector`` to the shell it was
    written from (``expansion_from_json``)."""
    for argv, jet in ((["--seed", "1"], parametrix.random_jet(n, 1)),
                      (["--flat"], parametrix.CurvatureJet.flat(n))):
        res = runner.invoke(main, ["parametrix", "--n", str(n), *argv])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.stdout)
        green = parametrix.green_leading(jet)
        written = json.loads(json.dumps(green.to_json()))
        assert {key: doc[key] for key in written} == written
        assert expansion_from_json(doc["expansion"]) == green.expansion
        assert doc["expansion"]["radial_exp"] == f"{4 - n}/1"
        curved_low = n <= 7 and "--flat" not in argv
        assert doc.get("constant_term") == ("A" if curved_low else None)


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
    # a repeated lambda: four grid points, fewer distinct ones
    *(["asymptotics", "--case", case, "--n", n, "--lambdas", "0.04,0.04,0.04,0.04"]
      for case, n in (("flat", "5"), ("high", "10"), ("n9", "9"), ("lowdim", "6"))),
    ["asymptotics", "--case", "n8", "--n", "8", "--lambdas", "0.04,0.04,0.02,0.02"],
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


def test_overflowing_lambda_grid_is_named(runner):
    res = runner.invoke(main, ["asymptotics", "--case", "high", "--n", "10",
                               "--lambdas", "1e-80,1e-81,1e-82,1e-83"])
    assert res.exit_code == 2
    assert "overflow" in res.output and "[1e-80, 1e-81, 1e-82, 1e-83]" in res.output


def test_repeated_lambda_is_named_before_quadrature(runner, monkeypatch):
    def no_quadrature(model, lam):
        raise AssertionError("a refused grid reached the quadratures")

    monkeypatch.setattr(asymptotics, "evaluate_model", no_quadrature)
    res = runner.invoke(main, ["asymptotics", "--case", "n9", "--n", "9",
                               "--lambdas", "0.04,0.02,0.01,0.005,0.02"])
    assert res.exit_code == 2, repr(res.exception)
    assert "lambda 0.02 appears more than once" in res.output


def _assert_cli_contract(res):
    """Exit 0, 1 or 2, never an uncaught exception, and a report on stdout
    that parses as strict JSON.  The runner keeps a SystemExit as the
    exception only for a nonzero code."""
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
    assert res.exit_code in (0, 1, 2)
    if res.exit_code < 2:
        json.loads(res.stdout, parse_constant=lambda c: pytest.fail(f"non-strict JSON {c}"))


_EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -1e-320, 1e-290,
                1e-80, 1.0, 1.5, -0.5, 1e308]
_VALID_GRID = st.lists(st.floats(1e-3, 0.06), min_size=4, max_size=6, unique=True)
_GRIDS = st.one_of(
    st.just([]),  # the case's own grid
    _VALID_GRID,
    _VALID_GRID.map(lambda g: sorted(g, reverse=True)),
    _VALID_GRID.map(sorted),
    _VALID_GRID.map(lambda g: g[:3]),  # too short
    _VALID_GRID.map(lambda g: g + g[-1:]),  # one repeat
    st.tuples(_VALID_GRID, st.sampled_from(_EDGE_FLOATS + [-0.01, 0.3])).map(
        lambda t: t[0][:-1] + [t[1]]),  # one point non-finite, negative or out of range
    st.lists(st.sampled_from(_EDGE_FLOATS) | st.floats(-0.05, 0.3), max_size=7),
)
_CASE_N = st.sampled_from(sorted(asymptotics.CASES)).flatmap(
    lambda case: st.tuples(st.just(case),
                           st.integers(asymptotics.CASES[case].n_min - 1,
                                       asymptotics.CASES[case].n_min + 14)))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case_n=_CASE_N, grid=_GRIDS)
def test_asymptotics_options_never_crash(runner, case_n, grid):
    case, n = case_n
    args = ["asymptotics", "--case", case, "--n", str(n)]
    if grid:
        args += ["--lambdas", ",".join(map(repr, grid))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _assert_cli_contract(runner.invoke(main, args))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(5, 12), L=st.integers(2, 96), iters=st.integers(0, 3),
       damping=st.floats(0.01, 1.0) | st.sampled_from(_EDGE_FLOATS) | st.floats(-0.5, 1.5),
       init=st.sampled_from(["constant", "perturbed"]))
def test_spectral_options_never_crash(runner, n, L, iters, damping, init):
    args = ["spectral", "--n", str(n), "--L", str(L), "--iters", str(iters),
            "--damping", repr(damping), "--init", init]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _assert_cli_contract(runner.invoke(main, args))


# dimensions at and past the edges of the cheap suites: below 5, the
# moments' last normal n (326) and one past it; ranges at most three wide
_N_EDGES = [0, 4, 5, 6, 325, sphereforms.MOMENTS_MAX_N, sphereforms.MOMENTS_MAX_N + 1]
_N_RANGES = st.one_of(
    st.sampled_from(_N_EDGES).map(str),
    st.tuples(st.sampled_from(_N_EDGES), st.integers(0, 2)).map(lambda t: f"{t[0]}..{sum(t)}"),
    st.tuples(st.sampled_from(_N_EDGES), st.integers(1, 2)).map(lambda t: f"{sum(t)}..{t[0]}"),
    st.lists(st.sampled_from(_N_EDGES), min_size=1, max_size=3).map(lambda ns: ",".join(map(str, ns))),
    st.sampled_from(["", "..", "5..", "..7", "5..6..7", "five", "5;6", "5,,6", "1e3", "5.5",
                     "-5", "5..-1", " 5 "]),
    st.text(max_size=4),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_range=_N_RANGES, fmt=st.sampled_from([None, "csv", "json", "latex", "xml"]))
def test_constants_options_never_crash(runner, tmp_path, n_range, fmt):
    out = tmp_path / "constants.json"
    out.unlink(missing_ok=True)
    args = ["constants", "--n", n_range, "--report", str(out)] + (["--format", fmt] if fmt else [])
    res = runner.invoke(main, args)
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
    assert res.exit_code in (0, 1, 2)
    if res.exit_code == 2:
        assert "Error:" in res.output and not out.exists()
        return
    # csv and latex go to stdout only; the report is the JSON form either way
    text = out.read_text()
    doc = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-strict JSON {c}"))
    assert doc["pass"] is (res.exit_code == 0)
    assert doc["pass"] is all(r["pass"] for r in doc["reports"])
    if fmt == "json":
        assert res.stdout == ""
    elif fmt in (None, "csv"):
        assert len(res.stdout.splitlines()) == len(doc["rows"]) + 1


# suite -> the options it reads
_CHEAP_SUITES = {"constants": ("--n",), "bubbles": ("--n",), "spectral": ("--n", "--L"),
                 "polyalg": ("--trials", "--seed")}
_VERIFY_VALUES = {"--n": _N_RANGES, "--trials": st.integers(-1, 2), "--L": st.integers(-1, 96),
                  "--seed": st.integers(-2, 3)}


@st.composite
def _verify_options(draw):
    """A cheap suite and options for it: mostly those it reads, and in one
    draw of four also those it refuses."""
    suite = draw(st.sampled_from(sorted(_CHEAP_SUITES)))
    stray = draw(st.integers(0, 3)) == 0
    opts = {}
    for flag, values in _VERIFY_VALUES.items():
        if (stray or flag in _CHEAP_SUITES[suite]) and draw(st.booleans()):
            opts[flag] = draw(values)
    return suite, opts


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(suite_opts=_verify_options())
def test_verify_options_never_crash(runner, suite_opts):
    suite, opts = suite_opts
    args = ["verify", suite, *(a for flag, value in opts.items() for a in (flag, str(value)))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = runner.invoke(main, args)
    _assert_cli_contract(res)
    if res.exit_code == 2:
        assert "Error:" in res.output
    else:
        assert json.loads(res.stdout)["pass"] is (res.exit_code == 0)


# jet seeds at their edges: negative (refused), zero, and past 64 bits
_SEEDS = st.sampled_from([-1, 0, 2**63, 2**64]) | st.integers(1, 50)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case_n=_CASE_N, a0=st.none() | st.sampled_from(_EDGE_FLOATS) | st.floats(-3.0, 3.0),
       seed=st.none() | _SEEDS)
@example(case_n=("flat", 5), a0=-1e-320, seed=None)
@example(case_n=("flat", 19), a0=1e-300, seed=None)
def test_asymptotics_a0_seed_never_crash(runner, case_n, a0, seed):
    # --a0 is left out at times, so the cases that read a jet, which
    # refuse it, still reach their seeds
    case, n = case_n
    args = ["asymptotics", "--case", case, "--n", str(n)]
    for flag, value in (("--a0", a0), ("--seed", seed)):
        if value is not None:
            args += [flag, str(value)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _assert_cli_contract(runner.invoke(main, args))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.sampled_from([-1, 0, 4, 5, 6, 7, 8, 9, 12, tensor.MAX_N + 1]),
       seed=st.none() | _SEEDS, flat=st.booleans(),
       jet_n=st.none() | st.sampled_from([4, 5, 8, 9]))
@example(n=9, seed=-1, flat=False, jet_n=None)
def test_parametrix_options_never_crash(runner, tmp_path, n, seed, flat, jet_n):
    args = ["parametrix", "--n", str(n)] + (["--flat"] if flat else [])
    if seed is not None:
        args += ["--seed", str(seed)]
    if jet_n is not None:
        args += ["--jet-file", _jet_file(tmp_path, parametrix.random_jet(jet_n, 1).to_json())]
    res = runner.invoke(main, args)
    _assert_cli_contract(res)
    if jet_n is not None and jet_n != n:
        assert res.exit_code == 2, res.output


# suite -> the --n values at and past its edges; [] if it takes no --n
_VERIFY_EDGES = {"weyl": [3, 4, 5, tensor.MAX_N + 1], "parametrix": [7, 8, 9, tensor.MAX_N + 1],
                 "asymptotics": [], "all": []}


@st.composite
def _verify_edge_options(draw):
    """A suite with options at their edges.  Every suite that reads --trials
    gets at most 2, which keeps a run cheap; in one draw of four one more
    option rides along, which the suite may refuse."""
    suite = draw(st.sampled_from(sorted(_VERIFY_EDGES)))
    edges = _VERIFY_EDGES[suite]
    opts = {}
    if suite != "asymptotics":
        opts["--trials"] = draw(st.integers(-1, 2))
    if edges and draw(st.booleans()):
        lo = draw(st.sampled_from(edges))
        opts["--n"] = draw(st.sampled_from([str(lo), f"{lo}..{lo + 1}"]))
    if suite == "all" and draw(st.booleans()):
        opts["--L"] = draw(st.sampled_from([1, 2, 40, spectral.MAX_L + 1]))
    if draw(st.booleans()):
        opts["--seed"] = draw(_SEEDS)
    if draw(st.integers(0, 3)) == 0:
        opts.update(draw(st.sampled_from([{"--n": "5"}, {"--L": 8}, {"--trials": 1}])))
    return suite, opts


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(suite_opts=_verify_edge_options())
def test_verify_suites_at_their_edges_never_crash(runner, suite_opts):
    suite, opts = suite_opts
    args = ["verify", suite, *(a for flag, value in opts.items() for a in (flag, str(value)))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = runner.invoke(main, args)
    _assert_cli_contract(res)
    if res.exit_code == 2:
        assert "Error:" in res.output
    else:
        assert json.loads(res.stdout)["pass"] is (res.exit_code == 0)


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
    (["spectral", "--n", "410", "--L", "8", "--iters", "2"], "n=410, L=8"),
])
def test_large_n_refused_before_any_transform(runner, monkeypatch, argv, shape):
    # the sphere area leaves the normal floats, or the quadrature weights
    # that do drop part of a basis norm
    def no_transform(*a, **k):
        raise AssertionError("a refused shape reached a transform")

    for name in ("synthesize_at", "synthesize_half", "analyze_half"):
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


@pytest.mark.parametrize("argv", [["constants", "--n", "5..1000000"],
                                  ["verify", "constants", "--n", "5..1000000"]])
def test_dimension_range_bounded_before_it_is_listed(runner, monkeypatch, argv):
    # a million-wide range is refused on its ends; listing it would take
    # about 40 MB
    import tracemalloc

    def no_table(ns):
        raise AssertionError("constants were computed past the bound")

    monkeypatch.setattr(sphereforms, "constants_table", no_table)
    tracemalloc.start()
    try:
        res = runner.invoke(main, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 2, res.output
    assert "n <= 326" in res.output
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("argv,n", [
    (["constants", "--n", "5,5"], 5),
    (["verify", "constants", "--n", "5,5"], 5),
    (["verify", "bubbles", "--n", "7,6,7"], 7),
    (["verify", "weyl", "--n", "6,6", "--trials", "1"], 6),
])
def test_repeated_dimension_usage_error(runner, argv, n):
    res = runner.invoke(main, argv)
    assert res.exit_code == 2, res.output
    assert f"dimension {n} appears more than once" in res.output


def test_dimension_ranges_run_lazily(runner):
    from qcurv.cli import _parse_n_range

    assert _parse_n_range("5..10", 5, None, "verify bubbles needs") == range(5, 11)
    assert _parse_n_range("7,5", 5, 326, "constants need") == [7, 5]
    res = runner.invoke(main, ["constants", "--n", "7,5"])
    assert res.exit_code == 0 and [row.split(",")[0] for row in res.stdout.split()[1:]] == ["7", "5"]


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
    (["constants", "--seed", "3"], "--seed"),
    (["bubbles", "--seed", "3"], "--seed"),
    (["spectral", "--seed", "3"], "--seed"),
])
def test_verify_refuses_option_suite_ignores(runner, args, flag):
    res = runner.invoke(main, ["verify", *args])
    assert res.exit_code == 2, res.output
    assert f"verify {args[0]} takes no {flag}" in res.output


def test_suite_rows_name_the_keywords_of_their_checks():
    # a row's options are exactly what its checks function reads, so the
    # refusals above follow the functions
    for name, row in cli.SUITES.items():
        params = inspect.signature(row.checks).parameters.values()
        assert [p.name for p in params] == list(row.options), name
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in params)
    assert all(set(opts) <= set(cli.SUITES[name].options)
               for name, opts in cli.ALL_DEFAULTS.items())


@pytest.mark.parametrize("n", [5.9, 5.0, "5", True, -5])
def test_jet_dimension_must_be_a_json_integer(runner, tmp_path, n):
    doc = parametrix.random_jet(5, seed=1).to_json()
    doc["n"] = n
    res = runner.invoke(main, ["parametrix", "--n", "5", "--jet-file", _jet_file(tmp_path, doc)])
    assert res.exit_code == 2, res.output
    assert "bad jet file" in res.output


def _records(runner, argv) -> list[dict]:
    res = runner.invoke(main, argv)
    assert res.exit_code == 0, res.output
    return json.loads(res.stdout)["reports"]


def _checks(runner, argv) -> dict:
    return {r["check"]: r for r in _records(runner, argv)}


@pytest.mark.parametrize("n", range(5, 10))
def test_spectral_constant_checks_are_the_suite_checks(runner, n):
    suite = _checks(runner, ["verify", "spectral", "--n", str(n)])
    assert len(suite) == 4
    sub = _checks(runner, ["spectral", "--n", str(n), "--L", "64"])
    assert {check_id: sub[check_id] for check_id in suite} == suite


def test_asymptotics_checks_are_the_suite_checks(runner):
    # the subcommand at each (case, n) of the suite emits exactly the
    # suite's records for that case: the ratio check and the split checks
    suite = _records(runner, ["verify", "asymptotics", "--seed", "3"])
    subs = [_records(runner, ["asymptotics", "--case", case, "--n", str(n), "--seed", "3"])
            for case, n in (("flat", 5), ("high", 10), ("n9", 9), ("n8", 8))]
    assert [len(sub) for sub in subs] == [2, 3, 1, 2]
    assert [record for sub in subs for record in sub] == suite


@pytest.mark.parametrize("n", [8, 9])
def test_parametrix_witnesses_are_the_suite_witnesses(runner, monkeypatch, n):
    real, seen = parametrix.shell_identities, []

    def recorded(jet, green):
        out = real(jet, green)
        seen.append((jet.to_json(), out))
        return out

    monkeypatch.setattr(parametrix, "shell_identities", recorded)
    _checks(runner, ["parametrix", "--n", str(n), "--seed", "4"])
    _checks(runner, ["verify", "parametrix", "--n", str(n), "--seed", "4", "--trials", "1"])
    assert len(seen) == 2 and seen[0] == seen[1]
    assert [name for name, _ in seen[0][1]] == ["psi4_shell", "recursion_residual"]


def _scaled(cls, name, factor):
    real = getattr(cls, name)
    return lambda *a: real(*a) * factor


@pytest.mark.parametrize("check,patch", [
    ("spectral.theta4_const[n=5,L=64]",
     lambda mp: mp.setattr(sphereforms, "sharp_constants", lambda n, real=sphereforms.sharp_constants:
                           dataclasses.replace(real(n), Theta4_sphere=1.001 * real(n).Theta4_sphere))),
    ("spectral.duality[n=5,L=64]",
     lambda mp: mp.setattr(spectral.SphereSolver, "y4_functional",
                           _scaled(spectral.SphereSolver, "y4_functional", 1.001))),
    ("spectral.theta2_duality[n=5,L=64]",
     lambda mp: mp.setattr(spectral.SphereSolver, "yamabe_functional",
                           _scaled(spectral.SphereSolver, "yamabe_functional", 1.001))),
    ("spectral.mobius[n=5,L=64]",
     lambda mp: mp.setattr(spectral.SphereSolver, "pulled_constant",
                           lambda self, t, real=spectral.SphereSolver.pulled_constant:
                           (1.001 * real(self, t)[0], real(self, t)[1]))),
])
@pytest.mark.parametrize("argv", [["verify", "spectral", "--n", "5"],
                                  ["spectral", "--n", "5", "--iters", "3"]])
def test_every_spectral_check_can_fail(runner, monkeypatch, check, patch, argv):
    patch(monkeypatch)
    res = runner.invoke(main, argv)
    assert res.exit_code == 1, res.output
    assert _report_check(res, check)["pass"] is False
    assert f"[FAIL] {check}" in res.stderr


def _assert_fails(res, checks):
    assert res.exit_code == 1, res.output
    for check in checks:
        assert _report_check(res, check)["pass"] is False, check
        assert f"[FAIL] {check}" in res.stderr


@pytest.mark.parametrize("argv", [["verify", "asymptotics"],
                                  ["asymptotics", "--case", "n9", "--n", "9"],
                                  ["asymptotics", "--case", "lowdim", "--n", "6"]])
def test_asymptotics_ratio_check_can_fail(runner, monkeypatch, argv):
    real = asymptotics.fit_expansion
    monkeypatch.setattr(asymptotics, "fit_expansion",
                        lambda model: dataclasses.replace(real(model), coefficient=0.0))
    res = runner.invoke(main, argv)
    ratio = [r["check"] for r in json.loads(res.stdout)["reports"]
             if r["check"].split("[")[0] in {f"asymptotics.{case}" for case in asymptotics.CASES}]
    assert len(ratio) == (4 if argv[0] == "verify" else 1)
    _assert_fails(res, ratio)


@pytest.mark.parametrize("argv,check,key", [
    (["--case", "flat", "--n", "5"], "asymptotics.numerator_coeff[flat,n=5]", "numerator"),
    (["--case", "lowdim", "--n", "6"], "asymptotics.numerator_coeff[lowdim,n=6]", "numerator"),
    (["--case", "high", "--n", "10"], "asymptotics.numerator_coeff[high,n=10]", "numerator"),
    (["--case", "high", "--n", "10"], "asymptotics.norm_integral_coeff[high,n=10]",
     "norm_integral"),
    (["--case", "n8", "--n", "8"], "asymptotics.numerator_coeff[n8,n=8]", "numerator"),
])
def test_asymptotics_split_checks_can_fail(runner, monkeypatch, argv, check, key):
    real = asymptotics.evaluate_model

    def off(model, lam):  # the quantity one split check fits, 1.5 times too large
        values = real(model, lam)
        return {**values, key: 1.5 * values[key]}

    monkeypatch.setattr(asymptotics, "evaluate_model", off)
    _assert_fails(runner.invoke(main, ["asymptotics", *argv]), [check])


@pytest.mark.parametrize("check,patch", [
    ("constants.moments[n=5]",
     lambda mp: mp.setattr(sphereforms, "y4_ratio_from_moments",
                           lambda n, real=sphereforms.y4_ratio_from_moments: real(n) * (1 + 1e-9))),
    ("constants.duality[n=5]",
     lambda mp: mp.setattr(sphereforms, "sharp_constants",
                           lambda n, real=sphereforms.sharp_constants: dataclasses.replace(
                               real(n), Theta4_sphere=(1 + 1e-12) * real(n).Theta4_sphere))),
])
def test_every_constants_check_can_fail(runner, monkeypatch, check, patch):
    patch(monkeypatch)
    _assert_fails(runner.invoke(main, ["verify", "constants", "--n", "5"]), [check])


def test_bubble_check_can_fail(runner, monkeypatch):
    real = sphereforms.bubble_bilaplacian
    monkeypatch.setattr(sphereforms, "bubble_bilaplacian", lambda n: real(n).scale(2))
    _assert_fails(runner.invoke(main, ["verify", "bubbles", "--n", "5"]), ["bubbles.pde[n=5]"])


def test_spectral_iteration_checks_can_fail(runner, monkeypatch):
    real = spectral.spectral_report

    def off(*args):  # the last functional value 0.1% above the maximum at constants
        rep = real(*args)
        rep["functional_values"][-1] *= 1.001
        return rep

    monkeypatch.setattr(spectral, "spectral_report", off)
    _assert_fails(runner.invoke(main, ["spectral", "--n", "5", "--iters", "3"]),
                  ["spectral.iteration_bounded", "spectral.fixed_point_drift"])


def test_polyalg_decomposition_check_can_fail(runner, monkeypatch):
    from qcurv import polyalg

    real = polyalg.reassemble
    monkeypatch.setattr(polyalg, "reassemble", lambda n, m, blocks: real(n, m, blocks).scale(2))
    res = runner.invoke(main, ["verify", "polyalg"])
    _assert_fails(res, ["polyalg.decomposition[trials=40]"])
    check = _report_check(res, "polyalg.decomposition[trials=40]")
    assert check["computed"] == "trial=0: reassembles"


@pytest.mark.parametrize("argv,check,computed", [
    (["parametrix", "--n", "9"], "parametrix.identities", "recursion_residual"),
    (["parametrix", "--n", "6"], "parametrix.identities", "recursion_residual"),
    (["verify", "parametrix", "--n", "9", "--trials", "2"], "parametrix.identities[n=9,trials=2]",
     "n=9,seed=1: recursion_residual"),
    (["verify", "parametrix", "--n", "8", "--trials", "1"],
     "parametrix.identities[n=8,trials=1]", "n=8,seed=1: recursion_residual"),
])
def test_parametrix_identities_can_fail(runner, monkeypatch, argv, check, computed):
    from qcurv.polyalg import HomogPoly, LogRadialExpansion

    real = parametrix.solve_residual
    monkeypatch.setattr(parametrix, "solve_residual", lambda n, psi, rhs: real(n, psi, rhs)
                        + LogRadialExpansion.from_poly(HomogPoly.constant(n, 1)))
    res = runner.invoke(main, argv)
    assert res.exit_code == 1, res.output
    assert _report_check(res, check)["computed"] == computed
    assert f"[FAIL] {check}" in res.stderr


# the failing test of every check-id family (the id up to "[") that `verify
# all` or a PINNED subcommand emits.  VERIFY_TOLERANCES and
# SUBCOMMAND_TOLERANCES hold exactly the emitted ids, so a new check without
# a failing test fails below.
FAILING_TESTS = {
    "weyl.identities": test_failing_weyl_check_names_its_witness,
    "polyalg.decomposition": test_polyalg_decomposition_check_can_fail,
    "polyalg.solver": test_failing_polyalg_check_names_its_witness,
    "parametrix.identities": test_parametrix_identities_can_fail,
    **dict.fromkeys(["constants.moments", "constants.duality"],
                    test_every_constants_check_can_fail),
    "bubbles.pde": test_bubble_check_can_fail,
    **dict.fromkeys([f"spectral.{name}" for name in _SPECTRAL_TOLERANCES],
                    test_every_spectral_check_can_fail),
    **dict.fromkeys(["spectral.iteration_bounded", "spectral.fixed_point_drift"],
                    test_spectral_iteration_checks_can_fail),
    **dict.fromkeys([f"asymptotics.{case}" for case in asymptotics.CASES],
                    test_asymptotics_ratio_check_can_fail),
    **dict.fromkeys(["asymptotics.numerator_coeff", "asymptotics.norm_integral_coeff"],
                    test_asymptotics_split_checks_can_fail),
}


def test_every_emitted_check_family_has_a_failing_test():
    emitted = {check.split("[")[0] for check in (*VERIFY_TOLERANCES, *SUBCOMMAND_TOLERANCES)}
    assert emitted - set(FAILING_TESTS) == set(), "check families without a failing test"
    assert set(FAILING_TESTS) == emitted


# the check families a pinned subcommand emits and `verify all --seed 1`
# does not, each with its reason
SUBCOMMAND_ONLY = {
    # lowdim fits the flat row's mass term at n = 5..7, and `verify
    # asymptotics` holds that term at flat/5 (ROADMAP direction 7)
    "asymptotics.lowdim",
    # the extremal iteration's checks carry no [n,L], so `verify spectral`
    # could emit them only under new ids on every spectral pin, the two
    # L = 256 one-thread pins among them (ROADMAP directions 3 and 20)
    "spectral.iteration_bounded",
    "spectral.fixed_point_drift",
}


def test_verify_all_emits_every_subcommand_family():
    # both tables hold exactly the emitted ids (test_verify_tolerances_pinned
    # and test_subcommand_tolerances_pinned)
    suite = {check.split("[")[0] for check in VERIFY_TOLERANCES}
    subcommands = {check.split("[")[0] for check in SUBCOMMAND_TOLERANCES}
    assert subcommands - suite == SUBCOMMAND_ONLY
