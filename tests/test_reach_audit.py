"""The statements of src/qcurv that no report reaches, held to a named list.

``tools/reach_audit.py --json`` runs every pinned command, one ``--report``
call, one ``--jet-file`` call and every demo under a line tracer and lists
the statements none of them reaches.  A refusal (a ``raise``, or a branch
that ends in one) may stay unreached.  Every other such statement is on
``REACHED_ONLY_BY_TESTS`` below with the tier-1 test that reaches it, so
library code that neither a run nor a test reaches fails the suite.
"""

import ast
import collections
import json
import os
import pathlib
import subprocess
import sys

import pytest

from qcurv import asymptotics, parametrix as par, polyalg, report, spectral, sphereforms
from qcurv.polyalg import HomogPoly, LogRadialExpansion
from qcurv.tensor import SchoutenHessian, random_weyl
from test_report import _ONE_THREAD

ROOT = pathlib.Path(__file__).resolve().parents[1]

# (module, enclosing qualname, statements as their stripped first lines):
# the test that reaches them, as tests/<file>::<function>
REACHED_ONLY_BY_TESTS = [
    # an overflowing closed form is flagged, then refused by name
    ("qcurv/asymptotics.py", "TestFunctionModel.__post_init__", ["finite = False"],
     "test_asymptotics.py::test_model_refuses_closed_forms_past_the_float_range"),
    # `python -m qcurv.cli`; the audit calls the click group in process
    ("qcurv/cli.py", "<module>", ["main()"],
     "test_report.py::test_report_bytes_pinned_one_blas_thread"),
    # the keyed read the Mapping protocol requires: every report reads a
    # polynomial's coefficients through items(), which ranks no key
    ("qcurv/polyalg.py", "_Coeffs.__getitem__",
     ["p = self._p", "if not (_exponent_degree(e, p.n) == p.degree", "return p.content * v"],
     "test_polyalg.py::test_items_read_each_coefficient_in_one_pass"),
    # a key that is no exponent tuple; the callers' refusals follow it
    ("qcurv/polyalg.py", "_exponent_degree", ["return None"],
     "test_polyalg.py::test_poly_validation_errors"),
    ("qcurv/polyalg.py", "HomogPoly.scale", ["return HomogPoly.zero(self.n, self.degree)"],
     "test_parametrix.py::test_phi4_flat_is_zero"),
    # the int64 fast paths widen to Python ints past their bound
    ("qcurv/polyalg.py", "HomogPoly.mul_r2k", ["v = v.astype(object)"],
     "test_polyalg.py::test_int64_switch_both_sides"),
    ("qcurv/polyalg.py", "_lincomb", ["vecs = [v.astype(object) for v in vecs]"],
     "test_polyalg.py::test_int64_switch_both_sides"),
    ("qcurv/tensor.py", "SchoutenHessian.quadratic_form", ["M = M.astype(object)"],
     "test_tensor.py::test_schouten_quadratic_form_widens_past_int64"),
    ("qcurv/tensor.py", "_gram", ["return A @ A.T"],
     "test_tensor.py::test_gram_fallback_is_needed_past_the_certificate"),
    # canonical() keeps odd r powers; the report sums have even ones only
    ("qcurv/radial.py", "RadialTermSum._canonical", ["out.append((c, p, j, s))", "continue"],
     "test_sphereforms.py::test_one_sum_gives_a_fresh_sums_floats_at_every_lambda"),
    # the benchmark's sphere-numerics tasks read these as well, through the
    # lam-bound bubble profiles
    ("qcurv/radial.py", "RadialTermSum.deriv",
     ["out = self", "for _ in range(order):", "out = out.diff()", "return out(r, lam)"],
     "test_sphereforms.py::test_one_sum_gives_a_fresh_sums_floats_at_every_lambda"),
    ("qcurv/sphereforms.py", "bubble_u", ["return _AtLam(_bubble(n, n - 4), lam=lam)"],
     "test_sphereforms.py::test_bubbles_bound_per_lambda_equal_fresh_sums"),
    ("qcurv/sphereforms.py", "bubble_f", ["return _AtLam(_bubble(n, n + 4), lam=lam)"],
     "test_sphereforms.py::test_bubbles_bound_per_lambda_equal_fresh_sums"),
    ("qcurv/sphereforms.py", "_AtLam.deriv", ["return self.func.deriv(order, r, **self.keywords)"],
     "test_sphereforms.py::test_bubbles_bound_per_lambda_equal_fresh_sums"),
    ("qcurv/tensor.py", "random_weyl",
     ["return WeylTensor(n, np.zeros((n,) * 4, dtype=np.int64))"],
     "test_tensor.py::test_random_weyl_low_dimensions_vanish"),
    ("qcurv/tensor.py", "invariants_hold", ["return False"] * 5,
     "test_tensor.py::test_invariants_hold_fails_on_each_broken_invariant"),
]


def test_every_statement_no_report_reaches_is_a_refusal_or_named():
    env = {**os.environ, **_ONE_THREAD}
    res = subprocess.run([sys.executable, str(ROOT / "tools" / "reach_audit.py"), "--json"],
                         capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["runs"] >= 30 and doc["nonzero_exits"] == []
    got = collections.Counter()
    for u in doc["unreached"]:
        if not u["refusal"]:
            got[u["module"], u["qualname"], u["text"]] += u["count"]
    want = collections.Counter((module, scope, text) for module, scope, texts, _ in
                               REACHED_ONLY_BY_TESTS for text in texts)
    assert dict(got - want) == {}, "unreached by every run and not on the list"
    assert dict(want - got) == {}, "on the list but reached by a run, or gone"


def test_each_named_test_exists():
    for *_, name in REACHED_ONLY_BY_TESTS:
        file, function = name.split("::")
        tree = ast.parse((ROOT / "tests" / file).read_text())
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert function in defined, name


def _collapse():
    solver = spectral.SphereSolver(5, 4)
    solver.extremal_iteration(solver.constant_field(-1.0), 1)


def _on_constant(call):
    solver = spectral.SphereSolver(5, 16)
    call(solver, solver.constant_field(1.0))


# refusals that no run reaches, each reached by one public call: (module,
# the refusal's message, the call).  No input is known to reach two more:
# asymptotics._fit's overflow and SphereSolver._ratio's out-of-range value.
REFUSALS = [
    ("asymptotics", "jet dimension mismatch",
     lambda: asymptotics.TestFunctionModel(case="n9", n=9, jet=par.random_jet(10, 1))),
    # the CLI passes A0 only to the rows that read it
    ("asymptotics", "case 'high' reads no A0",
     lambda: asymptotics.TestFunctionModel(case="high", n=10, jet=par.random_jet(10, 1), A0=1.0)),
    # a 0.0 that every relative check would be taken against
    # (test_asymptotics.py checks that no quadrature runs first)
    ("asymptotics", "A0 = 0 makes a closed form of case 'flat' at n=5 zero",
     lambda: asymptotics.TestFunctionModel(case="flat", n=5, A0=0.0)),
    ("asymptotics", "w2 = 0 makes a closed form of case 'high' at n=10 zero",
     lambda: asymptotics.TestFunctionModel(case="high", n=10, jet=par.CurvatureJet.flat(10))),
    ("parametrix", "dimension mismatch in jet",
     lambda: par.CurvatureJet(6, random_weyl(5, 1), SchoutenHessian.zero(6))),
    ("parametrix", "expansion needs n >= 5", lambda: par.phi4(par.CurvatureJet.flat(4))),
    ("parametrix", "closed form requires n >= 9",
     lambda: par.psi4_closed_form(par.random_jet(8, 1))),
    ("parametrix", "log coefficient is an n=8 statement",
     lambda: par.n8_log_coefficient(par.random_jet(9, 1))),
    ("parametrix", "n >= 5 required", lambda: par.flat_expansion(4)),
    ("polyalg", "need at least one variable", lambda: HomogPoly(0, 2)),
    ("polyalg", r"bad exponent \(1, 1\) for n=3", lambda: HomogPoly(3, 2, {(1, 1): 1})),
    ("polyalg", r"incompatible polynomials: \(n=3, m=0\) vs \(n=3, m=2\)",
     lambda: HomogPoly.constant(3, 1) + HomogPoly.r_squared(3)),
    ("polyalg", "log power must be nonnegative",
     lambda: LogRadialExpansion(3, {(0, -1): HomogPoly.constant(3, 1)})),
    ("polyalg", r"term \(2,0\) carries a polynomial of wrong shape",
     lambda: LogRadialExpansion(3, {(2, 0): HomogPoly.constant(3, 1)})),
    ("polyalg", "expansions must share n",
     lambda: LogRadialExpansion.from_poly(HomogPoly.constant(3, 1))
     + LogRadialExpansion.from_poly(HomogPoly.constant(4, 1))),
    ("polyalg", "block index k=3 out of range for degree 4", lambda: polyalg.eigen_AA(5, 4, 3)),
    ("radial", "lam must be finite and positive, got nan",
     lambda: sphereforms.bubble_u(float("nan"), 5)(1.0)),
    ("radial", "lam must be finite and positive, got inf",
     lambda: sphereforms.bubble_pde_residual(float("inf"), 5, [1.0])),
    *[("spectral", f"truncation degree L={L} is below 2", lambda L=L: spectral.SphereSolver(5, L))
      for L in (-1, 0, 1)],
    ("spectral", "the 426-node rule leaves the float range at n=410, L=8",
     lambda: spectral.SphereSolver(410, 8)),
    ("spectral", "iterate collapsed: G_P f has no positive part", _collapse),
    ("spectral", "step count must be nonnegative, got -3",
     lambda: _on_constant(lambda s, f: s.extremal_iteration(f, -3))),
    *[("spectral", f"dilation parameter must be finite and positive, got {t}",
       lambda t=t: _on_constant(lambda s, f: s.mobius_pullback(f, float(t))))
      for t in ("nan", "inf")],
    ("sphereforms", "bubbles require n >= 5", lambda: sphereforms.bubble_u(1.0, 4)),
    ("sphereforms", "n >= 5 required", lambda: sphereforms.sharp_constants(4)),
]


@pytest.mark.parametrize("module, message, call", REFUSALS,
                         ids=[f"{m}: {msg}" for m, msg, _ in REFUSALS])
def test_refusal_no_run_reaches(module, message, call):
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert info.traceback[-1].path.name == f"{module}.py"


# keys that name no monomial of x_1 x_2 in three variables; the non-integer
# and bool entries sum to the degree, (2.5, -0.5, 0) truncates onto x_1^2
# and (True, 1, 0) reads as 1 onto x_1 x_2
MISSING_KEYS = {"zero-coefficient": (0, 2, 0), "wrong-length": (1, 1), "negative": (3, -1, 0),
                "wrong-degree": (1, 1, 1), "non-integer": (1.5, 0.5, 0),
                "non-integer-negative": (2.5, -0.5, 0), "bool": (True, 1, 0), "string": "ab"}


@pytest.mark.parametrize("key", MISSING_KEYS.values(), ids=MISSING_KEYS.keys())
def test_missing_monomial_is_a_key_error(key):
    terms = HomogPoly.monomial(3, (1, 1, 0), 1).terms
    with pytest.raises(KeyError) as info:
        terms[key]
    assert info.value.args == (key,)
    assert key not in terms


def test_failed_report_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "report.json"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        report.dump_report({"ok": True}, str(target))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
