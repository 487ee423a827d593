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
     "test_sphereforms.py::test_at_binds_the_same_terms"),
    # the benchmark's sphere-numerics tasks read it as well
    ("qcurv/radial.py", "RadialTermSum.deriv",
     ["out = self", "for _ in range(order):", "out = out.diff()", "return out(r)"],
     "test_sphereforms.py::test_at_binds_the_same_terms"),
    # the bisection that repairs Gauss-Jacobi nodes Newton's method loses
    ("qcurv/spectral.py", "_gauss_jacobi",
     ["K = x.size", "bad = np.flatnonzero(~ok)", "lo, hi = np.zeros(bad.size), np.ones(bad.size)",
      "for _ in range(52):", "mid = 0.5 * (lo + hi)",
      "below = _recurrence(mid, M, lam, count=True)[1] >= K - bad",
      "lo = np.where(below, mid, lo)", "hi = np.where(below, hi, mid)",
      "x[bad] = 0.5 * (lo + hi)", "x[bad] -= _newton_step(x[bad], M, lam)",
      "ok, w = _certify(x, M, lam)"],
     "test_spectral.py::test_rule_recovers_nodes_newton_loses"),
    ("qcurv/tensor.py", "random_weyl",
     ["return WeylTensor(n, np.zeros((n, n, n, n), dtype=np.int64))"],
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
