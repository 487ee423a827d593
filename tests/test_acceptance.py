"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  Tolerances are fixed here, not calibrated anywhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qcurv.asymptotics import TestFunctionModel, fit_expansion
from qcurv.parametrix import (
    CurvatureJet,
    green_leading,
    n8_log_coefficient,
    psi4_closed_form,
    psi4_solve,
    random_jet,
    shell_identities,
)
from qcurv.polyalg import HomogPoly
from qcurv.sphereforms import bubble_pde_residual, sharp_constants
from qcurv.spectral import SphereSolver
from qcurv.tensor import random_schouten_hessian, random_weyl, weyl_identities
from test_sphereforms import y4_ratio_by_quadrature

F = Fraction


def _report(name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"[{status}] {name}: {elapsed:.2f}s (budget {budget:.0f}s){extra}")
    assert ok, f"{name} failed{extra}"
    assert elapsed < budget, f"{name} exceeded runtime budget: {elapsed:.2f}s >= {budget}s"


def _psi4_n9_literal(jet):
    # frozen n=9 closed form: 1/280, 2/9, 2/117, 1/429, 1/144, 4/117,
    # 103/5616, 805/1368576
    q = jet.W.quartic_form()
    g = jet.W.gradient_square_form()
    w2 = jet.W.norm_sq()
    jq = jet.Jh.quadratic_form()
    r2 = HomogPoly.r_squared(9)
    r4 = r2.mul_r2k(1)
    first = (
        q.scale(F(2, 9)) - g.mul_r2k(1).scale(F(2, 117)) + r4.scale(w2 * F(1, 429))
    ).scale(F(1, 280))
    second = (
        g.scale(F(4, 117)) - jq.scale(6) - r2.scale(w2 * F(103, 5616))
    ).mul_r2k(1).scale(F(1, 144))
    third = r4.scale(w2 * F(805, 1368576))
    return first + second + third


def test_criterion_1_symbolic_parametrix():
    t0 = time.perf_counter()
    ok = True
    for n in (9, 10, 11, 12):
        for seed in range(10):
            jet = random_jet(n, seed)
            solved = psi4_solve(jet)
            ok = ok and solved == psi4_closed_form(jet)
            ok = ok and solved.max_log_power() == 0
            if n == 9:
                ok = ok and solved.get(4, 0) == _psi4_n9_literal(jet)
    _report("criterion 1 (symbolic parametrix, n=9..12 x 10 jets, exact)",
            ok, time.perf_counter() - t0, 10.0)


def test_criterion_2_n8_log_term():
    t0 = time.perf_counter()
    ok = True
    r4 = HomogPoly.r_squared(8).mul_r2k(1)
    for seed in range(10):
        jet = random_jet(8, seed)
        want = r4.scale(-jet.W.norm_sq() / 1440)
        got = psi4_solve(jet).get(4, 1)
        ok = ok and got == want
        ok = ok and n8_log_coefficient(jet) == -jet.W.norm_sq() / 1440
        ok = ok and all(holds for _, holds in shell_identities(jet, green_leading(jet)))
    _report("criterion 2 (n=8 log coefficient -|W|^2/1440, exact)",
            ok, time.perf_counter() - t0, 2.0)


# the identities criterion 3 demands, in the order tensor.weyl_identities
# lists them
WEYL_IDENTITIES = ("invariants", "lap_quartic", "bilap_quartic", "cross_contraction",
                   "reassembles", "blocks_harmonic", "radial_block", "sphere_average",
                   "schouten_trace")


def test_criterion_3_weyl_identity_suite():
    t0 = time.perf_counter()
    failed = []
    for n in range(5, 11):
        for seed in range(50):
            W = random_weyl(n, seed)
            checks = weyl_identities(W, random_schouten_hessian(n, seed, W))
            if tuple(name for name, _ in checks) != WEYL_IDENTITIES:
                failed.append(f"n={n},seed={seed}: names {[name for name, _ in checks]}")
            failed += [f"n={n},seed={seed}: {name}" for name, ok in checks if not ok]
        if failed:
            break
    _report("criterion 3 (Weyl identities, 50 seeds x n=5..10, exact)",
            not failed, time.perf_counter() - t0, 30.0, "; ".join(failed[:3]))


def test_criterion_4_sphere_constants():
    t0 = time.perf_counter()
    ok = True
    for n in range(5, 13):
        sc = sharp_constants(n)
        quad = y4_ratio_by_quadrature(n)
        ok = ok and abs(quad - sc.Y4_sphere) <= 1e-10 * sc.Y4_sphere
        ok = ok and abs(sc.Theta4_sphere * sc.Y4_sphere - 1.0) <= 1e-14
    _report("criterion 4 (sphere constants: quadrature vs Gamma formula 1e-10, duality 1e-14)",
            ok, time.perf_counter() - t0, 5.0)


def test_criterion_5_bubble_pde():
    t0 = time.perf_counter()
    radii = np.geomspace(0.1, 10.0, 100)
    worst = 0.0
    for n in range(5, 13):
        for lam in (0.5, 1.0, 2.0):
            worst = max(worst, float(bubble_pde_residual(lam, n, radii).max()))
    _report("criterion 5 (bubble PDE residual <= 1e-10)",
            worst <= 1e-10, time.perf_counter() - t0, 5.0, f"worst={worst:.2e}")


def test_criterion_6_spectral_duality():
    t0 = time.perf_counter()
    ok = True
    for n in range(5, 10):
        s = SphereSolver(n, 64)
        sc = sharp_constants(n)
        const = s.constant_field(1.0)
        th4 = s.theta4_functional(const)
        ok = ok and abs(th4 - sc.Theta4_sphere) <= 1e-8 * sc.Theta4_sphere
        ok = ok and abs(th4 * s.y4_functional(const) - 1.0) <= 1e-10
        ok = ok and abs(s.theta2_functional(const) * s.yamabe_functional(const) - 1.0) <= 1e-8
    _report("criterion 6 (spectral duality at constants, n=5..9, L=64)",
            ok, time.perf_counter() - t0, 60.0)


def test_criterion_7_conformal_invariance():
    t0 = time.perf_counter()
    ok = True
    for n in range(5, 10):
        s = SphereSolver(n, 64)
        f = s.constant_field(1.0)
        f.coeffs[1] += 0.2 * f.coeffs[0]
        p = 2.0 * n / (n + 4)
        base_val = s.theta4_functional(f)
        base_norm = s.lp_norm(f, p)
        for t in (1.5, 2.0, 4.0):
            pulled = s.mobius_pullback(f, t)
            ok = ok and abs(s.theta4_functional(pulled) - base_val) <= 1e-6 * base_val
            ok = ok and abs(s.lp_norm(pulled, p) - base_norm) <= 1e-8 * base_norm
    _report("criterion 7 (conformal invariance 1e-6, norm preservation 1e-8, L=64)",
            ok, time.perf_counter() - t0, 60.0)


def test_criterion_8_fixed_point():
    t0 = time.perf_counter()
    ok = True
    for n in (5, 7, 9):
        s = SphereSolver(n, 64)
        sc = sharp_constants(n)
        traj = s.extremal_iteration(s.constant_field(1.0), 100, 0.5)
        vals = [v for _, v in traj]
        ok = ok and abs(vals[-1] - vals[0]) <= 1e-8
        pert = s.constant_field(1.0)
        pert.coeffs[2] += 0.1 * pert.coeffs[0]
        traj_p = s.extremal_iteration(pert, 100, 0.5)
        ok = ok and max(v for _, v in traj_p) <= sc.Theta4_sphere + 1e-6
    _report("criterion 8 (fixed-point drift <= 1e-8, perturbed bounded by sphere value + 1e-6)",
            ok, time.perf_counter() - t0, 120.0)


def test_criterion_9_asymptotic_coefficients():
    t0 = time.perf_counter()
    details = []
    ok = True
    for n in (5, 6, 7):
        fit = fit_expansion(TestFunctionModel(case="flat", n=n, A0=1.0))
        details.append(f"flat n={n}: {fit.rel_error:.3%}")
        ok = ok and fit.rel_error <= 0.02
    jet10 = random_jet(10, seed=7, normalize=True)
    fit = fit_expansion(TestFunctionModel(case="high", n=10, jet=jet10))
    details.append(f"high n=10: {fit.rel_error:.3%}")
    ok = ok and fit.rel_error <= 0.02
    jet9 = random_jet(9, seed=7, normalize=True)
    fit = fit_expansion(TestFunctionModel(case="n9", n=9, jet=jet9))
    details.append(f"n=9: {fit.rel_error:.3%}")
    ok = ok and fit.rel_error <= 0.05
    jet8 = random_jet(8, seed=7, normalize=True)
    fit = fit_expansion(TestFunctionModel(case="n8", n=8, jet=jet8))
    details.append(f"n=8 log: {fit.rel_error:.3%}")
    ok = ok and fit.rel_error <= 0.10
    _report("criterion 9 (asymptotic coefficients: flat 2%, high 2%, n9 5%, n8 10%)",
            ok, time.perf_counter() - t0, 600.0, "; ".join(details))


def test_criterion_10_determinism(tmp_path):
    from click.testing import CliRunner

    from qcurv.cli import main

    t0 = time.perf_counter()
    runner = CliRunner()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "all", "--seed", "1"]
    res1 = runner.invoke(main, args + ["--report", str(a)])
    res2 = runner.invoke(main, args + ["--report", str(b)])
    ok = res1.exit_code == 0 and res2.exit_code == 0 and a.read_bytes() == b.read_bytes()
    # no budget stated for this criterion; the bound only catches hangs
    _report("criterion 10 (verify all twice: byte-identical reports)",
            ok, time.perf_counter() - t0, 3600.0)
