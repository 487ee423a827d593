"""Test-function asymptotics: cutoffs, angular reduction, coefficient fits."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qcurv.asymptotics import (
    Cutoff,
    TestFunctionModel,
    _panel_quad,
    angular_average_poly,
    evaluate_model,
    fit_expansion,
    flat_numerator_coefficient,
    flat_ratio_coefficient,
    high_norm_integral_coefficient,
    high_ratio_coefficient,
    mc_angular_check,
    model_integrands,
    n8_ratio_log_coefficient,
    n9_ratio_coefficient,
    numerator_coefficient_check,
    psi4_radial_block,
    sphere_monomial_integral,
)
from qcurv.parametrix import CurvatureJet, random_jet
from qcurv.sphereforms import omega_n
from qcurv.tensor import random_weyl

F = Fraction


# ------------------------------------------------------------------ cutoff


def test_cutoff_partition_and_range():
    c = Cutoff(9)
    s = np.linspace(0.0, 3.0, 301)
    e1 = c.eta1(s)
    assert np.all(e1 >= -1e-15) and np.all(e1 <= 1 + 1e-15)
    assert np.allclose(c.eta2(s) + e1, 1.0, atol=1e-15)
    assert np.all(e1[s <= 1.0] == 0.0)
    assert np.allclose(e1[s >= 2.0], 1.0, atol=1e-15)


@pytest.mark.parametrize("degree", [9, 11])
def test_cutoff_c4_junctions(degree):
    # derivatives through order 4 vanish exactly at both junction points
    c = Cutoff(degree)
    for t0 in (0.0, 1.0):
        for m in range(1, 5):
            assert c._derivs[m](t0) == 0.0
    # and grow only linearly just inside (C^4 regularity)
    eps = 1e-9
    d = c.eta1_derivs(np.array([1.0 + eps, 2.0 - eps]))
    for m in range(1, 5):
        assert np.all(np.abs(d[m]) <= 1e6 * eps)


def test_cutoff_degree_validation():
    with pytest.raises(ValueError):
        Cutoff(8)
    with pytest.raises(ValueError):
        Cutoff(7)


# -------------------------------------------------------- angular reduction


def test_sphere_monomial_integral_basics():
    n = 6
    surf = n * omega_n(n)
    # integral of x_1^2 over S^{n-1} is area/n
    e = [2] + [0] * (n - 1)
    assert abs(sphere_monomial_integral(e) - surf / n) <= 1e-13 * surf
    assert sphere_monomial_integral([1] + [0] * (n - 1)) == 0.0


def test_angular_average_matches_exact_block():
    for n in (5, 8):
        W = random_weyl(n, seed=4)
        q = W.quartic_form()
        exact = float(W.norm_sq() * F(3, 2 * n * (n + 2)))
        assert abs(angular_average_poly(q) - exact) <= 1e-10 * abs(exact)


def test_angular_data_against_polynomial_oracle():
    # the exact angular averages feeding the radial integrands must agree
    # with floating sphere-moment averages of the actual jet polynomials
    from qcurv.asymptotics import AngularData
    from qcurv.tensor import schouten_quartic

    jet = random_jet(10, seed=3, normalize=True)
    ang = AngularData.from_jet(jet)
    # quartic form average: gq4 * r^4 on the unit sphere
    got = angular_average_poly(jet.W.quartic_form())
    assert abs(got - float(ang.gq4)) <= 1e-10 * max(abs(got), 1e-30)
    # Schouten Hessian quadratic average: gj2 * r^2
    got = angular_average_poly(jet.Jh.quadratic_form())
    assert abs(got - float(ang.gj2)) <= 1e-10 * max(abs(got), 1e-30)
    # full Schouten quartic average: the combination used in the bracket
    got = angular_average_poly(schouten_quartic(jet.W, jet.Jh))
    want = float(ang.schouten_quartic_avg())
    assert abs(got - want) <= 1e-10 * max(abs(want), 1e-30)


def test_psi4_radial_block_against_float_oracle():
    jet = random_jet(9, seed=2)
    from qcurv.parametrix import psi4_closed_form

    poly = psi4_closed_form(jet).get(4, 0)
    want = angular_average_poly(poly)
    assert abs(float(psi4_radial_block(jet)) - want) <= 1e-10 * abs(want)


# ------------------------------------------------------------- model setup


def test_model_validation():
    with pytest.raises(ValueError):
        TestFunctionModel(case="bogus", n=5)
    with pytest.raises(ValueError):
        TestFunctionModel(case="lowdim", n=8)
    with pytest.raises(ValueError):
        TestFunctionModel(case="n8", n=8)  # jet required
    with pytest.raises(ValueError):
        TestFunctionModel(case="high", n=9, jet=random_jet(9, 1))
    with pytest.raises(ValueError):
        TestFunctionModel(case="flat", n=5, lambdas=(0.3, 0.2, 0.1, 0.05))
    with pytest.raises(ValueError):
        TestFunctionModel(case="flat", n=5, lambdas=(0.1, 0.05, 0.02))


def test_model_integrand_tasks():
    m = TestFunctionModel(case="flat", n=5)
    tasks = model_integrands(m, 0.05)
    assert tasks.numerator_annulus is not None
    assert tasks.outer_closed_form == 0.0
    r = np.array([0.3, 0.7])
    assert np.all(np.isfinite(tasks.numerator_bulk(r)))
    jet = random_jet(10, seed=1, normalize=True)
    tasks_high = model_integrands(TestFunctionModel(case="high", n=10, jet=jet), 0.02)
    assert tasks_high.numerator_annulus is None


def test_flat_leading_numerator_value():
    # with A0 = 0 the numerator reduces to the pure-bubble value
    n = 5
    m = TestFunctionModel(case="flat", n=n, A0=0.0)
    lead = n * (n + 2) * (n - 2) * (n - 4) * math.gamma(n / 2) * math.pi ** (n / 2) / math.gamma(n)
    e = evaluate_model(m, 0.0125)
    assert abs(e["numerator"] - lead) <= 1e-6 * lead


def test_grid_refinement_stability():
    # doubling the radial panels moves every integral by < 1e-9 relative
    jet = random_jet(10, seed=1, normalize=True)
    m = TestFunctionModel(case="high", n=10, jet=jet)
    tasks = model_integrands(m, 0.02)
    bp = tasks.bulk_breakpoints
    bp2 = []
    for a, b in zip(bp[:-1], bp[1:]):
        bp2 += [a, 0.5 * (a + b)]
    bp2.append(bp[-1])
    for fn in (tasks.numerator_bulk, tasks.norm_bulk):
        coarse = _panel_quad(fn, bp)
        fine = _panel_quad(fn, bp2)
        assert abs(coarse - fine) <= 1e-9 * abs(fine)


# ------------------------------------------------------------ coefficients


def test_expected_coefficient_values():
    assert high_ratio_coefficient(10) == F(7, 5760)
    assert n9_ratio_coefficient() == F(41, 12474)
    assert abs(flat_numerator_coefficient(6) - 16 * math.pi**3) <= 1e-12 * 16 * math.pi**3
    assert high_norm_integral_coefficient(10) == F(-56, 3 * 12 * 14 * 8 * 4 * 2)
    # ratio coefficient consistency: num - (n+4)/n * norm-integral = ratio
    for n in (10, 11):
        lhs = -high_ratio_coefficient(n) - F(n + 4, n) * high_norm_integral_coefficient(n)
        assert lhs == high_ratio_coefficient(n)


def test_n8_expected_log_coefficient_consistency():
    # numerator pi^4/90 over the norm-squared leading value
    lead_norm_sq = 1920.0**2 * math.pi**6 / 840.0**1.5
    want = (math.pi**4 / 90.0) / lead_norm_sq
    assert abs(n8_ratio_log_coefficient() - want) <= 1e-12 * want


# --------------------------------------------------------------------- fits


@pytest.mark.parametrize("n", [5, 6, 7])
def test_flat_fit_within_tolerance(n):
    fit = fit_expansion(TestFunctionModel(case="flat", n=n, A0=1.0))
    assert fit.rel_error <= 0.02, fit.rel_error


def test_lowdim_fit_with_jet():
    jet = random_jet(6, seed=11, normalize=True)
    fit = fit_expansion(TestFunctionModel(case="lowdim", n=6, jet=jet, A0=1.0))
    assert fit.rel_error <= 0.02, fit.rel_error


def test_high_fit_within_tolerance():
    jet = random_jet(10, seed=7, normalize=True)
    fit = fit_expansion(TestFunctionModel(case="high", n=10, jet=jet))
    assert fit.rel_error <= 0.02, fit.rel_error
    assert fit.expected == pytest.approx(float(F(7, 5760)) * float(jet.W.norm_sq()))


def test_n9_fit_within_tolerance():
    jet = random_jet(9, seed=5, normalize=True)
    fit = fit_expansion(TestFunctionModel(case="n9", n=9, jet=jet))
    assert fit.rel_error <= 0.05, fit.rel_error


def test_n8_fit_within_tolerance():
    jet = random_jet(8, seed=5, normalize=True)
    fit = fit_expansion(TestFunctionModel(case="n8", n=8, jet=jet))
    assert fit.rel_error <= 0.10, fit.rel_error


def test_high_flat_jet_has_no_lam4_term():
    # all corrections carry curvature factors; the fitted coefficient is
    # quadrature noise divided by lam^4, far below the unit-|W|^2 scale
    m = TestFunctionModel(case="high", n=10, jet=CurvatureJet.flat(10))
    fit = fit_expansion(m)
    assert abs(fit.coefficient) <= 1e-3 * float(high_ratio_coefficient(10))


def test_lambda_consistency_drop_largest():
    jet = random_jet(10, seed=7, normalize=True)
    grid5 = (0.04, 0.028, 0.02, 0.014, 0.01)
    full = fit_expansion(TestFunctionModel(case="high", n=10, jet=jet, lambdas=grid5))
    dropped = fit_expansion(
        TestFunctionModel(case="high", n=10, jet=jet, lambdas=grid5[1:])
    )
    assert abs(dropped.coefficient - full.coefficient) <= 0.01 * abs(full.coefficient)


def test_cutoff_degree_independence():
    fit9 = fit_expansion(TestFunctionModel(case="flat", n=5, cutoff_degree=9))
    fit11 = fit_expansion(TestFunctionModel(case="flat", n=5, cutoff_degree=11))
    assert abs(fit9.coefficient - fit11.coefficient) <= 0.005 * abs(fit9.coefficient)


def test_ill_conditioned_fit_raises():
    jet = random_jet(8, seed=1, normalize=True)
    m = TestFunctionModel(case="n8", n=8, jet=jet, lambdas=(0.01, 0.01, 0.01, 0.01))
    with pytest.raises(ValueError, match="ill-conditioned"):
        fit_expansion(m)


# ------------------------------------------------------- coefficient checks


def test_numerator_check_flat_n6():
    reports = numerator_coefficient_check(TestFunctionModel(case="flat", n=6, A0=1.0))
    assert len(reports) == 1
    assert reports[0].passed
    assert float(reports[0].expected) == pytest.approx(16 * math.pi**3)


def test_numerator_check_high_n10():
    jet = random_jet(10, seed=7, normalize=True)
    reports = numerator_coefficient_check(TestFunctionModel(case="high", n=10, jet=jet))
    assert len(reports) == 2
    assert all(r.passed for r in reports)


def test_numerator_check_n8():
    jet = random_jet(8, seed=5, normalize=True)
    reports = numerator_coefficient_check(TestFunctionModel(case="n8", n=8, jet=jet))
    assert all(r.passed for r in reports)


def test_numerator_check_n9():
    jet = random_jet(9, seed=5, normalize=True)
    # n9 is held at the ratio level by fit_expansion only
    assert numerator_coefficient_check(TestFunctionModel(case="n9", n=9, jet=jet)) == []


# ------------------------------------------------------------------- MC


def test_mc_angular_spot_check():
    jet = random_jet(10, seed=7, normalize=True)
    res = mc_angular_check(jet, lam=0.02, samples=1_000_000, seed=0)
    assert res["within_3sigma"]
    # the raw angular averages must individually sit inside 4 sigma
    for key in ("gq4", "gj2"):
        d = res[key]
        assert abs(d["mc"] - d["exact"]) <= 4.0 * d["sigma"] + 1e-15
