"""Test-function asymptotics: cutoffs, angular reduction, coefficient fits."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qcurv.asymptotics import (
    CASES,
    DELTA,
    SMOOTHSTEP,
    TestFunctionModel,
    _ANNULUS_CUTOFF,
    _ANNULUS_HALF,
    _ANNULUS_NODES,
    _bulk_breakpoints,
    _ModelPieces,
    _panel_nodes,
    _panel_sum,
    curvature_averages,
    evaluate_model,
    fit_expansion,
    flat_numerator_coefficient,
    flat_ratio_coefficient,
    high_norm_integral_coefficient,
    high_ratio_coefficient,
    n8_ratio_log_coefficient,
    n9_ratio_coefficient,
    numerator_coefficient_check,
)
from qcurv import asymptotics, parametrix, polyalg
from qcurv.parametrix import CurvatureJet, psi4_closed_form, random_jet
from qcurv.polyalg import HomogPoly, harmonic_decompose
from qcurv.radial import RadialTermSum
from qcurv.sphereforms import omega_n
from qcurv.tensor import random_weyl

F = Fraction


def ball_integrals(pieces: _ModelPieces, breakpoints) -> tuple[float, float]:
    """The numerator and norm quadratures of ``_ModelPieces.bulk`` over the
    panels of consecutive breakpoints."""
    half, nodes = _panel_nodes(breakpoints)
    return tuple(_panel_sum(half, values) for values in pieces.bulk(nodes))


def smoothstep(degree: int) -> np.polynomial.Polynomial:
    """The smoothstep of odd degree 2N + 1 in t, from its closed formula
    sum_k (-1)^k C(N+k, k) C(2N+1, N-k) t^{N+1+k}, k = 0..N: 0 at t = 0,
    1 at t = 1, with N matched derivatives at both."""
    N = (degree - 1) // 2
    coeffs = np.zeros(degree + 1)
    for k in range(N + 1):
        coeffs[N + 1 + k] = math.comb(N + k, k) * math.comb(2 * N + 1, N - k) * (-1) ** k
    return np.polynomial.Polynomial(coeffs)


def cutoff_rows(degree: int, r: np.ndarray) -> np.ndarray:
    """eta1 and its first four r-derivatives at r inside the annulus, for
    the smoothstep of the given degree."""
    poly = smoothstep(degree)
    return np.array([poly.deriv(m)(r / DELTA - 1.0) / DELTA**m for m in range(5)])


# ------------------------------------------------- floating angular oracles


def sphere_monomial_integral(exponents) -> float:
    """Integral of prod x_i^{a_i} over the unit sphere S^{n-1} in R^n."""
    if any(e % 2 for e in exponents):
        return 0.0
    log_num = math.log(2.0)
    tot = 0.0
    for e in exponents:
        log_num += math.lgamma((e + 1) / 2)
        tot += e + 1
    return math.exp(log_num - math.lgamma(tot / 2))


def angular_average_poly(p: HomogPoly) -> float:
    """Average of a polynomial over the unit sphere S^{n-1} (floating oracle)."""
    surf = p.n * omega_n(p.n)
    return sum(float(c) * sphere_monomial_integral(e) for e, c in p.terms.items()) / surf


def mc_angular_check(
    jet: CurvatureJet, lam: float = 0.02, samples: int = 1_000_000, seed: int = 0
) -> dict:
    """Replace the closed-form curvature averages by Monte-Carlo estimates
    over S^{n-1} and re-assemble the high-case numerator; the exact value
    must sit within 3 sigma of the estimate.

    The samples are the Weyl quartic and J_ij x_i x_j at uniform points of
    the sphere; the Schouten quartic A4 there is their combination
    -2/(9(n-2)) quartic - J_ij x_i x_j/(n-2).  The numerator is affine in
    the A4 and J averages, so sampling them is a full MC treatment of the
    angular integral, and unit steps in each give its sensitivities
    exactly; the radial factors are reused unchanged.
    """
    n = jet.n
    rng = np.random.Generator(np.random.Philox(seed))
    Wf = jet.W.ints.astype(float) * float(jet.W.scale)
    Wmat = np.ascontiguousarray(Wf.transpose(0, 2, 1, 3).reshape(n * n, n * n))
    Jf = (jet.Jh.scale * jet.Jh.ints).astype(float)

    q_vals = np.empty(samples)
    j_vals = np.empty(samples)
    chunk = 20_000
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        g = rng.standard_normal((m, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        outer = (g[:, :, None] * g[:, None, :]).reshape(m, n * n)
        T = outer @ Wmat
        q_vals[done : done + m] = np.sum(T * T, axis=1)
        j_vals[done : done + m] = np.einsum("si,ij,sj->s", g, Jf, g)
        done += m

    a_vals = -2.0 / (9.0 * (n - 2)) * q_vals - j_vals / (n - 2)

    w2 = jet.W.norm_sq()
    a4, j, _ = curvature_averages(n)
    exact = {"gq4": float(w2 * F(3, 2 * n * (n + 2))), "gj2": float(j * w2), "a4": float(a4 * w2)}
    mc = {key: (v.mean(), v.std(ddof=1) / math.sqrt(samples))
          for key, v in (("gq4", q_vals), ("gj2", j_vals), ("a4", a_vals))}

    def numerator(ca: float, gj: float) -> float:
        model = TestFunctionModel(case="high", n=n, jet=jet)
        model.corr_constants = (ca, gj, float(w2))  # overrides the closed forms
        return ball_integrals(_ModelPieces(model, lam), _bulk_breakpoints(lam))[0]

    exact_num = numerator(exact["a4"], exact["gj2"])
    d_da = numerator(exact["a4"] + 1.0, exact["gj2"]) - exact_num
    d_dj = numerator(exact["a4"], exact["gj2"] + 1.0) - exact_num
    # the A4 and J samples share their points, so their errors are summed
    # per sample rather than added in quadrature
    shifts = d_da * (a_vals - exact["a4"]) + d_dj * (j_vals - exact["gj2"])
    mc_num = exact_num + shifts.mean()
    sigma = shifts.std(ddof=1) / math.sqrt(samples)

    return {
        "n": n,
        "lam": lam,
        "samples": samples,
        "exact_numerator": exact_num,
        "mc_numerator": mc_num,
        "sigma": sigma,
        "within_3sigma": abs(mc_num - exact_num) <= 3.0 * sigma + 1e-12,
        **{key: {"exact": exact[key], "mc": mean, "sigma": sig}
           for key, (mean, sig) in mc.items()},
    }


# ------------------------------------------------------------------ cutoff


def test_cutoff_range():
    # across the annulus, t = r/DELTA - 1 in [0, 1], the smoothstep climbs
    # from exactly 0 to 1
    t = np.linspace(0.0, 1.0, 101)
    e1 = SMOOTHSTEP(t)
    assert e1[0] == 0.0 and abs(e1[-1] - 1.0) <= 1e-15
    assert np.all(e1 >= -1e-15) and np.all(e1 <= 1 + 1e-15)
    assert np.all(np.diff(e1) >= -1e-15)


@pytest.mark.parametrize("degree", [9, 11])
def test_cutoff_c4_junctions(degree):
    # derivatives through order 4 vanish exactly at both junction points:
    # of the library cutoff, and of the degree-11 smoothstep that
    # test_cutoff_degree_independence puts in its place
    poly = SMOOTHSTEP if degree == 9 else smoothstep(degree)
    for t0 in (0.0, 1.0):
        for m in range(1, 5):
            assert poly.deriv(m)(t0) == 0.0
    # and grow only linearly just inside (C^4 regularity)
    eps = 1e-9
    t = np.array([eps, 1.0 - eps])
    for m in range(1, 5):
        assert np.all(np.abs(poly.deriv(m)(t)) <= 1e6 * eps)


def test_cutoff_annulus_table_is_the_degree9_smoothstep():
    # the library cutoff is the closed formula's degree-9 smoothstep, and
    # every node lies strictly inside the annulus, where eta1 is that
    # polynomial, so the table is its derivatives there, bit for bit
    assert SMOOTHSTEP == smoothstep(9)
    assert np.all((_ANNULUS_NODES > DELTA) & (_ANNULUS_NODES < 2 * DELTA))
    assert _ANNULUS_CUTOFF.shape == (5, *_ANNULUS_NODES.shape)
    assert _ANNULUS_CUTOFF.tobytes() == cutoff_rows(9, _ANNULUS_NODES).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        _ANNULUS_CUTOFF[0, 0, 0] = 1.0


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
    # the closed-form averages feeding the radial integrands must agree
    # with floating sphere-moment averages of the actual jet polynomials
    from test_tensor import schouten_quartic

    n = 10
    jet = random_jet(n, seed=3, normalize=True)
    w2 = jet.W.norm_sq()
    a4, j, _ = curvature_averages(n)
    # quartic form average: 3|W|^2/(2n(n+2)) r^4 on the unit sphere
    got = angular_average_poly(jet.W.quartic_form())
    assert abs(got - float(w2 * F(3, 2 * n * (n + 2)))) <= 1e-10 * max(abs(got), 1e-30)
    # Schouten Hessian quadratic average: j |W|^2 r^2
    got = angular_average_poly(jet.Jh.quadratic_form())
    assert abs(got - float(j * w2)) <= 1e-10 * max(abs(got), 1e-30)
    # full Schouten quartic average: the combination used in the bracket
    got = angular_average_poly(schouten_quartic(jet.W, jet.Jh))
    want = float(a4 * w2)
    assert abs(got - want) <= 1e-10 * max(abs(want), 1e-30)


def test_psi4_radial_block_against_float_oracle():
    jet = random_jet(9, seed=2)
    poly = psi4_closed_form(jet).get(4, 0)
    want = angular_average_poly(poly)
    got = TestFunctionModel(case="n9", n=9, jet=jet).psi4_block
    assert abs(got - want) <= 1e-10 * abs(want)


def _radial_block(p: HomogPoly) -> Fraction:
    """The sphere average of a degree-4 polynomial read the polynomial way:
    the constant of the k=2 block of its harmonic decomposition."""
    blocks = {b.k: b.h for b in harmonic_decompose(p)}
    return blocks[2].terms.get((0,) * p.n, F(0)) if 2 in blocks else F(0)


@pytest.mark.parametrize("n", range(5, 25))
def test_curvature_averages_equal_polynomial_route(n):
    from test_tensor import schouten_quartic

    a4, j, psi4 = curvature_averages(n)
    assert (psi4 is None) == (n < 9)
    for seed in (1, 2, 3, 5):
        for normalize in (False, True):
            jet = random_jet(n, seed, normalize=normalize)
            w2 = jet.W.norm_sq()
            assert w2 != 0
            assert jet.Jh.trace() / n == j * w2
            assert _radial_block(schouten_quartic(jet.W, jet.Jh)) == a4 * w2
            if n >= 9:
                assert _radial_block(psi4_closed_form(jet).get(4, 0)) == psi4 * w2


@pytest.mark.parametrize("case", list(CASES))
def test_fits_read_no_polynomial_algebra(monkeypatch, case):
    # the fit and the split checks read the jet only through |W|^2
    n = {"flat": 5, "lowdim": 6, "n8": 8, "n9": 9, "high": 10}[case]
    jet = random_jet(n, seed=7, normalize=True) if case != "flat" else None
    model = TestFunctionModel(case=case, n=n, jet=jet)
    calls = []
    for module, name in ((polyalg, "harmonic_decompose"), (parametrix, "psi4_closed_form")):
        def counted(*args, _orig=getattr(module, name), _name=name):
            calls.append(_name)
            return _orig(*args)

        monkeypatch.setattr(module, name, counted)
    assert fit_expansion(model).rel_error <= CASES[case].rtol
    assert all(r.passed for r in numerator_coefficient_check(model))
    assert calls == []
    # and the counters do see the polynomial route
    polyalg.harmonic_decompose(HomogPoly.r_squared(5).mul_r2k(1))
    parametrix.psi4_closed_form(random_jet(9, 1))
    assert calls == ["harmonic_decompose", "psi4_closed_form"]


# ------------------------------------------------------------- model setup


@pytest.mark.parametrize("case", CASES)
def test_model_validation(case):
    row = CASES[case]
    admits = {"flat": (5, None), "lowdim": (5, 7), "n8": (8, 8), "n9": (9, 9), "high": (10, None)}
    assert (row.n_min, row.n_max) == admits[case]
    bad = [row.n_min - 1] + ([row.n_max + 1] if row.n_max is not None else [])
    for n in bad:
        jet = random_jet(n, 1) if row.needs_jet else None
        with pytest.raises(ValueError, match="incompatible"):
            TestFunctionModel(case=case, n=n, jet=jet)
    if row.needs_jet:
        with pytest.raises(ValueError, match="needs a curvature jet"):
            TestFunctionModel(case=case, n=row.n_min)


def test_model_grid_validation():
    with pytest.raises(ValueError):
        TestFunctionModel(case="bogus", n=5)
    with pytest.raises(ValueError):
        TestFunctionModel(case="flat", n=5, lambdas=(0.3, 0.2, 0.1, 0.05))
    with pytest.raises(ValueError):
        TestFunctionModel(case="flat", n=5, lambdas=(0.1, 0.05, 0.02))
    with pytest.raises(ValueError, match="lie in"):
        TestFunctionModel(case="flat", n=5, lambdas=(0.04, 0.02, 0.01, float("nan")))
    with pytest.raises(ValueError, match="lambda 0.02 appears more than once"):
        TestFunctionModel(case="flat", n=5, lambdas=(0.04, 0.02, 0.01, 0.02))
    with pytest.raises(ValueError, match="finite"):
        TestFunctionModel(case="flat", n=5, A0=float("inf"))



@pytest.mark.parametrize("n", [172, 200, 360])
def test_model_refuses_closed_forms_past_the_float_range(n):
    # Gamma(n) of the split-check lead overflows from n = 172, and
    # Gamma(n/2) of the flat numerator closed form from n = 344
    with pytest.raises(ValueError, match=f"case 'flat' at n={n}: a closed form"):
        TestFunctionModel(case="flat", n=n, lambdas=(0.2, 0.21, 0.22, 0.23))


def test_model_accepts_the_last_finite_lead():
    m = TestFunctionModel(case="flat", n=171, lambdas=(0.2, 0.21, 0.22, 0.23))
    assert all(map(math.isfinite, m.closed_forms))
    assert m.closed_forms == (flat_ratio_coefficient(171), flat_numerator_coefficient(171))

def test_model_integrand_tasks():
    # the numerator is the bulk quadrature plus, for matched cases only,
    # the cutoff annulus term; nothing is added beyond the annulus
    for case, n in (("flat", 5), ("lowdim", 6), ("n8", 8), ("n9", 9), ("high", 10)):
        jet = random_jet(n, seed=1, normalize=True) if CASES[case].needs_jet else None
        m = TestFunctionModel(case=case, n=n, jet=jet)
        lam = m.lambdas[0]
        pieces = _ModelPieces(m, lam)
        assert all(np.all(np.isfinite(v)) for v in pieces.bulk(np.array([0.3, 0.7])))
        bulk = ball_integrals(pieces, _bulk_breakpoints(lam))[0]
        annulus = _panel_sum(_ANNULUS_HALF, pieces.numerator_annulus(
            _ANNULUS_NODES, cutoff_rows(9, _ANNULUS_NODES)))
        assert annulus != 0.0
        want = bulk + annulus if CASES[case].matched else bulk
        assert evaluate_model(m, lam)["numerator"] == want
        assert CASES[case].matched == (case != "high")


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
    pieces = _ModelPieces(m, 0.02)
    bp = _bulk_breakpoints(0.02)
    bp2 = []
    for a, b in zip(bp[:-1], bp[1:]):
        bp2 += [a, 0.5 * (a + b)]
    bp2.append(bp[-1])
    for coarse, fine in zip(ball_integrals(pieces, bp), ball_integrals(pieces, bp2)):
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


def test_cutoff_degree_independence(monkeypatch):
    # the coefficient does not depend on the cutoff: the degree-11
    # smoothstep's table in place of the library's moves it by under 0.5%
    fit9 = fit_expansion(TestFunctionModel(case="flat", n=5))
    monkeypatch.setattr(asymptotics, "_ANNULUS_CUTOFF", cutoff_rows(11, _ANNULUS_NODES))
    fit11 = fit_expansion(TestFunctionModel(case="flat", n=5))
    assert fit11.coefficient != fit9.coefficient
    assert abs(fit9.coefficient - fit11.coefficient) <= 0.005 * abs(fit9.coefficient)


def test_ill_conditioned_fit_raises():
    jet = random_jet(8, seed=1, normalize=True)
    # distinct points 1e-12 apart: the two basis columns agree to ~1e-10
    with pytest.raises(ValueError, match="ill-conditioned"):
        TestFunctionModel(case="n8", n=8, jet=jet,
                          lambdas=(0.01, 0.010000000001, 0.010000000002, 0.010000000003))


def test_each_configuration_is_judged_once(monkeypatch):
    # the grid's conditioning is judged when the model is built, not once
    # per fit, and the fits report that one condition number
    calls = []
    real = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda A: calls.append(A) or real(A))
    m = TestFunctionModel(case="high", n=10, jet=random_jet(10, seed=7, normalize=True))
    fit = fit_expansion(m)
    numerator_coefficient_check(m)
    assert len(calls) == 1
    assert fit.details["condition_number"] == m.design[2] == real(m.design[1])


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


# ---------------------------------------------- batching and shape caches

_DEFAULT_N = {"flat": 5, "lowdim": 6, "n8": 8, "n9": 9, "high": 10}


def _default_model(case: str) -> TestFunctionModel:
    n = _DEFAULT_N[case]
    jet = random_jet(n, seed=7, normalize=True) if CASES[case].needs_jet else None
    return TestFunctionModel(case=case, n=n, jet=jet)


def _panel_quad_per_panel(fn, breakpoints) -> float:
    """The quadrature as one integrand call per panel."""
    nodes, weights = np.polynomial.legendre.leggauss(48)
    total = 0.0
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        total += half * float(np.dot(weights, fn(mid + half * nodes)))
    return total


@pytest.mark.parametrize("case", list(CASES))
def test_batched_panel_quad_matches_per_panel_loop(case):
    # one integrand pass over every panel gives the per-panel sums bit for
    # bit, and evaluate_model reports exactly those sums
    m = _default_model(case)
    annulus = [DELTA * k for k in (1.0, 1.25, 1.5, 1.75, 2.0)]
    for lam in m.lambdas:
        pieces = _ModelPieces(m, lam)
        bulk = _bulk_breakpoints(lam)
        num, norm = (_panel_quad_per_panel(lambda r, i=i: pieces.bulk(r)[i], bulk) for i in (0, 1))
        assert ball_integrals(pieces, bulk) == (num, norm)
        ring = _panel_quad_per_panel(
            lambda r: pieces.numerator_annulus(r, cutoff_rows(9, r)), annulus)
        got = evaluate_model(m, lam)
        assert got["norm_integral"] == norm
        assert got["numerator"] == (num + ring if CASES[case].matched else num)


@pytest.mark.parametrize("case", list(CASES))
def test_ball_integrands_share_one_evaluation(monkeypatch, case):
    # per lam, main and corr_avg run once each, on the array of every ball node
    m = _default_model(case)
    calls = []
    real_init, real_corr = _ModelPieces.__init__, _ModelPieces.corr_avg

    def init(self, model, lam):
        real_init(self, model, lam)
        main = self.main
        self.main = lambda r: calls.append(("main", r.shape)) or main(r)

    monkeypatch.setattr(_ModelPieces, "__init__", init)
    monkeypatch.setattr(_ModelPieces, "corr_avg",
                        lambda self, r: calls.append(("corr_avg", r.shape)) or real_corr(self, r))
    for lam in m.lambdas:
        calls.clear()
        evaluate_model(m, lam)
        nodes = (len(_bulk_breakpoints(lam)) - 1, 48)
        assert sorted(calls) == [("corr_avg", nodes), ("main", nodes)]


def _chain(h: RadialTermSum, order: int) -> list[RadialTermSum]:
    return [h] + _chain(h.diff(), order - 1) if order else [h]


def _direct_sums(n: int, lam: float) -> dict:
    """The radial factors built from scratch at lam, sharing nothing."""
    q, q4 = F(n - 4, 2), F(n + 4, 2)
    u = RadialTermSum(lam, [(F(1), q, 0, -q)])
    beta = RadialTermSum(lam, [(F(1), q, 4 - n, F(0)), (F(-1), q, 0, -q)])
    return {
        "u": _chain(u, 2),
        "main": RadialTermSum(lam, [(F(1), q4, 0, -q4)]).scale(n * (n + 2) * (n - 2) * (n - 4)),
        "beta": _chain(beta, 4),
    }


@pytest.mark.parametrize("case", list(CASES))
def test_bound_pieces_equal_pieces_built_at_lambda(case):
    m = _default_model(case)
    r = np.geomspace(1e-3, 2.0, 97).reshape(1, 97)
    for lam in (*m.lambdas, 0.0371, 0.2):
        pieces = _ModelPieces(m, lam)
        want = _direct_sums(m.n, lam)
        v = want["beta"][:3] if CASES[case].matched else want["u"]
        pairs = [(pieces.u, want["u"][0]), (pieces.main, want["main"]),
                 *zip(pieces.beta, want["beta"]), *zip((pieces.v, pieces.v1, pieces.v2), v)]
        assert len(pairs) == 10
        for got, direct in pairs:
            assert got.lam == direct.lam == lam
            assert got.terms == direct.terms
            assert np.array_equal(got(r), direct(r))


@pytest.mark.parametrize("case", list(CASES))
def test_new_lambda_derives_no_radial_algebra(monkeypatch, case):
    m = _default_model(case)
    first = evaluate_model(m, m.lambdas[0])
    calls = []
    for name in ("__init__", "diff", "canonical"):
        def counted(self, *args, _orig=getattr(RadialTermSum, name), _name=name):
            calls.append(_name)
            return _orig(self, *args)

        monkeypatch.setattr(RadialTermSum, name, counted)
    evaluate_model(m, m.lambdas[1])
    assert calls == []
    # the same lam again gives the same floats
    assert evaluate_model(m, m.lambdas[0]) == first
    assert calls == []
    # and the counters do see a derivation
    RadialTermSum(1.0, [(F(1), F(0), 2, F(0))]).diff().canonical()
    assert calls == ["__init__", "diff", "__init__", "canonical", "__init__"]


# ------------------------------------------------------------------- MC


def test_mc_angular_spot_check():
    jet = random_jet(10, seed=7, normalize=True)
    res = mc_angular_check(jet, lam=0.02, samples=1_000_000, seed=0)
    assert res["within_3sigma"]
    # the raw angular averages must individually sit inside 4 sigma
    for key in ("gq4", "gj2", "a4"):
        d = res[key]
        assert abs(d["mc"] - d["exact"]) <= 4.0 * d["sigma"] + 1e-15
