"""Closed-form sphere quantities against quadrature and recurrence oracles."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from qcurv.radial import RadialTermSum
from qcurv.sphereforms import (
    MOMENTS_MAX_N,
    bubble_bilaplacian,
    bubble_f,
    bubble_pde_residual,
    bubble_u,
    constants_table,
    omega_n,
    radial_moment,
    sharp_constants,
    sphere_area,
    u1_delta_norm_sq,
    y4_ratio_from_moments,
)


def y4_ratio_by_quadrature(n: int) -> float:
    """||Delta u_1||^2 / ||u_1||^2_{2n/(n-4)} by adaptive quadrature on the
    closed-form profile.

    Fully independent of the Gamma identities: the integrands come from
    the derivative algebra and the integrals from scipy.
    """
    u = bubble_u(1.0, n)
    lap = u.laplacian(n)
    surf = n * omega_n(n)

    num, _ = quad(
        lambda r: lap(r) ** 2 * r ** (n - 1), 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=300
    )
    den, _ = quad(
        lambda r: u(r) ** (2.0 * n / (n - 4)) * r ** (n - 1),
        0.0,
        np.inf,
        epsabs=0.0,
        epsrel=1e-13,
        limit=300,
    )
    return (surf * num) / (surf * den) ** ((n - 4) / n)


def green_north(x, n: int) -> float:
    """Green's function of P on S^n with pole at the north pole,

        (|x|^2 + 1)^{(n-4)/2} / ( n(n-2)(n-4) 2^{n-3} omega_n ),

    in stereographic coordinates x.  Accepts a radius or a coordinate
    vector.
    """
    if n < 5:
        raise ValueError("n >= 5 required")
    x = np.asarray(x, dtype=float)
    r2 = float(np.dot(x, x)) if x.ndim == 1 else float(x) ** 2
    pref = 1.0 / (n * (n - 2) * (n - 4) * 2.0 ** (n - 3) * omega_n(n))
    return pref * (r2 + 1.0) ** ((n - 4) / 2.0)


# ------------------------------------------------------------- radial_moment


def test_radial_moment_simple_value():
    for n in (5, 8, 12):
        got = radial_moment(n, 0, n)
        want = math.pi ** (n / 2) * math.gamma(n / 2) / math.gamma(n)
        assert abs(got - want) <= 1e-13 * want


def test_radial_moment_preconditions():
    with pytest.raises(ValueError):
        radial_moment(3, -6, 5)  # b <= -n
    with pytest.raises(ValueError):
        radial_moment(2, 0, 5)  # 2a - b <= n


@pytest.mark.parametrize("a,b,n", [(6.0, 1.5, 5), (9.0, 2.0, 7), (10.0, -3.0, 6)])
def test_radial_moment_against_quadrature(a, b, n):
    surf = n * omega_n(n)
    val, _ = quad(
        lambda r: r**b / (r**2 + 1) ** a * r ** (n - 1),
        0,
        np.inf,
        epsabs=0,
        epsrel=1e-12,
        limit=300,
    )
    got = radial_moment(a, b, n)
    assert abs(got - surf * val) <= 1e-10 * abs(got)


def test_radial_moment_beta_recurrence():
    # (a-1-(b+n)/2)/(a-1) * M(a-1,b,n) = M(a,b,n), from the Gamma recurrence
    for n in (5, 9):
        for a in np.linspace(n + 1.0, n + 6.0, 6):
            for b in (0.0, 1.0, 2.5):
                lhs = (a - 1 - (b + n) / 2) / (a - 1) * radial_moment(a - 1, b, n)
                rhs = radial_moment(a, b, n)
                assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


# ------------------------------------------------------------------ bubbles


def test_u1_at_origin():
    for n in (5, 8):
        assert abs(bubble_u(1.0, n)(0.0) - 1.0) < 1e-15


def test_bubble_scaling_law():
    n = 7
    lam = 0.37
    u_lam = bubble_u(lam, n)
    u_1 = bubble_u(1.0, n)
    for x in (0.1, 0.9, 3.3):
        want = lam ** (-(n - 4) / 2) * u_1(x / lam)
        assert abs(u_lam(x) - want) <= 1e-13 * abs(want)


def test_f_is_u_to_the_critical_power():
    n = 9
    lam = 1.7
    u = bubble_u(lam, n)
    f = bubble_f(lam, n)
    for x in (0.2, 1.0, 4.0):
        want = u(x) ** ((n + 4) / (n - 4))
        assert abs(f(x) - want) <= 1e-12 * abs(want)


def test_deriv_evaluates_closed_form():
    # u' = -(n-4) r u / (r^2 + lam^2)
    n, lam = 7, 0.6
    u = bubble_u(lam, n)
    r = np.array([0.05, 0.6, 3.0])
    assert np.array_equal(u.deriv(0, r), u(r))
    want = -(n - 4) * r * u(r) / (r * r + lam * lam)
    assert np.max(np.abs(u.deriv(1, r) - want) / np.abs(want)) <= 1e-14


def test_canonical_expands_even_r_powers():
    F = Fraction
    lam = 0.7
    kept = [(F(5), 0, 1, F(-1, 2)), (F(1), 0, -2, F(1, 2))]  # odd, negative r powers
    x = RadialTermSum(lam, [(F(2), 1, 4, F(-3))] + kept)
    # 2 lam r^4 g^-3 = 2 lam g^-1 - 4 lam^3 g^-2 + 2 lam^5 g^-3 with g = r^2 + lam^2
    want = RadialTermSum(lam, [(F(2), 1, 0, F(-1)), (F(-4), 3, 0, F(-2)), (F(2), 5, 0, F(-3))]
                         + kept)
    assert x.canonical().terms == want.terms
    r = np.geomspace(0.1, 10.0, 9)
    assert np.max(np.abs(x.canonical()(r) - x(r)) / np.abs(x(r))) <= 1e-12


def test_bilap_of_constant_vanishes():
    const = RadialTermSum.single(1.0, Fraction(3), 0, 0, 0)
    assert const.bilaplacian(6).terms == []
    assert const.bilaplacian(6)(2.0) == 0.0


@pytest.mark.parametrize("term", [(0.1, 0, 2, 0), (True, 0, 2, 0), (1, 0.5, 2, 0), (1, 0, 2, 0.5),
                                  (1, 0, 2.5, 0), (1, 0, 2.0, 0), (1, 0, True, 0)])
def test_radial_terms_refuse_inexact_input(term):
    # c, p and s are exact rationals and j an int: a float or a bool would
    # be read as its binary value, truncated, or as 1
    with pytest.raises(ValueError):
        RadialTermSum(1.0, [term])
    with pytest.raises(ValueError):
        RadialTermSum.single(1.0, *term)
    if isinstance(term[0], float):
        with pytest.raises(ValueError):
            RadialTermSum.single(1.0, 1, 0, 2, 0).scale(term[0])


def test_at_binds_the_same_terms():
    F = Fraction
    x = RadialTermSum(0.5, [(F(2), 1, 4, F(-3)), (F(5), 0, 1, F(-1, 2))])
    y = x.at(1.5)
    assert y.lam == 1.5 and x.lam == 0.5 and y.terms is x.terms
    fresh = RadialTermSum(1.5, x.terms)
    r = np.geomspace(0.1, 10.0, 9)
    for k in range(4):
        assert np.array_equal(y.deriv(k, r), fresh.deriv(k, r))
    # derived sums are shared by every binding, and bound to its lam
    assert x.diff().terms is y.diff().terms and y.diff().lam == 1.5
    assert y.canonical().terms == fresh.canonical().terms
    assert np.array_equal(y.canonical()(r), fresh.canonical()(r))
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            x.at(bad)


@pytest.mark.parametrize("n", [5, 6, 9, 12])
def test_bubbles_bound_per_lambda_equal_fresh_sums(n):
    F = Fraction
    q, q4 = F(n - 4, 2), F(n + 4, 2)
    r = np.geomspace(1e-2, 1e2, 41)
    for lam in (0.3, 1.0, 2.7):
        u = RadialTermSum(lam, [(F(1), q, 0, -q)])
        pairs = [(bubble_u(lam, n), u), (bubble_f(lam, n), RadialTermSum(lam, [(F(1), q4, 0, -q4)])),
                 (bubble_bilaplacian(lam, n), u.bilaplacian(n).canonical())]
        for got, fresh in pairs:
            assert got.lam == lam and got.terms == fresh.terms
            assert np.array_equal(got(r), fresh(r))
        for k in range(5):
            assert np.array_equal(bubble_u(lam, n).deriv(k, r), u.deriv(k, r))
        assert np.array_equal(bubble_pde_residual(lam, n, r),
                              np.abs(pairs[2][1](r) - n * (n + 2) * (n - 2) * (n - 4)
                                     * pairs[1][1](r)) / np.abs(n * (n + 2) * (n - 2) * (n - 4)
                                                                * pairs[1][1](r)))


def test_bubble_algebra_derived_once_per_dimension(monkeypatch):
    bubble_bilaplacian(0.4, 7)
    bubble_u(0.4, 7).deriv(4, 1.0)
    calls = []
    for name in ("__init__", "diff", "canonical"):
        def counted(self, *args, _orig=getattr(RadialTermSum, name), _name=name):
            calls.append(_name)
            return _orig(self, *args)

        monkeypatch.setattr(RadialTermSum, name, counted)
    bubble_bilaplacian(0.9, 7)
    bubble_u(0.9, 7).deriv(4, 1.0)
    # each diff is a lookup of the chain derived at lam = 0.4: nothing merges
    assert calls == ["diff"] * 4


@pytest.mark.parametrize("n", range(5, 31))
def test_bubble_identity_exact(n):
    # Delta^2 u_lam - n(n+2)(n-2)(n-4) f_lam is the empty sum once canonical
    c = n * (n + 2) * (n - 2) * (n - 4)
    # every r power is even and >= 0, where canonical term lists are unique
    assert all(j >= 0 and j % 2 == 0 for _, _, j, _ in bubble_u(1.0, n).bilaplacian(n).terms)
    diff = bubble_u(1.0, n).bilaplacian(n) + bubble_f(1.0, n).scale(-c)
    assert diff.terms != []
    assert diff.canonical().terms == []


@pytest.mark.parametrize("n", range(5, 17))
def test_bubble_pde_residual(n):
    # out to r/lam = 10^4: the derived, uncanonical sum cancels and loses
    # 1e-10 from r/lam ~ 24
    for lam in (0.5, 1.0, 2.0):
        radii = lam * np.geomspace(1e-3, 1e4, 200)
        assert bubble_pde_residual(lam, n, radii).max() <= 1e-10


def test_bilap_equals_coefficient_times_f():
    n = 6
    lam = 2.0
    r = np.geomspace(0.1, 10, 25)
    lhs = bubble_u(lam, n).bilaplacian(n)(r)
    rhs = n * (n + 2) * (n - 2) * (n - 4) * bubble_f(lam, n)(r)
    assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) <= 1e-11


# ---------------------------------------------------------------- constants


def test_sharp_constants_n5_closed_value():
    # Gamma(3) = 2 cancels 2^{4/5}: Y4(S^5) = (105/16) pi^{12/5}
    sc = sharp_constants(5)
    want = 105 / 16 * math.pi ** (12 / 5)
    assert abs(sc.Y4_sphere - want) <= 1e-13 * want
    assert sc.Q_sphere == 105 / 8  # n(n+2)(n-2)/8 at n=5... exact Fraction
    assert float(sc.Q_sphere) == 5 * 7 * 3 / 8


def test_duality_product():
    for n in range(5, 13):
        sc = sharp_constants(n)
        assert abs(sc.Theta4_sphere * sc.Y4_sphere - 1.0) <= 1e-14


@pytest.mark.parametrize("n", range(5, 13))
def test_y4_triple_equality(n):
    sc = sharp_constants(n)
    assert abs(y4_ratio_from_moments(n) - sc.Y4_sphere) <= 1e-12 * sc.Y4_sphere


def test_moments_max_n_is_the_last_normal_moment():
    assert radial_moment(MOMENTS_MAX_N, 0, MOMENTS_MAX_N) >= sys.float_info.min
    assert radial_moment(MOMENTS_MAX_N + 1, 0, MOMENTS_MAX_N + 1) < sys.float_info.min
    sc = sharp_constants(MOMENTS_MAX_N)
    assert abs(y4_ratio_from_moments(MOMENTS_MAX_N) - sc.Y4_sphere) <= 1e-12 * sc.Y4_sphere
    for n in (MOMENTS_MAX_N + 1, 341):
        with pytest.raises(ValueError, match="normal float range"):
            y4_ratio_from_moments(n)


@pytest.mark.parametrize("n", range(5, 13))
def test_y4_by_quadrature(n):
    sc = sharp_constants(n)
    assert abs(y4_ratio_by_quadrature(n) - sc.Y4_sphere) <= 1e-10 * sc.Y4_sphere


def test_delta_norm_against_quadrature():
    n = 6
    lap = bubble_u(1.0, n).laplacian(n)
    val, _ = quad(lambda r: lap(r) ** 2 * r ** (n - 1), 0, np.inf, epsrel=1e-12, epsabs=0)
    got = u1_delta_norm_sq(n)
    assert abs(got - n * omega_n(n) * val) <= 1e-10 * got


# -------------------------------------------------------------- green_north


def test_green_north_origin_value():
    for n in (5, 9):
        want = 1.0 / (n * (n - 2) * (n - 4) * 2 ** (n - 3) * omega_n(n))
        assert abs(green_north(0.0, n) - want) <= 1e-14 * want


def test_green_north_ratio_scaling():
    n = 7
    ratio = green_north(1.0, n) / green_north(0.0, n)
    assert abs(ratio - 2 ** ((n - 4) / 2)) <= 1e-13


def test_green_north_vector_input():
    n = 6
    x = np.array([0.6, 0.8])  # |x| = 1
    assert abs(green_north(x, n) - green_north(1.0, n)) <= 1e-14


def test_green_north_n5_spot_value():
    # independent re-evaluation with explicit log-Gamma omega_n
    n = 5
    om = math.pi ** 2.5 / math.gamma(3.5)
    want = (1.0 + 0.49) ** 0.5 / (5 * 3 * 1 * 4 * om)
    assert abs(green_north(0.7, n) - want) <= 1e-13 * want


def test_sphere_area_identity():
    # area(S^5) = 6 omega_6 = pi^3
    assert abs(sphere_area(5) - math.pi**3) <= 1e-13 * math.pi**3


def test_constants_table_residuals():
    rows = constants_table(range(5, 9))
    assert len(rows) == 4
    for row in rows:
        assert row["resid_Y4_vs_moments"] < 1e-12
        assert row["resid_duality"] < 1e-14
