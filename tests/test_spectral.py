"""Zonal solver checks: transforms, spectra, functionals, invariance."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qcurv.sphereforms import sharp_constants, sphere_area
from qcurv.spectral import MAX_L, PaneitzSpectrum, SphereSolver, ZonalField, spectral_report

F = Fraction


def mode(solver: SphereSolver, l: int) -> ZonalField:
    """The orthonormal basis field Z_l."""
    coeffs = np.zeros(solver.L + 1)
    coeffs[l] = 1.0
    return ZonalField(solver.n, solver.L, coeffs)


def quadrature_energy(solver: SphereSolver, u: ZonalField) -> float:
    """Pointwise quadrature of P u * u on the main grid (Parseval check)."""
    pu = solver.synthesize(solver.apply_P(u))
    uu = solver.synthesize(u)
    return float(np.sum(solver.w * pu * uu))


def y4plus_functional(solver: SphereSolver, u: ZonalField) -> float:
    """The Sobolev quotient, defined for fields positive on the oversampled grid."""
    vals = solver.synthesize(u, oversampled=True)
    if np.min(vals) <= 0:
        raise ValueError("field is not positive on the oversampled grid")
    return solver.y4_functional(u)


def expanded_mu_residuals(spec: PaneitzSpectrum) -> list[int]:
    """16 mu_l - (16 lam_l^2 + 8(n^2-2n-4) lam_l + n(n+2)(n-2)(n-4)) in Python
    integers: the stored factored form against the expanded polynomial."""
    n = spec.n
    return [
        int(mu) - (16 * int(lam) ** 2 + 8 * (n * n - 2 * n - 4) * int(lam)
                   + n * (n + 2) * (n - 2) * (n - 4))
        for lam, mu in zip(spec.lam, spec.mu_num)
    ]


@pytest.fixture(scope="module")
def s5():
    return SphereSolver(5, 32)


@pytest.fixture(scope="module")
def s7():
    return SphereSolver(7, 24)


# ------------------------------------------------------------- quadrature


def test_quadrature_mass(s5):
    assert abs(s5.w.sum() - sphere_area(5)) <= 1e-12 * sphere_area(5)
    assert abs(s5.w_over.sum() - sphere_area(5)) <= 1e-12 * sphere_area(5)


def test_orthonormality(s5, s7):
    assert s5.gram_defect() <= 1e-12
    assert s7.gram_defect() <= 1e-12


def test_solver_validation():
    with pytest.raises(ValueError):
        SphereSolver(4, 16)
    with pytest.raises(ValueError):
        SphereSolver(5, 16, oversample=2)
    with pytest.raises(ValueError):
        SphereSolver(5, 16, grid_nodes=8)
    with pytest.raises(ValueError, match="exceeds"):
        SphereSolver(5, MAX_L + 1)


def test_solvers_of_one_shape_share_read_only_rules(s5):
    other = SphereSolver(5, s5.L)
    assert other.t is s5.t and other.t_over is s5.t_over
    assert not s5.t.flags.writeable and not s5.t_over.flags.writeable
    # the weights are scaled per solver, from the same read-only rule
    assert s5.w.flags.writeable and np.array_equal(other.w, s5.w)
    with pytest.raises(ValueError):
        s5.t[0] = 0.0


# ----------------------------------------------------------- transforms


def test_constant_field_coefficients(s5):
    f = s5.constant_field(2.5)
    vals = s5.synthesize(f)
    assert np.max(np.abs(vals - 2.5)) <= 1e-12
    assert np.max(np.abs(f.coeffs[1:])) == 0.0


def test_mode_round_trip(s5):
    # nodal values of Z_3 analyze to the unit vector e_3
    z3 = mode(s5, 3)
    vals = s5.synthesize(z3)
    back = s5.analyze(vals)
    want = np.zeros(s5.L + 1)
    want[3] = 1.0
    assert np.max(np.abs(back.coeffs - want)) <= 1e-11


def test_random_field_round_trip(s5):
    rng = np.random.Generator(np.random.Philox(42))
    f = ZonalField(5, s5.L, rng.standard_normal(s5.L + 1))
    vals = s5.synthesize(f, oversampled=True)
    back = s5.analyze(vals, oversampled=True)
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-11 * np.max(np.abs(f.coeffs))


# ------------------------------------------------------------- spectrum


def test_mu_values_n5():
    spec = PaneitzSpectrum(5, 4)
    assert spec.mu_den == 16
    assert spec.mu_num[0] == 105
    # l=1: lam=5, mu = 25 + (11/2)*5 + 105/16 = 945/16
    assert spec.lam[1] == 5
    assert spec.mu_num[1] == 945
    assert F(int(spec.mu_num[1]), spec.mu_den) == (5 + F(15, 4)) * (5 + F(7, 4))


def test_spectrum_factorization_exact():
    for n in (5, 8, 12):
        spec = PaneitzSpectrum(n, 64)
        assert all(r == 0 for r in expanded_mu_residuals(spec))
        assert all(m > 0 for m in spec.mu_num)


def test_nu_values():
    for n in (5, 9):
        spec = PaneitzSpectrum(n, 3)
        assert spec.nu_den == n - 2
        assert F(int(spec.nu_num[0]), spec.nu_den) == n * (n - 1)
        # nu_l = 4(n-1)/(n-2) lam_l + n(n-1)
        assert all(F(int(v), n - 2) == F(4 * (n - 1), n - 2) * int(lam) + n * (n - 1)
                   for lam, v in zip(spec.lam, spec.nu_num))


@pytest.mark.parametrize("n,L", [(5, 2), (7, 256), (12, 1024), (326, 64)])
def test_spectrum_floats_correctly_rounded(n, L):
    spec = PaneitzSpectrum(n, L)
    assert spec.mu_f.tolist() == [float(F(int(m), 16)) for m in spec.mu_num]
    assert spec.nu_f.tolist() == [float(F(int(v), n - 2)) for v in spec.nu_num]


def test_spectrum_exact_at_the_cap():
    # the degree cap at the largest dimension `constants` accepts
    spec = PaneitzSpectrum(326, MAX_L)
    for arr in (spec.lam, spec.mu_num, spec.nu_num):
        assert arr.dtype == np.int64
        assert 0 < int(arr.max()) < 2**53
    L, n = MAX_L, 326
    lam = L * (L + n - 1)
    assert int(spec.mu_num[-1]) == (4 * lam + n * (n - 2)) * (4 * lam + (n + 2) * (n - 4))


def test_spectrum_past_exact_range_refused():
    with pytest.raises(ValueError, match="exact float range"):
        PaneitzSpectrum(10**6, 8)


def test_apply_P_GP_inverse(s5):
    rng = np.random.Generator(np.random.Philox(1))
    u = ZonalField(5, s5.L, rng.standard_normal(s5.L + 1))
    back = s5.apply_GP(s5.apply_P(u))
    assert np.max(np.abs(back.coeffs - u.coeffs)) <= 1e-12 * np.max(np.abs(u.coeffs))


# ------------------------------------------------------------ functionals


def test_energy_of_pure_mode(s5):
    for l in (0, 3, 7):
        u = mode(s5, l)
        assert abs(s5.energy_E(u) - s5.spectrum.mu_f[l]) <= 1e-12


def test_energy_of_constant(s5):
    c = 1.3
    u = s5.constant_field(c)
    want = s5.spectrum.mu_f[0] * c * c * sphere_area(5)
    assert abs(s5.energy_E(u) - want) <= 1e-11 * want


def test_parseval_energy(s5):
    rng = np.random.Generator(np.random.Philox(3))
    coeffs = np.zeros(s5.L + 1)
    coeffs[: s5.L // 2] = rng.standard_normal(s5.L // 2)
    u = ZonalField(5, s5.L, coeffs)
    spectral = s5.energy_E(u)
    quadrature = quadrature_energy(s5, u)
    assert abs(spectral - quadrature) <= 1e-9 * abs(spectral)


def test_lp_norm_of_constant(s5):
    # area(S^5) = pi^3
    for p in (2.0, 10 / 9, 10.0):
        got = s5.lp_norm(s5.constant_field(1.0), p)
        assert abs(got - math.pi ** (3 / p)) <= 1e-10 * got
    assert abs(s5.lp_norm(s5.constant_field(2.0), 2.0) - 2 * math.pi**1.5) <= 1e-10


def test_lp_norm_homogeneity(s5):
    rng = np.random.Generator(np.random.Philox(9))
    f = ZonalField(5, s5.L, rng.standard_normal(s5.L + 1))
    f2 = ZonalField(5, s5.L, 2 * f.coeffs)
    p = 10 / 9
    assert abs(s5.lp_norm(f2, p) - 2 * s5.lp_norm(f, p)) <= 1e-10 * s5.lp_norm(f2, p)


def test_lp_norm_quadrature_refinement(s5):
    # positive smooth field so |u|^p is smooth; doubling the nonlinearity
    # grid must leave the norm unchanged to 1e-10
    fine = SphereSolver(5, s5.L, oversample=6)
    rng = np.random.Generator(np.random.Philox(11))
    f = s5.constant_field(1.0)
    f.coeffs[1:8] += 0.03 * rng.standard_normal(7) * f.coeffs[0]
    assert s5.synthesize(f, oversampled=True).min() > 0
    p = 10 / 9
    assert abs(s5.lp_norm(f, p) - fine.lp_norm(f, p)) <= 1e-10 * fine.lp_norm(f, p)


def test_theta4_constant_equals_inverse_y4(s5):
    sc = sharp_constants(5)
    th = s5.theta4_functional(s5.constant_field(1.0))
    # closed form 16/(105 pi^{12/5})
    want = 16 / (105 * math.pi ** (12 / 5))
    assert abs(th - want) <= 1e-12 * want
    assert abs(th - sc.Theta4_sphere) <= 1e-8 * sc.Theta4_sphere


def test_theta4_scale_invariance(s5):
    rng = np.random.Generator(np.random.Philox(5))
    f = ZonalField(5, s5.L, rng.standard_normal(s5.L + 1))
    a = s5.theta4_functional(f)
    b = s5.theta4_functional(ZonalField(5, s5.L, 3.7 * f.coeffs))
    assert abs(a - b) <= 1e-12 * abs(a)


def test_theta4_maximal_at_constant(s5):
    f = s5.constant_field(1.0)
    base = s5.theta4_functional(f)
    pert = f.copy()
    pert.coeffs[1] += 0.2 * pert.coeffs[0]
    assert s5.theta4_functional(pert) < base


def test_y4_duality_product(s5):
    const = s5.constant_field(1.0)
    prod = s5.y4_functional(const) * s5.theta4_functional(const)
    assert abs(prod - 1.0) <= 1e-10


def test_y4plus_requires_positive(s5):
    f = mode(s5, 3)
    with pytest.raises(ValueError):
        y4plus_functional(s5, f)


def test_y4plus_theta4_product_inequality(s5):
    # Y4+(u) * Theta4(P u) <= 1 for positive trials
    rng = np.random.Generator(np.random.Philox(21))
    for _ in range(5):
        f = s5.constant_field(1.0)
        f.coeffs[1:4] += 0.01 * rng.standard_normal(3) * f.coeffs[0]
        vals = s5.synthesize(f, oversampled=True)
        assert vals.min() > 0
        prod = y4plus_functional(s5, f) * s5.theta4_functional(s5.apply_P(f))
        assert prod <= 1.0 + 1e-8


def test_local_vs_green_form_agreement(s5):
    # E(u)/||Pu||^2 and the dual form at f = Pu are the same number by
    # substitution; this guards the two code paths against each other
    rng = np.random.Generator(np.random.Philox(17))
    for _ in range(4):
        coeffs = rng.standard_normal(s5.L + 1) * np.exp(-0.2 * np.arange(s5.L + 1))
        u = ZonalField(5, s5.L, coeffs)
        f = s5.apply_P(u)
        local = s5.energy_E(u) / s5.lp_norm(f, 10 / 9) ** 2
        dual = s5.theta4_functional(f)
        assert abs(local - dual) <= 1e-10 * abs(dual)


def test_iteration_limit_dominates_perturbed_trials(s5):
    # the limit from constant data is the argmax among tested trials
    limit = s5.extremal_iteration(s5.constant_field(1.0), 50, 0.5)[-1][1]
    rng = np.random.Generator(np.random.Philox(29))
    for _ in range(5):
        trial = s5.constant_field(1.0)
        trial.coeffs[1:5] += 0.05 * rng.standard_normal(4) * trial.coeffs[0]
        assert s5.theta4_functional(trial) <= limit + 1e-12


def test_zero_field_errors(s5):
    z = ZonalField(5, s5.L, np.zeros(s5.L + 1))
    for fn in (s5.theta4_functional, s5.y4_functional, s5.theta2_functional, s5.yamabe_functional):
        with pytest.raises(ValueError):
            fn(z)


@pytest.mark.parametrize("n", [327, 400])
def test_functionals_refuse_underflowing_norm(n):
    s = SphereSolver(n, 8)
    tiny = s.constant_field(1e-150)  # nonzero, but its L^p norm squared underflows
    assert np.any(tiny.coeffs)
    for fn in (s.theta4_functional, s.y4_functional, s.theta2_functional, s.yamabe_functional):
        with pytest.raises(ValueError, match=f"n={n}, L=8"):
            fn(tiny)
    with pytest.raises(ValueError, match=f"n={n}, L=8"):
        s.extremal_iteration(tiny, 1)


def test_t4_pullback_underflow_refused_n400():
    # the dilation weight of t = 4 is about 4^{-n} near the far pole
    s = SphereSolver(400, 8)
    pulled = s.mobius_pullback(s.constant_field(1.0), 4.0)
    with pytest.raises(ValueError, match="n=400, L=8"):
        s.theta4_functional(pulled)


# ---------------------------------------------------------- second order


def test_theta2_yamabe_duality(s7):
    const = s7.constant_field(1.0)
    prod = s7.theta2_functional(const) * s7.yamabe_functional(const)
    assert abs(prod - 1.0) <= 1e-8


def test_theta2_scale_invariance(s7):
    rng = np.random.Generator(np.random.Philox(13))
    f = ZonalField(7, s7.L, rng.standard_normal(s7.L + 1))
    assert abs(
        s7.theta2_functional(f) - s7.theta2_functional(ZonalField(7, s7.L, 2 * f.coeffs))
    ) <= 1e-12 * s7.theta2_functional(f)


# ------------------------------------------------------------- iteration


def test_extremal_iteration_constant_fixed_point(s5):
    sc = sharp_constants(5)
    traj = s5.extremal_iteration(s5.constant_field(1.0), 100, 0.5)
    vals = [v for _, v in traj]
    assert abs(vals[-1] - vals[0]) <= 1e-8
    assert max(abs(v - sc.Theta4_sphere) for v in vals) <= 1e-8


def test_extremal_iteration_perturbed_bounded(s5):
    sc = sharp_constants(5)
    f0 = s5.constant_field(1.0)
    f0.coeffs[2] += 0.1 * f0.coeffs[0]
    traj = s5.extremal_iteration(f0, 100, 0.5)
    assert max(v for _, v in traj) <= sc.Theta4_sphere + 1e-6


def test_extremal_iteration_plain_update(s5):
    traj = s5.extremal_iteration(s5.constant_field(1.0), 10, 1.0)
    assert len(traj) == 11


def test_extremal_iteration_errors(s5):
    with pytest.raises(ValueError):
        s5.extremal_iteration(ZonalField(5, s5.L, np.zeros(s5.L + 1)), 5)
    with pytest.raises(ValueError):
        s5.extremal_iteration(s5.constant_field(1.0), 5, damping=0.0)


# ---------------------------------------------------------------- mobius


def test_mobius_identity(s5):
    rng = np.random.Generator(np.random.Philox(33))
    coeffs = rng.standard_normal(s5.L + 1) * np.exp(-0.5 * np.arange(s5.L + 1))
    f = ZonalField(5, s5.L, coeffs)
    pulled = s5.mobius_pullback(f, 1.0)
    assert np.max(np.abs(pulled.coeffs - f.coeffs)) <= 1e-10


def test_mobius_norm_preservation():
    s = SphereSolver(6, 64)
    f = s.constant_field(1.0)
    f.coeffs[1] += 0.3 * f.coeffs[0]
    p = 2 * 6 / (6 + 4)
    base = s.lp_norm(f, p)
    for t in (1.5, 2.0, 4.0):
        pulled = s.mobius_pullback(f, t)
        assert abs(s.lp_norm(pulled, p) - base) <= 1e-8 * base


def test_mobius_theta4_invariance():
    s = SphereSolver(6, 64)
    f = s.constant_field(1.0)
    f.coeffs[1] += 0.3 * f.coeffs[0]
    base = s.theta4_functional(f)
    for t in (1.5, 2.0, 4.0):
        pulled = s.mobius_pullback(f, t)
        assert abs(s.theta4_functional(pulled) - base) <= 1e-6 * base


def test_mobius_rejects_bad_t(s5):
    with pytest.raises(ValueError):
        s5.mobius_pullback(s5.constant_field(1.0), 0.0)


# ----------------------------------------------------------------- report


def test_spectral_report_payload():
    rep = spectral_report(5, 32, iters=5, damping=0.5, init="perturbed")
    assert rep["n"] == 5
    assert len(rep["functional_values"]) == 6
    assert rep["gram_defect"] < 1e-12
    assert all(c["theta4_drift"] < 1e-6 for c in rep["invariance_checks"])
    with pytest.raises(ValueError):
        spectral_report(5, 8, 1, 0.5, init="bogus")
