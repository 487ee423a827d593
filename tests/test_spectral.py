"""Zonal solver checks: transforms, spectra, functionals, invariance."""

import functools
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qcurv import spectral
from qcurv.sphereforms import omega_n, sharp_constants, sphere_area
from qcurv.spectral import (MAX_L, PaneitzSpectrum, SphereSolver, ZonalField, mobius_drifts,
                            spectral_report)

F = Fraction


def mode(solver: SphereSolver, l: int) -> ZonalField:
    """The orthonormal basis field Z_l."""
    coeffs = np.zeros(solver.L + 1)
    coeffs[l] = 1.0
    return ZonalField(coeffs)


def apply_P(solver: SphereSolver, u: ZonalField) -> ZonalField:
    """P u, diagonal in the zonal basis."""
    return ZonalField(solver.spectrum.mu_f * u.coeffs)


def apply_GP(solver: SphereSolver, f: ZonalField) -> ZonalField:
    """G_P f, the inverse of P, diagonal in the zonal basis."""
    return ZonalField(f.coeffs / solver.spectrum.mu_f)


def full_rule(solver: SphereSolver) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the whole grid, ascending in t, mirrored from the
    solver's t > 0 half."""
    x, w = solver.x, solver.w
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


def mirrored(rows: np.ndarray) -> np.ndarray:
    """Half-grid rows as values on the whole grid, ascending in t."""
    return np.concatenate((rows[-1][::-1], rows[0]))


def half_rows(values: np.ndarray) -> np.ndarray:
    """Values on the whole grid, ascending in t, as the two half-grid rows."""
    K = values.size // 2
    return np.array((values[K:], values[K - 1::-1]))


def quadrature_energy(solver: SphereSolver, u: ZonalField) -> float:
    """Pointwise quadrature of P u * u on the solver's grid (Parseval check)."""
    pu = mirrored(solver.synthesize_half(apply_P(solver, u).coeffs))
    uu = mirrored(solver.synthesize_half(u.coeffs))
    return float(np.sum(full_rule(solver)[1] * pu * uu))


def y4plus_functional(solver: SphereSolver, u: ZonalField) -> float:
    """The Sobolev quotient, defined for fields positive on the solver's grid."""
    vals = solver.synthesize_half(u.coeffs)
    if np.min(vals) <= 0:
        raise ValueError("field is not positive on the solver's grid")
    return solver.y4_functional(u)


def gegenbauer_norms(n: int, deg: int) -> np.ndarray:
    """||C_l^lam||^2 against (1-t^2)^{lam-1/2}, lam = (n-1)/2, for l <= deg, in
    closed form: h_0 = sqrt(pi) Gamma(a+1)/Gamma(a+3/2) with a = (n-2)/2 and
    h_l = h_0 binom(l+2lam-1, l) lam/(l+lam), exact rationals times pi for
    odd n, each rounded once to a float (twice for odd n)."""
    if n % 2 == 0:
        a = (n - 2) // 2
        h0 = F(4 ** (a + 1) * math.factorial(a) * math.factorial(a + 1), math.factorial(2 * a + 2))
        pi = 1.0
    else:
        m = (n - 1) // 2
        h0 = F(math.factorial(2 * m), 4**m * math.factorial(m) ** 2)
        pi = math.pi
    return np.array([float(h0 * math.comb(l + n - 2, l) * F(n - 1, 2 * l + n - 1)) * pi
                     for l in range(deg + 1)])


def rule_gram_defect(t: np.ndarray, w: np.ndarray, n: int, deg: int) -> float:
    """max |G - I| for the Gegenbauer polynomials of degree <= deg, normalized
    by their exact norms, under the rule (t, w)."""
    lam = 0.5 * (n - 1)
    rows = np.empty((deg + 1, t.size))
    rows[0] = 1.0
    rows[1] = 2.0 * lam * t
    for l in range(1, deg):
        rows[l + 1] = (2.0 * (l + lam) * t * rows[l] - (l + 2.0 * lam - 1.0) * rows[l - 1]) / (l + 1.0)
    B = rows / np.sqrt(gegenbauer_norms(n, deg))[:, None]
    return float(np.max(np.abs((B * w) @ B.T - np.eye(deg + 1))))


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
    assert abs(full_rule(s5)[1].sum() - sphere_area(5)) <= 1e-12 * sphere_area(5)
    # the norm's weights are the rule's, mirrored and ascending in t
    assert s5._w_norm.tobytes() == full_rule(s5)[1].tobytes()


def test_orthonormality(s5, s7):
    assert s5.gram_defect() <= 1e-12
    assert s7.gram_defect() <= 1e-12


def test_solver_validation():
    with pytest.raises(ValueError):
        SphereSolver(4, 16)
    with pytest.raises(ValueError, match="exceeds"):
        SphereSolver(5, MAX_L + 1)


@pytest.mark.parametrize("n,L,M", [(7, 2, 18), (7, 41, 252), (7, 64, 390), (300, 8, 316),
                                   (301, 8, 160)])
def test_node_count_is_oversampled_or_exact(n, L, M):
    # OVERSAMPLE (2L + 2) nodes, unless the rule needs more to integrate
    # w C_k C_l exactly: 2M - n >= 2L for odd n, M - n + 1 >= 2L for even n
    assert spectral._node_count(n, L) == M
    s = SphereSolver(n, L)
    assert s.x.size == s.w.size == M // 2
    assert s.gram_defect() <= 1e-12


def exact_degree(n: int, M: int) -> int:
    """The largest degree the M-point rule integrates exactly against
    (1-t^2)^{(n-2)/2}, negative if none."""
    return 2 * M - n if n % 2 else M - n + 1


@pytest.mark.parametrize("M", [6, 18, 130, 390, 514, 1542])
@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 20, 60, 200, 326, 400])
def test_rule_against_gegenbauer_norms(n, M):
    x, w, log_w = spectral._rule(n, M)
    assert x.size == w.size == M // 2 and np.all(np.diff(x) > 0) and x[0] > 0
    normal = w >= sys.float_info.min
    assert np.max(np.abs(np.log(w[normal]) - log_w[normal])) <= 1e-12 * np.max(np.abs(log_w))
    deg = min(exact_degree(n, M) // 2, 60)
    if deg < 2:
        # too few nodes for the products of degree-2 fields: no solver picks it
        assert spectral._node_count(n, 2) > M
        return
    # the rule is the t > 0 half and its exact mirror image
    t, wt = np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w)) / (n * omega_n(n))
    if rule_gram_defect(t, wt, n, deg) > 1e-13:
        # weights below the normal floats carried part of a basis norm, and
        # a solver on this rule refuses it
        assert not normal.all()
        L = next(L for L in range(2, MAX_L + 1) if spectral._node_count(n, L) == M)
        with pytest.raises(ValueError, match=f"the {M}-node rule leaves the float range"):
            SphereSolver(n, L)


@pytest.mark.parametrize("M", [6, 18, 130, 1542])
def test_fejer_weights_match_the_direct_sum(M):
    theta = (2 * np.arange(1, M + 1) - 1) * math.pi / (2 * M)
    k = np.arange(1, M // 2 + 1)
    direct = (2 / M) * (1 - 2 * np.sum(np.cos(2 * np.outer(theta, k)) / (4 * k * k - 1), axis=1))
    # both sums err by a few eps of the largest weight, about 2/M; the
    # smallest, at the ends, is about 4/M^2
    v = spectral._fejer_weights(M)
    assert np.max(np.abs(v - direct) / direct) <= 4 * M * np.finfo(float).eps
    assert abs(np.sum(v) - 2.0) <= 1e-14


# n from 5 to the first sphere area below the normal floats (n = 438), in
# steps of 23, and two shapes whose basis recurrence would overflow
SHAPE_SWEEP = [(n, L) for n in (5, *range(17, 432, 23), 438) for L in (2, 3, 8, 32, 64, 256)]
SHAPE_SWEEP += [(326, 2048), (300, 2048)]


def test_every_shape_is_orthonormal_or_refused_by_name():
    # a solver that builds has a basis orthonormal to rounding; one that
    # cannot is refused, naming its shape, before any RuntimeWarning
    wrong, refused = [], []
    for n, L in SHAPE_SWEEP:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                defect = SphereSolver(n, L).gram_defect()
            except ValueError as e:
                assert f"n={n}, L={L}" in str(e)
                refused.append((n, L))
                continue
        if not defect <= 1e-12:
            wrong.append((n, L, defect))
    assert wrong == []
    assert min(n for n, _ in refused) > 247


def test_uncertifiable_rule_names_the_shape():
    with pytest.raises(ValueError, match="n=326, L=256"):
        SphereSolver(326, 256)


# ----------------------------------------------------------- transforms

# The half-grid algebra holds on any rule: with ``oversampled`` False a check
# runs on the smallest rule (``OVERSAMPLE`` 1), 2L + 2 nodes or the more
# that exactness needs, and with True on the solver's own rule.


@functools.cache
def solver(n: int, L: int, oversampled: bool = True) -> SphereSolver:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "OVERSAMPLE", spectral.OVERSAMPLE if oversampled else 1)
        return SphereSolver(n, L)


@pytest.mark.parametrize("oversampled", [False, True])
def test_folded_transforms_match_full_basis(oversampled):
    # the unfolded pair, one product with the (L+1) x M basis, is the reference
    s = solver(7, 24, oversampled)
    t, w = full_rule(s)
    B = s._gegenbauer_rows(t) / s._norms[:, None]
    rng = np.random.Generator(np.random.Philox(7))
    f = ZonalField(rng.standard_normal(s.L + 1))
    vals = mirrored(s.synthesize_half(f.coeffs))
    assert np.max(np.abs(vals - B.T @ f.coeffs)) <= 1e-13 * np.max(np.abs(vals))
    v = rng.standard_normal(t.size)
    back = s.analyze_half(half_rows(v))
    assert np.max(np.abs(back - B @ (w * v))) <= 1e-13 * np.max(np.abs(back))


def test_synthesis_mirror_is_exact():
    rng = np.random.Generator(np.random.Philox(8))
    c = rng.standard_normal(25)
    flipped = c * (-1.0) ** np.arange(25)
    for over in (False, True):
        s = solver(7, 24, over)
        assert np.array_equal(s.synthesize_half(c)[::-1], s.synthesize_half(flipped))


def two_product_synthesis(s: SphereSolver, coeffs: np.ndarray) -> np.ndarray:
    """Both parity products, whatever the coefficients, as the two half-grid
    rows: the reference that skipping the odd one must match bit for bit."""
    e = np.dot(coeffs[0::2], s._even)
    o = np.dot(coeffs[1::2], s._odd)
    return np.array((e + o, e - o))


def synthesis_matches_two_products(s: SphereSolver, coeffs: np.ndarray) -> bool:
    """The rows of ``synthesize_half`` carry the bits of both products.  One
    row is both: it is e - o, and e + o once a -0.0 at t > 0 turns +0.0."""
    rows = s.synthesize_half(coeffs)
    if len(rows) == 1:
        rows = np.array((rows[0] + 0.0, rows[0]))
    return rows.tobytes() == two_product_synthesis(s, coeffs).tobytes()


def two_product_analysis(s: SphereSolver, rows: np.ndarray) -> np.ndarray:
    up, down = rows[0], rows[-1]
    coeffs = np.empty(s.L + 1)
    coeffs[0::2] = np.dot(s._even, s.w * (up + down))
    coeffs[1::2] = np.dot(s._odd, s.w * (up - down))
    return coeffs


def odd_coeffs_positive_zero(coeffs: np.ndarray) -> bool:
    return bool(np.all(coeffs[1::2] == 0.0) and not np.signbit(coeffs[1::2]).any())


PARITY_SHAPES = [(n, L) for n in range(5, 10) for L in (3, 64, 256)]


@pytest.mark.parametrize("oversampled", [False, True])
@pytest.mark.parametrize("n,L", PARITY_SHAPES)
def test_even_transforms_match_two_products(n, L, oversampled):
    s = solver(n, L, oversampled)
    rng = np.random.Generator(np.random.Philox(n * 1000 + L))
    c = rng.standard_normal(L + 1)
    c[1::2] = 0.0
    assert synthesis_matches_two_products(s, c)
    rows = s.synthesize_half(c)
    assert len(rows) == 1  # one row serves t and -t
    half = rng.standard_normal(rows.shape[1])
    for even_rows in (rows, np.array((half, half))):
        back = s.analyze_half(even_rows)
        assert back.tobytes() == two_product_analysis(s, even_rows).tobytes()
        assert odd_coeffs_positive_zero(back)


@pytest.mark.parametrize("oversampled", [False, True])
@pytest.mark.parametrize("n,L", PARITY_SHAPES)
def test_asymmetric_transforms_keep_odd_coefficients(n, L, oversampled):
    s = solver(n, L, oversampled)
    rng = np.random.Generator(np.random.Philox(n * 1000 + L + 1))
    c = rng.standard_normal(L + 1)
    assert synthesis_matches_two_products(s, c)
    rows = s.synthesize_half(c)
    assert len(rows) == 2
    v = rng.standard_normal(rows.shape)
    for values in (rows, v):
        back = s.analyze_half(values)
        assert back.tobytes() == two_product_analysis(s, values).tobytes()
        assert np.all(back[1::2] != 0.0)


@pytest.mark.parametrize("L", [2, 3, 8])
def test_signed_zeros_match_two_products(L):
    # an odd coefficient -0.0, an even one -0.0, and mirrored values that
    # differ only in the sign of a zero all give the two-product bits
    rng = np.random.Generator(np.random.Philox(L))
    even = rng.standard_normal(L + 1)
    even[1::2] = 0.0
    neg_odd = even.copy()
    neg_odd[1::2] = -0.0
    neg_zero = np.zeros(L + 1)
    neg_zero[0::2] = -0.0
    for over in (False, True):
        s = solver(6, L, over)
        for c in (even, neg_odd, neg_zero, np.zeros(L + 1), np.full(L + 1, -0.0)):
            assert synthesis_matches_two_products(s, c)
        K = s.x.size
        zeros = np.array((np.zeros(K), np.full(K, -0.0)))  # +0.0 at t > 0, -0.0 at -t
        back = s.analyze_half(zeros)
        assert back.tobytes() == two_product_analysis(s, zeros).tobytes()


def test_even_fields_never_read_the_odd_basis():
    s = SphereSolver(7, 64)
    s._odd = np.full_like(s._odd, np.nan)
    traj = s.extremal_iteration(s.constant_field(1.0), 5)
    assert all(np.all(np.isfinite(f.coeffs)) and odd_coeffs_positive_zero(f.coeffs)
               for f, _ in traj)


def test_one_recurrence_builds_both_bases():
    # the even and odd bases are the rows of one recurrence on the rule's
    # t > 0 half, normalized by the rule's own quadrature
    s = solver(7, 256)
    rows = s._gegenbauer_rows(s.x)
    assert s._norms.tobytes() == np.sqrt(2.0 * np.sum(s.w * rows * rows, axis=1)).tobytes()
    assert s._even.tobytes() == (rows[0::2] / s._norms[0::2, None]).tobytes()
    assert s._odd.tobytes() == (rows[1::2] / s._norms[1::2, None]).tobytes()


@pytest.mark.parametrize("n,L", PARITY_SHAPES)
def test_iterates_from_even_starts_stay_even(n, L):
    s = solver(n, L)
    f0 = s.constant_field(1.0)
    perturbed = s.constant_field(1.0)
    perturbed.coeffs[2] += 0.1 * perturbed.coeffs[0]
    for start in (f0, perturbed):
        for damping in (0.5, 1.0):
            traj = s.iterates(start, 200, damping)
            assert all(odd_coeffs_positive_zero(f.coeffs) for f, _ in traj)


def full_grid_norm(s: SphereSolver, vals: np.ndarray, p: float) -> float:
    """The L^p norm of values on the whole grid, as ``_norm`` scales and
    sums it, without its refusals."""
    mags = np.abs(vals)
    top = float(mags.max())
    mags /= top
    return top * float(np.dot(full_rule(s)[1], mags**p) ** (1.0 / p))


def full_grid_iteration(s: SphereSolver, f0: ZonalField, steps: int, damping: float) -> list:
    """The extremal iteration with full-grid values, each synthesis mirrored
    from its half-grid rows and each analysis folded back into them: the
    reference that the half-grid loop must match bit for bit."""
    n = s.n
    p_norm = 2.0 * n / (n + 4)
    expo = (n + 4.0) / (n - 4.0)
    coeffs = f0.coeffs
    vals = mirrored(s.synthesize_half(f0.coeffs))
    out = []
    for step in range(steps + 1):
        if step:
            g_vals = mirrored(s.synthesize_half(apply_GP(s, f).coeffs))
            update = s.analyze_half(half_rows(np.maximum(g_vals, 0.0) ** expo))
            u_vals = mirrored(s.synthesize_half(update))
            u_norm = full_grid_norm(s, u_vals, p_norm)
            coeffs = (1.0 - damping) * f.coeffs + damping * (update / u_norm)
            vals = (1.0 - damping) * vals + damping * (u_vals / u_norm)
        norm = full_grid_norm(s, vals, p_norm)
        value = s._ratio(s._theta4_num(coeffs), norm)
        f = ZonalField(coeffs / norm)
        vals = vals / norm
        out.append((f, value))
    return out


@pytest.mark.parametrize("damping", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("n,L", PARITY_SHAPES)
def test_half_grid_iteration_matches_full_grid_loop(n, L, damping):
    # the constant, +0.1 Z_2 (even), and +0.1 Z_1, which runs the odd path
    s = solver(n, L)
    for l in (None, 2, 1):
        f0 = s.constant_field(1.0)
        if l is not None:
            f0.coeffs[l] += 0.1 * f0.coeffs[0]
        got = s.extremal_iteration(f0, 30, damping)
        want = full_grid_iteration(s, f0, 30, damping)
        assert [v for _, v in got] == [v for _, v in want]
        assert [f.coeffs.tobytes() for f, _ in got] == [f.coeffs.tobytes() for f, _ in want]


@pytest.mark.parametrize("n", range(5, 10))
def test_iteration_matches_full_grid_loop_at_the_benchmark_shapes(n):
    # the sphere-numerics run: L = 256, damping 0.5, 200 steps from +0.1 Z_2
    s = solver(n, 256)
    f0 = s.constant_field(1.0)
    f0.coeffs[2] += 0.1 * f0.coeffs[0]
    got = s.extremal_iteration(f0, 200, 0.5)
    want = full_grid_iteration(s, f0, 200, 0.5)
    assert [v for _, v in got] == [v for _, v in want]
    assert [f.coeffs.tobytes() for f, _ in got] == [f.coeffs.tobytes() for f, _ in want]


def test_interleaved_iterations_share_no_state():
    # each call owns its buffers: two live iterations on one solver, one
    # even and one general, with a norm taken between their steps
    s = solver(7, 64)
    even, general = s.constant_field(1.0), s.constant_field(1.0)
    even.coeffs[2] += 0.1 * even.coeffs[0]
    general.coeffs[1] += 0.1 * general.coeffs[0]
    runs = ((even, 0.5), (general, 0.1))
    alone = [[(f.coeffs.tobytes(), v) for f, v in s.iterates(f0, 50, d)] for f0, d in runs]
    together = [[], []]
    for pair in zip(*(s.iterates(f0, 50, d) for f0, d in runs)):
        for seen, (f, v) in zip(together, pair):
            seen.append((f.coeffs.tobytes(), v))
            s.theta4_functional(f)
    assert together == alone


def test_gram_defect_is_the_full_gram(s7):
    # rows Z_l on the full grid; the even-odd block vanishes to rounding
    eye = np.eye(s7.L + 1)
    B = np.array([mirrored(s7.synthesize_half(e)) for e in eye])
    G = (B * full_rule(s7)[1]) @ B.T
    assert np.max(np.abs(G[0::2, 1::2])) <= 1e-15
    assert abs(s7.gram_defect() - np.max(np.abs(G - eye))) <= 1e-15



def test_constant_field_coefficients(s5):
    f = s5.constant_field(2.5)
    vals = s5.synthesize_half(f.coeffs)
    assert np.max(np.abs(vals - 2.5)) <= 1e-12
    assert np.max(np.abs(f.coeffs[1:])) == 0.0


def test_mode_round_trip(s5):
    # nodal values of Z_3 analyze to the unit vector e_3
    z3 = mode(s5, 3)
    back = s5.analyze_half(s5.synthesize_half(z3.coeffs))
    want = np.zeros(s5.L + 1)
    want[3] = 1.0
    assert np.max(np.abs(back - want)) <= 1e-11


def test_random_field_round_trip(s5):
    rng = np.random.Generator(np.random.Philox(42))
    f = ZonalField(rng.standard_normal(s5.L + 1))
    back = s5.analyze_half(s5.synthesize_half(f.coeffs))
    assert np.max(np.abs(back - f.coeffs)) <= 1e-11 * np.max(np.abs(f.coeffs))


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
    u = ZonalField(rng.standard_normal(s5.L + 1))
    back = apply_GP(s5, apply_P(s5, u))
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
    u = ZonalField(coeffs)
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
    f = ZonalField(rng.standard_normal(s5.L + 1))
    f2 = ZonalField(2 * f.coeffs)
    p = 10 / 9
    assert abs(s5.lp_norm(f2, p) - 2 * s5.lp_norm(f, p)) <= 1e-10 * s5.lp_norm(f2, p)


def test_lp_norm_quadrature_refinement(s5, monkeypatch):
    # positive smooth field so |u|^p is smooth; doubling the rule's nodes
    # must leave the norm unchanged to 1e-10
    monkeypatch.setattr(spectral, "OVERSAMPLE", 2 * spectral.OVERSAMPLE)
    fine = SphereSolver(5, s5.L)
    rng = np.random.Generator(np.random.Philox(11))
    f = s5.constant_field(1.0)
    f.coeffs[1:8] += 0.03 * rng.standard_normal(7) * f.coeffs[0]
    assert s5.synthesize_half(f.coeffs).min() > 0
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
    f = ZonalField(rng.standard_normal(s5.L + 1))
    a = s5.theta4_functional(f)
    b = s5.theta4_functional(ZonalField(3.7 * f.coeffs))
    assert abs(a - b) <= 1e-12 * abs(a)


def test_theta4_maximal_at_constant(s5):
    f = s5.constant_field(1.0)
    base = s5.theta4_functional(f)
    pert = ZonalField(f.coeffs.copy())
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
        vals = s5.synthesize_half(f.coeffs)
        assert vals.min() > 0
        prod = y4plus_functional(s5, f) * s5.theta4_functional(apply_P(s5, f))
        assert prod <= 1.0 + 1e-8


def test_local_vs_green_form_agreement(s5):
    # E(u)/||Pu||^2 and the dual form at f = Pu are the same number by
    # substitution; this guards the two code paths against each other
    rng = np.random.Generator(np.random.Philox(17))
    for _ in range(4):
        coeffs = rng.standard_normal(s5.L + 1) * np.exp(-0.2 * np.arange(s5.L + 1))
        u = ZonalField(coeffs)
        f = apply_P(s5, u)
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
    z = ZonalField(np.zeros(s5.L + 1))
    for fn in (s5.theta4_functional, s5.y4_functional, s5.theta2_functional, s5.yamabe_functional):
        with pytest.raises(ValueError):
            fn(z)


@pytest.mark.parametrize("n,L", [(5, 32), (9, 8)])
def test_lp_norm_refuses_zero_field_by_name(n, L):
    s = SphereSolver(n, L)
    z = ZonalField(np.zeros(L + 1))
    for p in (2.0, 2.0 * n / (n + 4)):
        with pytest.raises(ValueError, match=f"^zero field at n={n}, L={L}$"):
            s.lp_norm(z, p)


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
    f = ZonalField(rng.standard_normal(s7.L + 1))
    assert abs(
        s7.theta2_functional(f) - s7.theta2_functional(ZonalField(2 * f.coeffs))
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


@pytest.mark.parametrize("L", [64, 256])
@pytest.mark.parametrize("damping", [0.1, 0.5, 1.0])
def test_carried_iteration_values_track_synthesis(monkeypatch, L, damping):
    s = SphereSolver(7, L)
    seen = []
    norm = s._norm
    monkeypatch.setattr(s, "_norm", lambda vals, p, full: seen.append(vals.copy())
                        or norm(vals, p, full))
    f0 = s.constant_field(1.0)
    f0.coeffs[2] += 0.1 * f0.coeffs[0]
    f, value = s.extremal_iteration(f0, 200, damping)[-1]
    # the last norm taken is of the final blend, before it is normalized;
    # the loop carries it as half-grid rows: t > 0 first, mirror images last
    rows = seen[-1]
    carried = rows / norm(rows, 2.0 * 7 / 11, np.empty(2 * s.x.size))
    want = s.synthesize_half(f.coeffs)
    assert carried.shape == want.shape
    assert np.max(np.abs(carried - want)) <= 1e-13 * np.max(np.abs(want))
    assert abs(value - s.theta4_functional(f)) <= 1e-13 * value


def test_extremal_iteration_errors(s5):
    with pytest.raises(ValueError):
        s5.extremal_iteration(ZonalField(np.zeros(s5.L + 1)), 5)
    with pytest.raises(ValueError):
        s5.extremal_iteration(s5.constant_field(1.0), 5, damping=0.0)


# ---------------------------------------------------------------- mobius


def test_mobius_identity(s5):
    rng = np.random.Generator(np.random.Philox(33))
    coeffs = rng.standard_normal(s5.L + 1) * np.exp(-0.5 * np.arange(s5.L + 1))
    f = ZonalField(coeffs)
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


def test_pullback_builds_rows_to_the_top_degree(monkeypatch):
    s = solver(7, 256)
    built = []
    rows = s._gegenbauer_rows

    def spy(t, deg=None):
        r = rows(t, deg)
        built.append((t, r.shape[0]))
        return r

    monkeypatch.setattr(s, "_gegenbauer_rows", spy)
    mobius_drifts(s)
    pulled_nodes = [t for t, _ in built]
    assert [depth for _, depth in built] == [1] * len(spectral.MOBIUS_T)
    const = s.constant_field(1.0)
    rng = np.random.Generator(np.random.Philox(256))
    full_field = ZonalField(rng.standard_normal(s.L + 1))
    low = np.zeros(s.L + 1)
    low[:6] = rng.standard_normal(6)
    low_field = ZonalField(low)
    for t in pulled_nodes:
        built.clear()
        B = s._gegenbauer_rows(t) / s._norms[:, None]
        assert s.synthesize_at(const, t).tobytes() == (B.T @ const.coeffs).tobytes()
        # a nonzero top coefficient takes the full-depth product unchanged
        assert s.synthesize_at(full_field, t).tobytes() == (B.T @ full_field.coeffs).tobytes()
        want = B.T @ low
        assert np.max(np.abs(s.synthesize_at(low_field, t) - want)) <= 1e-13 * np.max(np.abs(want))
        assert [depth for _, depth in built] == [s.L + 1, 1, s.L + 1, 6]


def trig_dilation(x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The image of x = cos theta under rho -> t rho, rho = tan(theta/2), and
    the conformal factor, through the angles: the reference for the
    pullback's rational form."""
    theta = np.arccos(np.clip(x, -1.0, 1.0))
    rho = np.tan(0.5 * theta)
    return np.cos(2.0 * np.arctan(t * rho)), t * (1.0 + rho**2) / (1.0 + (t * rho) ** 2)


@pytest.mark.parametrize("n", [5, 7, 9, 20])
@pytest.mark.parametrize("L", [2, 41, 256])
def test_pullback_matches_the_trig_dilation(monkeypatch, n, L):
    s = solver(n, L)
    seen = {}
    at, analyze = s.synthesize_at, s.analyze_half

    def points(f, t):
        seen["points"] = t
        return at(f, t)

    def values(vals):
        seen["values"] = vals
        return analyze(vals)

    monkeypatch.setattr(s, "synthesize_at", points)
    monkeypatch.setattr(s, "analyze_half", values)
    const = s.constant_field(1.0)
    c0 = at(const, np.zeros(1))[0]
    x = np.concatenate((s.x, -s.x))  # the order of the half-grid rows
    for t in (0.7, 1.5, 2.0, 4.0):
        s.mobius_pullback(const, t)
        cos_new, factor = trig_dilation(x, t)
        assert np.max(np.abs(seen["points"] - cos_new)) <= 1e-15
        weight = seen["values"].ravel() / c0
        assert np.max(np.abs(weight / factor ** ((n + 4.0) / 2.0) - 1.0)) <= (n + 4) * 1e-15


def test_mobius_rejects_bad_t(s5):
    with pytest.raises(ValueError):
        s5.mobius_pullback(s5.constant_field(1.0), 0.0)


# ----------------------------------------------------------------- report


def test_spectral_report_payload():
    solver = SphereSolver(5, 32)
    rep = spectral_report(solver, iters=5, damping=0.5, init="perturbed")
    assert (rep["n"], rep["L"]) == (5, 32)
    assert len(rep["functional_values"]) == 6
    f0 = solver.constant_field(1.0)
    f0.coeffs[2] += 0.1 * f0.coeffs[0]
    traj = solver.extremal_iteration(f0, 5, 0.5)
    assert rep["functional_values"] == [v for _, v in traj]
    assert rep["final_coeffs"] == list(traj[-1][0].coeffs)
    assert rep["gram_defect"] < 1e-12
    assert rep["invariance_checks"] == mobius_drifts(solver)
    assert all(c["theta4_drift"] < 1e-6 for c in rep["invariance_checks"])
    with pytest.raises(ValueError):
        spectral_report(SphereSolver(5, 8), 1, 0.5, init="bogus")


def test_spectral_report_memory_is_flat_in_iters():
    """At 400 steps spectral_report peaks no higher than at 50 steps, plus
    the 350 extra functional values: one slot of the appended list and one
    float each.  The trajectory's fields are not kept."""
    solver = SphereSolver(5, 256)

    def peak(iters):
        spectral_report(solver, iters, 0.5, "perturbed")  # the solver's caches, once
        tracemalloc.start()
        try:
            spectral_report(solver, iters, 0.5, "perturbed")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def list_bytes(k):
        values = []
        for _ in range(k):
            values.append(0.0)
        return sys.getsizeof(values)

    values = list_bytes(401) - list_bytes(51) + 350 * sys.getsizeof(0.0)
    assert peak(400) <= peak(50) + values
