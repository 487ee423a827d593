"""Zonal spectral solver on the round sphere S^n.

Rotationally symmetric fields are expanded in Gegenbauer polynomials
C_l^{(n-1)/2}(cos theta), orthonormalized numerically against the module's
own Gauss-Jacobi quadrature so no closed-form normalization convention can
leak in.  The Paneitz operator is diagonal in this basis,

    mu_l = lam_l^2 + (n^2-2n-4)/2 lam_l + n(n+2)(n-2)(n-4)/16,
    lam_l = l(l+n-1),

which factors as mu_l = (lam_l + n(n-2)/4)(lam_l + (n+2)(n-4)/4).  The
fourth-order Sobolev quotient, its dual, the second-order (conformal
Laplacian) analogues, the fixed-point iteration for the dual extremal
problem, and conformal dilations all run on top of the same transform pair.

Fractional powers of fields are evaluated on an oversampled grid (>= 3x)
and projected back to degree L.

Every grid is a Gauss-Jacobi rule with an even number of nodes, computed
here in numpy on t > 0 and mirrored exactly.  The recurrence then gives
C_l(-t) = (-1)^l C_l(t) bit for bit, so each basis is stored on t > 0 only,
split by the parity of l: a synthesis is one half-size product per parity,
whose sum and difference are the values at t and -t, and an analysis pairs
the values at t and -t before its two products.  A rule depends only on its
node count and the dimension, so each is computed once per process and
shared, read-only, by every solver that needs it; the bases are built per
solver and not kept.  The degree is capped at ``MAX_L``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .sphereforms import omega_n, sphere_area

MOBIUS_T = (1.5, 2.0, 4.0)  # dilations of the conformal-invariance checks

# Largest truncation degree.  At L = 2048 the two half-grid bases hold
# 2049 x (6147 + 2049) floats (about 134 MB, half of the full-grid bases);
# building a solver there takes about 1.8 s, 1.3 s of it the 12294-node
# rule, and peaks near 290 MB (Python 3.11, numpy 2.4, one BLAS thread).
# The cost grows as L^2.
MAX_L = 2048

# Newton passes on the rule's nodes before the certificate decides
_NEWTON_PASSES = 30


@dataclass
class ZonalField:
    """Coefficients of a zonal function in the orthonormal basis Z_l."""

    n: int
    L: int
    coeffs: np.ndarray

    def copy(self) -> "ZonalField":
        return ZonalField(self.n, self.L, self.coeffs.copy())


class PaneitzSpectrum:
    """Exact eigenvalues of P (and of the conformal Laplacian) on S^n, as
    int64 arrays over one denominator each:

        lam_l = l(l+n-1),
        mu_l = mu_num[l] / 16,     mu_num = (4 lam + n(n-2))(4 lam + (n+2)(n-4)),
        nu_l = nu_num[l] / (n-2),  nu_num = 4(n-1) lam + n(n-1)(n-2).

    Every entry lies below 2^53, so ``mu_f`` and ``nu_f`` are one division of
    exact floats each, hence correctly rounded; a shape past that bound is
    refused.
    """

    mu_den = 16

    def __init__(self, n: int, L: int):
        self.n = n
        self.L = L
        self.nu_den = n - 2
        # every factor grows with l, so the top entries bound the arrays
        top = L * (L + n - 1)
        top_mu = (4 * top + n * (n - 2)) * (4 * top + (n + 2) * (n - 4))
        top_nu = 4 * (n - 1) * top + n * (n - 1) * (n - 2)
        if max(top_mu, top_nu) >= 2**53:
            raise ValueError(f"Paneitz spectrum at n={n}, L={L} leaves the exact float range")
        l = np.arange(L + 1, dtype=np.int64)
        self.lam = l * (l + (n - 1))
        self.mu_num = (4 * self.lam + n * (n - 2)) * (4 * self.lam + (n + 2) * (n - 4))
        self.nu_num = 4 * (n - 1) * self.lam + n * (n - 1) * (n - 2)
        self.mu_f = self.mu_num / float(self.mu_den)
        self.nu_f = self.nu_num / float(self.nu_den)


# -- Gauss-Jacobi rule -----------------------------------------------------------


def _recurrence(x: np.ndarray, M: int, lam: float, count: bool = False, size: bool = False):
    """One pass of (l+1) C_{l+1} = 2(l+lam) x C_l - (l+2lam-1) C_{l-1} up to
    C_M = C_M^lam at the points x, in the ratio form r_l = C_l / C_{l-1},
    which stays in range however large lam is.

    Returns r_M; with ``count`` also the number of negative r_l, l = 1..M,
    which is the number of zeros of C_M above x (the Sturm property of an
    orthogonal family; a ratio that is exactly 0 is nudged so the count
    stays right); with ``size`` also C_{M-1}(x) as a mantissa and a binary
    exponent."""
    r = (2.0 * lam) * x
    tmp = np.empty_like(x)
    above = (r < 0).astype(np.int64) if count else None
    mant = np.ones_like(x)
    expo = np.zeros(x.shape, dtype=np.intc)
    e = np.empty(x.shape, dtype=np.intc)
    for l in range(1, M):
        if size:
            mant *= r
            if l % 8 == 0:  # a product of eight ratios, C_l / C_{l-8}, stays in range
                np.frexp(mant, out=(mant, e))
                expo += e
        if count:
            r[r == 0.0] = 1e-300
        np.divide((l + 2.0 * lam - 1.0) / (l + 1.0), r, out=r)
        np.multiply(x, 2.0 * (l + lam) / (l + 1.0), out=tmp)
        np.subtract(tmp, r, out=r)
        if count:
            above += r < 0
    if size:
        np.frexp(mant, out=(mant, e))
        expo += e
    return r, above, mant, expo


def _newton_step(x: np.ndarray, M: int, lam: float, r: np.ndarray | None = None) -> np.ndarray:
    """C_M / C_M' at x, from (1 - x^2) C_M' = (M+2lam-1) C_{M-1} - M x C_M."""
    if r is None:
        r = _recurrence(x, M, lam)[0]
    return (1.0 - x * x) * r / ((M + 2.0 * lam - 1.0) - M * x * r)


def _zero_starts(M: int, lam: float) -> np.ndarray:
    """Gatteschi-type starts for the M/2 positive zeros of C_M^lam, ascending.

    u(theta) = sin^lam(theta) C_M(cos theta) solves
    u'' + ((M+lam)^2 - lam(lam-1)/sin^2 theta) u = 0.  With Langer's
    (lam-1/2)^2 in place of lam(lam-1), its phase from the turning point
    x = b is q (G(b) - G(x)), where q = M + lam, beta = (lam-1/2)/q,
    b^2 = 1 - beta^2, and in x = b sin(phi)

        G = phi - beta arctan(beta tan phi),

    and the k-th largest zero sits at phase (k - 1/4) pi.  Gatteschi's
    interior formula is this to first order in beta; the full phase keeps
    the starts within reach of Newton when lam is as large as M or larger.
    """
    q = M + lam
    beta = (lam - 0.5) / q
    k = np.arange(M // 2, 0, -1)
    target = 0.5 * math.pi * (1.0 - beta) - (k - 0.25) * math.pi / q
    lo = np.zeros(k.size)
    hi = np.full(k.size, 0.5 * math.pi)
    for _ in range(52):  # G increases in phi; bisect to rounding
        mid = 0.5 * (lo + hi)
        high = mid - beta * np.arctan(beta * np.tan(mid)) > target
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    return math.sqrt(1.0 - beta * beta) * np.sin(0.5 * (lo + hi))


def _certify(x: np.ndarray, M: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Which positive nodes are certified, and the unnormalized weights.

    Node j (ascending) gets the bracket x_j -+ h_j, with h_j 1/1024 of its
    smaller gap to a neighbour, 0 or 1, so the K brackets are disjoint and
    ordered.  It is certified when a Sturm count puts exactly one zero of
    C_M in its bracket and its Newton correction is at rounding level.  C_M
    has exactly K zeros in (0, 1), so then node j is the j-th zero.  The
    weights are proportional to 1/((1 - x^2) C_M'(x)^2), kept as a mantissa
    and a power of two until the relative scale is known."""
    K = x.size
    gaps = np.diff(np.concatenate(([0.0], x, [1.0])))
    h = np.minimum(gaps[:-1], gaps[1:]) / 1024.0
    above = _recurrence(np.concatenate((x - h, x + h)), M, lam, count=True)[1]
    r, _, mant, expo = _recurrence(x, M, lam, size=True)
    ok = (above[:K] - above[K:] == 1) & (np.abs(_newton_step(x, M, lam, r)) <= 1e-14)
    # C_M'(x) = C_{M-1}(x) D / (1 - x^2), exact at a zero and first-order
    # insensitive to the node's own rounding
    D = (M + 2.0 * lam - 1.0) - M * x * r
    w = np.ldexp((1.0 - x * x) / (mant * D) ** 2, -2 * (expo - expo.min()))
    return ok, w


def _jacobi_mass(a: float) -> float:
    """mu_0 = sqrt(pi) Gamma(a+1) / Gamma(a+3/2), the integral of (1-t^2)^a
    over [-1, 1]: Gamma at the fractional part of a, then one factor
    (b+j)/(b+j+1/2) per unit step.  A difference of lgamma values would
    lose about ulp(lgamma(a)) to cancellation, 5e-14 near a = 160."""
    k = math.floor(a)
    b = a - k
    mass = math.sqrt(math.pi) * math.gamma(b + 1.0) / math.gamma(b + 1.5)
    for j in range(1, k + 1):
        mass *= (b + j) / (b + j + 0.5)
    return mass


@functools.cache
def _gauss_jacobi(M: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the M-point Gauss-Jacobi rule with
    alpha = beta = a, for even M: read-only and shared by every solver that
    asks for the same rule.  The cache keeps every rule a process asks for,
    16 M bytes each.

    The nodes are the zeros of the Gegenbauer polynomial C_M^{a+1/2}.  The
    M/2 positive ones come from Gatteschi-type starts and Newton's method
    on the ratio-form recurrence; the rest are their exact mirror images, so
    t[::-1] == -t and w[::-1] == w bit for bit.  Every node is certified by
    a Sturm count (see ``_certify``); a node that fails is bisected on the
    count and polished, and a rule that still fails, or has a weight that
    is not a positive finite float, is refused with a ValueError.  The
    weights sum to ``_jacobi_mass(a)``.
    """
    if M < 2 or M % 2:
        raise ValueError(f"Gauss-Jacobi rule needs an even node count, got {M}")
    lam = a + 0.5
    x = _zero_starts(M, lam)
    active = np.arange(x.size)
    for _ in range(_NEWTON_PASSES):
        step = _newton_step(x[active], M, lam)
        x[active] -= step
        active = active[np.abs(step) > 1e-11]
        if not active.size:
            break
    ok, w = _certify(x, M, lam)
    if not ok.all():
        # zero j of the K positive ones is where the count of zeros above
        # drops below K - j
        K = x.size
        bad = np.flatnonzero(~ok)
        lo, hi = np.zeros(bad.size), np.ones(bad.size)
        for _ in range(52):
            mid = 0.5 * (lo + hi)
            below = _recurrence(mid, M, lam, count=True)[1] >= K - bad
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        x[bad] = 0.5 * (lo + hi)
        x[bad] -= _newton_step(x[bad], M, lam)
        ok, w = _certify(x, M, lam)
    if not ok.all():
        raise ValueError(f"the {M}-node Gauss-Jacobi rule fails its certificate")
    w *= _jacobi_mass(a) / (2.0 * np.sum(w))
    if not np.all((w > 0.0) & (w < math.inf)):
        raise ValueError(f"the {M}-node Gauss-Jacobi rule has weights outside the float range")
    t = np.concatenate((-x[::-1], x))
    w = np.concatenate((w[::-1], w))
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


# -- solver ----------------------------------------------------------------------


class SphereSolver:
    """Transform pair, quadratures, and functionals for zonal fields on S^n.

    The main grid has 2L+2 nodes and the nonlinearity grid ``oversample``
    times as many; ``t``, ``w``, ``t_over`` and ``w_over`` are the full
    grids, and transforms take and return values on them in that order."""

    def __init__(self, n: int, L: int, oversample: int = 3):
        if n < 5:
            raise ValueError("solver targets n >= 5")
        if oversample < 3:
            raise ValueError("nonlinearity grid must oversample by at least 3x")
        if L > MAX_L:
            raise ValueError(f"truncation degree L={L} exceeds {MAX_L}")
        self.n = n
        self.L = L
        self.M = 2 * L + 2
        self.spectrum = PaneitzSpectrum(n, L)
        self.area = sphere_area(n)
        if not self.area >= sys.float_info.min:
            raise ValueError(f"area of S^{n} {self.area!r} is below the normal floats "
                             f"at n={n}, L={L}")

        a = 0.5 * (n - 2)
        area_factor = n * omega_n(n)  # area of the S^{n-1} slice factor
        try:
            self.t, wj = _gauss_jacobi(self.M, a)
            self.t_over, wj2 = _gauss_jacobi(oversample * self.M, a)
        except ValueError as e:
            raise ValueError(f"{e} at n={n}, L={L}") from None
        self.w = area_factor * wj
        self.w_over = area_factor * wj2

        # the norms come from the solver's own main-grid quadrature
        K = self.M // 2
        rows = self._gegenbauer_rows(self.t[K:])
        self._norms = np.sqrt(2.0 * np.sum(self.w[K:] * rows * rows, axis=1))
        self._main = self._fold(rows, self.w[K:])
        K = self.t_over.size // 2
        self._over = self._fold(self._gegenbauer_rows(self.t_over[K:]), self.w_over[K:])

    # -- basis ----------------------------------------------------------

    def _gegenbauer_rows(self, t: np.ndarray) -> np.ndarray:
        alpha = 0.5 * (self.n - 1)
        rows = np.empty((self.L + 1, t.size))
        rows[0] = 1.0
        if self.L >= 1:
            rows[1] = 2.0 * alpha * t
        for l in range(1, self.L):
            rows[l + 1] = (
                2.0 * (l + alpha) * t * rows[l] - (l + 2.0 * alpha - 1.0) * rows[l - 1]
            ) / (l + 1.0)
        return rows

    def _fold(self, rows: np.ndarray, w_half: np.ndarray) -> tuple:
        """(even-degree basis, odd-degree basis, weights) on t > 0."""
        return rows[0::2] / self._norms[0::2, None], rows[1::2] / self._norms[1::2, None], w_half

    def _orthonormal_basis(self, t: np.ndarray) -> np.ndarray:
        return self._gegenbauer_rows(t) / self._norms[:, None]

    def gram_defect(self) -> float:
        """Largest entry of |G - I| for the main-grid Gram matrix G.  Only its
        even and odd blocks are formed: the cross entries vanish exactly,
        since on the mirrored grid each is a sum of pairs w(t) Z_even(t)
        Z_odd(t) + w(t) Z_even(t) (-Z_odd(t))."""
        even, odd, w = self._main
        return max(float(np.max(np.abs(2.0 * (B * w) @ B.T - np.eye(len(B)))))
                   for B in (even, odd) if len(B))

    # -- transforms -------------------------------------------------------

    def analyze(self, values: np.ndarray, oversampled: bool = False) -> ZonalField:
        even, odd, w = self._over if oversampled else self._main
        K = w.size
        up, down = values[K:], values[K - 1::-1]
        coeffs = np.empty(self.L + 1)
        coeffs[0::2] = np.dot(even, w * (up + down))
        coeffs[1::2] = np.dot(odd, w * (up - down))
        return ZonalField(self.n, self.L, coeffs)

    def synthesize(self, field: ZonalField, oversampled: bool = False) -> np.ndarray:
        even, odd, _ = self._over if oversampled else self._main
        e = np.dot(field.coeffs[0::2], even)
        o = np.dot(field.coeffs[1::2], odd)
        return np.concatenate(((e - o)[::-1], e + o))

    def synthesize_at(self, field: ZonalField, t: np.ndarray) -> np.ndarray:
        return self._orthonormal_basis(np.asarray(t, dtype=float)).T @ field.coeffs

    def constant_field(self, c: float = 1.0) -> ZonalField:
        coeffs = np.zeros(self.L + 1)
        # Z_0 is the constant 1/sqrt(area)
        coeffs[0] = c * math.sqrt(self.area)
        return ZonalField(self.n, self.L, coeffs)

    # -- operators ---------------------------------------------------------

    def apply_P(self, u: ZonalField) -> ZonalField:
        return ZonalField(self.n, self.L, self.spectrum.mu_f * u.coeffs)

    def apply_GP(self, f: ZonalField) -> ZonalField:
        return ZonalField(self.n, self.L, f.coeffs / self.spectrum.mu_f)

    def energy_E(self, u: ZonalField) -> float:
        return float(np.sum(self.spectrum.mu_f * u.coeffs**2))

    def energy_E2(self, u: ZonalField) -> float:
        return float(np.sum(self.spectrum.nu_f * u.coeffs**2))

    # -- norms and functionals ----------------------------------------------

    def _out_of_range(self, what: str, value: float) -> ValueError:
        return ValueError(
            f"{what} {value!r} leaves the floating-point range at n={self.n}, L={self.L}"
        )

    def _norm(self, vals: np.ndarray, p: float) -> float:
        """The L^p norm of oversampled grid values, with the largest |value|
        scaled out so no power overflows.  Callers divide by the norm or its
        square, so a norm whose square underflows to 0 or is not finite is
        refused."""
        mags = np.abs(vals)
        top = float(mags.max())
        norm = top
        if 0.0 < top < math.inf:
            mags /= top
            norm = top * float(np.dot(self.w_over, mags**p) ** (1.0 / p))
        if not (0.0 < norm * norm < math.inf):
            raise self._out_of_range(f"L^{p:g} norm", norm)
        return norm

    def lp_norm(self, field: ZonalField, p: float) -> float:
        """The L^p norm by oversampled quadrature, refused as in ``_norm``."""
        return self._norm(self.synthesize(field, oversampled=True), p)

    def _ratio(self, num: float, norm: float) -> float:
        """num / norm^2.  Each functional is positive on a nonzero field, so a
        quotient that underflows to 0 is refused."""
        q = num / norm**2
        if not (0.0 < q < math.inf):
            raise self._out_of_range("functional value", q)
        return q

    def _quotient(self, num: float, field: ZonalField, p: float) -> float:
        if not np.any(field.coeffs):
            raise ValueError(f"zero field at n={self.n}, L={self.L}")
        return self._ratio(num, self.lp_norm(field, p))

    def _theta4_num(self, coeffs: np.ndarray) -> float:
        return float(np.sum(coeffs**2 / self.spectrum.mu_f))

    def theta4_functional(self, f: ZonalField) -> float:
        return self._quotient(self._theta4_num(f.coeffs), f, 2.0 * self.n / (self.n + 4))

    def y4_functional(self, u: ZonalField) -> float:
        return self._quotient(self.energy_E(u), u, 2.0 * self.n / (self.n - 4))

    def theta2_functional(self, f: ZonalField) -> float:
        num = float(np.sum(f.coeffs**2 / self.spectrum.nu_f))
        return self._quotient(num, f, 2.0 * self.n / (self.n + 2))

    def yamabe_functional(self, u: ZonalField) -> float:
        return self._quotient(self.energy_E2(u), u, 2.0 * self.n / (self.n - 2))

    # -- extremal iteration ---------------------------------------------------

    def extremal_iteration(
        self, f0: ZonalField, steps: int, damping: float = 0.5
    ) -> list[tuple[ZonalField, float]]:
        """Fixed-point iteration for the dual extremal problem.

        Each step sends f to the normalized positive part of (G_P f)
        raised to the critical power (n+4)/(n-4), evaluated on the
        oversampled grid and projected back to degree L, then blends with
        the previous iterate by ``damping``.  The trajectory of
        (field, dual-functional value) is returned; no monotonicity is
        claimed.

        The iterate's oversampled values are carried through the blend, so
        a step synthesizes only G_P f and the update; each norm and dual
        value is read from the carried values, the value of f/||f|| being
        that of f.
        """
        if not (0.0 < damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if not np.any(f0.coeffs):
            raise ValueError(f"zero initial field at n={self.n}, L={self.L}")
        p_norm = 2.0 * self.n / (self.n + 4)
        expo = (self.n + 4.0) / (self.n - 4.0)

        coeffs = f0.coeffs
        vals = self.synthesize(f0, oversampled=True)
        out = []
        for step in range(steps + 1):
            if step:
                g_vals = self.synthesize(self.apply_GP(f), oversampled=True)
                if not g_vals.max() > 0:
                    raise ValueError("iterate collapsed: G_P f has no positive part")
                update = self.analyze(np.maximum(g_vals, 0.0) ** expo, oversampled=True)
                u_vals = self.synthesize(update, oversampled=True)
                u_norm = self._norm(u_vals, p_norm)
                coeffs = (1.0 - damping) * f.coeffs + damping * (update.coeffs / u_norm)
                vals = (1.0 - damping) * vals + damping * (u_vals / u_norm)
            norm = self._norm(vals, p_norm)
            value = self._ratio(self._theta4_num(coeffs), norm)
            f = ZonalField(self.n, self.L, coeffs / norm)
            vals = vals / norm
            out.append((f, value))
        return out

    # -- conformal dilation ----------------------------------------------------

    def mobius_pullback(self, f: ZonalField, t: float) -> ZonalField:
        """Pull back under the dilation x -> t x of stereographic coordinates.

        The factor |Jacobian|^{(n+4)/(2n)} preserves the L^{2n/(n+4)} norm,
        which makes the dual functional invariant up to truncation error.
        It is taken as one power of the conformal factor, which stays in
        range wherever the weight itself does.
        """
        if t <= 0:
            raise ValueError("dilation parameter must be positive")
        n = self.n
        cos_th = self.t
        # rho = tan(theta/2) measured from the pole that maps to x = 0
        theta = np.arccos(np.clip(cos_th, -1.0, 1.0))
        rho = np.tan(0.5 * theta)
        rho_new = t * rho
        theta_new = 2.0 * np.arctan(rho_new)
        weight = (t * (1.0 + rho**2) / (1.0 + (t * rho) ** 2)) ** ((n + 4.0) / 2.0)
        vals = self.synthesize_at(f, np.cos(theta_new)) * weight
        return self.analyze(vals)


def spectral_report(n: int, L: int, iters: int, damping: float, init: str) -> dict:
    """Assemble the JSON payload behind the `spectral` CLI subcommand."""
    solver = SphereSolver(n, L)
    if init == "constant":
        f0 = solver.constant_field(1.0)
    elif init == "perturbed":
        f0 = solver.constant_field(1.0)
        f0.coeffs[2] += 0.1 * f0.coeffs[0]
    else:
        raise ValueError(f"unknown init {init!r}")
    traj = solver.extremal_iteration(f0, iters, damping)
    values = [v for _, v in traj]
    const = solver.constant_field(1.0)
    theta4_const = solver.theta4_functional(const)
    p = 2 * n / (n + 4)
    const_norm = solver.lp_norm(const, p)
    invariance = []
    for tt in MOBIUS_T:
        pulled = solver.mobius_pullback(const, tt)
        invariance.append(
            {
                "t": tt,
                "theta4_drift": abs(solver.theta4_functional(pulled) - theta4_const)
                / theta4_const,
                "norm_drift": abs(solver.lp_norm(pulled, p) - const_norm) / const_norm,
            }
        )
    return {
        "n": n,
        "L": L,
        "damping": damping,
        "init": init,
        "functional_values": values,
        "final_coeffs": list(traj[-1][0].coeffs),
        "theta4_constant": theta4_const,
        "gram_defect": solver.gram_defect(),
        "invariance_checks": invariance,
    }
