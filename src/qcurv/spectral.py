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

A Gauss-Jacobi rule depends only on its node count and the dimension, so
each rule is computed once per process and shared, read-only, by every
solver that needs it; the bases are built per solver and not kept.  The
degree is capped at ``MAX_L``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .sphereforms import omega_n, sphere_area

MOBIUS_T = (1.5, 2.0, 4.0)  # dilations of the conformal-invariance checks

# Largest truncation degree.  At L = 2048 the oversampled basis alone is
# 2049 x 12294 floats (about 200 MB), and building a solver takes about 7 s
# and peaks near 580 MB (Python 3.11, numpy 2.4, one BLAS thread); the cost
# grows as L^2.
MAX_L = 2048


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


@functools.cache
def _gauss_jacobi(M: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the M-point Gauss-Jacobi rule with alpha = beta = a,
    read-only and shared by every solver that asks for the same rule.  The
    cache keeps every rule a process asks for, 16 M bytes each."""
    # imported here: only the spectral path pays for scipy.special
    from scipy.special import roots_jacobi

    t, w = roots_jacobi(M, a, a)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


class SphereSolver:
    """Transform pair, quadratures, and functionals for zonal fields on S^n."""

    def __init__(self, n: int, L: int, grid_nodes: int | None = None, oversample: int = 3):
        if n < 5:
            raise ValueError("solver targets n >= 5")
        if oversample < 3:
            raise ValueError("nonlinearity grid must oversample by at least 3x")
        if L > MAX_L:
            raise ValueError(f"truncation degree L={L} exceeds {MAX_L}")
        self.n = n
        self.L = L
        self.M = grid_nodes if grid_nodes is not None else 2 * L + 2
        if self.M < L + 1:
            raise ValueError("quadrature too coarse for degree L")
        self.spectrum = PaneitzSpectrum(n, L)

        a = 0.5 * (n - 2)
        area_factor = n * omega_n(n)  # area of the S^{n-1} slice factor
        self.t, wj = _gauss_jacobi(self.M, a)
        self.w = area_factor * wj
        self.t_over, wj2 = _gauss_jacobi(oversample * self.M, a)
        self.w_over = area_factor * wj2

        # the norms come from the solver's own main-grid quadrature
        rows = self._gegenbauer_rows(self.t)
        self._norms = np.sqrt(np.sum(self.w * rows * rows, axis=1))
        self.basis = rows / self._norms[:, None]
        self.basis_over = self._orthonormal_basis(self.t_over)
        self.area = sphere_area(n)

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

    def _orthonormal_basis(self, t: np.ndarray) -> np.ndarray:
        return self._gegenbauer_rows(t) / self._norms[:, None]

    def gram_defect(self) -> float:
        G = (self.basis * self.w) @ self.basis.T
        return float(np.max(np.abs(G - np.eye(self.L + 1))))

    # -- transforms -------------------------------------------------------

    def analyze(self, values: np.ndarray, oversampled: bool = False) -> ZonalField:
        B = self.basis_over if oversampled else self.basis
        w = self.w_over if oversampled else self.w
        coeffs = B @ (w * values)
        return ZonalField(self.n, self.L, coeffs)

    def synthesize(self, field: ZonalField, oversampled: bool = False) -> np.ndarray:
        B = self.basis_over if oversampled else self.basis
        return B.T @ field.coeffs

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

    def lp_norm(self, field: ZonalField, p: float) -> float:
        """The L^p norm by oversampled quadrature.  Callers divide by the norm
        or its square, so a norm whose square underflows to 0 or is not
        finite is refused."""
        vals = self.synthesize(field, oversampled=True)
        norm = float(np.sum(self.w_over * np.abs(vals) ** p) ** (1.0 / p))
        if not (0.0 < norm * norm < math.inf):
            raise self._out_of_range(f"L^{p:g} norm", norm)
        return norm

    def _quotient(self, num: float, field: ZonalField, p: float) -> float:
        """num / ||field||_p^2.  Each functional is positive on a nonzero
        field, so a quotient that underflows to 0 is refused."""
        if not np.any(field.coeffs):
            raise ValueError("zero field")
        q = num / self.lp_norm(field, p) ** 2
        if not (0.0 < q < math.inf):
            raise self._out_of_range("functional value", q)
        return q

    def theta4_functional(self, f: ZonalField) -> float:
        num = float(np.sum(f.coeffs**2 / self.spectrum.mu_f))
        return self._quotient(num, f, 2.0 * self.n / (self.n + 4))

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
        """
        if not (0.0 < damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if not np.any(f0.coeffs):
            raise ValueError("zero initial field")
        p_norm = 2.0 * self.n / (self.n + 4)
        expo = (self.n + 4.0) / (self.n - 4.0)

        f = f0.copy()
        f.coeffs /= self.lp_norm(f, p_norm)
        out = [(f.copy(), self.theta4_functional(f))]
        for _ in range(steps):
            g_vals = self.synthesize(self.apply_GP(f), oversampled=True)
            pos = np.maximum(g_vals, 0.0)
            if not np.any(pos > 0):
                raise ValueError("iterate collapsed: G_P f has no positive part")
            update = self.analyze(pos**expo, oversampled=True)
            update.coeffs /= self.lp_norm(update, p_norm)
            f = ZonalField(
                self.n, self.L, (1.0 - damping) * f.coeffs + damping * update.coeffs
            )
            f.coeffs /= self.lp_norm(f, p_norm)
            out.append((f.copy(), self.theta4_functional(f)))
        return out

    # -- conformal dilation ----------------------------------------------------

    def mobius_pullback(self, f: ZonalField, t: float) -> ZonalField:
        """Pull back under the dilation x -> t x of stereographic coordinates.

        The factor |Jacobian|^{(n+4)/(2n)} preserves the L^{2n/(n+4)} norm,
        which makes the dual functional invariant up to truncation error.
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
        jac = (t * (1.0 + rho**2) / (1.0 + (t * rho) ** 2)) ** n
        weight = jac ** ((n + 4.0) / (2.0 * n))
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
