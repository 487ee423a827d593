"""Zonal spectral solver on the round sphere S^n.

Rotationally symmetric fields are expanded in Gegenbauer polynomials
C_l^{(n-1)/2}(cos theta), orthonormalized numerically against the module's
own quadrature so no closed-form normalization convention can leak in.
The Paneitz operator is diagonal in this basis,

    mu_l = lam_l^2 + (n^2-2n-4)/2 lam_l + n(n+2)(n-2)(n-4)/16,
    lam_l = l(l+n-1),

which factors as mu_l = (lam_l + n(n-2)/4)(lam_l + (n+2)(n-4)/4).  The
fourth-order Sobolev quotient, its dual, the second-order (conformal
Laplacian) analogues, the fixed-point iteration for the dual extremal
problem, and conformal dilations all run on top of the same transform pair.

A solver keeps one closed-form rule on Chebyshev points (``_rule``), with
``OVERSAMPLE`` times the 2L+2 nodes a Gauss rule needs for a product of two
degree-L fields, or more where its own exactness needs them, so fractional
powers of fields are evaluated on it and projected back to degree L.  The
basis norms, the Gram defect, both transforms and the pullback all use
it.  A shape whose weights or basis leave the float range is refused.

The rule is kept as its t > 0 half: the other nodes are the exact mirror
images.  The recurrence gives C_l(-t) = (-1)^l C_l(t) bit for bit, so the
basis is stored on t > 0 only, split by the parity of l: a synthesis is one
half-size product per parity, whose sum and difference are the values at
t and -t, and an analysis pairs the values at t and -t before its two
products.  An even field runs only the even product: a synthesis whose
odd coefficients are all zero, and an analysis of values that agree at t
and -t, skip the odd one, whose output would be +0.0, and give the bits of
both products.  Grid values travel as half-grid rows, the values at the
nodes of t > 0 and at their mirror images; an even field has one row,
which is both, so each pointwise operation runs once, on t > 0.  Only a
norm mirrors its powered values, for one dot with the full weights.  A
field at other points (a pullback) takes the recurrence only up to its
highest nonzero degree.  The degree runs from 2 to ``MAX_L``.

A step of the extremal iteration runs three products (one per transform,
on an even field), three powers and two norms.  Its call allocates its
buffers once and each step writes into them: of fresh arrays a step forms
only the coefficients it yields and the temporaries of its products.  The
transforms keep the operand strides that a fresh array would give, the
even coefficients as a strided view and the analysis vector contiguous,
because the BLAS bits depend on them; so do the powers, which run on
contiguous operands only.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .sphereforms import omega_n, sphere_area

MOBIUS_T = (1.5, 2.0, 4.0)  # dilations of the conformal-invariance checks

# Largest truncation degree.  At L = 2048 the half-grid basis holds
# 2049 x 6147 floats (about 100 MB, half of the full-grid basis).  The
# recurrence fills its rows before they are folded, so a build there peaks
# near 225 MB RSS and takes 0.2-0.4 s (Python 3.11, numpy 2.4, one BLAS
# thread).  The cost grows as L^2.
MAX_L = 2048

# The rule has at least OVERSAMPLE (2L + 2) nodes: a Gauss rule of 2L + 2
# integrates a product of two degree-L fields exactly, and the finer grid
# resolves their fractional powers.
OVERSAMPLE = 3


@dataclass
class ZonalField:
    """Coefficients of a zonal function in the orthonormal basis Z_l of a
    solver, degrees 0..L."""

    coeffs: np.ndarray


class PaneitzSpectrum:
    """Exact eigenvalues of P (and of the conformal Laplacian) on S^n, as
    int64 arrays over one denominator each:

        lam_l = l(l+n-1),
        mu_l = mu_num[l] / 16,     mu_num = (4 lam + n(n-2))(4 lam + (n+2)(n-4)),
        nu_l = nu_num[l] / (n-2),  nu_num = 4(n-1) lam + n(n-1)(n-2).

    Every entry lies below 2^53, so ``mu_f`` and ``nu_f`` are one division of
    exact floats each, hence correctly rounded; a shape past that bound is
    refused.  Reports take the Yamabe functionals only at constants
    (``cli._spectral_checks``), so nu_l for l >= 1 is held only by tests.
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


# -- Chebyshev-point rule --------------------------------------------------------


def _node_count(n: int, L: int) -> int:
    """The smallest even M >= OVERSAMPLE (2L + 2) whose rule integrates
    w C_k C_l exactly for k, l <= L: 2M - n >= 2L for odd n, M - n + 1 >= 2L
    for even n (see ``_rule``)."""
    need = L + (n + 1) // 2 if n % 2 else 2 * L + n - 1
    return max(OVERSAMPLE * (2 * L + 2), need + need % 2)


def _fejer_weights(M: int) -> np.ndarray:
    """Fejer's first rule for the weight 1 on [-1, 1] at the M points
    cos theta_j, theta_j = (2j-1) pi / (2M), j = 1..M, in that order, exact
    for degree M - 1: v_j = (2/M) (1 - 2 sum_{k=1}^{M/2} cos(2k theta_j) /
    (4k^2 - 1)), the real part of one FFT of length M (Waldvogel, BIT 46,
    2006).  At even M the k = M/2 term is 0 at every node and is left out."""
    k = np.arange(M // 2)
    c = np.where(k == 0, 1.0, -2.0 / (4.0 * k * k - 1.0))
    spectrum = np.fft.fft(c * np.exp(1j * math.pi / M * k), M)
    return (2.0 / M) * np.roll(spectrum.real, -1)


def _rule(n: int, M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The t > 0 half of the M-point rule (M even) for the weight
    (1 - t^2)^{(n-2)/2}, scaled by n omega_n to the sphere: the nodes t_j =
    cos theta_j, theta_j = (2j-1) pi / (2M), ascending, their weights, and
    the logs of the weights, which keep those below the normal floats.  For
    odd n the weight is the Chebyshev weight (1 - t^2)^{-1/2} times
    sin^{n-1} theta, so Gauss-Chebyshev, w_j = (pi/M) sin^{n-1} theta_j, is
    exact for degree 2M - n; for even n, Fejer's first rule times
    sin^{n-2} theta_j is exact for degree M - n + 1.  The weights are not
    normalized: they sum to the rule's own sphere area."""
    phi = (np.arange(M // 2) + 0.5) * (math.pi / M)  # pi/2 - theta, ascending
    sin_theta = np.cos(phi)
    if n % 2:
        lead, power = math.pi / M, n - 1
    else:
        lead, power = _fejer_weights(M)[M // 2 - 1::-1], n - 2
    scale = n * omega_n(n) * lead  # n omega_n: area of the S^{n-1} slice factor
    w = scale * sin_theta**power
    return np.sin(phi), w, np.log(scale) + power * np.log(sin_theta)


# -- solver ----------------------------------------------------------------------


class SphereSolver:
    """Transform pair, quadratures, and functionals for zonal fields on S^n.

    The solver's one rule has ``_node_count(n, L)`` nodes; ``x`` and ``w``
    are its nodes of t > 0 and their weights, scaled to the sphere, and
    transforms take and return half-grid rows on them (see
    ``synthesize_half``)."""

    def __init__(self, n: int, L: int):
        if n < 5:
            raise ValueError("solver targets n >= 5")
        if L < 2:
            raise ValueError(f"truncation degree L={L} is below 2")
        if L > MAX_L:
            raise ValueError(f"truncation degree L={L} exceeds {MAX_L}")
        self.n = n
        self.L = L
        self.spectrum = PaneitzSpectrum(n, L)
        self.p_dual = 2.0 * n / (n + 4)  # the exponent of the dual functional's norm
        self.area = sphere_area(n)
        if not self.area >= sys.float_info.min:
            raise ValueError(f"area of S^{n} {self.area!r} is below the normal floats "
                             f"at n={n}, L={L}")

        M = _node_count(n, L)
        self.x, self.w, log_w = _rule(n, M)
        # The one mirrored array: ``_norm`` sums over the whole grid, ascending
        # in t, in one dot, the order of an iteration on full-grid values, so
        # the half-grid iteration gives that loop's bits (the tests hold it to
        # one); a sum over the folded halves would add in another order.
        self._w_norm = np.concatenate((self.w[::-1], self.w))

        # The float range.  Every |C_l(t)| is at most C_L(1) = binom(L+n-2, L),
        # and a step of the recurrence at most 3(L + n) times that.  At large n
        # the outer weights fall below the normal floats where the basis is
        # largest; the mass they drop from a basis norm, the sum of w_j Z_l(t_j)^2
        # over them from the logs of the weights, must stay below rounding.
        lost = math.inf
        if math.comb(L + n - 2, L) * 3 * (L + n) < sys.float_info.max:
            rows = self._gegenbauer_rows(self.x)
            self._norms = np.sqrt(2.0 * np.sum(self.w * rows * rows, axis=1))
            low = self.w < sys.float_info.min
            with np.errstate(divide="ignore", over="ignore"):
                log_mass = log_w[low] + 2.0 * (np.log(np.abs(rows[:, low]))
                                               - np.log(self._norms)[:, None])
                lost = 2.0 * float(np.max(np.sum(np.exp(log_mass), axis=1)))
        if not lost <= sys.float_info.epsilon:
            raise ValueError(f"the {M}-node rule leaves the float range at n={n}, L={L}")
        self._even = rows[0::2] / self._norms[0::2, None]
        self._odd = rows[1::2] / self._norms[1::2, None]

    # -- basis ----------------------------------------------------------

    def _gegenbauer_rows(self, t: np.ndarray, deg: int | None = None) -> np.ndarray:
        """C_0 .. C_deg at the points t, deg defaulting to L."""
        deg = self.L if deg is None else deg
        alpha = 0.5 * (self.n - 1)
        rows = np.empty((deg + 1, t.size))
        rows[0] = 1.0
        if deg >= 1:
            rows[1] = 2.0 * alpha * t
        # (2 (l + alpha) t C_l - (l + 2 alpha - 1) C_{l-1}) / (l + 1), written
        # into the row it fills
        back = np.empty(t.size)
        for l in range(1, deg):
            row = rows[l + 1]
            np.multiply(t, 2.0 * (l + alpha), out=row)
            np.multiply(row, rows[l], out=row)
            np.multiply(rows[l - 1], l + 2.0 * alpha - 1.0, out=back)
            np.subtract(row, back, out=row)
            np.divide(row, l + 1.0, out=row)
        return rows

    def gram_defect(self) -> float:
        """Largest entry of |G - I| for the Gram matrix G of the basis under
        the solver's rule.  Only its even and odd blocks are formed: the
        cross entries vanish exactly, since on the mirrored grid each is a
        sum of pairs w(t) Z_even(t) Z_odd(t) + w(t) Z_even(t) (-Z_odd(t))."""
        return max(float(np.max(np.abs(2.0 * (B * self.w) @ B.T - np.eye(len(B)))))
                   for B in (self._even, self._odd))

    # -- transforms -------------------------------------------------------

    def synthesize_half(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Grid values of the field with these coefficients as half-grid rows:
        row 0 holds the values at the nodes of t > 0 and the last row those
        at their mirror images, in the same node order.  An even field (odd
        coefficients all zero) has one row, which is both: its odd product
        would be +0.0.  The rows are written into ``out``, two rows of the
        half grid, when it is given, and are a view of it."""
        c_odd = coeffs[1::2]
        odd = bool(np.count_nonzero(c_odd))  # a Python int slices faster than a numpy one
        rows = np.empty((1 + odd, self.x.size)) if out is None else out[:1 + odd]
        e = np.dot(coeffs[0::2], self._even, out=rows[0])
        if odd:
            o = np.dot(c_odd, self._odd)
            np.subtract(e, o, out=rows[1])
            np.add(e, o, out=e)
        return rows

    def analyze_half(self, vals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Coefficients of half-grid rows as from ``synthesize_half``, written
        into ``out`` when it is given.  One row, or two that agree, has odd
        coefficients +0.0, and the odd product is skipped."""
        up, down = vals[0], vals[-1]
        coeffs = np.empty(self.L + 1) if out is None else out
        total = up + down
        coeffs[0::2] = np.dot(self._even, np.multiply(self.w, total, out=total))
        diff = up - down if len(vals) == 2 else None
        if diff is not None and np.count_nonzero(diff):
            coeffs[1::2] = np.dot(self._odd, np.multiply(self.w, diff, out=diff))
        else:
            coeffs[1::2] = 0.0
        return coeffs

    def synthesize_at(self, field: ZonalField, t: np.ndarray) -> np.ndarray:
        """Values of ``field`` at the points t.  The recurrence runs only up
        to the field's highest nonzero degree: the rows above it would meet
        zero coefficients, so a constant takes one row."""
        nonzero = np.flatnonzero(field.coeffs)
        deg = int(nonzero[-1]) if nonzero.size else 0
        basis = self._gegenbauer_rows(np.asarray(t, dtype=float), deg)
        basis /= self._norms[:deg + 1, None]
        return basis.T @ field.coeffs[:deg + 1]

    def constant_field(self, c: float = 1.0) -> ZonalField:
        coeffs = np.zeros(self.L + 1)
        # Z_0 is the constant 1/sqrt(area)
        coeffs[0] = c * math.sqrt(self.area)
        return ZonalField(coeffs)

    # -- operators ---------------------------------------------------------

    def energy_E(self, u: ZonalField) -> float:
        return float(np.sum(self.spectrum.mu_f * u.coeffs**2))

    def energy_E2(self, u: ZonalField) -> float:
        return float(np.sum(self.spectrum.nu_f * u.coeffs**2))

    # -- norms and functionals ----------------------------------------------

    def _norm(self, vals: np.ndarray, p: float, full: np.ndarray) -> float:
        """The L^p norm of half-grid rows, with the largest |value| scaled
        out so no power overflows.  The values are taken into ``full``, a
        buffer of the whole grid's size, at their places there, so one dot
        with its weights sums them; one row is powered once and then
        mirrored.  Every power runs on a contiguous operand, as a strided one
        gives other bits.  Callers divide by the norm or its square, so a
        norm whose square underflows to 0 or is not finite is refused."""
        half = self.x.size
        mags = up = full[half:]
        np.abs(vals[0], out=up)
        if len(vals) == 2:
            mags = full
            np.abs(vals[1, ::-1], out=full[:half])
        top = float(mags.max())
        norm = top
        if 0.0 < top < math.inf:
            np.divide(mags, top, out=mags)
            np.power(mags, p, out=mags)
            if mags is up:
                full[:half] = up[::-1]
            norm = top * float(np.dot(self._w_norm, full) ** (1.0 / p))
        if not (0.0 < norm * norm < math.inf):
            raise ValueError(f"L^{p:g} norm {norm!r} leaves the floating-point range "
                             f"at n={self.n}, L={self.L}")
        return norm

    def lp_norm(self, field: ZonalField, p: float) -> float:
        """The L^p norm by the solver's quadrature, refused as in ``_norm``; a
        zero field is refused by name."""
        if not np.any(field.coeffs):
            raise ValueError(f"zero field at n={self.n}, L={self.L}")
        return self._norm(self.synthesize_half(field.coeffs), p, np.empty(2 * self.x.size))

    def _ratio(self, num: float, norm: float) -> float:
        """num / norm^2.  Each functional is positive on a nonzero field, so a
        quotient that underflows to 0 is refused."""
        q = num / norm**2
        if not (0.0 < q < math.inf):
            raise ValueError(f"functional value {q!r} leaves the floating-point range "
                             f"at n={self.n}, L={self.L}")
        return q

    def _theta4_num(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> float:
        """sum_l c_l^2 / mu_l, its terms formed in ``out`` when it is given."""
        terms = np.multiply(coeffs, coeffs, out=out)
        return float(np.add.reduce(np.divide(terms, self.spectrum.mu_f, out=terms)))

    def theta4_and_norm(self, f: ZonalField) -> tuple[float, float]:
        """The dual functional of f and the L^{2n/(n+4)} norm it divides by."""
        norm = self.lp_norm(f, self.p_dual)
        return self._ratio(self._theta4_num(f.coeffs), norm), norm

    def theta4_functional(self, f: ZonalField) -> float:
        return self.theta4_and_norm(f)[0]

    def y4_functional(self, u: ZonalField) -> float:
        return self._ratio(self.energy_E(u), self.lp_norm(u, 2.0 * self.n / (self.n - 4)))

    def theta2_functional(self, f: ZonalField) -> float:
        num = float(np.sum(f.coeffs**2 / self.spectrum.nu_f))
        return self._ratio(num, self.lp_norm(f, 2.0 * self.n / (self.n + 2)))

    def yamabe_functional(self, u: ZonalField) -> float:
        return self._ratio(self.energy_E2(u), self.lp_norm(u, 2.0 * self.n / (self.n - 2)))

    # -- extremal iteration ---------------------------------------------------

    def extremal_iteration(self, f0: ZonalField, steps: int, damping: float = 0.5
                           ) -> list[tuple[ZonalField, float]]:
        """The whole trajectory of ``iterates``: steps + 1 pairs of (field,
        dual-functional value)."""
        return list(self.iterates(f0, steps, damping))

    def iterates(self, f0: ZonalField, steps: int, damping: float = 0.5
                 ) -> Iterator[tuple[ZonalField, float]]:
        """Fixed-point iteration for the dual extremal problem.

        Each step sends f to the normalized positive part of (G_P f)
        raised to the critical power (n+4)/(n-4), evaluated on the
        solver's grid and projected back to degree L, then blends with
        the previous iterate by ``damping``.  Each (field, dual-functional
        value) is yielded in turn, from f0 on, so a caller keeps only what
        it reads; no monotonicity is claimed.

        The iterate's grid values are carried through the blend as
        half-grid rows (see ``synthesize_half``), so a step synthesizes only
        G_P f and the update; each norm and dual value is read from the
        carried values, the value of f/||f|| being that of f.  A step runs
        three products (one per transform; two per transform on a general
        field), three powers (the nonlinearity and one in each of its two
        norms) and two norms.  It writes into buffers that the call
        allocates once, so two live iterations share nothing; of fresh
        arrays it forms only the coefficients it yields and the
        temporaries of its products.  Each blend runs in place, operation by
        operation as written.  Every product keeps the operand strides a
        fresh array would have (the strided even coefficients, a contiguous
        vector for the analysis), as the BLAS bits depend on them.

        An even start (odd coefficients all zero, as the constant and the
        constant plus a Z_2 are) stays even, so each transform of a step
        runs its even product only and every pointwise operation runs once,
        on the one row of t > 0: G_P is diagonal, so G_P f is even; its
        values on the mirrored grid agree at t and -t; the nonlinearity is
        pointwise, so the powered values agree too, and their analysis has
        odd coefficients +0.0, which the blend keeps.  A general start runs
        the same loop on two rows.
        """
        if steps < 0:
            raise ValueError(f"step count must be nonnegative, got {steps}")
        if not (0.0 < damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if not np.any(f0.coeffs):
            raise ValueError(f"zero initial field at n={self.n}, L={self.L}")
        expo = (self.n + 4.0) / (self.n - 4.0)
        p, keep = self.p_dual, 1.0 - damping
        # G_P f, then the terms of the blend and of the dual value; the rows
        # of G_P f, then their powers, then the update's values; the update;
        # the mirrored row of a norm
        scaled, update = np.empty(self.L + 1), np.empty(self.L + 1)
        rows, full = np.empty((2, self.x.size)), np.empty(2 * self.x.size)

        coeffs = f0.coeffs
        vals = self.synthesize_half(coeffs)
        for step in range(steps + 1):
            if step:
                g_vals = self.synthesize_half(np.divide(f.coeffs, self.spectrum.mu_f, out=scaled),
                                              rows)
                if not g_vals.max() > 0:
                    raise ValueError("iterate collapsed: G_P f has no positive part")
                np.maximum(g_vals, 0.0, out=g_vals)
                self.analyze_half(np.power(g_vals, expo, out=g_vals), update)
                u_vals = self.synthesize_half(update, rows)
                u_norm = self._norm(u_vals, p, full)
                # (1 - d) x + d (y / u_norm), for the coefficients and the values
                np.multiply(np.divide(update, u_norm, out=update), damping, out=update)
                np.add(np.multiply(f.coeffs, keep, out=scaled), update, out=update)
                np.multiply(np.divide(u_vals, u_norm, out=u_vals), damping, out=u_vals)
                np.add(np.multiply(vals, keep, out=vals), u_vals, out=vals)
                coeffs = update
            norm = self._norm(vals, p, full)
            value = self._ratio(self._theta4_num(coeffs, scaled), norm)
            f = ZonalField(coeffs / norm)
            np.divide(vals, norm, out=vals)
            yield f, value

    # -- conformal dilation ----------------------------------------------------

    def mobius_pullback(self, f: ZonalField, t: float) -> ZonalField:
        """Pull back under the dilation x -> t x of stereographic coordinates.

        The factor |Jacobian|^{(n+4)/(2n)} preserves the L^{2n/(n+4)} norm,
        which makes the dual functional invariant up to truncation error.
        It is taken as one power of the conformal factor, which stays in
        range wherever the weight itself does.
        """
        if not 0 < t < math.inf:
            raise ValueError(f"dilation parameter must be finite and positive, got {t!r}")
        # the half-grid rows (x, -x).  With rho = tan(theta/2) from the pole
        # that maps to x = 0, rho^2 = (1 - x)/(1 + x), and rho -> t rho sends
        # x = cos theta to (1 - t^2 rho^2)/(1 + t^2 rho^2) = 2(1 + x)/d - 1,
        # d = (1 + x) + t^2 (1 - x), with conformal factor
        # t (1 + rho^2)/(1 + t^2 rho^2) = 2t/d
        x = np.concatenate((self.x, -self.x))
        d = (1.0 + x) + t * t * (1.0 - x)
        weight = (2.0 * t / d) ** ((self.n + 4.0) / 2.0)
        vals = self.synthesize_at(f, 2.0 * (1.0 + x) / d - 1.0) * weight
        return ZonalField(self.analyze_half(vals.reshape(2, -1)))

    def pulled_constant(self, t: float) -> tuple[float, float]:
        """The dual functional and the L^{2n/(n+4)} norm of the constant 1
        pulled back by the dilation t.  At large n the weight t^{-(n+4)/2}
        can take that field out of the floating-point range, and the refusal
        then names t."""
        pulled = self.mobius_pullback(self.constant_field(1.0), t)
        try:
            return self.theta4_and_norm(pulled)
        except ValueError as e:
            raise ValueError(f"the constant pulled back by the dilation t={t:g} "
                             f"(weight down to t^-(n+4)/2): {e}") from None


def mobius_drifts(solver: SphereSolver) -> list[dict]:
    """One row per dilation t in MOBIUS_T: the relative drift of the dual
    functional and of the L^{2n/(n+4)} norm of the constant 1 pulled back
    by t, against the constant's own values."""
    theta4_const, const_norm = solver.theta4_and_norm(solver.constant_field(1.0))
    rows = []
    for t in MOBIUS_T:
        value, norm = solver.pulled_constant(t)
        rows.append({"t": t, "theta4_drift": abs(value - theta4_const) / theta4_const,
                     "norm_drift": abs(norm - const_norm) / const_norm})
    return rows


def spectral_report(solver: SphereSolver, iters: int, damping: float, init: str) -> dict:
    """Assemble the JSON payload behind the `spectral` CLI subcommand; its
    ``invariance_checks`` are the ``mobius_drifts`` rows of ``solver``."""
    if init not in ("constant", "perturbed"):
        raise ValueError(f"unknown init {init!r}")
    f0 = solver.constant_field(1.0)
    if init == "perturbed":
        f0.coeffs[2] += 0.1 * f0.coeffs[0]
    values = []  # and the last field only, so memory stays flat in iters
    for f, value in solver.iterates(f0, iters, damping):
        values.append(value)
    return {
        "n": solver.n,
        "L": solver.L,
        "damping": damping,
        "init": init,
        "functional_values": values,
        "final_coeffs": list(f.coeffs),
        "gram_defect": solver.gram_defect(),
        "invariance_checks": mobius_drifts(solver),
    }
