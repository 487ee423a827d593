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

A solver keeps one Gauss-Jacobi rule, ``OVERSAMPLE`` times finer than the
2L+2 nodes that integrate a product of two degree-L fields exactly, so
fractional powers of fields are evaluated on it and projected back to
degree L.  The basis norms, the Gram defect, both transforms and the
pullback all use this rule.

The rule has an even number of nodes, is computed here in numpy and is
kept as its t > 0 half: the other nodes are the exact mirror images.  The
recurrence gives C_l(-t) = (-1)^l C_l(t) bit for bit, so the basis is
stored on t > 0 only, split by the parity of l: a synthesis is one
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
highest nonzero degree.  A rule depends only on its node count and the
dimension, so each is computed once per process and shared, read-only, by
every solver that needs it; the basis is built per solver and not kept.
The degree is capped at ``MAX_L``.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .sphereforms import omega_n, sphere_area

MOBIUS_T = (1.5, 2.0, 4.0)  # dilations of the conformal-invariance checks

# Largest truncation degree.  At L = 2048 the half-grid basis holds
# 2049 x 6147 floats (about 100 MB, half of the full-grid basis).  The
# recurrence fills its rows before they are folded, so a first build there
# peaks near 225 MB RSS and takes 1.3-1.8 s, most of it for the 12294-node
# rule (Python 3.11, numpy 2.4, one BLAS thread).  The cost grows as L^2.
MAX_L = 2048

# The rule has OVERSAMPLE (2L + 2) nodes: 2L + 2 integrate a product of two
# degree-L fields exactly, and the finer grid resolves their fractional powers.
OVERSAMPLE = 3

# Newton passes on the rule's nodes before the certificate decides
_NEWTON_PASSES = 30


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
    """The M/2 positive nodes, ascending, and their weights of the M-point
    Gauss-Jacobi rule with alpha = beta = a, for even M: read-only and
    shared by every solver that asks for the same rule.  The cache keeps
    every rule a process asks for, 8 M bytes each.

    The nodes are the zeros of the Gegenbauer polynomial C_M^{a+1/2}; the
    other M/2 are -x, with the same weights.  The positive ones come from
    Gatteschi-type starts and Newton's method on the ratio-form recurrence.
    Every node is certified by a Sturm count (see ``_certify``); a node that
    fails is bisected on the count and polished, and a rule that still
    fails, or has a weight that is not a positive finite float, is refused
    with a ValueError.  The weights of all M nodes sum to
    ``_jacobi_mass(a)``.
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
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# -- solver ----------------------------------------------------------------------


class SphereSolver:
    """Transform pair, quadratures, and functionals for zonal fields on S^n.

    The solver's one rule has ``OVERSAMPLE`` (2L + 2) nodes; ``x`` and ``w``
    are its nodes of t > 0 and their weights, scaled to the sphere, and
    transforms take and return half-grid rows on them (see
    ``synthesize_half``)."""

    def __init__(self, n: int, L: int):
        if n < 5:
            raise ValueError("solver targets n >= 5")
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

        try:
            self.x, wj = _gauss_jacobi(OVERSAMPLE * (2 * L + 2), 0.5 * (n - 2))
        except ValueError as e:
            raise ValueError(f"{e} at n={n}, L={L}") from None
        self.w = n * omega_n(n) * wj  # n omega_n: area of the S^{n-1} slice factor
        # The one mirrored array: ``_norm`` sums over the whole grid, ascending
        # in t, in one dot, the order of an iteration on full-grid values, so
        # the half-grid iteration gives that loop's bits (the tests hold it to
        # one); a sum over the folded halves would add in another order.
        self._w_norm = np.concatenate((self.w[::-1], self.w))

        rows = self._gegenbauer_rows(self.x)
        self._norms = np.sqrt(2.0 * np.sum(self.w * rows * rows, axis=1))
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
        for l in range(1, deg):
            rows[l + 1] = (
                2.0 * (l + alpha) * t * rows[l] - (l + 2.0 * alpha - 1.0) * rows[l - 1]
            ) / (l + 1.0)
        return rows

    def gram_defect(self) -> float:
        """Largest entry of |G - I| for the Gram matrix G of the basis under
        the solver's rule.  Only its even and odd blocks are formed: the
        cross entries vanish exactly, since on the mirrored grid each is a
        sum of pairs w(t) Z_even(t) Z_odd(t) + w(t) Z_even(t) (-Z_odd(t))."""
        return max(float(np.max(np.abs(2.0 * (B * self.w) @ B.T - np.eye(len(B)))))
                   for B in (self._even, self._odd) if len(B))

    # -- transforms -------------------------------------------------------

    def synthesize_half(self, coeffs: np.ndarray) -> np.ndarray:
        """Grid values of the field with these coefficients as half-grid rows:
        row 0 holds the values at the nodes of t > 0 and the last row those
        at their mirror images, in the same node order.  An even field (odd
        coefficients all zero) has one row, which is both: its odd product
        would be +0.0."""
        e = np.dot(coeffs[0::2], self._even)
        c_odd = coeffs[1::2]
        if not c_odd.any():
            return e[None]
        o = np.dot(c_odd, self._odd)
        return np.array((e + o, e - o))

    def analyze_half(self, vals: np.ndarray) -> np.ndarray:
        """Coefficients of half-grid rows as from ``synthesize_half``.  One
        row, or two that agree, has odd coefficients +0.0, and the odd
        product is skipped."""
        up, down = vals[0], vals[-1]
        coeffs = np.zeros(self.L + 1)
        coeffs[0::2] = np.dot(self._even, self.w * (up + down))
        if len(vals) == 2:
            diff = up - down
            if diff.any():
                coeffs[1::2] = np.dot(self._odd, self.w * diff)
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

    def apply_GP(self, f: ZonalField) -> ZonalField:
        return ZonalField(f.coeffs / self.spectrum.mu_f)

    def energy_E(self, u: ZonalField) -> float:
        return float(np.sum(self.spectrum.mu_f * u.coeffs**2))

    def energy_E2(self, u: ZonalField) -> float:
        return float(np.sum(self.spectrum.nu_f * u.coeffs**2))

    # -- norms and functionals ----------------------------------------------

    def _norm(self, vals: np.ndarray, p: float) -> float:
        """The L^p norm of half-grid rows, with the largest |value| scaled
        out so no power overflows.  Only the powered values are mirrored to
        the full grid, for one dot with its weights.  Callers divide by the
        norm or its square, so a norm whose square underflows to 0 or is not
        finite is refused."""
        mags = np.abs(vals)
        top = float(mags.max())
        norm = top
        if 0.0 < top < math.inf:
            mags /= top
            powered = mags**p
            full = np.concatenate((powered[-1, ::-1], powered[0]))
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
        return self._norm(self.synthesize_half(field.coeffs), p)

    def _ratio(self, num: float, norm: float) -> float:
        """num / norm^2.  Each functional is positive on a nonzero field, so a
        quotient that underflows to 0 is refused."""
        q = num / norm**2
        if not (0.0 < q < math.inf):
            raise ValueError(f"functional value {q!r} leaves the floating-point range "
                             f"at n={self.n}, L={self.L}")
        return q

    def _theta4_num(self, coeffs: np.ndarray) -> float:
        return float(np.sum(coeffs**2 / self.spectrum.mu_f))

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
        carried values, the value of f/||f|| being that of f.

        An even start (odd coefficients all zero, as the constant and the
        constant plus a Z_2 are) stays even, so each transform of a step
        runs its even product only and every pointwise operation runs once,
        on the one row of t > 0: G_P is diagonal, so G_P f is even; its
        values on the mirrored grid agree at t and -t; the nonlinearity is
        pointwise, so the powered values agree too, and their analysis has
        odd coefficients +0.0, which the blend keeps.
        """
        if not (0.0 < damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if not np.any(f0.coeffs):
            raise ValueError(f"zero initial field at n={self.n}, L={self.L}")
        expo = (self.n + 4.0) / (self.n - 4.0)

        coeffs = f0.coeffs
        vals = self.synthesize_half(coeffs)
        for step in range(steps + 1):
            if step:
                g_vals = self.synthesize_half(self.apply_GP(f).coeffs)
                if not g_vals.max() > 0:
                    raise ValueError("iterate collapsed: G_P f has no positive part")
                update = self.analyze_half(np.maximum(g_vals, 0.0) ** expo)
                u_vals = self.synthesize_half(update)
                u_norm = self._norm(u_vals, self.p_dual)
                coeffs = (1.0 - damping) * f.coeffs + damping * (update / u_norm)
                vals = (1.0 - damping) * vals + damping * (u_vals / u_norm)
            norm = self._norm(vals, self.p_dual)
            value = self._ratio(self._theta4_num(coeffs), norm)
            f = ZonalField(coeffs / norm)
            vals = vals / norm
            yield f, value

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
