"""Closed-form quantities on R^n and the round sphere S^n.

Gamma-function moment integrals for bubble-type profiles, the bubble
profiles themselves as exact radial sums with the canonical form of their
bilaplacian, and the sharp constants of the fourth-order Sobolev quotient
and its dual.

Floating evaluation goes through log-Gamma; rational quantities (the
sphere's Q value) stay exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction


def omega_n(n: int) -> float:
    """Volume of the unit ball in R^n: pi^{n/2} / Gamma(n/2 + 1)."""
    return math.exp(0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1))


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^n (embedded in R^{n+1})."""
    return (n + 1) * omega_n(n + 1)


def radial_moment(a: float, b: float, n: int) -> float:
    """Integral over R^n of |x|^b (|x|^2+1)^{-a}.

    Equals pi^{n/2} Gamma((b+n)/2) Gamma(a-(b+n)/2) / (Gamma(a) Gamma(n/2));
    requires b > -n and 2a - b > n for convergence.
    """
    if not b > -n:
        raise ValueError(f"need b > -n, got b={b}, n={n}")
    if not 2 * a - b > n:
        raise ValueError(f"need 2a - b > n, got a={a}, b={b}, n={n}")
    h = 0.5 * (b + n)
    logval = (
        0.5 * n * math.log(math.pi)
        + math.lgamma(h)
        + math.lgamma(a - h)
        - math.lgamma(a)
        - math.lgamma(0.5 * n)
    )
    return math.exp(logval)


# -- bubbles -------------------------------------------------------------------


class _AtLam(functools.partial):
    """A radial sum s at one lam, ``_AtLam(s, lam=lam)``: ``__call__(r)`` and
    ``deriv(k, r)``.  The one lam-bound object left, since the benchmark's
    bubble task calls ``bubble_u(lam, n).deriv(k, r)``; it stays until
    direction 22 of the ROADMAP moves that call to ``s.deriv(k, r, lam)``."""

    def deriv(self, order: int, r):
        return self.func.deriv(order, r, **self.keywords)


def bubble_u(lam: float, n: int) -> _AtLam:
    """u_lam = (lam / (r^2 + lam^2))^{(n-4)/2}."""
    return _AtLam(_bubble(n, n - 4), lam=lam)


def bubble_f(lam: float, n: int) -> _AtLam:
    """f_lam = (lam / (r^2 + lam^2))^{(n+4)/2} = u_lam^{(n+4)/(n-4)}."""
    return _AtLam(_bubble(n, n + 4), lam=lam)


def bubble_constant(n: int) -> int:
    """n(n+2)(n-2)(n-4), the constant c of the bubble equation Delta^2 u_lam = c f_lam."""
    return n * (n + 2) * (n - 2) * (n - 4)


# the bubble profiles and the canonical Delta^2 u, built once per dimension
@functools.cache
def _bubble(n: int, twice_q: int) -> RadialTermSum:
    """(lam / (r^2 + lam^2))^{twice_q/2}."""
    # imported here, where the bubble half first needs it: radial imports
    # numpy, and the constants half runs without it
    from .radial import RadialTermSum

    if n < 5:
        raise ValueError("bubbles require n >= 5")
    q = Fraction(twice_q, 2)
    return RadialTermSum.single(1, q, 0, -q)


@functools.cache
def bubble_bilaplacian(n: int) -> RadialTermSum:
    """Delta^2 u_lam in canonical form.  The bubble equation holds exactly
    when this sum equals ``bubble_source(n)`` term for term, for every lam
    at once.  Every term of Delta^2 u_lam has an even r power j >= 0, where
    the canonical form is unique."""
    return _bubble(n, n - 4).bilaplacian(n).canonical()


def bubble_source(n: int) -> RadialTermSum:
    """n(n+2)(n-2)(n-4) f_lam, the right side of the bubble equation."""
    return _bubble(n, n + 4).scale(bubble_constant(n))


def bubble_pde_residual(lam: float, n: int, r):
    """Relative residual of Delta^2 u_lam = n(n+2)(n-2)(n-4) u_lam^{(n+4)/(n-4)}
    at the radii r, an array shaped as r (a float at a scalar r), with
    Delta^2 u_lam evaluated from its canonical form.  Evaluated term by
    term as derived, its terms cancel and the residual grows past 1e-10
    from about r/lam = 24."""
    rhs = bubble_constant(n) * _bubble(n, n + 4)(r, lam)
    return abs(bubble_bilaplacian(n)(r, lam) - rhs) / abs(rhs)


# -- sharp constants -----------------------------------------------------------


@dataclass(frozen=True)
class SharpConstants:
    n: int
    Y4_sphere: float
    Theta4_sphere: float
    Q_sphere: Fraction
    omega_n: float


def sharp_constants(n: int) -> SharpConstants:
    """Sphere values: Q = n(n+2)(n-2)/8 exactly,

        Y4(S^n) = n(n+2)(n-2)(n-4)/16 * 2^{4/n} pi^{2(n+1)/n}
                  / Gamma((n+1)/2)^{4/n},

    and Theta4 = 1/Y4.
    """
    if n < 5:
        raise ValueError("n >= 5 required")
    lead = bubble_constant(n) / 16.0
    logval = (
        (4.0 / n) * math.log(2.0)
        + (2.0 * (n + 1) / n) * math.log(math.pi)
        - (4.0 / n) * math.lgamma(0.5 * (n + 1))
    )
    y4 = lead * math.exp(logval)
    return SharpConstants(
        n=n,
        Y4_sphere=y4,
        Theta4_sphere=1.0 / y4,
        Q_sphere=Fraction(n * (n + 2) * (n - 2), 8),
        omega_n=omega_n(n),
    )


def u1_delta_norm_sq(n: int) -> float:
    """L^2 norm squared of Delta u_1 over R^n, assembled from moments.

    Delta u_1 = -(n-4) [ 2 (r^2+1)^{-(n-2)/2} + (n-2)(r^2+1)^{-n/2} ].
    """
    c = float((n - 4) ** 2)
    return c * (
        4.0 * radial_moment(n - 2, 0, n)
        + 4.0 * (n - 2) * radial_moment(n - 1, 0, n)
        + (n - 2) ** 2 * radial_moment(n, 0, n)
    )


# Largest n at which radial_moment(n, 0, n) is a normal float.  Past it the
# moment is subnormal and loses digits (the moments check exceeds 1e-12 from
# n = 333), and from n = 341 its power underflows to 0.
MOMENTS_MAX_N = 326


def y4_ratio_from_moments(n: int) -> float:
    """The quotient ||Delta u_1||^2 / ||u_1||^2_{2n/(n-4)} via moments;
    n <= MOMENTS_MAX_N."""
    if n > MOMENTS_MAX_N:
        raise ValueError(f"moments leave the normal float range past n = {MOMENTS_MAX_N}")
    den = radial_moment(n, 0, n) ** ((n - 4) / n)
    return u1_delta_norm_sq(n) / den


def constants_table(n_values) -> list[dict]:
    """One row per n: sphere constants plus the cross-check residuals
    driven by the CLI `constants` subcommand."""
    rows = []
    for n in n_values:
        sc = sharp_constants(n)
        moments = y4_ratio_from_moments(n)
        duality = sc.Theta4_sphere * sc.Y4_sphere - 1.0
        rows.append(
            {
                "n": n,
                "Q_sphere": sc.Q_sphere,
                "omega_n": sc.omega_n,
                "Y4": sc.Y4_sphere,
                "Theta4": sc.Theta4_sphere,
                "resid_Y4_vs_moments": abs(moments - sc.Y4_sphere) / sc.Y4_sphere,
                "resid_duality": abs(duality),
            }
        )
    return rows
