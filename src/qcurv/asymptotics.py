"""Numerical reproduction of the test-function energy asymptotics.

For each dimension regime a concentrated test function is assembled from
the bubble u_lam, a C^4 smoothstep cutoff, and the leading Green's-function
correction; the quadratic-form integral P phi * phi and the norm integral
|P phi|^{2n/(n+4)} are then evaluated and the coefficient of the model
term (lam^{n-4}, lam^4, or lam^4 log(1/lam)) is extracted by least squares
and compared with its closed form.  Every fact of a regime (dimensions,
lam grid, tolerance, fit basis, closed forms) is one row of ``CASES``.

Inside the model ball, P phi reduces against the curvature jet to

    P phi = main -/+ [ 2 (v'' - v'/r)/r^2 * A4(x)
                       + ((2-n)/2 v'' - (n^2-n-14)/2 v'/r) J_ij x_i x_j
                       + (n-4)/(24(n-1)) |W|^2 v ],

with v the bubble (high case) or the matching difference
beta = lam^{(n-4)/2} r^{4-n} - u_lam (all other cases), and A4 the
Schouten quartic.  Only the sphere averages of these curvature
polynomials, and of the Green's-function correction, enter the integrals,
and each is an exact rational in n times |W|^2 (``curvature_averages``).
So |W|^2 is the one number the model reads from the jet, and only 1-D
radial quadratures remain.

Those run on composite 48-point Gauss-Legendre panels: on the ball, panels
that double in width from lam/64 out to DELTA, so they are refined
geometrically around r ~ lam; on the annulus, four equal panels.  Per lam
one pass over all the ball nodes yields both the numerator and the norm
integrands; each panel is still summed as its own dot product and the
panels left to right, so the result is the same, bit for bit, as one call
per panel.  The exact radial factors (u_lam, f_lam, beta and their
derivatives) do not depend on lam: they are built once per dimension and
evaluated at each (r, lam).  The cutoff is one polynomial in r/DELTA - 1
(``SMOOTHSTEP``), tabulated with its derivatives at the fixed annulus
nodes at import; the curvature averages, once per model.

Model scope: integrals are taken over the ball r <= DELTA plus, for the
numerator of the matched cases, the exact cutoff annulus term
-Delta^2(eta2 beta) * phi on [DELTA, 2 DELTA], where integration by parts
makes it higher order.  Raw |cutoff|^p contributions to the norm and the
high-case cutoff terms are omitted: they are o() remainders of the
expansions being reproduced, but their absolute size at feasible lam
would swamp the tracked coefficient.  Angular cross-averages that are
quadratic in curvature (e.g. correction times psi_4) are o(lam^4) and are
not modeled.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .parametrix import CurvatureJet, psi4_radial_coefficient
from .radial import RadialTermSum
from .report import VerificationReport, close_check
from .sphereforms import _bubble, bubble_constant, bubble_source, omega_n, sharp_constants

F = Fraction


# -- closed-form expected coefficients ----------------------------------------


def flat_ratio_coefficient(n: int) -> float:
    """lam^{n-4} coefficient of the ratio above Theta4, per unit constant:

        4 ((n-1)!)^{(n+4)/n} / ( n^2 (n+2)^2 (n-2)(n-4)
                                  Gamma(n/2)^{(2n+4)/n} pi^2 ).
    """
    log_num = math.log(4.0) + ((n + 4) / n) * math.lgamma(n)
    log_den = (
        math.log(n * n * (n + 2) ** 2 * (n - 2) * (n - 4))
        + ((2 * n + 4) / n) * math.lgamma(n / 2)
        + 2 * math.log(math.pi)
    )
    return math.exp(log_num - log_den)


def flat_numerator_coefficient(n: int) -> float:
    """lam^{n-4} coefficient of the numerator: 4(n-2)(n-4) pi^{n/2}/Gamma(n/2)."""
    return 4 * (n - 2) * (n - 4) * math.pi ** (n / 2) / math.gamma(n / 2)


def high_ratio_coefficient(n: int) -> Fraction:
    """(n^2-4n-4) / (6n(n+2)(n-2)(n-6)(n-8)), per unit |W|^2."""
    return F(n * n - 4 * n - 4, 6 * n * (n + 2) * (n - 2) * (n - 6) * (n - 8))


def high_norm_integral_coefficient(n: int) -> Fraction:
    """Relative lam^4 coefficient of the norm integral:
    -(1/3)(n^2-4n-4)/((n+2)(n+4)(n-2)(n-6)(n-8))."""
    return F(-(n * n - 4 * n - 4), 3 * (n + 2) * (n + 4) * (n - 2) * (n - 6) * (n - 8))


def n9_ratio_coefficient() -> Fraction:
    """Relative lam^4 coefficient at n=9, per unit |W|^2."""
    return F(41, 12474)


def n8_ratio_log_coefficient() -> float:
    """lam^4 log(1/lam) coefficient of the ratio at n=8, per unit |W|^2."""
    return 210.0**1.5 / (41472000.0 * math.pi**2)


# -- angular reduction ---------------------------------------------------------


def curvature_averages(n: int) -> tuple[Fraction, Fraction, Fraction | None]:
    """Sphere averages per unit |W|^2 of the curvature polynomials the model
    integrates: the Schouten quartic A4 (coefficient of r^4), J_ij x_i x_j
    (of r^2) and, for n >= 9, psi_4 (of r^4; None below).

    The Weyl quartic sum_kl (W_ikjl x_i x_j)^2 averages to 3|W|^2/(2n(n+2))
    (``WeylTensor.sphere_average_quartic``).  The trace constraint of
    conformal normal coordinates, trace(J) = -|W|^2/(12(n-1)), makes the J
    average trace(J)/n = -|W|^2/(12n(n-1)); then A4 = -2/(9(n-2)) times the
    Weyl quartic - r^2/(n-2) J_ij x_i x_j averages to -|W|^2/(4n(n-1)(n+2)).
    Of the three pieces of ``psi4_closed_form``, the first is harmonic of
    degree 4 and the second is r^2 times a quadratic that is harmonic by
    the same trace constraint, so both average to zero and only the pure
    r^4 piece c(n)|W|^2 (``psi4_radial_coefficient``) remains.
    """
    psi4 = psi4_radial_coefficient(n) if n >= 9 else None
    return F(-1, 4 * n * (n - 1) * (n + 2)), F(-1, 12 * n * (n - 1)), psi4


# -- cutoff --------------------------------------------------------------------

DELTA = 1.0  # radius of the model ball; the cutoff annulus is [DELTA, 2 DELTA]

# The cutoff eta1 on the annulus as a polynomial in t = r/DELTA - 1: the
# smoothstep 126t^5 - 420t^6 + 540t^7 - 315t^8 + 70t^9, 0 at t = 0 and 1 at
# t = 1.  P is fourth order, so the test function needs C^4, and degree 9
# is the lowest odd smoothstep with four matched derivatives at both
# junctions.  eta1 is 0 on the ball and 1 beyond the annulus.
SMOOTHSTEP = np.polynomial.Polynomial([0, 0, 0, 0, 0, 126, -420, 540, -315, 70])


# -- the dimension regimes -------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """Every fact of one dimension regime.

    The fit takes value - lead, or value/lead - 1 where ``relative``, in
    the basis ``basis_fns`` (functions of lam and p = weight_power(n)),
    each grid point weighted by lam^{-p}; its first coefficient is the
    tracked one.  A regime that needs a jet tracks a curvature term, so
    its closed forms are per unit |W|^2; the others are per unit A0.  A
    ``matched`` test function carries the matching difference beta and
    the cutoff annulus term; an unmatched one the bubble alone.  Each
    split check fits one evaluate_model quantity against its own closed
    form: (provenance, quantity, closed form per unit), emitted as
    ``asymptotics.{quantity}_coeff[{case},n={n}]``.  ``green_avg(model,
    lam, r)`` is the angular average of the Green's-function correction
    the test function carries with the bubble.
    """

    n_min: int
    n_max: int | None  # None: no upper bound
    lambdas: tuple[float, ...]
    rtol: float
    ratio_per_unit: Callable[[int], float]
    needs_jet: bool = True
    basis: tuple[str, ...] = ("lam^4",)
    basis_fns: tuple[Callable, ...] = (lambda l, p: l**p,)
    weight_power: Callable[[int], float] = lambda n: 4.0
    relative: bool = True
    matched: bool = True
    split_checks: tuple[tuple[str, str, Callable[[int], float]], ...] = ()
    green_avg: Callable = lambda model, lam, r: 0.0


_MASS = dict(
    lambdas=(0.1, 0.05, 0.025, 0.0125),
    rtol=0.02,
    ratio_per_unit=flat_ratio_coefficient,
    needs_jet=False,
    basis=("lam^(n-4)",),
    weight_power=lambda n: n - 4.0,
    relative=False,
    split_checks=(("flat-case numerator expansion, explicit constant", "numerator",
                   flat_numerator_coefficient),),
    green_avg=lambda m, lam, r: m.A0 * lam ** ((m.n - 4) / 2) * np.ones_like(r),
)

CASES = {
    "flat": Case(5, None, **_MASS),
    "lowdim": Case(5, 7, **_MASS),
    # the log extraction needs small lam (the model's own higher-order
    # content contaminates the norm above lam ~ 0.02) and a wide log(1/lam)
    # spread to decorrelate the two basis functions
    "n8": Case(
        8, 8, (0.02, 0.01337, 0.00894, 0.00598, 0.004), 0.10, lambda n: n8_ratio_log_coefficient(),
        basis=("lam^4 log(1/lam)", "lam^4"),
        basis_fns=(lambda l, p: l**p * np.log(1.0 / l), lambda l, p: l**p),
        relative=False,
        split_checks=(("n=8 numerator lam^4 log(1/lam) term", "numerator",
                       lambda n: math.pi**4 / 90.0),),
        green_avg=lambda m, lam, r: -(float(m.w2) / 1440.0) * lam**2 * np.log(r),
    ),
    # no split checks: the mixed 1/pi pieces of n = 9 are not tracked
    # separately, so it is held at the ratio level alone
    "n9": Case(9, 9, (0.04, 0.0283, 0.02, 0.01414, 0.01), 0.05, lambda n: float(n9_ratio_coefficient()),
               green_avg=lambda m, lam, r: lam**2.5 * m.psi4_block / r),
    "high": Case(
        10, None, (0.04, 0.02, 0.01, 0.005), 0.02, lambda n: float(high_ratio_coefficient(n)),
        matched=False,
        split_checks=(
            ("high-case numerator relative lam^4 factor", "numerator",
             lambda n: float(-high_ratio_coefficient(n))),
            ("high-case norm-integral relative lam^4 factor", "norm_integral",
             lambda n: float(high_norm_integral_coefficient(n))),
        ),
    ),
}


_COND_LIMIT = 1e8


@dataclass(frozen=True)
class TestFunctionModel:
    """One concentrated-test-function experiment.

    ``case`` names a row of ``CASES``: the dimension regime and which
    correction rides along with the bubble.  ``jet`` supplies the curvature,
    read through |W|^2 alone (required where the row needs one, optional for
    lowdim), ``A0`` the constant term of the flat/low dimensional Green's
    expansion (None: 1.0; a row that reads a jet refuses one).  lam values
    default to the row's grid and must be at least four distinct points, all
    in (0, DELTA/4), whose fit weights and integrands stay finite; every
    closed form and fit lead at n must be a finite float and the fit well
    conditioned; A0 must be finite and small enough that the fit can square
    the values it scales; and no closed form times its unit (A0, or |W|^2
    of the jet) may be zero, since every check is relative to it.  All are
    judged here, once, before any quadrature, and the model is frozen so
    that the judgement holds.  The integrands read the lam-free radial
    factors of dimension n (``_radial_shapes``) and take their lam as an
    argument.
    """

    __test__ = False  # name collides with pytest's collection pattern

    case: str
    n: int
    jet: CurvatureJet | None = None
    A0: float | None = None
    lambdas: tuple[float, ...] = ()

    def __post_init__(self):
        row = CASES.get(self.case)
        if row is None:
            raise ValueError(f"unknown case {self.case!r}")
        if self.n < row.n_min or (row.n_max is not None and self.n > row.n_max):
            raise ValueError(f"case {self.case!r} incompatible with n={self.n}")
        if row.needs_jet and self.jet is None:
            raise ValueError(f"case {self.case!r} needs a curvature jet")
        if self.jet is not None and self.jet.n != self.n:
            raise ValueError("jet dimension mismatch")
        object.__setattr__(self, "lambdas", tuple(self.lambdas) or row.lambdas)
        if len(self.lambdas) < 4:
            raise ValueError("need at least 4 lambda grid points")
        repeated = [lam for lam, count in Counter(self.lambdas).items() if count > 1]
        if repeated:
            raise ValueError(f"lambda {repeated[0]!r} appears more than once in the grid; "
                             "the fit needs distinct points")
        if not all(0 < lam < DELTA / 4 for lam in self.lambdas):
            raise ValueError("every lambda must lie in (0, DELTA/4)")
        if row.needs_jet and self.A0 is not None:
            raise ValueError(f"case {self.case!r} reads no A0")
        self.design  # refuses a grid whose weights overflow or whose fit is ill-conditioned
        # near r = 0 the integrands reach lam^-(n+4), the bubble source's
        # (r^2+lam^2)^-(n+4)/2, and c^p lam^-n, its norm integrand
        # (c lam^-(n+4)/2)^p with c = n(n+2)(n-2)(n-4) and p = 2n/(n+4); every
        # other value stays smaller.  Below lam_min one of the two is larger
        # than the reciprocal of the smallest normal float.
        n, tiny = self.n, sys.float_info.min
        c, p = n * (n + 2) * (n - 2) * (n - 4), 2 * n / (n + 4)
        lam_min = max(tiny ** (1 / (n + 4)), (c ** p * tiny) ** (1 / n))
        if min(self.lambdas) < lam_min:
            raise ValueError(f"lambda {min(self.lambdas)!r} lies below {lam_min:.3g}, where the "
                             f"integrands at n={n} leave the floating-point range")
        try:  # math.gamma and float powers raise OverflowError past the float range
            finite = all(map(math.isfinite, (*self.closed_forms, *self.leads.values())))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"case {self.case!r} at n={self.n}: a closed form or split-check "
                             "lead leaves the floating-point range")
        if not row.needs_jet:
            object.__setattr__(self, "A0", 1.0 if self.A0 is None else self.A0)
            if not math.isfinite(self.A0):
                raise ValueError("A0 must be finite")
            # the fitted values are about A0 times a closed form per point,
            # and the least-squares norms square them
            for c in self.closed_forms:
                if not math.isfinite(len(self.lambdas) * (c * self.A0) * (c * self.A0)):
                    raise ValueError(
                        f"A0 = {self.A0:g} makes the fit values overflow the floating-point "
                        f"range (closed form {c:.6g} per unit A0)"
                    )
        unit_name, unit = self.unit
        if 0.0 in (c * unit for c in self.closed_forms):  # the checks are relative to them
            raise ValueError(f"{unit_name} = {unit:g} makes a closed form of case {self.case!r} "
                             f"at n={self.n} zero; no relative check can hold against it")

    @cached_property
    def closed_forms(self) -> tuple[float, ...]:
        """The row's closed forms per unit: the ratio coefficient, then one
        per split check."""
        row = CASES[self.case]
        return (row.ratio_per_unit(self.n), *(f(self.n) for *_, f in row.split_checks))

    @cached_property
    def leads(self) -> dict[str, float]:
        """The lam^0 terms the fits divide out, by evaluate_model quantity:
        Theta4 for the ratio, the numerator C Gamma(n/2) pi^{n/2} / Gamma(n)
        and the norm integral C^{2n/(n+4)} Gamma(n/2) pi^{n/2} / Gamma(n),
        C = bubble_constant(n)."""
        n, c = self.n, bubble_constant(self.n)
        return {"ratio": sharp_constants(n).Theta4_sphere,
                "numerator": c * math.gamma(n / 2) * math.pi ** (n / 2) / math.gamma(n),
                "norm_integral": (c ** (2 * n / (n + 4)) * math.gamma(n / 2) * math.pi ** (n / 2)
                                  / math.gamma(n))}

    @cached_property
    def w2(self) -> Fraction | None:
        """|W|^2 of the jet, the only curvature datum the model reads; None
        without a jet."""
        return self.jet.W.norm_sq() if self.jet is not None else None

    @cached_property
    def psi4_block(self) -> float:
        """r^4 coefficient of the angular average of psi_4, shared by every lam."""
        return float(curvature_averages(self.n)[2] * self.w2)

    @cached_property
    def corr_constants(self) -> tuple[float, float, float] | None:
        """The Schouten-quartic, J and |W|^2 averages as floats, shared by
        every lam; None where the jet carries no curvature (|W|^2 = 0 makes
        trace(J) and both averages vanish too)."""
        if not self.w2:
            return None
        a4, j, _ = curvature_averages(self.n)
        return float(a4 * self.w2), float(j * self.w2), float(self.w2)

    @cached_property
    def design(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Fit weights lam^{-p}, the weighted basis matrix of the grid and
        its condition number."""
        row = CASES[self.case]
        p = row.weight_power(self.n)
        lams = np.array(self.lambdas, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            w = lams ** (-p)
            A = np.column_stack([fn(lams, p) * w for fn in row.basis_fns])
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(A))):
            raise ValueError(
                f"fit weights lam^-{p:g} or basis {row.basis} overflow the floating-point "
                f"range on grid {list(self.lambdas)}"
            )
        cond = np.linalg.cond(A)
        if cond > _COND_LIMIT:
            raise ValueError(
                f"ill-conditioned fit: cond={cond:.3e} for basis {row.basis} "
                f"on grid {list(self.lambdas)}"
            )
        return w, A, cond

    @cached_property
    def evaluations(self) -> list[dict]:
        """evaluate_model at every lam of the grid, shared by the fits."""
        return [evaluate_model(self, lam) for lam in self.lambdas]

    @property
    def unit(self) -> tuple[str, float]:
        """Name and value of the unit the row's closed forms are given per."""
        return ("w2", float(self.w2)) if self.A0 is None else ("A0", self.A0)

    def corr_avg(self, r: np.ndarray, lam: float) -> np.ndarray:
        """Angular average of the curvature correction to P phi, which rides
        on beta (matched cases) or on u itself (high)."""
        if self.corr_constants is None:
            return np.zeros_like(r)
        n = self.n
        cA, gj, w2 = self.corr_constants
        u_chain, _, beta = _radial_shapes(n)
        v, v1, v2 = (h(r, lam) for h in (beta[:3] if CASES[self.case].matched else u_chain))
        term_a = 2.0 * (v2 - v1 / r) * cA * r * r
        term_j = ((2.0 - n) / 2.0 * v2 - (n * n - n - 14.0) / 2.0 * v1 / r) * gj * r * r
        term_q = (n - 4.0) / (24.0 * (n - 1.0)) * w2 * v
        return term_a + term_j + term_q

    def bulk(self, r: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """The numerator and norm integrands on the ball, from one
        evaluation of main, corr_avg and r^{n-1}."""
        n, row = self.n, CASES[self.case]
        u_chain, main_sum, _ = _radial_shapes(n)
        p = 2.0 * n / (n + 4)
        main = main_sum(r, lam)
        corr = (-1.0 if row.matched else +1.0) * self.corr_avg(r, lam)
        weight = r ** (n - 1)
        phi = u_chain[0](r, lam) + row.green_avg(self, lam, r)
        surf = n * omega_n(n)
        numerator = (main + corr) * phi * weight * surf
        norm = main ** (p - 1.0) * (main + p * corr) * weight * surf
        return numerator, norm

    def numerator_annulus(self, r: np.ndarray, lam: float, e1: np.ndarray) -> np.ndarray:
        """-Delta^2(eta2 beta) * phi on [DELTA, 2 DELTA] (matched cases), with
        e1 eta1 and its first four r-derivatives at r."""
        n = self.n
        u_chain, _, beta = _radial_shapes(n)
        e2 = -e1
        e2[0] = 1.0 - e1[0]
        b = [h(r, lam) for h in beta]
        f = [
            sum(math.comb(m, i) * e2[i] * b[m - i] for i in range(m + 1))
            for m in range(5)
        ]
        bilap = (
            f[4]
            + 2.0 * (n - 1) * f[3] / r
            + (n - 1) * (n - 3) * f[2] / r**2
            - (n - 1) * (n - 3) * f[1] / r**3
        )
        lam_q = lam ** ((n - 4) / 2.0)
        phi = (
            e2[0] * u_chain[0](r, lam)
            + e1[0] * lam_q * r ** float(4 - n)
            + CASES[self.case].green_avg(self, lam, r)
        )
        return -bilap * phi * r ** (n - 1) * (n * omega_n(n))


# -- composite Gauss-Legendre engine --------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _panel_nodes(breakpoints) -> tuple[np.ndarray, np.ndarray]:
    """Half-widths of the panels [a, b] of consecutive breakpoints, and the
    (panels x 48) array of their Gauss-Legendre nodes."""
    a = np.asarray(breakpoints[:-1], dtype=float)
    b = np.asarray(breakpoints[1:], dtype=float)
    half = 0.5 * (b - a)
    return half, (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES


def _panel_sum(half: np.ndarray, values: np.ndarray) -> float:
    """Gauss-Legendre sum of values at ``_panel_nodes``: each panel its own
    dot product, the panels left to right."""
    total = 0.0
    for h, row in zip(half.tolist(), values):
        total += h * float(np.dot(_GL_WEIGHTS, row))
    return total


def _bulk_breakpoints(lam: float) -> list[float]:
    pts = [0.0]
    x = lam / 64.0
    while x < DELTA:
        pts.append(x)
        x *= 2.0
    pts.append(DELTA)
    return pts


# the cutoff annulus [DELTA, 2 DELTA] in four equal panels
_ANNULUS_HALF, _ANNULUS_NODES = _panel_nodes([DELTA * k for k in (1.0, 1.25, 1.5, 1.75, 2.0)])


# rows 0..4: eta1 and its first four r-derivatives at the annulus nodes,
# read-only.  The nodes lie strictly inside the annulus, where eta1 is the
# smoothstep itself.
_ANNULUS_CUTOFF = np.array([SMOOTHSTEP.deriv(m)(_ANNULUS_NODES / DELTA - 1.0) / DELTA**m
                            for m in range(5)])
_ANNULUS_CUTOFF.setflags(write=False)


# -- the radially reduced integrands --------------------------------------------


def _chain(h: RadialTermSum, order: int) -> list[RadialTermSum]:
    """h and its derivatives up to the given order."""
    out = [h]
    for _ in range(order):
        out.append(out[-1].diff())
    return out


@functools.cache
def _radial_shapes(n: int) -> tuple[list[RadialTermSum], RadialTermSum, list[RadialTermSum]]:
    """The lam-free radial factors of dimension n, built on first use: u_lam
    and its first two derivatives, the bubble term n(n+2)(n-2)(n-4) f_lam of
    P phi, and the matching difference beta = lam^{(n-4)/2} r^{4-n} - u_lam
    and its derivatives of order 0..4."""
    q = F(n - 4, 2)
    beta = RadialTermSum([(F(1), q, 4 - n, F(0)), (F(-1), q, 0, -q)])
    return _chain(_bubble(n, n - 4), 2), bubble_source(n), _chain(beta, 4)


def evaluate_model(model: TestFunctionModel, lam: float) -> dict:
    """Numerator, norm integral, and functional ratio at one lam.

    P phi vanishes beyond the cutoff annulus, so the bulk ball and, for
    matched cases, the numerator's annulus term are the whole integrals.
    """
    half, nodes = _panel_nodes(_bulk_breakpoints(lam))
    numerator, norm = model.bulk(nodes, lam)
    num = _panel_sum(half, numerator)
    if CASES[model.case].matched:
        annulus = model.numerator_annulus(_ANNULUS_NODES, lam, _ANNULUS_CUTOFF)
        num += _panel_sum(_ANNULUS_HALF, annulus)
    norm_int = _panel_sum(half, norm)
    n = model.n
    norm_sq = norm_int ** ((n + 4.0) / n)
    return {
        "lam": lam,
        "numerator": num,
        "norm_integral": norm_int,
        "norm_sq": norm_sq,
        "ratio": num / norm_sq,
    }


# -- coefficient extraction ------------------------------------------------------


@dataclass
class FitResult:
    case: str
    n: int
    coefficient: float
    expected: float
    rel_error: float | None  # None where |coefficient - expected|/|expected| leaves the float range
    fit_residual: float
    lambdas: tuple[float, ...]
    basis: tuple[str, ...]
    extra_coefficients: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


def _fit(model: TestFunctionModel, key: str) -> tuple[np.ndarray, float]:
    """Least squares of v - l, or v/l - 1 for a relative case, with v the
    evaluations' ``key`` values and l = model.leads[key], in the case's
    basis, weighted by lam^{-p}; the model judged the grid when it was built.

    Dividing out the common lam power gives every grid point equal say in
    the fit; otherwise the largest lam, which carries the worst o()
    contamination, dominates the normal equations.
    """
    lead = model.leads[key]
    values = np.array([e[key] for e in model.evaluations])
    y = values / lead - 1.0 if CASES[model.case].relative else values - lead
    w, A, _ = model.design
    with np.errstate(over="ignore", invalid="ignore"):  # judged below
        yw = y * w
        coef, _, _, _ = np.linalg.lstsq(A, yw, rcond=None)
        resid = float(np.linalg.norm(yw - A @ coef) / max(np.linalg.norm(yw), 1e-300))
    if not (math.isfinite(resid) and np.all(np.isfinite(coef))):
        raise ValueError("fit values overflow the floating-point range")
    return coef, resid


def fit_expansion(model: TestFunctionModel) -> FitResult:
    """Extract the model-term coefficient of the functional ratio against
    Theta4: the first basis coefficient, compared with the case's closed
    form; the other basis coefficients are reported as extras."""
    case = CASES[model.case]
    coef, resid = _fit(model, "ratio")
    fitted = float(coef[0])
    expected = model.closed_forms[0] * model.unit[1]
    rel = abs(fitted - expected) / abs(expected)
    return FitResult(
        case=model.case,
        n=model.n,
        coefficient=fitted,
        expected=expected,
        rel_error=rel if math.isfinite(rel) else None,
        fit_residual=resid,
        lambdas=model.lambdas,
        basis=case.basis,
        extra_coefficients={name: float(c) for name, c in zip(case.basis[1:], coef[1:])},
        details={"theta4": model.leads["ratio"], "evaluations": model.evaluations,
                 "condition_number": model.design[2]},
    )


def numerator_coefficient_check(model: TestFunctionModel) -> list[VerificationReport]:
    """Fit the numerator and norm expansions separately against their own
    closed forms, one report per split check of the case; sharper than the
    ratio test and isolates error sources."""
    case = CASES[model.case]
    unit_name, unit = model.unit
    reports = []
    for (provenance, key, _), per_unit in zip(case.split_checks, model.closed_forms[1:]):
        coef, _ = _fit(model, key)
        reports.append(
            close_check(
                f"asymptotics.{key}_coeff[{model.case},n={model.n}]",
                {"lambdas": [float(l) for l in model.lambdas], unit_name: unit},
                per_unit * unit,
                provenance,
                float(coef[0]),
                rtol=case.rtol,
            )
        )
    return reports
