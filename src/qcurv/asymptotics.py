"""Numerical reproduction of the test-function energy asymptotics.

For each dimension regime a concentrated test function is assembled from
the bubble u_lam, a C^4 smoothstep cutoff, and the leading Green's-function
correction; the quadratic-form integral P phi * phi and the norm integral
|P phi|^{2n/(n+4)} are then evaluated and the coefficient of the model
term (lam^{n-4}, lam^4, or lam^4 log(1/lam)) is extracted by least squares
and compared with its closed form.

Inside the model ball, P phi reduces against the curvature jet to

    P phi = main -/+ [ 2 (v'' - v'/r)/r^2 * A4(x)
                       + ((2-n)/2 v'' - (n^2-n-14)/2 v'/r) J_ij x_i x_j
                       + (n-4)/(24(n-1)) |W|^2 v ],

with v the bubble (high case) or the matching difference
beta = lam^{(n-4)/2} r^{4-n} - u_lam (all other cases), and A4 the
Schouten quartic.  Angular integrals of the curvature polynomials are done
exactly through their harmonic-block averages, so only 1-D radial
quadratures remain; those run on fixed composite Gauss-Legendre panels
refined geometrically around r ~ lam.

Model scope: integrals are taken over the ball r <= delta plus, for the
numerator of the matched cases, the exact cutoff annulus term
-Delta^2(eta2 beta) * phi on [delta, 2delta], where integration by parts
makes it higher order.  Raw |cutoff|^p contributions to the norm and the
high-case cutoff terms are omitted: they are o() remainders of the
expansions being reproduced, but their absolute size at feasible lam
would swamp the tracked coefficient.  Angular cross-averages that are
quadratic in curvature (e.g. correction times psi_4) are o(lam^4) and are
not modeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .parametrix import CurvatureJet, psi4_closed_form, psi4_solve
from .polyalg import HomogPoly, harmonic_decompose
from .radial import RadialTermSum
from .report import VerificationReport, close_check
from .sphereforms import omega_n, sharp_constants

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


def high_numerator_coefficient(n: int) -> Fraction:
    """Relative lam^4 coefficient of the numerator (negative)."""
    return -high_ratio_coefficient(n)


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


def n8_numerator_log_coefficient() -> float:
    """lam^4 log(1/lam) coefficient of the numerator at n=8: pi^4/90 per |W|^2."""
    return math.pi**4 / 90.0


# -- angular reduction ---------------------------------------------------------


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


@dataclass(frozen=True)
class AngularData:
    """Exact angular averages of the jet polynomials on the unit sphere."""

    n: int
    w2: Fraction  # |W|^2
    gq4: Fraction  # avg of quartic-form: gq4 * r^4
    gj2: Fraction  # avg of J_ij x_i x_j: gj2 * r^2

    @classmethod
    def from_jet(cls, jet: CurvatureJet) -> "AngularData":
        n = jet.n
        w2 = jet.W.norm_sq()
        return cls(
            n=n,
            w2=w2,
            gq4=w2 * F(3, 2 * n * (n + 2)),
            gj2=jet.Jh.trace() / n,
        )

    def schouten_quartic_avg(self) -> Fraction:
        """avg of the Schouten quartic A4(x): coefficient of r^4."""
        n = self.n
        return -F(2, 9 * (n - 2)) * self.gq4 - F(1, n - 2) * self.gj2


def psi4_radial_block(jet: CurvatureJet) -> Fraction:
    """Coefficient of r^4 in the angular average of psi_4 (n >= 9)."""
    psi = psi4_closed_form(jet) if jet.n >= 9 else psi4_solve(jet)
    blocks = {b.k: b.h for b in harmonic_decompose(psi.get(4, 0))}
    if 2 not in blocks:
        return F(0)
    return blocks[2].terms.get((0,) * jet.n, F(0))


# -- cutoff --------------------------------------------------------------------


class Cutoff:
    """Smoothstep of odd degree >= 9 on [1,2]: 0 to the left, 1 to the right,
    with (degree-1)/2 >= 4 matched derivatives at both junctions."""

    def __init__(self, degree: int = 9):
        if degree < 9 or degree % 2 == 0:
            raise ValueError("cutoff degree must be odd and >= 9")
        self.degree = degree
        N = (degree - 1) // 2
        coeffs = np.zeros(degree + 1)
        for k in range(N + 1):
            c = math.comb(N + k, k) * math.comb(2 * N + 1, N - k) * (-1) ** k
            coeffs[N + 1 + k] = c
        self._poly = np.polynomial.Polynomial(coeffs)
        self._derivs = [self._poly.deriv(m) if m else self._poly for m in range(5)]

    def eta1(self, s):
        s = np.asarray(s, dtype=float)
        t = np.clip(s - 1.0, 0.0, 1.0)
        return self._poly(t)

    def eta2(self, s):
        return 1.0 - self.eta1(s)

    def eta1_derivs(self, s) -> np.ndarray:
        """Rows 0..4: derivative values of eta1 with respect to s."""
        s = np.asarray(s, dtype=float)
        inside = (s > 1.0) & (s < 2.0)
        t = np.clip(s - 1.0, 0.0, 1.0)
        out = np.zeros((5, s.size))
        out[0] = self._poly(t)
        for m in range(1, 5):
            out[m] = np.where(inside, self._derivs[m](t), 0.0)
        return out


# -- model definition ----------------------------------------------------------

CASES = ("flat", "lowdim", "n8", "n9", "high")

DEFAULT_LAMBDAS = {
    "flat": (0.1, 0.05, 0.025, 0.0125),
    "lowdim": (0.1, 0.05, 0.025, 0.0125),
    # the n=8 log extraction needs small lam (the model's own higher-order
    # content contaminates the norm above lam ~ 0.02) and a wide log(1/lam)
    # spread to decorrelate the two basis functions
    "n8": (0.02, 0.01337, 0.00894, 0.00598, 0.004),
    "n9": (0.04, 0.0283, 0.02, 0.01414, 0.01),
    "high": (0.04, 0.02, 0.01, 0.005),
}

# relative tolerance of every coefficient fit, per case
FIT_RTOL = {"flat": 0.02, "lowdim": 0.02, "n8": 0.10, "n9": 0.05, "high": 0.02}


@dataclass
class TestFunctionModel:
    """One concentrated-test-function experiment.

    ``case`` fixes the dimension regime and which correction rides along
    with the bubble; ``jet`` supplies curvature data (cases n8, n9, high;
    optional for lowdim), ``A0`` the constant term of the flat/low
    dimensional Green's expansion.  lam values must be at least four
    points, all below delta/4.
    """

    __test__ = False  # name collides with pytest's collection pattern

    case: str
    n: int
    jet: CurvatureJet | None = None
    A0: float = 1.0
    delta: float = 1.0
    lambdas: tuple[float, ...] = ()
    cutoff_degree: int = 9

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r}")
        ok = {
            "flat": self.n >= 5,
            "lowdim": self.n in (5, 6, 7),
            "n8": self.n == 8,
            "n9": self.n == 9,
            "high": self.n >= 10,
        }[self.case]
        if not ok:
            raise ValueError(f"case {self.case!r} incompatible with n={self.n}")
        if self.case in ("n8", "n9", "high") and self.jet is None:
            raise ValueError(f"case {self.case!r} needs a curvature jet")
        if self.jet is not None and self.jet.n != self.n:
            raise ValueError("jet dimension mismatch")
        if not self.lambdas:
            self.lambdas = DEFAULT_LAMBDAS[self.case]
        if len(self.lambdas) < 4:
            raise ValueError("need at least 4 lambda grid points")
        if max(self.lambdas) >= self.delta / 4:
            raise ValueError("all lambda must be below delta/4")

    @cached_property
    def angular(self) -> AngularData | None:
        """Exact angular averages of the jet, shared by every lam."""
        return AngularData.from_jet(self.jet) if self.jet is not None else None

    @cached_property
    def psi4_block(self) -> float:
        """r^4 coefficient of the angular average of psi_4, shared by every lam."""
        return float(psi4_radial_block(self.jet))

    @cached_property
    def evaluations(self) -> list[dict]:
        """evaluate_model at every lam of the grid, shared by the fits."""
        return [evaluate_model(self, lam) for lam in self.lambdas]


# -- composite Gauss-Legendre engine --------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _panel_quad(fn, breakpoints) -> float:
    total = 0.0
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        r = mid + half * _GL_NODES
        total += half * float(np.dot(_GL_WEIGHTS, fn(r)))
    return total


def _bulk_breakpoints(lam: float, delta: float) -> list[float]:
    pts = [0.0]
    x = lam / 64.0
    while x < delta:
        pts.append(x)
        x *= 2.0
    pts.append(delta)
    return pts


# -- the radially reduced integrands --------------------------------------------


class _ModelPieces:
    """Radial factors of one (model, lam) evaluation, with the angular
    averages ``ang`` of the curvature polynomials."""

    def __init__(self, model: TestFunctionModel, lam: float, ang: AngularData | None):
        n = model.n
        self.n = n
        self.lam = lam
        self.delta = model.delta
        self.case = model.case
        self.p = 2.0 * n / (n + 4)
        self.surf = n * omega_n(n)

        q = F(n - 4, 2)
        c_main = n * (n + 2) * (n - 2) * (n - 4)
        self.u = RadialTermSum.single(lam, 1, q, 0, -q)
        self.main = RadialTermSum.single(lam, c_main, q + 4, 0, -(q + 4))
        self.beta = RadialTermSum(
            lam,
            [(F(1), q, 4 - n, F(0)), (F(-1), q, 0, -q)],
        )

        self.ang = ang
        self.cutoff = Cutoff(model.cutoff_degree)

        # correction rides on beta (matched cases) or on u itself (high)
        if model.case == "high":
            self.corr_sign = +1.0
            v = self.u
        else:
            self.corr_sign = -1.0
            v = self.beta
        self.v = v
        self.v1 = v.diff()
        self.v2 = self.v1.diff()

        # angular-averaged green correction carried by the test function
        lam_q = lam ** float(q)
        if model.case in ("flat", "lowdim"):
            self.gavg = lambda r: model.A0 * lam_q * np.ones_like(r)
        elif model.case == "n8":
            w2 = float(self.ang.w2)
            self.gavg = lambda r: -(w2 / 1440.0) * lam**2 * np.log(r)
        elif model.case == "n9":
            c_psi = model.psi4_block
            self.gavg = lambda r: lam**2.5 * c_psi / r
        else:
            self.gavg = None

    def corr_avg(self, r: np.ndarray) -> np.ndarray:
        """Angular average of the curvature correction to P phi."""
        if self.ang is None or (self.ang.w2 == 0 and self.ang.gj2 == 0):
            return np.zeros_like(r)
        n = self.n
        cA = float(self.ang.schouten_quartic_avg())
        gj = float(self.ang.gj2)
        w2 = float(self.ang.w2)
        v = self.v(r)
        v1 = self.v1(r)
        v2 = self.v2(r)
        term_a = 2.0 * (v2 - v1 / r) * cA * r * r
        term_j = ((2.0 - n) / 2.0 * v2 - (n * n - n - 14.0) / 2.0 * v1 / r) * gj * r * r
        term_q = (n - 4.0) / (24.0 * (n - 1.0)) * w2 * v
        return term_a + term_j + term_q

    def numerator_bulk(self, r: np.ndarray) -> np.ndarray:
        phi = self.u(r) + (self.gavg(r) if self.gavg is not None else 0.0)
        pphi = self.main(r) + self.corr_sign * self.corr_avg(r)
        return pphi * phi * r ** (self.n - 1) * self.surf

    def norm_bulk(self, r: np.ndarray) -> np.ndarray:
        main = self.main(r)
        integrand = main ** (self.p - 1.0) * (
            main + self.p * self.corr_sign * self.corr_avg(r)
        )
        return integrand * r ** (self.n - 1) * self.surf

    def numerator_annulus(self, r: np.ndarray) -> np.ndarray:
        """-Delta^2(eta2 beta) * phi on [delta, 2 delta] (matched cases)."""
        n = self.n
        d = self.delta
        s = r / d
        e1 = self.cutoff.eta1_derivs(s)
        for m in range(1, 5):
            e1[m] /= d**m
        e2 = -e1
        e2[0] = 1.0 - e1[0]
        b = [self.beta.deriv(m)(r) for m in range(5)]
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
        lam_q = self.lam ** ((n - 4) / 2.0)
        phi = (
            e2[0] * self.u(r)
            + e1[0] * lam_q * r ** float(4 - n)
            + (self.gavg(r) if self.gavg is not None else 0.0)
        )
        return -bilap * phi * r ** (n - 1) * self.surf


@dataclass
class ModelIntegrands:
    """Radially factorized quadrature tasks for one lam."""

    lam: float
    numerator_bulk: callable
    norm_bulk: callable
    numerator_annulus: callable | None
    bulk_breakpoints: list[float]
    annulus_breakpoints: list[float]
    outer_closed_form: float = 0.0  # P phi vanishes beyond the annulus


def model_integrands(model: TestFunctionModel, lam: float) -> ModelIntegrands:
    pieces = _ModelPieces(model, lam, model.angular)
    d = model.delta
    has_annulus = model.case != "high"
    return ModelIntegrands(
        lam=lam,
        numerator_bulk=pieces.numerator_bulk,
        norm_bulk=pieces.norm_bulk,
        numerator_annulus=pieces.numerator_annulus if has_annulus else None,
        bulk_breakpoints=_bulk_breakpoints(lam, d),
        annulus_breakpoints=[d, 1.25 * d, 1.5 * d, 1.75 * d, 2.0 * d],
    )


def evaluate_model(model: TestFunctionModel, lam: float) -> dict:
    """Numerator, norm integral, and functional ratio at one lam."""
    tasks = model_integrands(model, lam)
    num = _panel_quad(tasks.numerator_bulk, tasks.bulk_breakpoints)
    if tasks.numerator_annulus is not None:
        num += _panel_quad(tasks.numerator_annulus, tasks.annulus_breakpoints)
    num += tasks.outer_closed_form
    norm_int = _panel_quad(tasks.norm_bulk, tasks.bulk_breakpoints)
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
    rel_error: float
    residual: float
    lambdas: tuple[float, ...]
    basis: tuple[str, ...]
    extra_coefficients: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "n": self.n,
            "coefficient": self.coefficient,
            "expected": self.expected,
            "rel_error": self.rel_error,
            "fit_residual": self.residual,
            "lambdas": list(self.lambdas),
            "basis": list(self.basis),
            "extra_coefficients": self.extra_coefficients,
            "details": self.details,
        }


_COND_LIMIT = 1e8


def _lstsq_fit(lams: np.ndarray, y: np.ndarray, basis_fns, basis_names, weight_power: float = 0.0):
    """Least squares in the given basis, optionally weighted by lam^{-w}.

    Dividing out the common lam power gives every grid point equal say in
    the fit; otherwise the largest lam, which carries the worst o()
    contamination, dominates the normal equations.
    """
    w = lams ** (-weight_power) if weight_power else np.ones_like(lams)
    A = np.column_stack([fn(lams) * w for fn in basis_fns])
    cond = np.linalg.cond(A)
    if cond > _COND_LIMIT:
        raise ValueError(
            f"ill-conditioned fit: cond={cond:.3e} for basis {basis_names} "
            f"on grid {list(lams)}"
        )
    yw = y * w
    coef, _, _, _ = np.linalg.lstsq(A, yw, rcond=None)
    resid = float(np.linalg.norm(yw - A @ coef) / max(np.linalg.norm(yw), 1e-300))
    return coef, resid, cond


def fit_expansion(model: TestFunctionModel) -> FitResult:
    """Extract the model-term coefficient of the functional ratio.

    flat/lowdim: basis {lam^{n-4}} on ratio - Theta4, per unit A0.
    n8: basis {lam^4 log(1/lam), lam^4} on ratio - Theta4, log term tracked.
    n9/high: basis {lam^4} on ratio/Theta4 - 1.
    """
    n = model.n
    theta4 = sharp_constants(n).Theta4_sphere
    evals = model.evaluations
    lams = np.array(model.lambdas, dtype=float)
    ratios = np.array([e["ratio"] for e in evals])
    details = {"theta4": theta4, "evaluations": evals}

    if model.case in ("flat", "lowdim"):
        y = ratios - theta4
        coef, resid, cond = _lstsq_fit(
            lams, y, [lambda l: l ** (n - 4.0)], ("lam^(n-4)",), weight_power=n - 4.0
        )
        fitted = float(coef[0])
        expected = flat_ratio_coefficient(n) * model.A0
        basis = ("lam^(n-4)",)
        extra = {}
    elif model.case == "n8":
        y = ratios - theta4
        coef, resid, cond = _lstsq_fit(
            lams,
            y,
            [lambda l: l**4 * np.log(1.0 / l), lambda l: l**4],
            ("lam^4 log(1/lam)", "lam^4"),
            weight_power=4.0,
        )
        fitted = float(coef[0])
        expected = n8_ratio_log_coefficient() * float(model.jet.W.norm_sq())
        basis = ("lam^4 log(1/lam)", "lam^4")
        extra = {"lam^4": float(coef[1])}
    else:  # n9, high
        y = ratios / theta4 - 1.0
        coef, resid, cond = _lstsq_fit(lams, y, [lambda l: l**4], ("lam^4",), weight_power=4.0)
        fitted = float(coef[0])
        w2 = float(model.jet.W.norm_sq())
        if model.case == "n9":
            expected = float(n9_ratio_coefficient()) * w2
        else:
            expected = float(high_ratio_coefficient(n)) * w2
        basis = ("lam^4",)
        extra = {}

    details["condition_number"] = cond
    rel = abs(fitted - expected) / abs(expected) if expected != 0 else abs(fitted)
    return FitResult(
        case=model.case,
        n=n,
        coefficient=fitted,
        expected=expected,
        rel_error=rel,
        residual=resid,
        lambdas=model.lambdas,
        basis=basis,
        extra_coefficients=extra,
        details=details,
    )


def numerator_coefficient_check(model: TestFunctionModel) -> list[VerificationReport]:
    """Fit the numerator and norm expansions separately against their own
    closed forms; sharper than the ratio test and isolates error sources.

    n9 has no such check (its mixed 1/pi pieces are not tracked
    separately): it is held at the ratio level by fit_expansion alone.
    """
    n = model.n
    if model.case == "n9":
        return []
    evals = model.evaluations
    lams = np.array(model.lambdas, dtype=float)
    nums = np.array([e["numerator"] for e in evals])
    norm_ints = np.array([e["norm_integral"] for e in evals])
    rtol = FIT_RTOL[model.case]
    reports = []

    lead_num = (
        n * (n + 2) * (n - 2) * (n - 4) * math.gamma(n / 2) * math.pi ** (n / 2) / math.gamma(n)
    )
    lead_norm = (
        (n * (n + 2) * (n - 2) * (n - 4)) ** (2 * n / (n + 4))
        * math.gamma(n / 2)
        * math.pi ** (n / 2)
        / math.gamma(n)
    )

    if model.case in ("flat", "lowdim"):
        coef, resid, _ = _lstsq_fit(
            lams, nums - lead_num, [lambda l: l ** (n - 4.0)], ("lam^(n-4)",), weight_power=n - 4.0
        )
        expected = flat_numerator_coefficient(n) * model.A0
        reports.append(
            close_check(
                f"asymptotics.numerator_coeff[{model.case},n={n}]",
                {"lambdas": list(lams), "A0": model.A0},
                expected,
                "flat-case numerator expansion, explicit constant",
                float(coef[0]),
                rtol=rtol,
            )
        )
    elif model.case == "n8":
        w2 = float(model.jet.W.norm_sq())
        coef, resid, _ = _lstsq_fit(
            lams,
            nums - lead_num,
            [lambda l: l**4 * np.log(1.0 / l), lambda l: l**4],
            ("lam^4 log(1/lam)", "lam^4"),
            weight_power=4.0,
        )
        expected = n8_numerator_log_coefficient() * w2
        reports.append(
            close_check(
                "asymptotics.numerator_log_coeff[n8]",
                {"lambdas": list(lams), "w2": w2},
                expected,
                "n=8 numerator lam^4 log(1/lam) term",
                float(coef[0]),
                rtol=rtol,
            )
        )
    elif model.case == "high":
        w2 = float(model.jet.W.norm_sq())
        coef, _, _ = _lstsq_fit(lams, nums / lead_num - 1.0, [lambda l: l**4], ("lam^4",), weight_power=4.0)
        reports.append(
            close_check(
                f"asymptotics.numerator_coeff[high,n={n}]",
                {"lambdas": list(lams), "w2": w2},
                float(high_numerator_coefficient(n)) * w2,
                "high-case numerator relative lam^4 factor",
                float(coef[0]),
                rtol=rtol,
            )
        )
        coef, _, _ = _lstsq_fit(lams, norm_ints / lead_norm - 1.0, [lambda l: l**4], ("lam^4",), weight_power=4.0)
        reports.append(
            close_check(
                f"asymptotics.norm_integral_coeff[high,n={n}]",
                {"lambdas": list(lams), "w2": w2},
                float(high_norm_integral_coefficient(n)) * w2,
                "high-case norm-integral relative lam^4 factor",
                float(coef[0]),
                rtol=rtol,
            )
        )
    return reports


# -- Monte-Carlo angular spot check ----------------------------------------------


def mc_angular_check(
    jet: CurvatureJet, lam: float = 0.02, samples: int = 1_000_000, seed: int = 0
) -> dict:
    """Replace the exact angular averages by Monte-Carlo estimates over
    S^{n-1} and re-assemble the high-case numerator; the exact value must
    sit within 3 sigma of the estimate.

    The numerator is affine in the two angular averages, so sampling them
    is a full MC treatment of the angular integral, and unit steps in each
    give its sensitivities exactly; the radial factors are reused unchanged.
    """
    n = jet.n
    rng = np.random.Generator(np.random.Philox(seed))
    Wf = jet.W.ints.astype(float) * float(jet.W.scale)
    Wmat = np.ascontiguousarray(Wf.transpose(0, 2, 1, 3).reshape(n * n, n * n))
    Jf = np.array([[float(c) for c in row] for row in jet.Jh.entries])

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

    gq_mc, gq_sig = q_vals.mean(), q_vals.std(ddof=1) / math.sqrt(samples)
    gj_mc, gj_sig = j_vals.mean(), j_vals.std(ddof=1) / math.sqrt(samples)
    ang = AngularData.from_jet(jet)

    model = TestFunctionModel(case="high", n=n, jet=jet)
    bp = _bulk_breakpoints(lam, model.delta)

    def numerator(a: AngularData) -> float:
        return _panel_quad(_ModelPieces(model, lam, a).numerator_bulk, bp)

    exact_num = numerator(ang)
    d_dq = numerator(replace(ang, gq4=ang.gq4 + 1)) - exact_num
    d_dj = numerator(replace(ang, gj2=ang.gj2 + 1)) - exact_num
    mc_num = exact_num + d_dq * (gq_mc - float(ang.gq4)) + d_dj * (gj_mc - float(ang.gj2))
    sigma = math.hypot(d_dq * gq_sig, d_dj * gj_sig)

    return {
        "n": n,
        "lam": lam,
        "samples": samples,
        "exact_numerator": exact_num,
        "mc_numerator": mc_num,
        "sigma": sigma,
        "within_3sigma": abs(mc_num - exact_num) <= 3.0 * sigma + 1e-12,
        "gq4": {"exact": float(ang.gq4), "mc": gq_mc, "sigma": gq_sig},
        "gj2": {"exact": float(ang.gj2), "mc": gj_mc, "sigma": gj_sig},
    }
