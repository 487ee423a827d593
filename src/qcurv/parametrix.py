"""Green's-function expansion of the Paneitz operator near its pole.

Everything is normalized so the expanded object is
H = 2n(2-n)(4-n) omega_n G_{P,p}: flat metrics give H = r^{4-n} exactly,
and for curved metrics in conformal normal coordinates the first
correction is the degree-4 shell, driven by the source polynomial

    phi_4 = -(4(n-4)/9) sum_{kl}(W_{ikjl} x_i x_j)^2
            + 2(n-4)(n-6) r^2 J_ij x_i x_j
            + (n-4)|W|^2 r^4 / (24(n-1)),

inverted through A_{2-n} A_{4-n}.  For n >= 9 the inverse is log-free and
has a closed form; at n = 8 the radial kernel block forces a single
-|W|^2/1440 * r^4 log r term.  The flat expansion is the bare r^{4-n} at
every order; curved sources beyond degree 4 would need metric Taylor data
that the curvature jet does not carry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .polyalg import (
    HomogPoly,
    LogRadialExpansion,
    _lincomb,
    solve_AA,
    solve_residual,
)
from .tensor import (
    SchoutenHessian,
    WeylTensor,
    invariants_hold,
    random_schouten_hessian,
    random_weyl,
)


@dataclass(frozen=True, eq=False)
class CurvatureJet:
    """Curvature data at a point in conformal normal coordinates.

    The scalar constraint trace(Jh) = -|W|^2 / (12(n-1)) is part of the
    coordinate normalization and is enforced at construction.  Jets compare
    by identity; two jets hold the same data when their ``to_json()`` agree.
    ``phi4`` memoizes its source on the jet, as ``WeylTensor`` memoizes its
    forms.
    """

    n: int
    W: WeylTensor
    Jh: SchoutenHessian
    _phi4: HomogPoly | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.W.n != self.n or self.Jh.n != self.n:
            raise ValueError("dimension mismatch in jet")
        target = -self.W.norm_sq() / (12 * (self.n - 1))
        if self.Jh.trace() != target:
            raise ValueError(
                "Schouten Hessian trace violates the conformal normal "
                f"coordinate constraint: {self.Jh.trace()} != {target}"
            )

    @classmethod
    def flat(cls, n: int) -> "CurvatureJet":
        return cls(n, WeylTensor(n, np.zeros((n,) * 4, dtype=np.int64)), SchoutenHessian.zero(n))

    def is_flat(self) -> bool:
        return self.W.is_zero() and not self.Jh.ints.any()

    def to_json(self) -> dict:
        return {"n": self.n, "W": self.W.to_json()["W"], "J": self.Jh.to_json()["J"]}

    @classmethod
    def from_json(cls, obj: dict) -> "CurvatureJet":
        """Load a jet, refusing a W that breaks any Weyl symmetry or trace;
        the two loaders read the keys "n", "W" and "J" of ``obj``."""
        W = WeylTensor.from_json(obj)
        if not invariants_hold(W):
            raise ValueError("W violates a Weyl symmetry, Bianchi or trace identity")
        return cls(W.n, W, SchoutenHessian.from_json(obj))


def random_jet(n: int, seed: int, normalize: bool = False) -> CurvatureJet:
    """Seeded jet with exact invariants.

    With ``normalize`` the Weyl part is rationally rescaled so |W|^2 is
    within 1e-6 of 1; the asymptotics fits rely on this to keep the
    neglected quadratic-in-curvature terms small.
    """
    W = random_weyl(n, seed)
    if normalize:
        w2 = float(W.norm_sq())
        if w2 == 0:
            raise ValueError(f"no nonzero Weyl tensor to normalize at n={n}")
        W = W.rescale(Fraction(1.0 / math.sqrt(w2)).limit_denominator(10**9))
    return CurvatureJet(n, W, random_schouten_hessian(n, seed, W))


# -- degree-4 source and its inverse -----------------------------------------


@functools.cache
def _r4(n: int) -> HomogPoly:
    return HomogPoly.r_squared(n).mul_r2k(1)


def phi4(jet: CurvatureJet) -> HomogPoly:
    """Degree-4 shell of r^n P(r^{4-n}): the first source of the recursion,
    built once per jet."""
    n = jet.n
    if n < 5:
        raise ValueError("expansion needs n >= 5")
    if jet._phi4 is None:
        src = _lincomb(n, 4, [
            (Fraction(-4 * (n - 4), 9), jet.W.quartic_form()),
            (2 * (n - 4) * (n - 6), jet.Jh.quadratic_form().mul_r2k(1)),
            (jet.W.norm_sq() * Fraction(n - 4, 24 * (n - 1)), _r4(n)),
        ])
        object.__setattr__(jet, "_phi4", src)  # the jet is frozen; this is its one cache
    return jet._phi4


def psi4_solve(jet: CurvatureJet) -> LogRadialExpansion:
    """Invert A_{2-n} A_{4-n} against -phi4.

    Log-free for n >= 9; at n = 8 exactly one r^4 log r block appears.
    Below n = 8 the degree-4 correction is absorbed into the remainder
    class of the expansion and has no meaning here.
    """
    if jet.n < 8:
        raise ValueError("degree-4 correction only defined for n >= 8")
    return solve_AA(jet.n, phi4(jet))


def psi4_radial_coefficient(n: int) -> Fraction:
    """c(n) of the pure r^4 piece c(n) |W|^2 r^4 of psi_4, n >= 9:

        (n-4)(3n^2-2n-64) / (576 n(n+2)(n-1)(n-6)(n-8)).
    """
    return Fraction(
        (n - 4) * (3 * n * n - 2 * n - 64),
        576 * n * (n + 2) * (n - 1) * (n - 6) * (n - 8),
    )


def psi4_closed_form(jet: CurvatureJet) -> LogRadialExpansion:
    """Directly coded closed form of the degree-4 correction, n >= 9.

    Three harmonic pieces: the degree-4 harmonic part of the Weyl quartic
    over 40(n-2), a degree-2 harmonic part over 48(n-6) carrying the
    Schouten Hessian, and the pure r^4 piece c(n) |W|^2 r^4
    (``psi4_radial_coefficient``).  With q the Weyl quartic, g its gradient
    square and j = J_ij x_i x_j, that is one linear combination

        (2/9 q - 2/(9(n+4)) g r^2 + |W|^2/(3(n+2)(n+4)) r^4) / (40(n-2))
        + (4/(9(n+4)) g r^2 - 2(n-6) j r^2
           - |W|^2 (n^2+6n-32)/(6n(n+4)(n-1)) r^4) / (48(n-6))
        + c(n) |W|^2 r^4.
    """
    n = jet.n
    if n < 9:
        raise ValueError("closed form requires n >= 9")
    first, second = Fraction(1, 40 * (n - 2)), Fraction(1, 48 * (n - 6))
    radial = (first * Fraction(1, 3 * (n + 2) * (n + 4))
              - second * Fraction(n * n + 6 * n - 32, 6 * n * (n + 4) * (n - 1))
              + psi4_radial_coefficient(n))
    total = _lincomb(n, 4, [
        (first * Fraction(2, 9), jet.W.quartic_form()),
        ((second * 2 - first) * Fraction(2, 9 * (n + 4)), jet.W.gradient_square_form().mul_r2k(1)),
        (-second * 2 * (n - 6), jet.Jh.quadratic_form().mul_r2k(1)),
        (jet.W.norm_sq() * radial, _r4(n)),
    ])
    return LogRadialExpansion(n, {(4, 0): total})


def n8_log_coefficient(jet: CurvatureJet) -> Fraction:
    """Coefficient of r^4 log r in the n=8 expansion: -|W|^2 / 1440."""
    if jet.n != 8:
        raise ValueError("log coefficient is an n=8 statement")
    return -jet.W.norm_sq() / 1440


# -- assembled expansions ------------------------------------------------------


@dataclass(frozen=True)
class GreenExpansion:
    """Expansion of H = 2n(2-n)(4-n) omega_n G_{P,p} near the pole.

    H is r^{4-n} times ``expansion`` (1 + corrections), and the report
    writes the prefactor as "radial_exp"; ``remainder`` records the O-class
    of the neglected part.  For n in {5,6,7} the constant in the expansion
    is carried as the opaque symbol ``constant_symbol`` (its value comes
    from positive-mass arguments, never computed here).
    """

    n: int
    expansion: LogRadialExpansion
    remainder: str
    constant_symbol: str | None = None

    def log_terms(self) -> list[dict]:
        """The (deg, logpow) keys of the log shells; their polynomials are
        written once, in the expansion."""
        return [{"deg": i, "logpow": k} for (i, k) in sorted(self.expansion.terms) if k > 0]

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "normalization": "H = 2n(2-n)(4-n) omega_n G_{P,p}",
            "expansion": {**self.expansion.to_json(), "radial_exp": f"{4 - self.n}/1"},
            "remainder": self.remainder,
            "log_terms": self.log_terms(),
        }
        if self.constant_symbol is not None:
            out["constant_term"] = self.constant_symbol
        return out


def flat_expansion(n: int) -> GreenExpansion:
    """Flat metric: H = r^{4-n} with no corrections at any order."""
    if n < 5:
        raise ValueError("n >= 5 required")
    one = LogRadialExpansion.from_poly(HomogPoly.constant(n, 1))
    return GreenExpansion(n=n, expansion=one, remainder="Oinf(1)")


def green_leading(jet: CurvatureJet) -> GreenExpansion:
    """Leading expansion of H per dimension.

    n in {5,6,7}: r^{4-n} + A with A symbolic, remainder O4(r).
    n = 8: r^{-4} + log shell, remainder O4(1).
    n >= 9: r^{4-n}(1 + psi_4), remainder O4(r^{9-n}).
    """
    n = jet.n
    flat = flat_expansion(n)
    if jet.is_flat():
        return flat
    if n in (5, 6, 7):
        return GreenExpansion(n=n, expansion=flat.expansion, remainder="O4(r)", constant_symbol="A")
    terms = {**flat.expansion.terms, **psi4_solve(jet).terms}
    remainder = "O4(1)" if n == 8 else "O4(r^{9-n})"
    return GreenExpansion(n, LogRadialExpansion(n, terms), remainder)


def psi4_shell(jet: CurvatureJet, green: GreenExpansion) -> tuple:
    """The degree-4 shell an expansion of a curved jet carries, and what it
    must equal: for n >= 9 psi_4 (every term but the leading 1) against its
    closed form, at n = 8 the r^4 log r block against -|W|^2/1440 r^4."""
    terms = green.expansion.terms
    psi4 = LogRadialExpansion(jet.n, {key: terms[key] for key in terms if key != (0, 0)})
    if jet.n == 8:
        return psi4.get(4, 1), _r4(8).scale(n8_log_coefficient(jet))
    return psi4, psi4_closed_form(jet)


def shell_identities(jet: CurvatureJet, green: GreenExpansion) -> list[tuple[str, bool]]:
    """The exact identities of the expansion ``green`` of ``jet``, as
    ordered (name, holds) pairs: for a curved jet with n >= 8 its degree-4
    shell against the closed form (``psi4_shell``), then the recursion
    A_{2-n} A_{4-n} psi_4 + phi_4 = 0 on the degree-4 shell.

    The recursion applies the operators with full log bookkeeping; the
    leading 1 of the expansion is annihilated automatically, so the
    expansion is fed through as stored.  The source is phi_4 only
    where the expansion must carry psi_4: a curved jet with n >= 8.  Below
    that psi_4 belongs to the remainder, and the bare r^{4-n} answers no
    source.
    """
    n = jet.n
    curved = n >= 8 and not jet.is_flat()
    out = []
    if curved:
        got, want = psi4_shell(jet, green)
        out.append(("psi4_shell", got == want))
    src = phi4(jet) if curved else HomogPoly.zero(n, 4)
    out.append(("recursion_residual", solve_residual(n, green.expansion, src).is_zero()))
    return out


def latex_lines(green: GreenExpansion) -> list[str]:
    """One LaTeX line per (degree, log power) shell of a Green's expansion,
    each with its r^{4-n} prefix."""
    e = green.expansion
    lines = []
    for (i, k) in sorted(e.terms):
        poly = e.terms[(i, k)]
        body = " + ".join(
            _latex_term(c, exp) for exp, c in sorted(poly.terms.items())
        )
        logpart = "" if k == 0 else (r"\log r" if k == 1 else rf"\log^{{{k}}} r")
        lines.append(f"r^{{{4 - green.n}}}\\left({body}\\right){logpart}")
    return lines


def _latex_term(c: Fraction, exp: tuple[int, ...]) -> str:
    mono = " ".join(
        f"x_{{{i + 1}}}" + (f"^{{{e}}}" if e > 1 else "")
        for i, e in enumerate(exp)
        if e > 0
    )
    if c.denominator == 1:
        coeff = str(c.numerator)
    else:
        sign = "-" if c < 0 else ""
        coeff = rf"{sign}\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"
    return f"{coeff} {mono}".strip()
