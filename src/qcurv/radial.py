"""Closed-form algebra for radial functions of the family

    c * lam^p * r^j * (r^2 + lam^2)^s

with c rational and p, s rational exponents.  The family is closed under
d/dr, division by r, and the radial Laplacian h'' + (n-1) h'/r, which is
everything the bubble identities and the test-function integrands need.
Coefficients stay exact; only evaluation produces floats.

Terms are merged on (p, j, s), so one function can still be written in
several ways: r^2 (r^2+lam^2)^s and (r^2+lam^2)^{s+1} - lam^2 (r^2+lam^2)^s
are equal but stored apart.  ``canonical()`` rewrites every term with even
j >= 0 through r^2 = (r^2+lam^2) - lam^2 into terms c lam^a (r^2+lam^2)^s,
keyed by (a, s).  Two sums whose terms all have even j >= 0 are equal
exactly when their canonical term lists are, as functions of r and lam.  It
is applied only where a caller asks for it, since it changes the order of
the floating operations that evaluation performs.  Canonical term lists are
unique only in that even-j range: a sum with odd or negative r powers keeps
those terms as they are, and two such sums may be equal as functions while
their lists differ.

No term depends on lam; only evaluation reads it.  ``at(lam)`` binds the
same, already merged terms to another lam, so a caller that needs one shape
at many lam builds it once and binds it per lam.  Each sum also keeps its
``diff()``, its ``canonical()`` and the float values of its terms once
computed, shared by every sum bound from it, so ``deriv(k, r)`` walks an
exact chain that is derived only once.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .polyalg import _as_fraction

Term = tuple[Fraction, Fraction, int, Fraction]  # (c, lam_power, r_power, s)


def _positive(lam: float) -> float:
    if lam <= 0:
        raise ValueError("lam must be positive")
    return float(lam)


class RadialTermSum:
    """Finite sum of terms c lam^p r^j (r^2+lam^2)^s at a fixed lam > 0.

    c, p and s are read by ``polyalg._as_fraction`` and j must be an int,
    so a float or a bool raises ValueError."""

    __slots__ = ("lam", "terms", "_shared")

    def __init__(self, lam: float, terms: list[Term] | None = None):
        self.lam = _positive(lam)
        # what is derived from the terms alone, shared by every binding
        self._shared: dict[str, object] = {}
        merged: dict[tuple[Fraction, int, Fraction], Fraction] = {}
        for c, p, j, s in terms or []:
            if not isinstance(j, int) or isinstance(j, bool):
                raise ValueError(f"r power must be an integer, got {j!r}")
            key = (_as_fraction(p), j, _as_fraction(s))
            c = _as_fraction(c)
            acc = merged.get(key, Fraction(0)) + c
            if acc == 0:
                merged.pop(key, None)
            else:
                merged[key] = acc
        self.terms = [(c, p, j, s) for (p, j, s), c in sorted(merged.items())]

    def at(self, lam: float) -> "RadialTermSum":
        """The same terms bound to ``lam``; nothing is merged again, and the
        derived sums already computed are shared."""
        out = RadialTermSum.__new__(RadialTermSum)
        out.lam = _positive(lam)
        out.terms = self.terms
        out._shared = self._shared
        return out

    def _cached(self, name: str, build):
        """What ``build`` derives from the terms, built on first use."""
        done = self._shared.get(name)
        if done is None:
            done = self._shared[name] = build()
        return done

    @classmethod
    def single(cls, lam, c, lam_power, r_power, s) -> "RadialTermSum":
        return cls(lam, [(c, lam_power, r_power, s)])

    def __add__(self, other: "RadialTermSum") -> "RadialTermSum":
        if other.lam != self.lam:
            raise ValueError("lam mismatch")
        return RadialTermSum(self.lam, [(c, p, j, s) for (c, p, j, s) in self.terms]
                             + [(c, p, j, s) for (c, p, j, s) in other.terms])

    def scale(self, factor) -> "RadialTermSum":
        f = _as_fraction(factor)
        return RadialTermSum(self.lam, [(c * f, p, j, s) for (c, p, j, s) in self.terms])

    def diff(self) -> "RadialTermSum":
        return self._cached("diff", self._diff).at(self.lam)

    def _diff(self) -> "RadialTermSum":
        out: list[Term] = []
        for c, p, j, s in self.terms:
            if j != 0:
                out.append((c * j, p, j - 1, s))
            if s != 0:
                out.append((2 * c * s, p, j + 1, s - 1))
        return RadialTermSum(self.lam, out)

    def div_r(self) -> "RadialTermSum":
        return RadialTermSum(self.lam, [(c, p, j - 1, s) for (c, p, j, s) in self.terms])

    def laplacian(self, n: int) -> "RadialTermSum":
        d = self.diff()
        return d.diff() + d.div_r().scale(n - 1)

    def bilaplacian(self, n: int) -> "RadialTermSum":
        return self.laplacian(n).laplacian(n)

    def canonical(self) -> "RadialTermSum":
        """The same function with each term of even r power j >= 0 expanded
        by the binomial theorem in r^2 = (r^2+lam^2) - lam^2; terms of odd or
        negative j are kept as they are."""
        return self._cached("canonical", self._canonical).at(self.lam)

    def _canonical(self) -> "RadialTermSum":
        out: list[Term] = []
        for c, p, j, s in self.terms:
            if j < 0 or j % 2:
                out.append((c, p, j, s))
                continue
            h = j // 2
            out += [(c * math.comb(h, k) * (-1) ** (h - k), p + 2 * (h - k), 0, s + k)
                    for k in range(h + 1)]
        return RadialTermSum(self.lam, out)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        lam = self.lam
        out = np.zeros_like(r)
        base = r * r + lam * lam
        floats = self._cached("floats", lambda: [tuple(map(float, t)) for t in self.terms])
        for c, p, j, s in floats:
            piece = c * lam ** p
            if j != 0:
                piece = piece * r ** j
            if s != 0:
                piece = piece * base ** s
            out = out + piece
        return out if out.shape else float(out)

    def deriv(self, order: int, r):
        """The derivative of the given order, evaluated at r."""
        out = self
        for _ in range(order):
            out = out.diff()
        return out(r)
