"""Exact-arithmetic algebra of homogeneous polynomials on R^n.

Provides sparse homogeneous polynomials with rational coefficients, the
decomposition of a degree-m polynomial into harmonic blocks r^{2k} h_{m-2k},
and the two-parameter family of radial operators

    A_a = r^2 Lap + 2a r d/dr + a(a+n-2),      B_a = dA_a/da,

acting on polynomial expansions that may carry an r^rho prefactor and
integer powers of log r.  The composite A_{2-n} A_{4-n} is diagonal on
harmonic blocks; ``solve_aa`` inverts it block by block, escalating to
log r terms on kernel blocks.

A polynomial is stored as integer coefficients times one rational
``content``: the integers are coprime and the one on the lexicographically
first exponent is positive, so the form is unique and ``==`` and ``hash``
compare it directly.  Scaling and negation touch only the content; sums
bring both contents to a common denominator and add integers; r^2
multiplication and the Laplacian are integer shift-and-add loops over the
exponents.  No floating point enters this module; every operation here is
an exact identity and is tested as such.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

Exponent = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _primitive(ints: dict[Exponent, int], scale: Fraction) -> tuple[dict[Exponent, int], Fraction]:
    """scale * ints as (primitive integers, content) in canonical form.

    ``ints`` holds no zero.  The integers are divided by their gcd, signed
    so the lexicographically first one is positive, and the content takes
    the factor; the zero polynomial is ({}, 0).
    """
    if not ints or not scale:
        return {}, _ZERO
    g = math.gcd(*ints.values())
    if ints[min(ints)] < 0:
        g = -g
    if g == 1:
        return ints, scale
    return {e: v // g for e, v in ints.items()}, scale * g


def scaled_text(content: Fraction, v: int) -> str:
    """content * v as reduced "p/q" text, with one integer gcd."""
    p, q = content.numerator, content.denominator
    g = math.gcd(v, q)  # = gcd(p v, q), since p and q are coprime
    return f"{p * v // g}/{q // g}"


class _Terms(Mapping):
    """Read-only view of a polynomial's coefficients as Fractions.

    A Fraction is made only when a coefficient is read, so ``len`` and
    membership cost nothing beyond the integer map.
    """

    __slots__ = ("_ints", "_content")

    def __init__(self, ints: dict[Exponent, int], content: Fraction):
        self._ints = ints
        self._content = content

    def __getitem__(self, e: Exponent) -> Fraction:
        return self._content * self._ints[e]

    def __contains__(self, e) -> bool:
        return e in self._ints

    def __iter__(self):
        return iter(self._ints)

    def __len__(self) -> int:
        return len(self._ints)


class HomogPoly:
    """Sparse homogeneous polynomial of fixed degree in n variables.

    The polynomial is ``content * sum ints[e] x^e``: ``ints`` maps an
    exponent tuple (length n, entries summing to the degree) to a nonzero
    integer, and the integers are primitive with a positive coefficient on
    the lexicographically first exponent.  The zero polynomial has empty
    ``ints`` and content 0 but keeps its (n, degree) signature.  Instances
    are immutable; ``terms`` reads the coefficients as Fractions.
    """

    __slots__ = ("n", "degree", "ints", "content")

    def __init__(self, n: int, degree: int, terms: Mapping[Exponent, Fraction] | None = None):
        if n < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        acc: dict[Exponent, Fraction] = {}
        for e, c in (terms or {}).items():
            e = tuple(int(v) for v in e)
            if len(e) != n or any(v < 0 for v in e):
                raise ValueError(f"bad exponent {e} for n={n}")
            if sum(e) != degree:
                raise ValueError(f"exponent {e} does not sum to degree {degree}")
            acc[e] = acc.get(e, _ZERO) + _as_fraction(c)
        den = math.lcm(*(c.denominator for c in acc.values()))
        ints = {e: c.numerator * (den // c.denominator) for e, c in acc.items() if c}
        self.n = n
        self.degree = degree
        self.ints, self.content = _primitive(ints, Fraction(1, den))

    @classmethod
    def _make(cls, n: int, degree: int, ints: dict[Exponent, int], content: Fraction):
        # (ints, content) must already be canonical
        p = object.__new__(cls)
        p.n = n
        p.degree = degree
        p.ints = ints
        p.content = content
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def from_ints(cls, n: int, degree: int, ints: Mapping[Exponent, int], scale=1) -> "HomogPoly":
        """The polynomial scale * sum ints[e] x^e.

        Exponents are trusted (length n, summing to the degree); zero
        integers are dropped.
        """
        clean = {e: int(v) for e, v in ints.items() if v}
        return cls._make(n, degree, *_primitive(clean, _as_fraction(scale)))

    @classmethod
    def zero(cls, n: int, degree: int) -> "HomogPoly":
        return cls(n, degree)

    @classmethod
    def constant(cls, n: int, value) -> "HomogPoly":
        return cls.from_ints(n, 0, {(0,) * n: 1}, value)

    @classmethod
    def variable(cls, n: int, i: int) -> "HomogPoly":
        e = [0] * n
        e[i] = 1
        return cls(n, 1, {tuple(e): 1})

    @classmethod
    def monomial(cls, n: int, exponent: Iterable[int], coeff=1) -> "HomogPoly":
        e = tuple(int(v) for v in exponent)
        return cls(n, sum(e), {e: coeff})

    @classmethod
    def r_squared(cls, n: int) -> "HomogPoly":
        ints = {(0,) * i + (2,) + (0,) * (n - i - 1): 1 for i in range(n)}
        return cls._make(n, 2, ints, _ONE)

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """Coefficients as a read-only map from exponent to Fraction."""
        return _Terms(self.ints, self.content)

    # -- ring operations ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.ints

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomogPoly)
            and self.n == other.n
            and self.degree == other.degree
            and self.content == other.content
            and self.ints == other.ints
        )

    def __hash__(self):
        return hash((self.n, self.degree, self.content, frozenset(self.ints.items())))

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        self._check_compatible(other)
        if not other.ints:
            return self
        if not self.ints:
            return other
        # a/b I + c/d J = g/(bd) (a d/g I + c b/g J) with g = gcd(ad, cb)
        s, t = self.content, other.content
        cs = s.numerator * t.denominator
        ct = t.numerator * s.denominator
        g = math.gcd(cs, ct)
        cs //= g
        ct //= g
        out = dict(self.ints) if cs == 1 else {e: cs * v for e, v in self.ints.items()}
        get = out.get
        for e, v in other.ints.items():
            w = get(e, 0) + ct * v
            if w:
                out[e] = w
            else:
                del out[e]
        scale = Fraction(g, s.denominator * t.denominator)
        return HomogPoly._make(self.n, self.degree, *_primitive(out, scale))

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + (-other)

    def __neg__(self) -> "HomogPoly":
        return HomogPoly._make(self.n, self.degree, self.ints, -self.content)

    def scale(self, factor) -> "HomogPoly":
        f = _as_fraction(factor)
        if not f:
            return HomogPoly._make(self.n, self.degree, {}, _ZERO)
        return HomogPoly._make(self.n, self.degree, self.ints, self.content * f)

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        if not isinstance(other, HomogPoly):
            return self.scale(other)
        if self.n != other.n:
            raise ValueError("variable-count mismatch")
        out: dict[Exponent, int] = {}
        get = out.get
        for e1, v1 in self.ints.items():
            for e2, v2 in other.ints.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = get(e, 0) + v1 * v2
        # Gauss's lemma: a product of primitive integer polynomials is
        # primitive, and lexicographically first terms multiply, so the
        # product is already canonical
        ints = {e: v for e, v in out.items() if v}
        content = self.content * other.content
        return HomogPoly._make(self.n, self.degree + other.degree, ints, content)

    __rmul__ = scale

    def mul_r2k(self, k: int) -> "HomogPoly":
        """Multiply by r^{2k} (k >= 0).

        Each factor r^2 adds every coefficient into the n exponents raised
        by two in one slot.  r^2 is primitive with first coefficient 1, so
        the product stays canonical (as in ``__mul__``) with the same content.
        """
        n = self.n
        ints = self.ints
        for _ in range(k):
            out: dict[Exponent, int] = {}
            get = out.get
            for e, v in ints.items():
                for i in range(n):
                    f = e[:i] + (e[i] + 2,) + e[i + 1 :]
                    out[f] = get(f, 0) + v
            ints = {f: v for f, v in out.items() if v}
        return HomogPoly._make(n, self.degree + 2 * k, ints, self.content)

    def _check_compatible(self, other: "HomogPoly"):
        if self.n != other.n or self.degree != other.degree:
            raise ValueError(
                f"incompatible polynomials: (n={self.n}, m={self.degree}) vs "
                f"(n={other.n}, m={other.degree})"
            )

    def __repr__(self):
        if self.is_zero():
            return f"HomogPoly(n={self.n}, m={self.degree}, 0)"
        parts = [f"{c}*x^{e}" for e, c in sorted(self.terms.items())]
        return f"HomogPoly(n={self.n}, m={self.degree}, " + " + ".join(parts) + ")"

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        """JSON form {"n":…, "m":…, "terms": {"e1,e2,...,en": "p/q"}}.

        Multi-indices are emitted in lexicographic order so the output is
        byte-reproducible; each p/q is reduced.
        """
        terms = {}
        for e in sorted(self.ints):
            terms[",".join(map(str, e))] = scaled_text(self.content, self.ints[e])
        return {"n": self.n, "m": self.degree, "terms": terms}

    @classmethod
    def from_json(cls, obj: dict) -> "HomogPoly":
        terms = {
            tuple(int(v) for v in key.split(",")): Fraction(val)
            for key, val in obj["terms"].items()
        }
        return cls(int(obj["n"]), int(obj["m"]), terms)


def laplacian(p: HomogPoly) -> HomogPoly:
    """Euclidean Laplacian; drops the degree by two (zero if m < 2)."""
    m = p.degree
    if m < 2:
        return HomogPoly.zero(p.n, 0)
    out: dict[Exponent, int] = {}
    get = out.get
    for e, v in p.ints.items():
        for i, ei in enumerate(e):
            if ei > 1:
                f = e[:i] + (ei - 2,) + e[i + 1 :]
                out[f] = get(f, 0) + v * ei * (ei - 1)
    ints = {f: v for f, v in out.items() if v}
    return HomogPoly._make(p.n, m - 2, *_primitive(ints, p.content))


@dataclass(frozen=True)
class HarmonicBlock:
    """One block r^{2k} h of a harmonic decomposition; h is harmonic."""

    k: int
    h: HomogPoly


def harmonic_decompose(p: HomogPoly) -> list[HarmonicBlock]:
    """Split p (degree m) as sum_k r^{2k} h_{m-2k} with every h harmonic.

    Iterated Laplacians give a triangular integer system: applying the
    Laplacian to r^{2k} h_{m-2k} inside degree m multiplies by
    2k(2m-2k+n-2) and lowers k by one.  Solving from the deepest block up
    is exact and needs no inner products.
    """
    n, m = p.n, p.degree
    kmax = m // 2
    # lap_pows[j] = Lap^j p, degree m - 2j
    lap_pows = [p]
    for _ in range(kmax):
        lap_pows.append(laplacian(lap_pows[-1]))

    def eigen_chain(k: int, j: int) -> int:
        # factor picked up by Lap^j acting on r^{2k} h_{m-2k}
        val = 1
        for i in range(j):
            val *= 2 * (k - i) * (2 * m - 2 * k - 2 * i + n - 2)
        return val

    blocks: dict[int, HomogPoly] = {}
    for j in range(kmax, -1, -1):
        # Lap^j p = sum_{k >= j} eigen_chain(k, j) r^{2(k-j)} h_{m-2k}
        rhs = lap_pows[j]
        for k in range(kmax, j, -1):
            rhs = rhs - blocks[k].mul_r2k(k - j).scale(eigen_chain(k, j))
        d = eigen_chain(j, j)
        blocks[j] = rhs.scale(Fraction(1, d)) if j > 0 else rhs
    return [HarmonicBlock(k, blocks[k]) for k in range(kmax + 1) if not blocks[k].is_zero()]


def reassemble(n: int, m: int, blocks: Iterable[HarmonicBlock]) -> HomogPoly:
    """Inverse of harmonic_decompose: sum r^{2k} h."""
    out = HomogPoly.zero(n, m)
    for b in blocks:
        out = out + b.h.mul_r2k(b.k)
    return out


# -- radial operator family ------------------------------------------------


class LogRadialExpansion:
    """Finite sum r^rho * sum_{i,k} psi_{i,k}(x) log^k r.

    ``terms`` maps (degree i, log power k) to a HomogPoly of degree i.
    The radial exponent rho is an arbitrary Fraction (4-n for Green's
    expansions, 0 for plain polynomial data).
    """

    __slots__ = ("n", "radial_exp", "terms")

    def __init__(self, n: int, radial_exp=0, terms: Mapping[tuple[int, int], HomogPoly] | None = None):
        self.n = n
        self.radial_exp = _as_fraction(radial_exp)
        clean: dict[tuple[int, int], HomogPoly] = {}
        if terms:
            for (i, k), poly in terms.items():
                if k < 0:
                    raise ValueError("log power must be nonnegative")
                if poly.n != n or poly.degree != i:
                    raise ValueError(f"term ({i},{k}) carries a polynomial of wrong shape")
                if not poly.is_zero():
                    clean[(int(i), int(k))] = poly
        self.terms = clean

    @classmethod
    def from_poly(cls, poly: HomogPoly, radial_exp=0, logpow: int = 0) -> "LogRadialExpansion":
        return cls(poly.n, radial_exp, {(poly.degree, logpow): poly})

    def is_zero(self) -> bool:
        return not self.terms

    def max_log_power(self) -> int:
        return max((k for (_, k) in self.terms), default=0)

    def get(self, degree: int, logpow: int) -> HomogPoly:
        return self.terms.get((degree, logpow), HomogPoly.zero(self.n, degree))

    def _add_term(self, i: int, k: int, poly: HomogPoly):
        if poly.is_zero():
            return
        key = (i, k)
        cur = self.terms.get(key)
        s = poly if cur is None else cur + poly
        if s.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = s

    def __add__(self, other: "LogRadialExpansion") -> "LogRadialExpansion":
        if self.n != other.n or self.radial_exp != other.radial_exp:
            raise ValueError("expansions must share n and radial exponent")
        out = LogRadialExpansion(self.n, self.radial_exp, self.terms)
        for (i, k), poly in other.terms.items():
            out._add_term(i, k, poly)
        return out

    def __sub__(self, other: "LogRadialExpansion") -> "LogRadialExpansion":
        return self + other.scale(-1)

    def scale(self, factor) -> "LogRadialExpansion":
        f = _as_fraction(factor)
        out = LogRadialExpansion(self.n, self.radial_exp)
        if f != 0:
            out.terms = {key: poly.scale(f) for key, poly in self.terms.items()}
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LogRadialExpansion)
            and self.n == other.n
            and self.radial_exp == other.radial_exp
            and self.terms == other.terms
        )

    def __repr__(self):
        keys = ", ".join(f"(deg={i},log^{k})" for (i, k) in sorted(self.terms))
        return f"LogRadialExpansion(n={self.n}, r^{self.radial_exp}, [{keys}])"

    def to_json(self) -> dict:
        rho = self.radial_exp
        return {
            "n": self.n,
            "radial_exp": f"{rho.numerator}/{rho.denominator}",
            "terms": [
                {"deg": i, "logpow": k, "poly": self.terms[(i, k)].to_json()}
                for (i, k) in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LogRadialExpansion":
        terms = {
            (int(t["deg"]), int(t["logpow"])): HomogPoly.from_json(t["poly"])
            for t in obj["terms"]
        }
        return cls(int(obj["n"]), Fraction(obj["radial_exp"]), terms)


def _apply_a_poly(alpha: Fraction, p: HomogPoly, n: int) -> HomogPoly:
    # A_alpha restricted to P_m:  r^2 Lap + alpha (2m + alpha + n - 2)
    m = p.degree
    out = p.scale(alpha * (2 * m + alpha + n - 2))
    if m >= 2:
        out = out + laplacian(p).mul_r2k(1)
    return out


def _apply_b_poly(alpha: Fraction, p: HomogPoly, n: int) -> HomogPoly:
    # B_alpha restricted to P_m is the scalar 2m + 2 alpha + n - 2
    return p.scale(2 * p.degree + 2 * alpha + n - 2)


def apply_A(alpha, e: LogRadialExpansion) -> LogRadialExpansion:
    """Apply A_alpha to an expansion, absorbing the r^rho prefactor.

    A_alpha(r^rho phi) = r^rho A_{alpha+rho} phi, and on phi log^k r

        A_a(phi log^k r) = A_a phi log^k r + k B_a phi log^{k-1} r
                           + k(k-1) phi log^{k-2} r.
    """
    alpha = _as_fraction(alpha)
    out = LogRadialExpansion(e.n, e.radial_exp)
    a_eff = alpha + e.radial_exp
    for (i, k), poly in e.terms.items():
        out._add_term(i, k, _apply_a_poly(a_eff, poly, e.n))
        if k >= 1:
            out._add_term(i, k - 1, _apply_b_poly(a_eff, poly, e.n).scale(k))
        if k >= 2:
            out._add_term(i, k - 2, poly.scale(k * (k - 1)))
    return out


def eigen_A(n: int, m: int, k: int, alpha) -> Fraction:
    """Scalar by which A_alpha acts on the block r^{2k} H_{m-2k}."""
    alpha = _as_fraction(alpha)
    return (alpha + 2 * k) * (2 * m - 2 * k + alpha + n - 2)


def eigen_AA(n: int, m: int, k: int) -> Fraction:
    """Scalar of A_{2-n} A_{4-n} on r^{2k} H_{m-2k}."""
    if not (0 <= k <= m // 2):
        raise ValueError(f"block index k={k} out of range for degree {m}")
    return Fraction((2 * m - 2 * k) * (2 * m - 2 * k + 2) * (2 * k + 2 - n) * (2 * k + 4 - n))


def _eigen_mixed(n: int, m: int, k: int) -> Fraction:
    # (A_{2-n} B_{4-n} + B_{2-n} A_{4-n}) on r^{2k} H_{m-2k}
    a2, a4 = Fraction(2 - n), Fraction(4 - n)
    b4 = 2 * m + 2 * a4 + n - 2
    b2 = 2 * m + 2 * a2 + n - 2
    return b4 * eigen_A(n, m, k, a2) + b2 * eigen_A(n, m, k, a4)


def _eigen_log2(n: int, m: int, k: int) -> Fraction:
    # log^2 escalation scalar: 2 (A_{2-n} + A_{4-n} + B_{2-n} B_{4-n})
    a2, a4 = Fraction(2 - n), Fraction(4 - n)
    b4 = 2 * m + 2 * a4 + n - 2
    b2 = 2 * m + 2 * a2 + n - 2
    return 2 * (eigen_A(n, m, k, a2) + eigen_A(n, m, k, a4) + b2 * b4)


def _eigen_log3(n: int, m: int, k: int) -> Fraction:
    # log^3 escalation scalar: 6 (B_{2-n} + B_{4-n})
    a2, a4 = Fraction(2 - n), Fraction(4 - n)
    b4 = 2 * m + 2 * a4 + n - 2
    b2 = 2 * m + 2 * a2 + n - 2
    return 6 * (b2 + b4)


class UnresolvableBlockError(ArithmeticError):
    """Raised when a kernel block of A_{2-n}A_{4-n} resists all log
    escalations up to log^3.  Never reached by the curvature sources this
    package builds; the guard exists so a silent wrong answer is
    impossible."""


def solve_AA(n: int, rhs: HomogPoly) -> LogRadialExpansion:
    """Solve A_{2-n} A_{4-n} psi = -rhs block by block.

    Invertible blocks are divided by their eigen_AA scalar.  On kernel
    blocks the log power is raised by exactly one until the first operator
    in the log-derivative cascade acts invertibly (log r via the mixed operator,
    then log^2, then log^3).
    """
    m = rhs.degree
    out = LogRadialExpansion(n, 0)
    for block in harmonic_decompose(rhs):
        k = block.k
        lam = eigen_AA(n, m, k)
        base = block.h.mul_r2k(k)
        if lam != 0:
            out._add_term(m, 0, base.scale(Fraction(-1) / lam))
            continue
        mu = _eigen_mixed(n, m, k)
        if mu != 0:
            out._add_term(m, 1, base.scale(Fraction(-1) / mu))
            continue
        tau = _eigen_log2(n, m, k)
        if tau != 0:
            out._add_term(m, 2, base.scale(Fraction(-1) / tau))
            continue
        sig = _eigen_log3(n, m, k)
        if sig != 0:
            out._add_term(m, 3, base.scale(Fraction(-1) / sig))
            continue
        raise UnresolvableBlockError(
            f"block r^{2 * k} H_{m - 2 * k} (n={n}) unresolvable up to log^3"
        )
    return out


def apply_AA(n: int, e: LogRadialExpansion) -> LogRadialExpansion:
    """A_{2-n} A_{4-n} with full log bookkeeping."""
    return apply_A(2 - n, apply_A(4 - n, e))
