"""Exact-arithmetic algebra of homogeneous polynomials on R^n.

Provides homogeneous polynomials with rational coefficients, the
decomposition of a degree-m polynomial into harmonic blocks r^{2k} h_{m-2k},
and the two-parameter family of radial operators

    A_a = r^2 Lap + 2a r d/dr + a(a+n-2),      B_a = dA_a/da,

acting on polynomial expansions that may carry an r^rho prefactor and
integer powers of log r.  The composite A_{2-n} A_{4-n} is diagonal on
harmonic blocks; ``solve_aa`` inverts it block by block, escalating to
log r terms on kernel blocks.

A polynomial of degree m in n variables is stored densely: one integer
vector over the degree-m monomials, which ``monomial_table(n, m)`` lists in
lexicographic order of their exponents, times one rational ``content``.
The integers are coprime and the first nonzero one, on the
lexicographically first exponent, is positive, so the form is unique and
``==`` and ``hash`` compare it directly.  Scaling and negation touch only
the content; linear combinations bring the contents to one denominator and
add integer vectors; r^2 multiplication and the Laplacian gather through
index maps cached on the table.  The integers are int64 wherever a bound
computed from the operands proves that no intermediate value overflows,
and Python ints (object arrays) otherwise.  No floating point enters this
module; every operation here is an exact identity and is tested as such.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

Exponent = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_INT64_MAX = 2**63 - 1


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class MonomialTable:
    """The degree-m monomials in n variables, in lexicographic order of
    their exponent tuples; ``exps[i]`` is the exponent of monomial i.

    Built once per (n, m) by ``monomial_table``.  The index maps through
    which the Laplacian and r^2 multiplication gather their terms are built
    on first use.
    """

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m
        self.size = math.comb(n + m - 1, m)
        # combinations_with_replacement yields the sorted variable tuples
        # i_1 <= ... <= i_m of x_{i_1} ... x_{i_m} in ascending order, which
        # is descending lexicographic order of the exponents
        idx = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations_with_replacement(range(n), m)),
            dtype=np.intp,
            count=self.size * m,
        ).reshape(self.size, m)[::-1]
        exps = np.zeros((self.size, n), dtype=np.intp)
        rows = np.arange(self.size)
        for col in idx.T:
            exps[rows, col] += 1
        self.exps = exps
        # steps[t, j] = C(m-t+n-j-2, n-j-2) counts the monomials that agree
        # with x_{i_1} ... x_{i_t} and put all m-t remaining degrees on
        # variables past j; summed over t with j = i_{t+1} it is the
        # number of monomials before x_{i_1} ... x_{i_m}
        self._steps = np.array(
            [[math.comb(m - t + n - j - 2, n - j - 2) if j < n - 1 else 0 for j in range(n)]
             for t in range(m)],
            dtype=np.intp,
        ).reshape(m, n)

    def index_rank(self, idx: np.ndarray) -> np.ndarray:
        """Positions of the monomials x_{idx[r,0]} ... x_{idx[r,m-1]}; each
        row of variable indices sorted ascending."""
        return self._steps[np.arange(self.m), idx].sum(axis=-1)

    def rank(self, exps) -> np.ndarray:
        """Positions of exponent rows, each of length n summing to m."""
        exps = np.asarray(exps, dtype=np.intp).reshape(-1, self.n)
        var = np.broadcast_to(np.arange(self.n), exps.shape)
        return self.index_rank(np.repeat(var.ravel(), exps.ravel()).reshape(len(exps), self.m))

    @functools.cached_property
    def position(self) -> dict[Exponent, int]:
        """Exponent tuple -> position, for reads by key."""
        return {e: i for i, e in enumerate(map(tuple, self.exps.tolist()))}

    @functools.cached_property
    def key_text(self) -> list[str]:
        """Exponents as the "e1,...,en" keys of the JSON form."""
        return [",".join(map(str, e)) for e in self.exps.tolist()]

    @functools.cached_property
    def lap_gather(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The Laplacian of a degree-(m+2) vector v lands here as
        sum_i fac[t, i] v[src[t, i]]: src[t, i] is the position of
        x_i^2 x^exps[t], fac[t, i] = (e_i + 2)(e_i + 1), and ``gain`` bounds
        every row sum of fac."""
        up = monomial_table(self.n, self.m + 2)
        shifted = self.exps[:, None, :] + 2 * np.eye(self.n, dtype=np.intp)
        src = up.rank(shifted).reshape(self.size, self.n)
        fac = (self.exps + 2) * (self.exps + 1)
        return src, fac, int(fac.sum(axis=1).max())

    @functools.cached_property
    def r2_gather(self) -> np.ndarray:
        """r^2 times a degree-(m-2) vector v lands here as
        sum_i v[src[t, i]]: src[t, i] is the position of x^exps[t] / x_i^2,
        or len(v), an appended zero, where e_i < 2."""
        down = monomial_table(self.n, self.m - 2)
        src = np.full((self.size, self.n), down.size, dtype=np.intp)
        src[down.lap_gather[0], np.arange(self.n)] = np.arange(down.size)[:, None]
        return src


@functools.cache
def monomial_table(n: int, m: int) -> MonomialTable:
    """The shared table of degree-m monomials in n variables."""
    return MonomialTable(n, m)


def _absmax(v: np.ndarray) -> int:
    return int(np.abs(v).max())


def _narrow(v: np.ndarray) -> np.ndarray:
    """v as int64 when every entry fits, so the dtype follows the values."""
    if v.dtype == object and _absmax(v) <= _INT64_MAX:
        return v.astype(np.int64)
    return v


def _primitive(v: np.ndarray, scale: Fraction) -> tuple[np.ndarray, Fraction]:
    """scale * v as (primitive integer vector, content) in canonical form.

    The entries are divided by their gcd and signed so the first nonzero
    one is positive, and the content takes the factor; the zero polynomial
    is (zeros, 0).
    """
    nz = np.flatnonzero(v)
    if not nz.size or not scale:
        return np.zeros(len(v), dtype=np.int64), _ZERO
    g = abs(int(np.gcd.reduce(v)))  # a one-entry reduce returns the entry itself
    if v[nz[0]] < 0:
        g = -g
    if g != 1:
        v = v // g
        scale = scale * g
    return _narrow(v), scale


def scaled_text(content: Fraction, v: int) -> str:
    """content * v as reduced "p/q" text, with one integer gcd."""
    p, q = content.numerator, content.denominator
    g = math.gcd(v, q)  # = gcd(p v, q), since p and q are coprime
    return f"{p * v // g}/{q // g}"


class _Coeffs(Mapping):
    """Read-only view of a polynomial's nonzero coefficients keyed by
    exponent tuple: the integers when ``scale`` is None, else scale times
    them as Fractions, made only when read."""

    __slots__ = ("_p", "_scale")

    def __init__(self, p: "HomogPoly", scale: Fraction | None):
        self._p = p
        self._scale = scale

    def __getitem__(self, e: Exponent):
        p = self._p
        i = monomial_table(p.n, p.degree).position.get(e)
        v = 0 if i is None else int(p._v[i])
        if not v:
            raise KeyError(e)
        return v if self._scale is None else self._scale * v

    def __iter__(self):
        p = self._p
        nz = np.flatnonzero(p._v)
        return map(tuple, monomial_table(p.n, p.degree).exps[nz].tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._p._v))


class HomogPoly:
    """Homogeneous polynomial of fixed degree in n variables.

    The polynomial is ``content * sum_i v[i] x^exps[i]`` over
    ``monomial_table(n, degree)``: ``v`` is a primitive integer vector, int64
    unless an entry passes that range, whose first nonzero entry is
    positive.  The zero polynomial has a zero vector and content 0.
    Instances are immutable; ``terms`` and ``ints`` read the nonzero
    coefficients, as Fractions and as the integers, keyed by exponent tuple.
    """

    __slots__ = ("n", "degree", "content", "_v")

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
        v = np.zeros(math.comb(n + degree - 1, degree), dtype=np.int64)
        if ints:
            values = list(ints.values())
            if max(map(abs, values)) > _INT64_MAX:
                v = v.astype(object)
            v[monomial_table(n, degree).rank(list(ints))] = values
        self.n = n
        self.degree = degree
        self._v, self.content = _primitive(v, Fraction(1, den))

    @classmethod
    def _make(cls, n: int, degree: int, v: np.ndarray, content: Fraction):
        # (v, content) must already be canonical
        p = object.__new__(cls)
        p.n = n
        p.degree = degree
        p._v = v
        p.content = content
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def from_vector(cls, n: int, degree: int, ints, scale=1) -> "HomogPoly":
        """The polynomial scale * sum_i ints[i] x^exps[i] over
        ``monomial_table(n, degree)``; ``ints`` is a signed-integer or
        Python-int array of the table's length."""
        v = np.array(ints)
        if v.shape != (math.comb(n + degree - 1, degree),) or v.dtype.kind not in "iO":
            raise ValueError(f"need one integer per monomial of degree {degree} in {n} variables")
        if v.dtype != object:
            v = v.astype(np.int64)
            if (v == np.iinfo(np.int64).min).any():  # |v| would pass int64
                v = v.astype(object)
        return cls._make(n, degree, *_primitive(v, _as_fraction(scale)))

    @classmethod
    def zero(cls, n: int, degree: int) -> "HomogPoly":
        return cls(n, degree)

    @classmethod
    def constant(cls, n: int, value) -> "HomogPoly":
        return cls.from_vector(n, 0, [1], value)

    @classmethod
    def monomial(cls, n: int, exponent: Iterable[int], coeff=1) -> "HomogPoly":
        e = tuple(int(v) for v in exponent)
        return cls(n, sum(e), {e: coeff})

    @classmethod
    def r_squared(cls, n: int) -> "HomogPoly":
        v = np.zeros(math.comb(n + 1, 2), dtype=np.int64)
        v[monomial_table(n, 2).rank(2 * np.eye(n, dtype=np.intp))] = 1
        return cls._make(n, 2, v, _ONE)

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """Coefficients as a read-only map from exponent to Fraction."""
        return _Coeffs(self, self.content)

    @property
    def ints(self) -> Mapping[Exponent, int]:
        """The primitive integers as a read-only map from exponent."""
        return _Coeffs(self, None)

    # -- ring operations ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.content

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomogPoly)
            and self.n == other.n
            and self.degree == other.degree
            and self.content == other.content
            and np.array_equal(self._v, other._v)
        )

    def __hash__(self):
        return hash((self.n, self.degree, self.content, tuple(self._v.tolist())))

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        return _lincomb(self.n, self.degree, [(1, self), (1, other)])

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return _lincomb(self.n, self.degree, [(1, self), (-1, other)])

    def __neg__(self) -> "HomogPoly":
        return HomogPoly._make(self.n, self.degree, self._v, -self.content)

    def scale(self, factor) -> "HomogPoly":
        f = _as_fraction(factor)
        if not f:
            return HomogPoly.zero(self.n, self.degree)
        return HomogPoly._make(self.n, self.degree, self._v, self.content * f)

    def mul_r2k(self, k: int) -> "HomogPoly":
        """Multiply by r^{2k} (k >= 0).

        Each factor r^2 gathers, for every monomial, the coefficients of the
        at most n monomials it divides by some x_i^2.  r^2 is primitive with
        first coefficient 1, so by Gauss's lemma (and because the
        lexicographically first terms multiply) the product stays canonical
        with the same content.
        """
        v, m = self._v, self.degree
        for _ in range(k):
            m += 2
            if self.n * _absmax(v) > _INT64_MAX:
                v = v.astype(object)
            v = np.append(v, 0)[monomial_table(self.n, m).r2_gather].sum(axis=1)
        return HomogPoly._make(self.n, m, _narrow(v), self.content)

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
        keys = monomial_table(self.n, self.degree).key_text
        nz = np.flatnonzero(self._v)
        c = self.content
        terms = {keys[i]: scaled_text(c, v) for i, v in zip(nz.tolist(), self._v[nz].tolist())}
        return {"n": self.n, "m": self.degree, "terms": terms}

    @classmethod
    def from_json(cls, obj: dict) -> "HomogPoly":
        terms = {
            tuple(int(v) for v in key.split(",")): Fraction(val)
            for key, val in obj["terms"].items()
        }
        return cls(int(obj["n"]), int(obj["m"]), terms)


def _lincomb(n: int, m: int, parts: Iterable[tuple]) -> HomogPoly:
    """sum c * p over (c, p) in ``parts``, polynomials of shape (n, m).

    The rationals c * content share one denominator, and the integer
    vectors are summed with the resulting multipliers: in int64 when
    sum |multiplier| * max |entry| stays in range, which bounds every
    partial sum, and as Python ints otherwise.
    """
    rats, vecs = [], []
    for c, p in parts:
        if (p.n, p.degree) != (n, m):
            raise ValueError(
                f"incompatible polynomials: (n={n}, m={m}) vs (n={p.n}, m={p.degree})"
            )
        r = c * p.content
        if r:
            rats.append(r)
            vecs.append(p._v)
    if not rats:
        return HomogPoly.zero(n, m)
    if len(rats) == 1:
        return HomogPoly._make(n, m, vecs[0], rats[0])
    den = math.lcm(*(r.denominator for r in rats))
    mults = [r.numerator * (den // r.denominator) for r in rats]
    g = math.gcd(*mults)
    mults = [a // g for a in mults]
    if sum(abs(a) * _absmax(v) for a, v in zip(mults, vecs)) > _INT64_MAX:
        vecs = [v.astype(object) for v in vecs]
    out = mults[0] * vecs[0]
    for a, v in zip(mults[1:], vecs[1:]):
        out += a * v
    return HomogPoly._make(n, m, *_primitive(out, Fraction(g, den)))


def laplacian(p: HomogPoly) -> HomogPoly:
    """Euclidean Laplacian; drops the degree by two (zero if m < 2)."""
    m = p.degree
    if m < 2:
        return HomogPoly.zero(p.n, 0)
    src, fac, gain = monomial_table(p.n, m - 2).lap_gather
    v = p._v if gain * _absmax(p._v) <= _INT64_MAX else p._v.astype(object)
    return HomogPoly._make(p.n, m - 2, *_primitive((v[src] * fac).sum(axis=1), p.content))


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
    lifted: dict[int, HomogPoly] = {}  # k -> r^{2(k-j)} h_{m-2k} at the current j
    for j in range(kmax, -1, -1):
        # Lap^j p = sum_{k >= j} eigen_chain(k, j) r^{2(k-j)} h_{m-2k}
        lifted = {k: h.mul_r2k(1) for k, h in lifted.items()}
        d = eigen_chain(j, j)
        parts = [(Fraction(1, d), lap_pows[j])]
        parts += [(Fraction(-eigen_chain(k, j), d), h) for k, h in lifted.items()]
        blocks[j] = lifted[j] = _lincomb(n, m - 2 * j, parts)
    return [HarmonicBlock(k, blocks[k]) for k in range(kmax + 1) if not blocks[k].is_zero()]


def reassemble(n: int, m: int, blocks: Iterable[HarmonicBlock]) -> HomogPoly:
    """Inverse of harmonic_decompose: sum r^{2k} h."""
    return _lincomb(n, m, [(1, b.h.mul_r2k(b.k)) for b in blocks])


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


def apply_A(alpha, e: LogRadialExpansion) -> LogRadialExpansion:
    """Apply A_alpha to an expansion, absorbing the r^rho prefactor.

    A_alpha(r^rho phi) = r^rho A_{alpha+rho} phi, and on phi log^k r

        A_a(phi log^k r) = A_a phi log^k r + k B_a phi log^{k-1} r
                           + k(k-1) phi log^{k-2} r,

    where on degree i, A_a = r^2 Lap + a(2i + a + n - 2) and B_a is the
    scalar 2i + 2a + n - 2.  Every output shell is summed in one pass.
    """
    n = e.n
    a = _as_fraction(alpha) + e.radial_exp
    parts: dict[tuple[int, int], list] = {}
    for (i, k), poly in e.terms.items():
        parts.setdefault((i, k), []).append((a * (2 * i + a + n - 2), poly))
        if i >= 2:
            parts[(i, k)].append((1, laplacian(poly).mul_r2k(1)))
        if k >= 1:
            parts.setdefault((i, k - 1), []).append((k * (2 * i + 2 * a + n - 2), poly))
        if k >= 2:
            parts.setdefault((i, k - 2), []).append((k * (k - 1), poly))
    terms = {key: _lincomb(n, key[0], ps) for key, ps in parts.items()}
    return LogRadialExpansion(n, e.radial_exp, terms)


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
    then log^2, then log^3).  The blocks of each log power are summed in one
    pass.
    """
    m = rhs.degree
    parts: dict[int, list] = {}
    for block in harmonic_decompose(rhs):
        k = block.k
        for logpow, eigen in enumerate((eigen_AA, _eigen_mixed, _eigen_log2, _eigen_log3)):
            lam = eigen(n, m, k)
            if lam != 0:
                parts.setdefault(logpow, []).append((Fraction(-1) / lam, block.h.mul_r2k(k)))
                break
        else:
            raise UnresolvableBlockError(
                f"block r^{2 * k} H_{m - 2 * k} (n={n}) unresolvable up to log^3"
            )
    return LogRadialExpansion(n, 0, {(m, kk): _lincomb(n, m, ps) for kk, ps in parts.items()})


def apply_AA(n: int, e: LogRadialExpansion) -> LogRadialExpansion:
    """A_{2-n} A_{4-n} with full log bookkeeping."""
    return apply_A(2 - n, apply_A(4 - n, e))
