"""Exact-arithmetic algebra of homogeneous polynomials on R^n.

Provides homogeneous polynomials with rational coefficients, the
decomposition of a degree-m polynomial into harmonic blocks r^{2k} h_{m-2k},
and the two-parameter family of radial operators

    A_a = r^2 Lap + 2a r d/dr + a(a+n-2),      B_a = dA_a/da,

acting on polynomial expansions with integer powers of log r.  The
composite A_{2-n} A_{4-n} is diagonal on harmonic blocks; ``solve_AA``
inverts it block by block, escalating to log r terms on kernel blocks.

A polynomial of degree m in n variables is stored densely: one integer
vector over the degree-m monomials, which ``monomial_table(n, m)`` lists in
lexicographic order of their exponents, times one rational ``content``.
The integers are coprime and the first nonzero one, on the
lexicographically first exponent, is positive, so the form is unique and
``==`` compares it directly; ``to_json`` writes it as it is, zeros
included, through ``exact_json``.  Scaling touches only the content;
linear combinations bring the contents to one denominator and add integer
vectors; each table caches one index map, through which the Laplacian
gathers and r^2 multiplication scatters.  The integers are int64
wherever a bound computed from the operands proves that no intermediate
value overflows, and Python ints (object arrays) otherwise.  No floating
point enters this module; every operation here is an exact identity and is
tested as such.
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
    """x as a Fraction, for x an integer, a Fraction or rational text such
    as "p/q".  A float, a bool or a zero denominator is not exact input
    and raises ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise ValueError(f'{x!r} is not an exact rational: give an integer or "p/q" text')


class MonomialTable:
    """The degree-m monomials in n variables, in lexicographic order of
    their exponent tuples; ``exps[i]`` is the exponent of monomial i.

    Built once per (n, m) by ``monomial_table``.  Its one index map,
    ``lap_gather``, is built on first use: the Laplacian gathers through it
    and r^2 multiplication scatters through it.
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
        rank = np.zeros(idx.shape[:-1], dtype=np.intp)
        for t in range(self.m):  # a column at a time: no (rows x m) temporary
            rank += self._steps[t, idx[..., t]]
        return rank

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
    def lap_gather(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The index map to degree m+2: src[t, i] is the position of
        x_i^2 x^exps[t].  The Laplacian of a degree-(m+2) vector v gathers
        through it to sum_i fac[t, i] v[src[t, i]] here, with fac[t, i] =
        (e_i + 2)(e_i + 1) and every row sum of fac at most ``gain``; r^2
        times a vector w here scatters w[t] to every src[t, i]."""
        up = monomial_table(self.n, self.m + 2)
        shifted = self.exps[:, None, :] + 2 * np.eye(self.n, dtype=np.intp)
        src = up.rank(shifted).reshape(self.size, self.n)
        fac = (self.exps + 2) * (self.exps + 1)
        return src, fac, int(fac.sum(axis=1).max())


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


def _widen(v: np.ndarray) -> np.ndarray:
    """A signed-integer array as int64, or as Python ints where an entry is
    the int64 minimum, whose |v| would pass int64."""
    v = v.astype(np.int64)
    return v.astype(object) if (v == np.iinfo(np.int64).min).any() else v


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


def exact_ints(values, scale=1) -> tuple[np.ndarray, Fraction]:
    """scale times an array of exact rationals as (ints, content), with
    scale * values = content * ints.

    ``values`` is a signed-integer numpy array or a nested array of
    integers, Fractions and rational text (``_as_fraction``); each distinct
    entry is parsed once.  ``ints`` has the shape of ``values`` and, read
    flat, the canonical form of ``_primitive``.  This is the one path from
    exact rationals to integers.
    """
    content = _as_fraction(scale)
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        v = _widen(values)
    else:
        a = np.array(values, dtype=object)
        codes: dict = {}  # keyed by type too: True == 1 and 1.0 == 1 must not share a parse
        inverse = [codes.setdefault((type(x), x), len(codes)) for x in a.ravel().tolist()]
        fracs = [_as_fraction(x) for _, x in codes]
        den = math.lcm(*(f.denominator for f in fracs))
        nums = [f.numerator * (den // f.denominator) for f in fracs]
        wide = max(map(abs, nums), default=0) > _INT64_MAX
        v = np.array(nums, dtype=object if wide else np.int64)[inverse].reshape(a.shape)
        content /= den
    ints, content = _primitive(v.reshape(-1), content)
    return ints.reshape(v.shape), content


def exact_json(ints: np.ndarray, scale: Fraction) -> dict:
    """{"scale": "p/q", "ints": [...]}, the JSON form of an (ints, content)
    pair: the content as reduced text and the integers as nested lists."""
    return {"scale": f"{scale.numerator}/{scale.denominator}", "ints": ints.tolist()}


class _Coeffs(Mapping):
    """Read-only view of a polynomial's nonzero coefficients keyed by
    exponent tuple, as Fractions made only when read."""

    __slots__ = ("_p",)

    def __init__(self, p: "HomogPoly"):
        self._p = p

    def __getitem__(self, e: Exponent) -> Fraction:
        p = self._p
        i = monomial_table(p.n, p.degree).position.get(e)
        v = 0 if i is None else int(p._v[i])
        if not v:
            raise KeyError(e)
        return p.content * v

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
    Instances are immutable; ``terms`` reads the nonzero coefficients as
    Fractions keyed by exponent tuple.
    """

    __slots__ = ("n", "degree", "content", "_v")

    def __init__(self, n: int, degree: int, terms: Mapping[Exponent, Fraction] | None = None):
        if n < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        terms = terms or {}
        exps = [tuple(int(v) for v in e) for e in terms]
        for e in exps:
            if len(e) != n or any(v < 0 for v in e):
                raise ValueError(f"bad exponent {e} for n={n}")
            if sum(e) != degree:
                raise ValueError(f"exponent {e} does not sum to degree {degree}")
        if len(set(exps)) != len(exps):
            raise ValueError("two keys name the same exponent")
        ints, content = exact_ints(list(terms.values()))
        table = monomial_table(n, degree)
        v = np.zeros(table.size, dtype=ints.dtype)
        v[table.rank(exps)] = ints
        self.n = n
        self.degree = degree
        self._v, self.content = _primitive(v, content)

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
        ``monomial_table(n, degree)``; ``ints`` is a signed-integer array,
        or a sequence of Python ints as ``to_json`` writes, of the table's
        length; a bool is not an integer here."""
        # all but a signed-integer array is read entry by entry: numpy would
        # read True as 1 and an int past int64 as uint64 or float64
        signed = isinstance(ints, np.ndarray) and ints.dtype.kind == "i"
        v = np.array(ints, dtype=None if signed else object)
        whole = signed or all(
            isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in v.flat)
        if v.shape != (math.comb(n + degree - 1, degree),) or not whole:
            raise ValueError(f"need one integer per monomial of degree {degree} in {n} variables")
        if signed:
            v = _widen(v)
        return cls._make(n, degree, *_primitive(v, _as_fraction(scale)))

    @classmethod
    def zero(cls, n: int, degree: int) -> "HomogPoly":
        size = math.comb(n + degree - 1, degree)
        return cls._make(n, degree, np.zeros(size, dtype=np.int64), _ZERO)

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
        return _Coeffs(self)

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

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        return _lincomb(self.n, self.degree, [(1, self), (1, other)])

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return _lincomb(self.n, self.degree, [(1, self), (-1, other)])

    def scale(self, factor) -> "HomogPoly":
        f = _as_fraction(factor)
        if not f:
            return HomogPoly.zero(self.n, self.degree)
        return HomogPoly._make(self.n, self.degree, self._v, self.content * f)

    def mul_r2k(self, k: int) -> "HomogPoly":
        """Multiply by r^{2k} (k >= 0).

        Each factor r^2 = sum_i x_i^2 scatters every coefficient to the n
        monomials x_i^2 x^e, through the source table's ``lap_gather`` map;
        a target receives at most n terms, so n max|v| bounds every sum.
        r^2 is primitive with first coefficient 1, so by Gauss's lemma (and
        because the lexicographically first terms multiply) the product
        stays canonical with the same content.
        """
        if k < 0:
            raise ValueError(f"mul_r2k needs k >= 0, got k={k}")
        v, m = self._v, self.degree
        for _ in range(k):
            src = monomial_table(self.n, m).lap_gather[0]
            m += 2
            if self.n * _absmax(v) > _INT64_MAX:
                v = v.astype(object)
            out = np.zeros(math.comb(self.n + m - 1, m), dtype=v.dtype)
            np.add.at(out, src.ravel(), np.repeat(v, self.n))
            v = out
        return HomogPoly._make(self.n, m, _narrow(v), self.content)

    def __repr__(self):
        parts = [f"{c}*x^{e}" for e, c in sorted(self.terms.items())]
        return f"HomogPoly(n={self.n}, m={self.degree}, {' + '.join(parts) or 0})"

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        """{"n", "m", "scale": "p/q", "ints"}: the canonical vector in the lex
        order of ``monomial_table(n, m)``, zeros included, which
        ``from_vector(n, m, ints, scale)`` reads back; zero has scale "0/1"."""
        return {"n": self.n, "m": self.degree, **exact_json(self._v, self.content)}


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

    The Laplacian maps r^{2k} h_{m-2k} to 2k(2m-2k+n-2) r^{2k-2} h_{m-2k},
    so block k of the split of Lap p, divided by 2(k+1)(2m-2k+n-4), is
    block k+1 of p, and the top block h_m is p minus the lower ones.  The
    splits run from the last Laplacian, of degree 0 or 1 and harmonic, up
    to p; each is exact and needs no inner products.  The blocks come in
    ascending k, and zero blocks are left out.
    """
    n = p.n
    chain = [p]
    while chain[-1].degree >= 2:
        chain.append(laplacian(chain[-1]))
    blocks: list[HomogPoly] = []  # the split of the current q, block k at index k
    for q in reversed(chain):
        m = q.degree
        lower = [h.scale(Fraction(1, 2 * (k + 1) * (2 * m - 2 * k + n - 4)))
                 for k, h in enumerate(blocks)]
        top = _lincomb(n, m, [(1, q)] + [(-1, h.mul_r2k(k + 1)) for k, h in enumerate(lower)])
        blocks = [top] + lower
    return [HarmonicBlock(k, h) for k, h in enumerate(blocks) if not h.is_zero()]


def reassemble(n: int, m: int, blocks: Iterable[HarmonicBlock]) -> HomogPoly:
    """Inverse of harmonic_decompose: sum r^{2k} h."""
    return _lincomb(n, m, [(1, b.h.mul_r2k(b.k)) for b in blocks])


def split_identities(p: HomogPoly, blocks: list[HarmonicBlock]) -> list[tuple[str, bool]]:
    """The exact identities of a harmonic split of p, as ordered (name,
    holds) pairs: the blocks reassemble p, and every block is harmonic."""
    return [
        ("reassembles", reassemble(p.n, p.degree, blocks) == p),
        ("blocks_harmonic", all(laplacian(b.h).is_zero() for b in blocks)),
    ]


# -- radial operator family ------------------------------------------------


class LogRadialExpansion:
    """Finite sum sum_{i,k} psi_{i,k}(x) log^k r of shells.

    ``terms`` maps (degree i, log power k) to a HomogPoly of degree i.  A
    Green's expansion is r^{4-n} times such a sum; the prefactor is the
    ``GreenExpansion``'s, and the operators here act on the bracket.  An
    expansion is a value: zero shells are dropped when it is built, and
    nothing edits it later.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, int], HomogPoly] | None = None):
        self.n = n
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
    def from_poly(cls, poly: HomogPoly, logpow: int = 0) -> "LogRadialExpansion":
        return cls(poly.n, {(poly.degree, logpow): poly})

    def is_zero(self) -> bool:
        return not self.terms

    def max_log_power(self) -> int:
        return max((k for (_, k) in self.terms), default=0)

    def get(self, degree: int, logpow: int) -> HomogPoly:
        return self.terms.get((degree, logpow), HomogPoly.zero(self.n, degree))

    def __add__(self, other: "LogRadialExpansion") -> "LogRadialExpansion":
        """The sum, shell by shell; shells that cancel are dropped."""
        if self.n != other.n:
            raise ValueError("expansions must share n")
        keys = sorted(self.terms.keys() | other.terms.keys())
        return LogRadialExpansion(self.n, {key: self.get(*key) + other.get(*key) for key in keys})

    def __eq__(self, other) -> bool:
        return (isinstance(other, LogRadialExpansion) and self.n == other.n
                and self.terms == other.terms)

    def __repr__(self):
        keys = ", ".join(f"(deg={i},log^{k})" for (i, k) in sorted(self.terms))
        return f"LogRadialExpansion(n={self.n}, [{keys}])"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"deg": i, "logpow": k, "poly": self.terms[(i, k)].to_json()}
                for (i, k) in sorted(self.terms)
            ],
        }


def apply_A(alpha, e: LogRadialExpansion) -> LogRadialExpansion:
    """Apply A_alpha to an expansion.  On phi log^k r

        A_a(phi log^k r) = A_a phi log^k r + k B_a phi log^{k-1} r
                           + k(k-1) phi log^{k-2} r,

    where on degree i, A_a = r^2 Lap + a(2i + a + n - 2) and B_a is the
    scalar 2i + 2a + n - 2.  Every output shell is summed in one pass.
    """
    n = e.n
    a = _as_fraction(alpha)
    parts: dict[tuple[int, int], list] = {}
    for (i, k), poly in e.terms.items():
        parts.setdefault((i, k), []).append((a * (2 * i + a + n - 2), poly))
        if i >= 2:
            parts[(i, k)].append((1, laplacian(poly).mul_r2k(1)))
        if k >= 1:
            parts.setdefault((i, k - 1), []).append((k * (2 * i + 2 * a + n - 2), poly))
        if k >= 2:
            parts.setdefault((i, k - 2), []).append((k * (k - 1), poly))
    return LogRadialExpansion(n, {key: _lincomb(n, key[0], ps) for key, ps in parts.items()})


def _escalation_scalars(n: int, m: int, k: int) -> list[int]:
    """E^(j)(0), j = 0..3, of E(eps) = (eps+2-n+2k)(eps+2m-2k)(eps+4-n+2k)(eps+2m-2k+2),
    the product of the scalars (a+2k)(2m-2k+a+n-2) by which A_a acts on
    r^{2k} H_{m-2k}, at a = 2-n+eps and at a = 4-n+eps.

    A_{2-n} A_{4-n} maps r^eps times the block to E(eps) r^eps times it, so
    j eps-derivatives at 0 give its action on log^j r: E(0) is eigen_AA, and
    the first nonzero E^(j)(0) inverts a kernel block with log^j r.
    """
    coeffs = [1]  # of the expanded product, lowest power of eps first
    for c in (2 - n + 2 * k, 2 * m - 2 * k, 4 - n + 2 * k, 2 * m - 2 * k + 2):
        coeffs = [c * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return [math.factorial(j) * coeffs[j] for j in range(4)]


def eigen_AA(n: int, m: int, k: int) -> Fraction:
    """Scalar of A_{2-n} A_{4-n} on r^{2k} H_{m-2k}."""
    if not (0 <= k <= m // 2):
        raise ValueError(f"block index k={k} out of range for degree {m}")
    return Fraction(_escalation_scalars(n, m, k)[0])


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
    then log^2, then log^3; ``_escalation_scalars``).  The blocks of each log
    power are summed in one pass.
    """
    m = rhs.degree
    parts: dict[int, list] = {}
    for block in harmonic_decompose(rhs):
        k = block.k
        for logpow, lam in enumerate(_escalation_scalars(n, m, k)):
            if lam != 0:
                parts.setdefault(logpow, []).append((Fraction(-1, lam), block.h.mul_r2k(k)))
                break
        else:
            raise UnresolvableBlockError(
                f"block r^{2 * k} H_{m - 2 * k} (n={n}) unresolvable up to log^3"
            )
    return LogRadialExpansion(n, {(m, kk): _lincomb(n, m, ps) for kk, ps in parts.items()})


def apply_AA(n: int, e: LogRadialExpansion) -> LogRadialExpansion:
    """A_{2-n} A_{4-n} with full log bookkeeping."""
    return apply_A(2 - n, apply_A(4 - n, e))


def solve_residual(n: int, psi: LogRadialExpansion, rhs: HomogPoly) -> LogRadialExpansion:
    """A_{2-n} A_{4-n} psi + rhs, which is zero exactly when psi solves the
    equation ``solve_AA(n, rhs)`` inverts."""
    return apply_AA(n, psi) + LogRadialExpansion.from_poly(rhs)
