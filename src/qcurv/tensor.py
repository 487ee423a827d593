"""Pointwise exact algebra of curvature data: Weyl tensors, the Schouten
Hessian, and the quartic polynomials they generate.

A Weyl-type tensor is stored densely as an integer numpy array together
with a single rational scale, the same integers-over-one-content design
as ``polyalg.HomogPoly``, so every component is an exact rational while
the heavy contractions (norms, quartic forms) run through int64 numpy.
The integer entries are bounded by a dimension-dependent limit under
which no int64 sum can overflow; larger tensors are refused with a
ValueError.  Seeded generators produce tensors satisfying all the
algebraic symmetries exactly; ``weyl_identities`` names every exact
identity they satisfy.

The two Gram products behind the quartic and gradient-square forms go
through float64 BLAS when a certificate proves it exact (``_gram``): if
every squared row norm is below 2^53, every product and partial sum of
the Gram matrix is an integer below 2^53 in magnitude, which float64
holds exactly, whatever the summation order, kernel or thread count.
The one assumption is that dgemm forms each entry as a sum of IEEE
products, with no Strassen-type algorithm.  Otherwise the product runs
in int64.  ``MAX_N`` is the largest dimension the CLI builds a tensor in.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .polyalg import (_INT64_MAX, HarmonicBlock, HomogPoly, _absmax, _as_fraction, exact_ints,
                      exact_json, laplacian, monomial_table, split_identities)

_FLOAT_EXACT = 2**53  # float64 holds every integer of smaller magnitude

# largest dimension the CLI builds a Weyl tensor in: an n^4 int64 array is
# 20 MB at n = 40, and the quartic form has C(n+3, 4) = 123410 terms
MAX_N = 40


def int_bound(n: int) -> int:
    """Largest |entry| for which every int64 sum over an n-dimensional
    tensor is exact.

    A norm or cross contraction sums n^4 products of two entries, a
    quartic-form coefficient at most 24 contraction entries of n^2 products
    each, and a gradient-square coefficient 2 entries of n^3 products of
    pair sums, 8 n^3 entry products in all.  No partial sum exceeds the
    largest count times the squared bound.  The same bound keeps the
    squared row norms that certify ``_gram``'s float64 path exact in int64;
    from n = 32 on it also keeps every quartic-form row norm below 2^53.
    """
    return math.isqrt(_INT64_MAX // max(n**4, 8 * n**3, 24 * n * n))


def _json_dimension(obj: dict) -> int:
    """The dimension ``obj["n"]`` of a JSON jet, tensor or matrix: only a
    JSON integer >= 1, so 5.9, 5.0, "5", true and -5 are refused."""
    n = obj["n"]
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return n


def _json_exact(obj: dict, key: str) -> tuple[np.ndarray, Fraction]:
    """(ints, scale) of ``obj[key]``, written {"scale": "p/q", "ints": [...]},
    or as a nested array of "p/q" text in older files."""
    v = obj[key]
    return exact_ints(*((v["ints"], v["scale"]) if isinstance(v, dict) else (v, 1)))


@functools.cache
def _pairs(n: int) -> tuple:
    """The pairs i < k of n indices, in ``np.triu_indices(n, 1)`` order, and
    the upper triangle, diagonal included, of a matrix over them."""
    i, k = np.triu_indices(n, 1)
    return i, k, np.triu_indices(len(i))


def _gram(A: np.ndarray) -> np.ndarray:
    """A @ A.T for an int64 matrix A, exact, in int64.

    The certificate is the largest squared row norm, summed in int64 (the
    caller's entry bound keeps it from overflowing).  Below 2^53, Cauchy-
    Schwarz bounds every product and partial sum of every entry by it, so
    float64 dgemm is exact; otherwise the product runs in int64.
    """
    if int(np.einsum("ij,ij->i", A, A).max(initial=0)) < _FLOAT_EXACT:
        F = A.astype(np.float64)
        return (F @ F.T).astype(np.int64)
    return A @ A.T


@functools.cache
def _symmetric_ranks(n: int, d: int) -> np.ndarray:
    """Position in ``monomial_table(n, d)`` of the monomial x_i1 ... x_id
    of every flat index (i1, ..., id) of an n^d tensor."""
    idx = np.sort(np.indices((n,) * d, dtype=np.min_scalar_type(n - 1)).reshape(d, -1).T, axis=1)
    return monomial_table(n, d).index_rank(idx)


def _symmetric_vector(T: np.ndarray) -> np.ndarray:
    """Integer coefficients of sum T[i1..id] x_i1 ... x_id over the
    monomial table, summed exactly in T's dtype: int64 when the caller
    bounds the entries, Python ints otherwise."""
    n, d = T.shape[0], T.ndim
    v = np.zeros(monomial_table(n, d).size, dtype=T.dtype)
    np.add.at(v, _symmetric_ranks(n, d), T.reshape(-1))
    return v


class WeylTensor:
    """Totally trace-free algebraic curvature tensor at a point.

    Components W[i,k,j,l] = scale * ints[i,k,j,l] with ``ints`` an int64
    array and ``scale`` an exact rational (``polyalg._as_fraction``: a
    float or a bool raises ValueError).  Index symmetries:
    antisymmetric in (i,k) and in (j,l), symmetric under pair exchange,
    first Bianchi identity over the last three slots, and every single
    trace vanishes.
    """

    __slots__ = ("n", "ints", "scale", "_quartic", "_gradsq")

    def __init__(self, n: int, ints: np.ndarray, scale: Fraction = Fraction(1)):
        self.n = n
        ints = np.asarray(ints)
        if ints.shape != (n, n, n, n):
            raise ValueError(f"expected shape {(n,) * 4}, got {ints.shape}")
        # a float or Fraction would be truncated, a bool read as 1
        if ints.dtype.kind not in "iO" or ints.dtype == object and set(map(type, ints.flat)) - {int}:
            raise ValueError(f"W needs integer components, got dtype {ints.dtype}")
        bound = int_bound(n)
        if ints.size and (ints.max() > bound or ints.min() < -bound):
            raise ValueError(f"integer components too large for exact int64 sums at n={n}")
        self.ints = np.asarray(ints, dtype=np.int64)
        self.scale = _as_fraction(scale)
        self._quartic = None
        self._gradsq = None

    def rescale(self, factor) -> "WeylTensor":
        return WeylTensor(self.n, self.ints.copy(), self.scale * _as_fraction(factor))

    def is_zero(self) -> bool:
        return not self.ints.any() or self.scale == 0

    # -- scalars -------------------------------------------------------

    def norm_sq(self) -> Fraction:
        """|W|^2 = sum over all four indices of the squared components."""
        flat = self.ints.reshape(-1)
        total = int(np.dot(flat, flat))
        return self.scale * self.scale * total

    def cross_contraction(self) -> Fraction:
        """sum W_{ikjl} W_{iljk}; equals |W|^2 / 2 for any Weyl tensor."""
        swapped = np.transpose(self.ints, (0, 3, 2, 1))  # (i,l,j,k) read as (i,k,j,l)
        total = int(np.dot(self.ints.reshape(-1), swapped.reshape(-1)))
        return self.scale * self.scale * total

    # -- polynomials ----------------------------------------------------

    def quartic_form(self) -> HomogPoly:
        """sum_{kl} ( W_{ikjl} x_i x_j )^2 as an exact degree-4 polynomial."""
        if self._quartic is None:
            # T[i,j,a,b] = sum_{kl} W_{ikjl} W_{akbl} = (X X^T)[(i,j),(a,b)]
            # with X[(i,j),(k,l)] = W_{ikjl}
            X = self.ints.transpose(0, 2, 1, 3).reshape(self.n**2, -1)
            T = _gram(X).reshape((self.n,) * 4)
            self._quartic = HomogPoly.from_vector(self.n, 4, _symmetric_vector(T), self.scale**2)
        return self._quartic

    def gradient_square_form(self) -> HomogPoly:
        """sum_{jkl} ( W_{ijkl} x_i + W_{ilkj} x_i )^2, a degree-2 polynomial.

        Half the Laplacian of the quartic form.
        """
        if self._gradsq is None:
            V = self.ints + np.transpose(self.ints, (0, 3, 2, 1))
            M = _gram(V.reshape(self.n, -1))
            self._gradsq = HomogPoly.from_vector(self.n, 2, _symmetric_vector(M), self.scale**2)
        return self._gradsq

    def quartic_harmonic_split(self) -> list[HarmonicBlock]:
        """Three-block harmonic split of the quartic form.

        The top block is the quartic minus r^2/(n+4) times the gradient
        square plus 3|W|^2 r^4 / (2(n+2)(n+4)); the middle block pairs the
        gradient square with -3|W|^2 r^2 / (n(n+4)); the radial block is
        the constant 3|W|^2 / (2n(n+2)).
        """
        n = self.n
        q = self.quartic_form()
        g = self.gradient_square_form()
        w2 = self.norm_sq()
        r2 = HomogPoly.r_squared(n)
        r4 = r2.mul_r2k(1)
        h0 = q - g.mul_r2k(1).scale(Fraction(1, n + 4)) + r4.scale(
            w2 * Fraction(3, 2 * (n + 2) * (n + 4))
        )
        h1 = g.scale(Fraction(1, n + 4)) - r2.scale(w2 * Fraction(3, n * (n + 4)))
        h2 = HomogPoly.constant(n, w2 * Fraction(3, 2 * n * (n + 2)))
        return [HarmonicBlock(0, h0), HarmonicBlock(1, h1), HarmonicBlock(2, h2)]

    def sphere_average_quartic(self) -> Fraction:
        """Integral of the quartic form over S^{n-1}, in units of omega_n.

        The harmonic blocks integrate to zero, leaving the radial block
        times the sphere area n omega_n: total 3|W|^2/(2(n+2)) * omega_n.
        The rational factor is returned; omega_n stays symbolic.
        """
        return self.norm_sq() * Fraction(3, 2 * (self.n + 2))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        """{"n": n, "W": {"scale": "p/q", "ints": [...]}}: the upper triangle,
        row by row, of the symmetric matrix M[p, q] = W[i_p, k_p, i_q, k_q]
        over the pairs p = (i_p < k_p) of ``_pairs``, in the canonical form
        of ``exact_ints``; the pair antisymmetries give every other entry."""
        i, k, upper = _pairs(self.n)
        M = self.ints[i[:, None], k[:, None], i, k]
        return {"n": self.n, "W": exact_json(*exact_ints(M[upper], self.scale))}

    @classmethod
    def from_json(cls, obj: dict) -> "WeylTensor":
        """Read ``to_json``'s form, or the n^4 table of "p/q" text that older
        files hold.  No symmetry is checked here; ``invariants_hold`` does."""
        n = _json_dimension(obj)
        ints, scale = _json_exact(obj, "W")
        if isinstance(obj["W"], dict):
            N = n * (n - 1) // 2
            if ints.shape != (N * (N + 1) // 2,):  # before any array of n^4 entries is made
                raise ValueError(f"W at n={n} needs {N * (N + 1) // 2} ints, got {ints.shape}")
            i, k, upper = _pairs(n)
            M = np.zeros((N, N), dtype=ints.dtype)
            M[upper] = M.T[upper] = ints
            ints = np.zeros((n,) * 4, dtype=ints.dtype)
            for a, b, sign in ((i, k, 1), (k, i, -1)):
                ints[a[:, None], b[:, None], i, k] = sign * M
                ints[a[:, None], b[:, None], k, i] = -sign * M
        return cls(n, ints, scale)


class SchoutenHessian:
    """Symmetric rational matrix J_ij (covariant Hessian of J at the point).

    Entries J_ij = scale * ints[i, j], with (ints, scale) in the canonical
    form of ``exact_ints``, so two matrices are equal exactly when their
    pairs are; ``ints`` is int64 where every entry fits.
    """

    __slots__ = ("n", "ints", "scale")

    def __init__(self, n: int, ints, scale: Fraction | int = 1):
        self.ints, self.scale = exact_ints(ints, scale)
        if self.ints.shape != (n, n):
            raise ValueError(f"expected shape {(n, n)}, got {self.ints.shape}")
        if not np.array_equal(self.ints, self.ints.T):
            raise ValueError("Schouten Hessian must be symmetric")
        self.n = n

    @classmethod
    def zero(cls, n: int) -> "SchoutenHessian":
        return cls(n, np.zeros((n, n), dtype=np.int64))

    def trace(self) -> Fraction:
        return self.scale * sum(np.diagonal(self.ints).tolist())

    def quadratic_form(self) -> HomogPoly:
        """J_ij x_i x_j as a degree-2 polynomial."""
        M = self.ints
        if 2 * _absmax(M) > _INT64_MAX:  # a coefficient sums two entries
            M = M.astype(object)
        return HomogPoly.from_vector(self.n, 2, _symmetric_vector(M), self.scale)

    def to_json(self) -> dict:
        """{"n": n, "J": {"scale": "p/q", "ints": n x n nested lists}}."""
        return {"n": self.n, "J": exact_json(self.ints, self.scale)}

    @classmethod
    def from_json(cls, obj: dict) -> "SchoutenHessian":
        """Read ``to_json``'s form, or the n x n "p/q" table of older files."""
        return cls(_json_dimension(obj), *_json_exact(obj, "J"))


# -- generators --------------------------------------------------------------


def random_weyl(n: int, seed: int) -> WeylTensor:
    """Seeded random Weyl tensor with every algebraic invariant exact.

    Builds a random integer tensor, imposes the pair symmetries, projects
    out the totally antisymmetric part (first Bianchi), then removes the
    Ricci and scalar parts via the standard curvature decomposition.  All
    projections run in integer arithmetic with the denominator
    24(n-1)(n-2) tracked in the scale, so the result is exact.  For n <= 3
    the Weyl tensor vanishes identically and the zero tensor is returned.
    """
    if n <= 3:
        return WeylTensor(n, np.zeros((n, n, n, n), dtype=np.int64))
    rng = np.random.Generator(np.random.Philox(seed))
    R = rng.integers(-9, 10, size=(n, n, n, n)).astype(np.int64)

    # pair symmetries, cleared denominators (factor 8 absorbed into scale)
    R = R - np.transpose(R, (1, 0, 2, 3))
    R = R - np.transpose(R, (0, 1, 3, 2))
    R = R + np.transpose(R, (2, 3, 0, 1))

    # first Bianchi: 3R minus the cyclic sum over slots 2,3,4 (factor 3)
    cyc = R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))
    R = 3 * R - cyc

    # remove all traces; multiply through by (n-1)(n-2) to stay integral.
    # The products of the Ricci matrix and of the scalar with the metric are
    # nonzero only where two indices coincide, so they go onto those slices
    ric = np.einsum("ikil->kl", R)
    scal = int(np.trace(ric)) * np.eye(n, dtype=np.int64)  # the scalar times the metric
    ric = (n - 1) * ric
    a = np.arange(n)
    W = (n - 1) * (n - 2) * R
    W[:, a, :, a] -= ric  # ric_ij g_kl
    W[a, :, a, :] -= ric  # ric_kl g_ij
    W[:, a, a, :] += ric[:, None, :]  # ric_il g_kj
    W[a, :, :, a] += ric  # ric_kj g_il
    W[a, :, a, :] += scal  # scal g_ij g_kl
    W[a, :, :, a] -= scal  # scal g_il g_kj

    g = int(np.gcd.reduce(np.abs(W.reshape(-1))))
    den = 24 * (n - 1) * (n - 2)
    if g > 1:
        W = W // g
    else:
        g = 1
    return WeylTensor(n, W, Fraction(g, den))


def random_schouten_hessian(n: int, seed: int, W: WeylTensor) -> SchoutenHessian:
    """Seeded symmetric matrix, multiples of 1/2 in [-9, 9], whose trace
    satisfies the conformal normal coordinate constraint
    trace = -|W|^2 / (12(n-1))."""
    rng = np.random.Generator(np.random.Philox(seed + (1 << 32)))
    raw = rng.integers(-9, 10, size=(n, n))
    return fix_trace(raw + raw.T, W, Fraction(1, 2))


def fix_trace(M, W: WeylTensor, scale: Fraction | int = 1) -> SchoutenHessian:
    """scale * M, for a symmetric n x n array M of exact rationals
    (``exact_ints``), with its pure-trace part shifted so the trace is
    -|W|^2/(12(n-1)).

    The shift is added to the diagonal in integers over one common
    denominator: int64 while the entries stay in range, Python ints past
    it.
    """
    ints, s = exact_ints(M, scale)
    n = len(ints)
    shift = (-W.norm_sq() / (12 * (n - 1)) - s * sum(np.diagonal(ints).tolist())) / n
    den = math.lcm(s.denominator, shift.denominator)
    a = s.numerator * (den // s.denominator)
    b = shift.numerator * (den // shift.denominator)
    if abs(a) * max(_absmax(ints), 1) + abs(b) > _INT64_MAX:
        ints = ints.astype(object)
    out = a * ints
    out[np.diag_indices(n)] += b
    return SchoutenHessian(n, out, Fraction(1, den))


# -- invariant checks ---------------------------------------------------------


def invariants_hold(W: WeylTensor) -> bool:
    """All symmetry, Bianchi, and trace invariants, checked exactly on the
    integer components via vectorized transposes."""
    A = W.ints
    if (A + np.transpose(A, (1, 0, 2, 3))).any():
        return False
    if (A + np.transpose(A, (0, 1, 3, 2))).any():
        return False
    if (A - np.transpose(A, (2, 3, 0, 1))).any():
        return False
    cyc = A + np.transpose(A, (0, 2, 3, 1)) + np.transpose(A, (0, 3, 1, 2))
    if cyc.any():
        return False
    for a, b in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
        if np.trace(A, axis1=a, axis2=b).any():
            return False
    return True


def weyl_identities(W: WeylTensor, Jh: SchoutenHessian) -> list[tuple[str, bool]]:
    """The exact identities of a Weyl tensor and a Schouten Hessian in
    conformal normal coordinates, as ordered (name, holds) pairs: the
    invariants, Lap q = 2 (gradient square) and Lap^2 q = 12|W|^2 for the
    quartic form q, the cross contraction |W|^2/2, the three-block split of
    q, its radial block 3|W|^2/(2n(n+2)) and n times it the sphere average,
    and the trace constraint tr J = -|W|^2/(12(n-1))."""
    n, w2 = W.n, W.norm_sq()
    q = W.quartic_form()
    lap_q = laplacian(q)
    blocks = W.quartic_harmonic_split()
    radial = blocks[2].h
    return [
        ("invariants", invariants_hold(W)),
        ("lap_quartic", lap_q == W.gradient_square_form().scale(2)),
        ("bilap_quartic", laplacian(lap_q) == HomogPoly.constant(n, 12 * w2)),
        ("cross_contraction", W.cross_contraction() == w2 / 2),
        *split_identities(q, blocks),
        ("radial_block", radial == HomogPoly.constant(n, w2 * Fraction(3, 2 * n * (n + 2)))),
        ("sphere_average", HomogPoly.constant(n, W.sphere_average_quartic()) == radial.scale(n)),
        ("schouten_trace", Jh.trace() == -w2 / (12 * (n - 1))),
    ]
