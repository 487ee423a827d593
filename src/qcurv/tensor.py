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

``random_weyl`` works on the distinct entries: a tensor antisymmetric in
its first two and in its last two slots is its N x N pair matrix
M[p, q] = W[i_p, k_p, i_q, k_q] over the N = n(n-1)/2 pairs i < k.  The
symmetrizations, the Bianchi projection and the trace removal run on M,
through signed gathers cached per dimension (O(N^2) entries, no n^4 map),
and the n^4 array is written once, at the end.

The quartic form sum_kl (sum_ij W_ikjl x_i x_j)^2 folds the rows (i, j)
and (j, i) of X[(i,j),(k,l)] = W_ikjl, since x_i x_j = x_j x_i: its Gram
is over the n(n+1)/2 rows i <= j, not the n^2 rows (i, j), and it
scatters to the monomials through an N'^2 rank map, N' = n(n+1)/2.  The
fold uses no symmetry of W, so the form is the literal formula on any
integer tensor.  The two Gram products behind the quartic and
gradient-square forms go through float64 BLAS when a certificate proves
it exact (``_gram``): if every squared row norm is below 2^53, every
product and partial sum of the Gram matrix is an integer below 2^53 in
magnitude, which float64 holds exactly, whatever the summation order,
kernel or thread count.  The one assumption is that dgemm forms each
entry as a sum of IEEE products, with no Strassen-type algorithm.
Otherwise the product runs in int64.  ``MAX_N`` is the largest dimension
the CLI builds a tensor in.
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
# 20 MB at n = 40, the quartic form has C(n+3, 4) = 123410 terms, and
# `parametrix --n 40 --seed 1` peaks at about 185 MB RSS
MAX_N = 40


def int_bound(n: int) -> int:
    """Largest |entry| for which every int64 sum over an n-dimensional
    tensor is exact.

    With B the bound, a norm or cross contraction sums n^4 products of two
    entries, at most n^4 B^2.  A quartic-form coefficient sums at most 6
    entries of the folded Gram, one per split of x_i x_j x_a x_b into two
    factors; each entry sums n^2 products of two folded-row entries, each
    at most 2B as the sum of two entries: 6 n^2 (2B)^2 = 24 n^2 B^2.  A
    gradient-square coefficient sums 2 entries of n^3 products of pair
    sums, 8 n^3 B^2.  No partial sum exceeds the largest of these.  The
    squared row norms that certify ``_gram``'s float64 path, at most
    4 n^2 B^2 and 4 n^3 B^2, stay within the same counts, so they are
    exact in int64.  The bound alone does not put the folded quartic rows
    below 2^53 at any n up to 64: at entries of B they reach about
    2^65 / n^2, so the certificate decides on the data.
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
    """The pairs i < k of n indices, in ``np.triu_indices(n, 1)`` order."""
    return np.triu_indices(n, 1)


def _from_pairs(n: int, M: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The n^4 tensor T, antisymmetric in its first two and in its last two
    slots, with T[i_p, k_p, i_q, k_q] = M[p, q] on the pairs of ``_pairs``,
    written over the (n^2, n^2) array ``out`` and returned as (n, n, n, n):
    the columns (j,l) gather M signed, then scatter as the rows (i,k) and,
    negated, (k,i)."""
    i, k = _pairs(n)
    code, sign = _pair_codes(n)
    rows = np.take(M, code, axis=1, mode="clip")  # clip: at n = 1 there is no column
    rows *= sign.astype(M.dtype)
    out[i * n + k] = rows
    out[k * n + i] = -rows
    out[np.arange(n) * (n + 1)] = 0
    return out.reshape((n,) * 4)


@functools.cache
def _pair_codes(n: int) -> tuple:
    """c(x, y), the index in ``_pairs`` of the pair {x, y} (0 for x = y), and
    s(x, y), the sign of y - x, for every flat index x n + y: a tensor T
    antisymmetric in its first two and its last two slots with pair matrix
    M reads T[x,y,z,w] = s(x,y) s(z,w) M[c(x,y), c(z,w)]."""
    i, k = _pairs(n)
    c = np.zeros((n, n), dtype=np.int32)
    c[i, k] = c[k, i] = np.arange(len(i))
    x = np.arange(n)
    return c.reshape(-1), np.sign(x[None, :] - x[:, None]).astype(np.int8).reshape(-1)


def _gather(A: np.ndarray, index: tuple) -> np.ndarray:
    """sign * A.flat[flat] for a signed gather ``index = (flat, sign)``."""
    flat, sign = index
    return np.take(A, flat) * sign


@functools.cache
def _weyl_maps(n: int) -> tuple:
    """The signed gathers ``random_weyl`` reads its pair matrix M through,
    with ``_pair_codes``: over (p, q), the two cyclic terms T[i,l,k,j] and
    T[i,j,l,k] of the first Bianchi identity at p = (i,k), q = (j,l); over
    (i, k, l), the Ricci terms T[i,k,i,l], summed over i; and the
    Kulkarni-Nomizu product of a matrix r with the metric, as positions in
    M and signed gathers of r.  Its four terms -r_ij g_kl, -r_kl g_ij,
    +r_il g_kj and +r_kj g_il are nonzero only where the metric's two
    indices coincide, at O(n^3) of the N^2 entries.
    """
    i, k = _pairs(n)
    N = len(i)
    c, s = (v.reshape(n, n) for v in _pair_codes(n))

    def read(x, y, z, w):
        return c[x, y] * N + c[z, w], s[x, y] * s[z, w]

    I, K, J, L = i[:, None], k[:, None], i[None, :], k[None, :]
    x = np.arange(n)
    X, Y, Z = x[:, None, None], x[None, :, None], x[None, None, :]
    pos, flat, sign = [], [], []
    for (d1, d2), (r1, r2), sg in (((K, L), (I, J), -1), ((I, J), (K, L), -1),
                                   ((K, J), (I, L), 1), ((I, L), (K, J), 1)):
        p, q = np.nonzero(d1 == d2)
        pos.append(p * N + q)
        flat.append(r1[p, 0] * n + r2[0, q])
        sign.append(np.full(len(p), sg, dtype=np.int8))
    kn = (np.concatenate(flat).astype(np.int32), np.concatenate(sign))
    return read(I, L, K, J), read(I, J, L, K), read(X, Y, X, Z), np.concatenate(pos), kn


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
def _quartic_ranks(n: int) -> np.ndarray:
    """Position in ``monomial_table(n, 4)`` of x_i x_j x_a x_b for every entry
    (u, v), flat, of a Gram matrix over the rows u = (i, j) and v = (a, b),
    i <= j and a <= b: the n pairs (i, i), then those of ``_pairs``.  Stored
    as int32: every position is below C(n+3, 4), which is C(43, 4) = 123,410
    at ``MAX_N`` = 40 and C(67, 4) = 766,480 at n = 64."""
    i, k = _pairs(n)
    d = np.arange(n, dtype=i.dtype)
    a, b = np.concatenate((d, i)), np.concatenate((d, k))
    idx = np.stack(np.broadcast_arrays(a[:, None], b[:, None], a[None, :], b[None, :]), axis=-1)
    idx = np.sort(idx.astype(np.min_scalar_type(n - 1)), axis=-1)
    return monomial_table(n, 4).index_rank(idx).reshape(-1).astype(np.int32)


@functools.cache
def _symmetric_ranks(n: int) -> np.ndarray:
    """Position in ``monomial_table(n, 2)`` of the monomial x_i x_j of every
    flat index (i, j) of an n x n matrix."""
    idx = np.sort(np.indices((n, n), dtype=np.min_scalar_type(n - 1)).reshape(2, -1).T, axis=1)
    return monomial_table(n, 2).index_rank(idx)


def _symmetric_vector(M: np.ndarray) -> np.ndarray:
    """Integer coefficients of sum M[i, j] x_i x_j over the degree-2
    monomial table, summed exactly in M's dtype: int64 when the caller
    bounds the entries, Python ints otherwise."""
    n = M.shape[0]
    v = np.zeros(monomial_table(n, 2).size, dtype=M.dtype)
    np.add.at(v, _symmetric_ranks(n), M.reshape(-1))
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

    __slots__ = ("n", "ints", "scale", "_norm_sq", "_quartic", "_gradsq")

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
        self._norm_sq = None
        self._quartic = None
        self._gradsq = None

    def rescale(self, factor) -> "WeylTensor":
        return WeylTensor(self.n, self.ints.copy(), self.scale * _as_fraction(factor))

    def is_zero(self) -> bool:
        return not self.ints.any() or self.scale == 0

    # -- scalars -------------------------------------------------------

    def norm_sq(self) -> Fraction:
        """|W|^2 = sum over all four indices of the squared components."""
        if self._norm_sq is None:
            flat = self.ints.reshape(-1)
            self._norm_sq = self.scale * self.scale * int(np.dot(flat, flat))
        return self._norm_sq

    def cross_contraction(self) -> Fraction:
        """sum W_{ikjl} W_{iljk}; equals |W|^2 / 2 for any Weyl tensor."""
        swapped = np.transpose(self.ints, (0, 3, 2, 1))  # (i,l,j,k) read as (i,k,j,l)
        total = int(np.dot(self.ints.reshape(-1), swapped.reshape(-1)))
        return self.scale * self.scale * total

    # -- polynomials ----------------------------------------------------

    def quartic_form(self) -> HomogPoly:
        """sum_{kl} ( W_{ikjl} x_i x_j )^2 as an exact degree-4 polynomial."""
        if self._quartic is None:
            # sum_{ij} W_{ikjl} x_i x_j = sum_{i<=j} Y[(i,j),(k,l)] x_i x_j, where
            # Y sums the rows (i,j) and (j,i) of X[(i,j),(k,l)] = W_{ikjl} since
            # x_i x_j = x_j x_i; no symmetry of W is used.  The Gram Y Y^T then
            # scatters to the monomials x_i x_j x_a x_b
            n, A = self.n, self.ints
            d = np.arange(n)
            i, j = _pairs(n)
            Y = np.concatenate((A[d, :, d, :], A[i, :, j, :] + A[j, :, i, :])).reshape(-1, n * n)
            v = np.zeros(monomial_table(n, 4).size, dtype=np.int64)
            np.add.at(v, _quartic_ranks(n), _gram(Y).reshape(-1))
            self._quartic = HomogPoly.from_vector(n, 4, v, self.scale**2)
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
        n = self.n
        i, k = _pairs(n)
        a = i * n + k
        M = self.ints.reshape(n * n, -1)[np.ix_(a, a)]
        upper = np.triu(np.ones(M.shape, dtype=bool))  # selects row by row
        return {"n": n, "W": exact_json(*exact_ints(M[upper], self.scale))}

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
            upper = np.triu(np.ones((N, N), dtype=bool))
            M = np.zeros((N, N), dtype=ints.dtype)
            M[upper] = M.T[upper] = ints
            ints = _from_pairs(n, M, np.empty((n * n, n * n), dtype=ints.dtype))
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
    24(n-1)(n-2) tracked in the scale, so the result is exact.  Every step
    after the draw runs on the N x N pair matrix of ``_pairs``, and the
    n^4 tensor is written once, at the end.  For n <= 3 the Weyl tensor
    vanishes identically and the zero tensor is returned.
    """
    if n <= 3:
        return WeylTensor(n, np.zeros((n,) * 4, dtype=np.int64))
    rng = np.random.Generator(np.random.Philox(seed))
    R = rng.integers(-9, 10, size=n**4).reshape(n * n, n * n)  # R[(i,k),(j,l)]
    i, k = _pairs(n)
    a, b = i * n + k, k * n + i
    cyc1, cyc2, ricci, kn_pos, kn = _weyl_maps(n)

    # pair symmetries, cleared denominators (factor 8 absorbed into scale)
    M = R[a]
    M -= R[b]
    M = np.take(M, a, axis=1) - np.take(M, b, axis=1)
    M += M.T

    # first Bianchi: 3R minus the cyclic sum over slots 2,3,4 (factor 3)
    B = 2 * M
    B -= _gather(M, cyc1)
    B -= _gather(M, cyc2)

    # remove all traces; multiply through by (n-1)(n-2) to stay integral.
    # The products of the Ricci matrix and of the scalar with the metric are
    # nonzero only where two indices coincide, so they go onto those entries
    ric = _gather(B, ricci).sum(axis=0)
    scal = int(np.trace(ric))
    W = ((n - 1) * (n - 2) * B).reshape(-1)  # flat, so the adds land in W itself
    np.add.at(W, kn_pos, _gather((n - 1) * ric, kn))
    W[::len(i) + 1] += scal  # scal g_ij g_kl; scal g_il g_kj is 0 on i < k, j < l

    g = abs(int(np.gcd.reduce(W)))
    den = 24 * (n - 1) * (n - 2)
    if g > 1:
        W //= g
    else:
        g = 1
    # the drawn integers are spent: their array takes the tensor
    return WeylTensor(n, _from_pairs(n, W.reshape(B.shape), R), Fraction(g, den))


def random_schouten_hessian(n: int, seed: int, W: WeylTensor) -> SchoutenHessian:
    """Seeded symmetric matrix, multiples of 1/2 in [-9, 9], whose trace
    satisfies the conformal normal coordinate constraint
    trace = -|W|^2 / (12(n-1))."""
    rng = np.random.Generator(np.random.Philox(seed + (1 << 32)))
    raw = rng.integers(-9, 10, size=(n, n))
    return fix_trace(raw + raw.T, Fraction(1, 2), W)


def fix_trace(ints: np.ndarray, content: Fraction | int, W: WeylTensor) -> SchoutenHessian:
    """content * ints, for a symmetric n x n integer array (int64 or Python
    ints) and an exact rational content, with its pure-trace part shifted so
    the trace is -|W|^2/(12(n-1)).

    The shift is added to the diagonal in integers over one common
    denominator: int64 while the entries stay in range, Python ints past
    it.  ``SchoutenHessian`` then brings the sum to canonical form.
    """
    n = len(ints)
    s = _as_fraction(content)
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
