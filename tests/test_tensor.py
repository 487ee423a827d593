"""Brute-force verification of the curvature-tensor algebra."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qcurv.polyalg import (HarmonicBlock, HomogPoly, harmonic_decompose, laplacian,
                           monomial_table, reassemble)
from qcurv.tensor import (
    SchoutenHessian,
    WeylTensor,
    _gram,
    _symmetric_ranks,
    _symmetric_vector,
    fix_trace,
    invariants_hold,
    random_schouten_hessian,
    random_weyl,
    int_bound,
    weyl_identities,
)

F = Fraction

WEYL_IDENTITY_NAMES = ("invariants", "lap_quartic", "bilap_quartic", "cross_contraction",
                       "reassembles", "blocks_harmonic", "radial_block", "sphere_average",
                       "schouten_trace")


def component(W: WeylTensor, i: int, k: int, j: int, l: int) -> Fraction:
    return W.scale * int(W.ints[i, k, j, l])


def legacy_table(scale: Fraction, ints) -> list:
    """Exact entries as the nested table of reduced "p/q" text that older
    jet files hold."""
    def text(v):
        c = scale * int(v)
        return f"{c.numerator}/{c.denominator}"

    return np.vectorize(text, otypes=[object])(ints).tolist()


def legacy_jet(jet) -> dict:
    """A curvature jet as older jet files write it: W as its n^4 table and J
    as its n x n table."""
    return {"n": jet.n, "W": legacy_table(jet.W.scale, jet.W.ints),
            "J": legacy_table(jet.Jh.scale, jet.Jh.ints)}


def identity_hessian(n: int) -> SchoutenHessian:
    return SchoutenHessian(n, np.eye(n, dtype=np.int64))


def schouten_quartic(W: WeylTensor, Jh: SchoutenHessian) -> HomogPoly:
    """The quartic jet of the Schouten tensor in conformal normal coordinates:

        -2/(9(n-2)) * quartic_form(W)  -  r^2/(n-2) * J_ij x_i x_j.
    """
    if W.n != Jh.n:
        raise ValueError("dimension mismatch")
    n = W.n
    return W.quartic_form().scale(Fraction(-2, 9 * (n - 2))) + Jh.quadratic_form().mul_r2k(
        1
    ).scale(Fraction(-1, n - 2))


def symmetry_residuals(W: WeylTensor) -> dict[str, Fraction]:
    """Max absolute residual of each defining symmetry, computed by loops
    independent of the construction."""
    n = W.n
    res = {
        "antisym_ik": Fraction(0),
        "antisym_jl": Fraction(0),
        "pair_swap": Fraction(0),
        "bianchi": Fraction(0),
    }
    for i in range(n):
        for k in range(n):
            for j in range(n):
                for l in range(n):
                    w = component(W, i, k, j, l)
                    res["antisym_ik"] = max(res["antisym_ik"], abs(w + component(W, k, i, j, l)))
                    res["antisym_jl"] = max(res["antisym_jl"], abs(w + component(W, i, k, l, j)))
                    res["pair_swap"] = max(res["pair_swap"], abs(w - component(W, j, l, i, k)))
                    b = w + component(W, i, j, l, k) + component(W, i, l, k, j)
                    res["bianchi"] = max(res["bianchi"], abs(b))
    return res


def trace_residual(W: WeylTensor) -> Fraction:
    """Max absolute value over all six index-pair contractions."""
    worst = Fraction(0)
    for a, b in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
        tr = np.trace(W.ints, axis1=a, axis2=b)
        m = int(np.abs(tr).max()) if tr.size else 0
        worst = max(worst, abs(W.scale * m))
    return worst


def test_random_weyl_low_dimensions_vanish():
    for n in (1, 2, 3):
        assert random_weyl(n, seed=7).is_zero()


@pytest.mark.parametrize("n,seed", [(5, 1), (6, 2), (7, 3), (10, 4)])
def test_random_weyl_invariants_exact(n, seed):
    W = random_weyl(n, seed)
    assert not W.is_zero()
    res = symmetry_residuals(W)
    assert all(v == 0 for v in res.values()), res
    assert trace_residual(W) == 0


def test_norm_sq_matches_brute_force():
    W = random_weyl(5, seed=11)
    total = F(0)
    for i in range(5):
        for k in range(5):
            for j in range(5):
                for l in range(5):
                    total += component(W, i, k, j, l) ** 2
    assert W.norm_sq() == total
    assert W.rescale(2).norm_sq() == 4 * W.norm_sq()


def test_zero_tensor_scalars():
    W = WeylTensor(6, np.zeros((6,) * 4, dtype=np.int64))
    assert W.norm_sq() == 0
    assert W.cross_contraction() == 0
    assert W.quartic_form().is_zero()


@pytest.mark.parametrize("n", [5, 10])
def test_cross_contraction_is_half_norm(n):
    W = random_weyl(n, seed=23)
    assert W.cross_contraction() == W.norm_sq() / 2


def test_quartic_laplacian_identity():
    # Lap of the quartic equals twice the gradient-square quadratic
    W = random_weyl(6, seed=5)
    q = W.quartic_form()
    assert laplacian(q) == W.gradient_square_form().scale(2)


def test_quartic_bilaplacian_is_12_norm():
    for n, seed in [(5, 9), (8, 10), (20, 1), (24, 2)]:
        W = random_weyl(n, seed)
        lap2 = laplacian(laplacian(W.quartic_form()))
        assert lap2 == HomogPoly.constant(n, 12 * W.norm_sq())


def test_quartic_form_matches_componentwise_oracle():
    for n, seed in [(4, 2), (5, 31), (7, 6)]:
        _check_quartic_against_loops(random_weyl(n, seed).rescale(F(-5, 3)))


def _check_quartic_against_loops(W):
    # direct quadruple-loop expansion with Fractions
    n = W.n
    terms = {}
    for k in range(n):
        for l in range(n):
            # T_kl(x) = sum_{ij} W_{ikjl} x_i x_j, squared and accumulated
            quad = {}
            for i in range(n):
                for j in range(n):
                    c = component(W, i, k, j, l)
                    if c == 0:
                        continue
                    quad[(i, j)] = quad.get((i, j), F(0)) + c
            for (i, j), c1 in quad.items():
                for (a, b), c2 in quad.items():
                    e = [0] * n
                    for idx in (i, j, a, b):
                        e[idx] += 1
                    key = tuple(e)
                    terms[key] = terms.get(key, F(0)) + c1 * c2
    oracle = HomogPoly(n, 4, terms)
    assert W.quartic_form() == oracle


def test_harmonic_split_blocks_and_reassembly():
    for n, seed in [(5, 2), (7, 3), (20, 4), (24, 5)]:
        W = random_weyl(n, seed)
        q = W.quartic_form()
        blocks = W.quartic_harmonic_split()
        for b in blocks:
            assert laplacian(b.h).is_zero()
        assert reassemble(n, 4, blocks) == q
        # independent oracle: generic harmonic decomposition
        generic = {b.k: b.h for b in harmonic_decompose(q)}
        for b in blocks:
            if b.k in generic:
                assert generic[b.k] == b.h
            else:
                assert b.h.is_zero()
        # radial block coefficient
        assert blocks[2].h == HomogPoly.constant(
            n, W.norm_sq() * F(3, 2 * n * (n + 2))
        )


@pytest.mark.parametrize("n,seed", [(4, 1), (5, 2), (9, 3), (16, 4), (32, 5), (40, 6)])
def test_weyl_identities_hold(n, seed):
    W = random_weyl(n, seed)
    checks = weyl_identities(W, random_schouten_hessian(n, seed, W))
    assert tuple(name for name, _ in checks) == WEYL_IDENTITY_NAMES
    assert all(ok for _, ok in checks), checks


def _failing(W: WeylTensor, Jh: SchoutenHessian) -> set[str]:
    return {name for name, ok in weyl_identities(W, Jh) if not ok}


def test_each_weyl_identity_fails_on_a_mutated_input(monkeypatch):
    # no identity in the list is vacuous: each reads False on some input
    n = 6
    W = random_weyl(n, seed=2)
    Jh = random_schouten_hessian(n, 2, W)
    assert _failing(W, Jh) == set()
    seen = set()

    ints = W.ints.copy()
    ints[0, 1, 0, 1] += 1  # breaks the symmetries and the traces
    bad = WeylTensor(n, ints, W.scale)
    got = _failing(bad, random_schouten_hessian(n, 2, bad))
    assert got == {"invariants", "lap_quartic", "bilap_quartic", "cross_contraction",
                   "blocks_harmonic"}
    seen |= got

    M = Jh.scale * Jh.ints
    M[0, 0] += 1
    got = _failing(W, SchoutenHessian(n, M))
    assert got == {"schouten_trace"}
    seen |= got

    split = WeylTensor.quartic_harmonic_split
    monkeypatch.setattr(WeylTensor, "quartic_harmonic_split",
                        lambda self: [*split(self)[:2], HarmonicBlock(2, split(self)[2].h.scale(2))])
    got = _failing(W, Jh)
    assert got == {"reassembles", "radial_block", "sphere_average"}
    seen |= got
    monkeypatch.undo()

    average = WeylTensor.sphere_average_quartic
    monkeypatch.setattr(WeylTensor, "sphere_average_quartic", lambda self: 2 * average(self))
    got = _failing(W, Jh)
    assert got == {"sphere_average"}
    seen |= got

    assert seen == set(WEYL_IDENTITY_NAMES)


def _invariant_defects(A: np.ndarray) -> dict[str, np.ndarray]:
    """What each invariant of an algebraic curvature tensor makes zero, in
    the order ``invariants_hold`` checks them."""
    return {
        "antisymmetric_ik": A + A.transpose(1, 0, 2, 3),
        "antisymmetric_jl": A + A.transpose(0, 1, 3, 2),
        "pair_exchange": A - A.transpose(2, 3, 0, 1),
        "bianchi": A + A.transpose(0, 2, 3, 1) + A.transpose(0, 3, 1, 2),
        "traces": np.array([np.trace(A, axis1=a, axis2=b)
                            for a, b in itertools.combinations(range(4), 2)]),
    }


def _invariant_witnesses() -> dict[str, np.ndarray]:
    """For each invariant, a tensor at n = 4 that keeps the ones before it
    and breaks it."""
    ik = np.zeros((4,) * 4, dtype=np.int64)
    ik[0, 1, 2, 3] = 1
    jl = np.zeros_like(ik)
    jl[0, 1, 2, 2], jl[1, 0, 2, 2] = 1, -1
    pairs = np.zeros_like(ik)
    pairs[0, 1, 2, 3] = pairs[1, 0, 3, 2] = 1
    pairs[1, 0, 2, 3] = pairs[0, 1, 3, 2] = -1
    volume = np.zeros_like(ik)  # totally antisymmetric: every symmetry, no Bianchi
    for p in itertools.permutations(range(4)):
        volume[p] = (-1) ** sum(p[a] > p[b] for a, b in itertools.combinations(range(4), 2))
    d = np.eye(4, dtype=np.int64)  # constant curvature: all but the traces
    sphere = np.einsum("ij,kl->ikjl", d, d) - np.einsum("il,kj->ikjl", d, d)
    return dict(zip(_invariant_defects(ik), (ik, jl, pairs, volume, sphere)))


@pytest.mark.parametrize("broken", list(_invariant_witnesses()))
def test_invariants_hold_fails_on_each_broken_invariant(broken):
    # each witness passes the checks before its own, so every early
    # ``return False`` of invariants_hold is taken by one of them
    A = _invariant_witnesses()[broken]
    assert [name for name, defect in _invariant_defects(A).items() if defect.any()][0] == broken
    assert not invariants_hold(WeylTensor(4, A))
    assert invariants_hold(random_weyl(4, 1))


def test_schouten_quadratic_form_widens_past_int64():
    # an off-diagonal coefficient sums two entries: past 2^62 it leaves int64
    big = 2**62 + 1
    q = SchoutenHessian(2, [[1, big], [big, 3]]).quadratic_form()
    assert dict(q.terms) == {(2, 0): 1, (1, 1): 2 * big, (0, 2): 3}


def test_sphere_average_scaling_and_zero():
    W = random_weyl(6, seed=8)
    assert W.rescale(2).sphere_average_quartic() == 4 * W.sphere_average_quartic()
    Z = WeylTensor(6, np.zeros((6,) * 4, dtype=np.int64))
    assert Z.sphere_average_quartic() == 0


def test_sphere_average_against_moment_oracle():
    # Gamma-function monomial moments over S^{n-1} as an independent
    # floating-point check of the exact average.
    n = 6
    W = random_weyl(n, seed=8)
    q = W.quartic_form()

    def monomial_integral(exp):
        if any(e % 2 for e in exp):
            return 0.0
        num = 2.0
        for e in exp:
            num *= math.gamma((e + 1) / 2)
        return num / math.gamma(sum(e + 1 for e in exp) / 2)

    total = sum(float(c) * monomial_integral(e) for e, c in q.terms.items())
    # expected: sphere_average_quartic * omega_n, with
    # integral over S^{n-1} of quartic = 3 omega_n |W|^2 / (2(n+2))
    omega_n = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    expected = float(W.sphere_average_quartic()) * omega_n
    assert abs(total - expected) <= 1e-10 * abs(expected)


def test_schouten_quartic_special_cases():
    n = 6
    Z = WeylTensor(n, np.zeros((n,) * 4, dtype=np.int64))
    zero = schouten_quartic(Z, SchoutenHessian.zero(n))
    assert zero.is_zero()
    r4 = HomogPoly.r_squared(n).mul_r2k(1)
    got = schouten_quartic(Z, identity_hessian(n))
    assert got == r4.scale(F(-1, n - 2))


def test_schouten_quartic_generic_matches_expansion():
    n = 5
    W = random_weyl(n, seed=13)
    Jh = random_schouten_hessian(n, 13, W)
    got = schouten_quartic(W, Jh)
    want = W.quartic_form().scale(F(-2, 9 * (n - 2))) - Jh.quadratic_form().mul_r2k(1).scale(
        F(1, n - 2)
    )
    assert got == want


@pytest.mark.parametrize("big", [1, 2**62 + 1])
def test_schouten_quadratic_form_matches_entry_loop(big):
    # entries past int64 / 2 take the Python-int path
    n = 4
    raw = np.random.default_rng(3).integers(-9, 10, size=(n, n))
    rows = [[F(int(raw[i, j] + raw[j, i]) * big, 1 + (i + j) % 3) for j in range(n)]
            for i in range(n)]
    terms = {}
    for i in range(n):
        for j in range(n):
            e = tuple(int(k == i) + int(k == j) for k in range(n))
            terms[e] = terms.get(e, F(0)) + rows[i][j]
    assert SchoutenHessian(n, rows).quadratic_form() == HomogPoly(n, 2, terms)


def test_fix_trace_enforces_constraint():
    n = 7
    W = random_weyl(n, seed=17)
    Jh = identity_hessian(n)
    fixed = fix_trace(Jh.scale * Jh.ints, W)
    assert fixed.trace() == -W.norm_sq() / (12 * (n - 1))
    # off-diagonal part untouched
    assert fixed.scale * fixed.ints[0, 1] == Jh.scale * Jh.ints[0, 1]


@pytest.mark.parametrize("scale", [1, F(1, 2), F(-3, 7), 2**62])
def test_fix_trace_scales_each_distinct_entry_once(scale):
    # every entry is scale * M, plus one shift on the diagonal; the integers
    # leave int64 only where the entries do
    n = 6
    W = random_weyl(n, seed=4)
    raw = np.random.default_rng(2).integers(-3, 4, size=(n, n))
    for M in (raw + raw.T, [[F(int(v), 3) for v in row] for row in (raw + raw.T).tolist()]):
        rows = M.tolist() if isinstance(M, np.ndarray) else M
        J = fix_trace(M, W, scale)
        shift = (-W.norm_sq() / (12 * (n - 1)) - scale * sum(rows[i][i] for i in range(n))) / n
        want = [[F(scale * rows[i][j]) + (shift if i == j else 0) for j in range(n)]
                for i in range(n)]
        assert (J.scale * J.ints).tolist() == want
        assert J.ints.dtype == (object if scale == 2**62 else np.int64)


def test_schouten_validation():
    with pytest.raises(ValueError):
        SchoutenHessian(2, [[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="shape"):
        SchoutenHessian(3, [[0, 1], [1, 0]])


def test_weyl_json_round_trip():
    W = random_weyl(5, seed=3)
    W2 = WeylTensor.from_json(W.to_json())
    assert W2.n == W.n
    for idx in [(0, 1, 2, 3), (1, 2, 3, 4), (4, 3, 2, 1)]:
        assert component(W2, *idx) == component(W, *idx)
    assert W2.norm_sq() == W.norm_sq()


@pytest.mark.parametrize("bad", [0.1, 1.0, np.float64(0.5), True, np.bool_(True)])
def test_weyl_refuses_inexact_input(bad):
    # a float scale would be stored as its binary value, a float component
    # truncated, and a bool read as 1
    with pytest.raises(ValueError):
        WeylTensor(4, np.zeros((4,) * 4, dtype=np.int64), bad)
    with pytest.raises(ValueError):
        random_weyl(4, 1).rescale(bad)
    with pytest.raises(ValueError, match="integer components"):
        WeylTensor(4, np.full((4,) * 4, bad))


def test_schouten_json_round_trip():
    n = 5
    W = random_weyl(n, seed=3)
    J = random_schouten_hessian(n, 4, W)
    back = SchoutenHessian.from_json(J.to_json())
    assert (back.ints.tolist(), back.scale) == (J.ints.tolist(), J.scale)


@pytest.mark.parametrize("n", [5.9, 5.0, "5", True, -5, 0])
def test_json_dimension_must_be_a_json_integer(n):
    W = random_weyl(5, seed=3)
    for load, obj in ((WeylTensor.from_json, W.to_json()),
                      (SchoutenHessian.from_json, random_schouten_hessian(5, 4, W).to_json())):
        with pytest.raises(ValueError, match="integer >= 1"):
            load({**obj, "n": n})


def test_rejects_oversized_rational_components():
    # silent int64 wraparound must be impossible
    W = random_weyl(5, seed=1)
    legacy = {"n": 5, "W": legacy_table(W.scale, W.ints)}
    legacy["W"][0][1][2][3] = "123456789012345678901/2"
    compact = W.to_json()
    compact["W"]["ints"][3] = 123456789012345678901
    for obj in (legacy, compact):
        with pytest.raises(ValueError, match="too large"):
            WeylTensor.from_json(obj)


@pytest.mark.parametrize("n,seed,factor", [(4, 1, F(1)), (5, 3, F(-7, 12)), (9, 2, F(3, 1000))])
def test_weyl_json_matches_component_oracle(n, seed, factor):
    """W is written as the upper triangle of W[(i<k),(j<l)], row by row, in
    canonical integers over one scale; it reads back, as does the legacy
    n^4 table, to every component and to the same JSON."""
    W = random_weyl(n, seed).rescale(factor)
    pairs = [(i, k) for i in range(n) for k in range(i + 1, n)]
    want = [component(W, *p, *q) for a, p in enumerate(pairs) for q in pairs[a:]]
    obj = W.to_json()
    assert obj["n"] == n and set(obj["W"]) == {"scale", "ints"}
    ints, scale = obj["W"]["ints"], Fraction(obj["W"]["scale"])
    assert [scale * v for v in ints] == want
    assert next(v for v in ints if v) > 0 and math.gcd(*ints) == 1
    R = range(n)
    for doc in (obj, {"n": n, "W": legacy_table(W.scale, W.ints)}):
        W2 = WeylTensor.from_json(doc)
        assert all(component(W2, i, k, j, l) == component(W, i, k, j, l)
                   for i in R for k in R for j in R for l in R)
        assert W2.to_json() == obj


def _sum_power(n, d):
    """(x_1 + ... + x_n)^d from its multinomial coefficients."""
    terms = {}
    for idx in itertools.combinations_with_replacement(range(n), d):
        e = tuple(idx.count(i) for i in range(n))
        terms[e] = math.factorial(d) // math.prod(math.factorial(v) for v in e)
    return HomogPoly(n, d, terms)


@pytest.mark.parametrize("n", [3, 5, 18])
def test_int64_sums_exact_at_the_entry_bound(n):
    """At the entry bound every int64 sum is exact; one past it is refused.

    With all entries equal to B, |W|^2 and the cross contraction are n^4 B^2,
    the quartic form is n^2 B^2 (x_1 + ... + x_n)^4 and the gradient square
    4 n^3 B^2 (x_1 + ... + x_n)^2: closed forms in Python integers.
    """
    B = int_bound(n)
    W = WeylTensor(n, np.full((n,) * 4, B, dtype=np.int64))
    assert W.norm_sq() == n**4 * B**2
    assert W.cross_contraction() == n**4 * B**2
    assert W.quartic_form() == _sum_power(n, 4).scale(n * n * B * B)
    assert W.gradient_square_form() == _sum_power(n, 2).scale(4 * n**3 * B * B)
    with pytest.raises(ValueError, match="too large"):
        WeylTensor(n, np.full((n,) * 4, B + 1, dtype=np.int64))


def test_n18_large_entries_refused():
    # |W|^2 of this tensor is 1.05e19, past int64: int64 sums would wrap
    assert int_bound(18) < 10**7
    with pytest.raises(ValueError, match="too large"):
        WeylTensor(18, np.full((18,) * 4, 10**7, dtype=np.int64))
    big = np.full((18,) * 4, "10000000/3", dtype=object)
    big[0, 0, 0, 0] = "9999999/3"  # coprime entries: the gcd cannot shrink them
    obj = {"n": 18, "W": big.tolist()}
    with pytest.raises(ValueError, match="too large"):
        WeylTensor.from_json(obj)


# 94906265^2 + 10885^2 + 71^2 + 50^2 = 2^53 - 1
_BELOW = [94906265, 10885, 71, 50]


@pytest.mark.parametrize("row,norm", [
    (_BELOW, 2**53 - 1),          # float64 path: every partial sum below 2^53
    ([2**26, 2**26, 0, 0], 2**53),  # int64 fallback
    ([2**26, 2**26, 1, 0], 2**53 + 1),
])
def test_gram_exact_on_both_sides_of_the_certificate(row, norm):
    assert sum(v * v for v in row) == norm
    r = np.array(row, dtype=np.int64)
    A = np.stack([r, -r[::-1], np.roll(r, 1), r, r // 3])
    G = _gram(A)
    assert G.dtype == np.int64
    assert (G.astype(object) == A.astype(object) @ A.T.astype(object)).all()


def test_gram_fallback_is_needed_past_the_certificate():
    # 2^52 + 2^52 + 1 rounds to 2^53 in float64 in any summation order
    A = np.array([[2**26, 2**26, 1]], dtype=np.int64)
    F = A.astype(np.float64)
    assert int((F @ F.T)[0, 0]) == 2**53
    assert int(_gram(A)[0, 0]) == 2**53 + 1


@pytest.mark.parametrize("n", range(4, 25))
def test_weyl_gram_forms_match_int64_products(n):
    """The quartic and gradient-square forms equal the same forms built
    from the plain int64 Gram products."""
    W = random_weyl(n, seed=n)
    X = W.ints.transpose(0, 2, 1, 3).reshape(n * n, -1)
    q = HomogPoly.from_vector(n, 4, _symmetric_vector((X @ X.T).reshape((n,) * 4)), W.scale**2)
    V = W.ints + np.transpose(W.ints, (0, 3, 2, 1))
    M = np.einsum("ijkl,ajkl->ia", V, V)
    g = HomogPoly.from_vector(n, 2, _symmetric_vector(M), W.scale**2)
    assert W.quartic_form() == q
    assert W.gradient_square_form() == g


def einsum_weyl(n: int, seed: int) -> WeylTensor:
    """``random_weyl`` as it was first written: the trace removal as six n^4
    einsum outer products with the metric."""
    if n <= 3:
        return WeylTensor(n, np.zeros((n, n, n, n), dtype=np.int64))
    rng = np.random.Generator(np.random.Philox(seed))
    R = rng.integers(-9, 10, size=(n, n, n, n)).astype(np.int64)
    R = R - np.transpose(R, (1, 0, 2, 3))
    R = R - np.transpose(R, (0, 1, 3, 2))
    R = R + np.transpose(R, (2, 3, 0, 1))
    cyc = R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))
    R = 3 * R - cyc
    ric = np.einsum("ikil->kl", R)
    scal = int(np.trace(ric))
    delta = np.eye(n, dtype=np.int64)
    kn = (
        np.einsum("ij,kl->ikjl", ric, delta)
        + np.einsum("kl,ij->ikjl", ric, delta)
        - np.einsum("il,kj->ikjl", ric, delta)
        - np.einsum("kj,il->ikjl", ric, delta)
    )
    gg = np.einsum("ij,kl->ikjl", delta, delta) - np.einsum("il,kj->ikjl", delta, delta)
    W = (n - 1) * (n - 2) * R - (n - 1) * kn + scal * gg
    g = int(np.gcd.reduce(np.abs(W.reshape(-1))))
    den = 24 * (n - 1) * (n - 2)
    if g > 1:
        W = W // g
    else:
        g = 1
    return WeylTensor(n, W, Fraction(g, den))


@pytest.mark.parametrize("n", [*range(2, 17), 40])
def test_random_weyl_matches_einsum_construction(n):
    """The trace removal on the coinciding-index slices gives the integers
    and scale of the einsum outer products, so every seed keeps its jet."""
    for seed in (1, 7) if n == 40 else (0, 1, 2, 7):
        W, old = random_weyl(n, seed), einsum_weyl(n, seed)
        assert W.ints.dtype == old.ints.dtype == np.int64
        assert np.array_equal(W.ints, old.ints) and W.scale == old.scale


@pytest.mark.parametrize("n", [16, 32, 40])
def test_symmetric_ranks_match_sorted_lookup(n):
    """The ranks from small-dtype indices and column-wise lookups equal
    np.sort over intp indices and one (rows x 4) gather of the step table."""
    idx = np.sort(np.indices((n,) * 4).reshape(4, -1).T, axis=1)
    steps = monomial_table(n, 4)._steps
    ranks = _symmetric_ranks(n, 4)
    assert ranks.dtype == np.intp
    assert np.array_equal(ranks, steps[np.arange(4), idx].sum(axis=-1))
