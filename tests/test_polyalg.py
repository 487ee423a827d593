"""Exact identities for the polynomial algebra and the radial operators."""

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcurv import polyalg
from qcurv.polyalg import (
    HarmonicBlock,
    HomogPoly,
    LogRadialExpansion,
    UnresolvableBlockError,
    apply_A,
    apply_AA,
    eigen_AA,
    harmonic_decompose,
    laplacian,
    monomial_table,
    reassemble,
    solve_AA,
    solve_residual,
    split_identities,
    _as_fraction,
)

F = Fraction


def ints(p: HomogPoly) -> dict[tuple[int, ...], int]:
    """The primitive integers of p, keyed by exponent."""
    nz = np.flatnonzero(p._v)
    exps = monomial_table(p.n, p.degree).exps[nz].tolist()
    return dict(zip(map(tuple, exps), p._v[nz].tolist()))


def eigen_A(n: int, m: int, k: int, alpha) -> Fraction:
    """Scalar by which A_alpha acts on the block r^{2k} H_{m-2k}."""
    alpha = _as_fraction(alpha)
    return (alpha + 2 * k) * (2 * m - 2 * k + alpha + n - 2)


def apply_B(alpha, e: LogRadialExpansion) -> LogRadialExpansion:
    """Apply B_alpha: B_a(phi log^k r) = B_a phi log^k r + 2k phi log^{k-1} r."""
    alpha = _as_fraction(alpha)
    out = LogRadialExpansion(e.n)
    for (i, k), poly in e.terms.items():
        out += LogRadialExpansion(e.n, {(i, k): poly.scale(2 * i + 2 * alpha + e.n - 2)})
        if k >= 1:
            out += LogRadialExpansion(e.n, {(i, k - 1): poly.scale(2 * k)})
    return out


def expansion_from_json(obj: dict) -> LogRadialExpansion:
    """The inverse of ``LogRadialExpansion.to_json``; a Green's expansion's
    "radial_exp" is the prefactor r^{4-n}, which the bare shell map does not
    carry."""
    terms = {}
    for t in obj["terms"]:
        p = t["poly"]
        terms[(t["deg"], t["logpow"])] = HomogPoly.from_vector(p["n"], p["m"], p["ints"], p["scale"])
    return LogRadialExpansion(int(obj["n"]), terms)


def poly_from_coeffs(n, entries):
    """entries: list of (exponent tuple, coeff)."""
    terms = {}
    for e, c in entries:
        terms[e] = terms.get(e, F(0)) + F(c)
    m = sum(next(iter(terms))) if terms else 0
    return HomogPoly(n, m, terms)


# ---------------------------------------------------------------- laplacian


def test_laplacian_of_x1_squared_is_2():
    for n in (2, 5, 9):
        p = HomogPoly.monomial(n, [2] + [0] * (n - 1))
        assert laplacian(p) == HomogPoly.constant(n, 2)


def test_laplacian_of_r2_is_2n():
    for n in (3, 6, 8):
        assert laplacian(HomogPoly.r_squared(n)) == HomogPoly.constant(n, 2 * n)


def test_laplacian_of_x1x2_is_zero():
    p = HomogPoly.monomial(4, [1, 1, 0, 0])
    assert laplacian(p).is_zero()


# ---------------------------------------------------- harmonic decomposition


def test_decompose_already_harmonic():
    p = HomogPoly.monomial(4, [1, 1, 0, 0])
    blocks = harmonic_decompose(p)
    assert len(blocks) == 1
    assert blocks[0].k == 0 and blocks[0].h == p


def test_decompose_r2():
    n = 5
    blocks = harmonic_decompose(HomogPoly.r_squared(n))
    assert len(blocks) == 1
    assert blocks[0].k == 1
    assert blocks[0].h == HomogPoly.constant(n, 1)


def test_decompose_x1_squared():
    # x1^2 = (x1^2 - r^2/n) + r^2 * (1/n)
    n = 5
    p = HomogPoly.monomial(n, [2, 0, 0, 0, 0])
    blocks = {b.k: b.h for b in harmonic_decompose(p)}
    assert set(blocks) == {0, 1}
    assert blocks[1] == HomogPoly.constant(n, F(1, n))
    expected_h0 = p - HomogPoly.r_squared(n).scale(F(1, n))
    assert blocks[0] == expected_h0
    assert laplacian(blocks[0]).is_zero()


@st.composite
def random_homog(draw, n=st.integers(2, 8), m=st.integers(0, 8)):
    n, m = draw(n), draw(m)
    nterms = draw(st.integers(min_value=1, max_value=6))
    terms = []
    for _ in range(nterms):
        cuts = sorted(draw(st.lists(st.integers(0, m), min_size=n - 1, max_size=n - 1)))
        e = []
        prev = 0
        for c in cuts:
            e.append(c - prev)
            prev = c
        e.append(m - prev)
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 9))
        terms.append((tuple(e), F(num, den)))
    return poly_from_coeffs(n, terms) if any(c for _, c in terms) else HomogPoly.zero(n, m)


@settings(max_examples=40, deadline=None)
@given(random_homog())
def test_decompose_reassembles_exactly(p):
    blocks = harmonic_decompose(p)
    assert reassemble(p.n, p.degree, blocks) == p
    for b in blocks:
        assert laplacian(b.h).is_zero()


def harmonic_projection(p: HomogPoly) -> HomogPoly:
    """The harmonic part of p by the classical formula sum_j c_j r^{2j} Lap^j p,
    with c_0 = 1 and c_{j+1} = -c_j / (2(j+1)(n+2m-2j-4))."""
    n, m = p.n, p.degree
    top, c, lap = p, F(1), p
    for j in range(1, m // 2 + 1):
        c = -c / (2 * j * (n + 2 * m - 2 * j - 2))
        lap = laplacian(lap)
        top = top + lap.mul_r2k(j).scale(c)
    return top


@settings(max_examples=60, deadline=None)
@given(random_homog(st.integers(1, 8), st.integers(0, 10)))
def test_top_block_is_the_harmonic_projection(p):
    blocks = harmonic_decompose(p)
    ks = [b.k for b in blocks]
    assert ks == sorted(set(ks))
    assert not any(b.h.is_zero() for b in blocks)
    top = blocks[0].h if ks[:1] == [0] else HomogPoly.zero(p.n, p.degree)
    assert top == harmonic_projection(p)


# ------------------------------------------------------------- A_a and B_a


def test_apply_A_eigenvalue_on_blocks():
    # A_a on r^{2k} h equals (a + 2k)(2m - 2k + a + n - 2) times the input
    n = 6
    h = HomogPoly.monomial(n, [1, 1, 0, 0, 0, 0])  # harmonic, degree 2
    for k in (0, 1, 2):
        m = 2 + 2 * k
        p = h.mul_r2k(k)
        for alpha in (F(0), F(4 - n), F(3, 2)):
            got = apply_A(alpha, LogRadialExpansion.from_poly(p))
            want = LogRadialExpansion.from_poly(p.scale(eigen_A(n, m, k, alpha)))
            assert got == want


@settings(max_examples=30, deadline=None)
@given(random_homog(), st.integers(-8, 8), st.integers(1, 5))
def test_eigen_consistency_on_all_blocks(p, num, den):
    # every harmonic block of a random polynomial is an eigenvector of A_a
    alpha = F(num, den)
    n, m = p.n, p.degree
    for block in harmonic_decompose(p):
        lifted = block.h.mul_r2k(block.k)
        got = apply_A(alpha, LogRadialExpansion.from_poly(lifted))
        want = LogRadialExpansion.from_poly(
            lifted.scale(eigen_A(n, m, block.k, alpha))
        )
        assert got == want


@st.composite
def random_expansion(draw, n):
    keys = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2)), max_size=4, unique=True))
    terms = {(i, k): draw(random_homog(st.just(n), st.just(i))) for i, k in keys}
    return LogRadialExpansion(n, terms)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(random_expansion(n), random_expansion(n))))
def test_expansion_sum_is_a_value(pair):
    # + builds a new expansion shell by shell and edits neither operand
    a, b = pair
    before = (dict(a.terms), dict(b.terms))
    total = a + b
    assert total == b + a
    assert (dict(a.terms), dict(b.terms)) == before
    for key in a.terms.keys() | b.terms.keys():
        assert total.get(*key) == a.get(*key) + b.get(*key)
    assert all(not p.is_zero() for p in total.terms.values())
    negated = LogRadialExpansion(a.n, {key: p.scale(-1) for key, p in a.terms.items()})
    assert (a + negated).is_zero() and (negated + a).is_zero()
    assert a + LogRadialExpansion(a.n) == a


def test_apply_A_zero_alpha_on_constant():
    e = LogRadialExpansion.from_poly(HomogPoly.constant(5, 1))
    assert apply_A(0, e).is_zero()


def test_apply_A_4_minus_n_on_constant():
    # alpha (alpha + n - 2) with alpha = 4 - n and m = 0 gives 2(4 - n)
    for n in (5, 8, 11):
        e = LogRadialExpansion.from_poly(HomogPoly.constant(n, 1))
        got = apply_A(4 - n, e)
        want = LogRadialExpansion.from_poly(HomogPoly.constant(n, 2 * (4 - n)))
        assert got == want


def test_apply_B_scalar_on_degree_m():
    n = 7
    p = HomogPoly.monomial(n, [4, 0, 0, 0, 0, 0, 0])
    got = apply_B(4 - n, LogRadialExpansion.from_poly(p))
    assert got == LogRadialExpansion.from_poly(p.scale(14 - n))


def test_apply_B_kills_constant_at_half_shift():
    n = 9
    alpha = F(2 - n, 2)
    e = LogRadialExpansion.from_poly(HomogPoly.constant(n, 3))
    assert apply_B(alpha, e).is_zero()


@settings(max_examples=25, deadline=None)
@given(random_homog(), st.integers(-6, 6), st.integers(1, 4), st.integers(0, 3))
def test_log_cascade_for_A(p, num, den, k):
    # A_a(p log^k r) = A_a p log^k + k B_a p log^{k-1} + k(k-1) p log^{k-2}
    alpha = F(num, den)
    n = p.n
    e = LogRadialExpansion(n, {(p.degree, k): p})
    got = apply_A(alpha, e)
    want = {}
    if not p.is_zero():
        want[(p.degree, k)] = _apply_a(alpha, p)
        if k >= 1:
            want[(p.degree, k - 1)] = _apply_b(alpha, p).scale(k)
        if k >= 2:
            want[(p.degree, k - 2)] = p.scale(k * (k - 1))
    assert got == LogRadialExpansion(n, want)


def _apply_a(alpha, p):
    out = apply_A(alpha, LogRadialExpansion.from_poly(p))
    return out.get(p.degree, 0)


def _apply_b(alpha, p):
    out = apply_B(alpha, LogRadialExpansion.from_poly(p))
    return out.get(p.degree, 0)


@settings(max_examples=25, deadline=None)
@given(random_homog(), st.integers(0, 3))
def test_composite_AA_on_logs(p, k):
    # A_a A_b (p log^k r) expands per the four-term cascade; compare the
    # nested operator application against the directly assembled sum.
    n = p.n
    a, b = F(2 - n), F(4 - n)
    e = LogRadialExpansion(n, {(p.degree, k): p})
    got = apply_A(a, apply_A(b, e))
    want = {}
    if not p.is_zero():
        want[(p.degree, k)] = _apply_a(a, _apply_a(b, p))
        if k >= 1:
            mixed = _apply_a(a, _apply_b(b, p)) + _apply_b(a, _apply_a(b, p))
            want[(p.degree, k - 1)] = mixed.scale(k)
        if k >= 2:
            second = _apply_a(a, p) + _apply_a(b, p) + _apply_b(a, _apply_b(b, p))
            want[(p.degree, k - 2)] = second.scale(k * (k - 1))
        if k >= 3:
            third = _apply_b(a, p) + _apply_b(b, p)
            want[(p.degree, k - 3)] = third.scale(k * (k - 1) * (k - 2))
        if k >= 4:
            want[(p.degree, k - 4)] = p.scale(k * (k - 1) * (k - 2) * (k - 3))
    assert got == LogRadialExpansion(n, want)


# ------------------------------------------------------------------ eigen_AA


def test_eigen_AA_values():
    assert eigen_AA(5, 4, 0) == 240  # 8 * 10 * (-3) * (-1)
    assert eigen_AA(8, 4, 2) == 0  # kernel block forcing the n=8 log term
    for n in (5, 8, 12):
        assert eigen_AA(n, 0, 0) == 0


def _eigen_mixed(n, m, k):
    # (A_{2-n} B_{4-n} + B_{2-n} A_{4-n}) on r^{2k} H_{m-2k}
    b2, b4 = 2 * m + 2 * (2 - n) + n - 2, 2 * m + 2 * (4 - n) + n - 2
    return b4 * eigen_A(n, m, k, 2 - n) + b2 * eigen_A(n, m, k, 4 - n)


def _eigen_log2(n, m, k):
    # 2 (A_{2-n} + A_{4-n} + B_{2-n} B_{4-n})
    b2, b4 = 2 * m + 2 * (2 - n) + n - 2, 2 * m + 2 * (4 - n) + n - 2
    return 2 * (eigen_A(n, m, k, 2 - n) + eigen_A(n, m, k, 4 - n) + b2 * b4)


def _eigen_log3(n, m, k):
    # 6 (B_{2-n} + B_{4-n})
    b2, b4 = 2 * m + 2 * (2 - n) + n - 2, 2 * m + 2 * (4 - n) + n - 2
    return 6 * (b2 + b4)


def test_escalation_scalars_equal_the_hand_derived_formulas():
    # the derivatives of one quartic in eps against the cascade's operators
    for n in range(5, 41):
        for m in range(16):
            for k in range(m // 2 + 1):
                want = [eigen_AA(n, m, k), _eigen_mixed(n, m, k), _eigen_log2(n, m, k),
                        _eigen_log3(n, m, k)]
                assert polyalg._escalation_scalars(n, m, k) == want, (n, m, k)


# ------------------------------------------------------------------ solve_AA


def test_solve_invertible_block():
    n = 5
    c = F(7, 3)
    rhs = HomogPoly.monomial(n, [1, 1, 1, 1, 0], c)
    psi = solve_AA(n, rhs)
    assert psi.max_log_power() == 0
    assert psi.get(4, 0) == rhs.scale(F(-1, 240))


def test_solve_zero_rhs():
    psi = solve_AA(6, HomogPoly.zero(6, 3))
    assert psi.is_zero()


def test_solve_n8_kernel_block_gives_log():
    # r^4 block at n=8: mixed operator eigenvalue -2(n-2)(n-4) = -48,
    # so the solution is (c/48) r^4 log r
    n = 8
    c = F(5, 2)
    rhs = HomogPoly.r_squared(n).mul_r2k(1).scale(c)
    psi = solve_AA(n, rhs)
    assert psi.max_log_power() == 1
    assert psi.get(4, 1) == rhs.scale(F(1, 48))
    # applying the operator reproduces -rhs, including log bookkeeping
    residual = apply_AA(n, psi) + LogRadialExpansion.from_poly(rhs)
    assert residual.is_zero()


@settings(max_examples=30, deadline=None)
@given(random_homog())
def test_solver_inverts_exactly(p):
    psi = solve_AA(p.n, p)
    residual = apply_AA(p.n, psi) + LogRadialExpansion.from_poly(p)
    assert residual.is_zero()


def test_solver_log2_escalation_block():
    # at degree n-2 the block r^{n-2} H_0 has eigen_AA = 0 and a nonzero
    # mixed eigenvalue 2n(n-2); degree n-4 block r^{n-4} H_0 uses -2(n-2)(n-4)
    n = 8
    rhs = HomogPoly.r_squared(n).mul_r2k(2)  # r^6, degree n-2
    psi = solve_AA(n, rhs)
    residual = apply_AA(n, psi) + LogRadialExpansion.from_poly(rhs)
    assert residual.is_zero()


# -------------------------------------------------------------- serialization


def test_poly_json_round_trip():
    p = poly_from_coeffs(3, [((2, 1, 0), F(3, 4)), ((0, 1, 2), F(-5, 1))])
    obj = p.to_json()
    # z^3, y z^2, y^2 z, y^3, x z^2, x y z, x y^2, x^2 z, x^2 y, x^3: the
    # first nonzero monomial, y z^2, takes the positive integer
    assert obj == {"n": 3, "m": 3, "scale": "-1/4", "ints": [0, 20, 0, 0, 0, 0, 0, 0, -3, 0]}
    assert HomogPoly.from_vector(3, 3, obj["ints"], obj["scale"]) == p


def test_expansion_json_round_trip():
    n = 5
    e = LogRadialExpansion(
        n,
        {
            (0, 0): HomogPoly.constant(n, 1),
            (4, 1): HomogPoly.r_squared(n).mul_r2k(1).scale(F(-1, 48)),
        },
    )
    assert expansion_from_json(e.to_json()) == e


def test_poly_validation_errors():
    with pytest.raises(ValueError):
        HomogPoly(3, 2, {(1, 0, 0): F(1)})  # degree mismatch
    with pytest.raises(ValueError):
        HomogPoly(0, 1)
    for bad in (0.5, True, "1/0"):  # not exact input
        with pytest.raises(ValueError, match="exact rational|zero denominator"):
            HomogPoly(2, 1, {(1, 0): bad})
    with pytest.raises(ValueError, match="same exponent"):
        HomogPoly(2, 1, {(1, 0): 1, ("1", 0): 2})


@pytest.mark.parametrize("values,ints,content", [
    ([[F(1, 2), "3/4"], [-1, 0]], [[2, 3], [-4, 0]], F(1, 4)),
    (np.array([[6, -4], [0, 2]]), [[3, -2], [0, 1]], F(2)),
    ([0, "0/5"], [0, 0], F(0)),
    ([], [], F(0)),
    (["-7/3", 14], [1, -6], F(-7, 3)),
    ([2**70, 3 * 2**70], [1, 3], F(2**70)),
    ([2**70 + 1, 1], [2**70 + 1, 1], F(1)),
])
def test_exact_ints_canonical_form(values, ints, content):
    got, c = polyalg.exact_ints(values)
    assert got.tolist() == ints and c == content
    assert got.dtype == (object if max(map(abs, got.ravel().tolist()), default=0) >= 2**63
                         else np.int64)
    neg, c2 = polyalg.exact_ints(values, F(-1, 3))
    assert np.array_equal(neg, got) and c2 == -c / 3


@pytest.mark.parametrize("bad", [1.0, 0.5, True, np.bool_(False), "1/0", None])
def test_exact_ints_refuses_inexact_input(bad):
    with pytest.raises(ValueError):
        polyalg.exact_ints([[1, 2], [bad, 3]])


# ------------------------------------- integer core against a Fraction model
#
# The reference keeps one Fraction per monomial, the representation the
# integer-plus-content core replaced; every operation of the core must
# agree with it coefficient for coefficient.


def _ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, F(0)) + c
    return _ref_clean(out)


def _ref_scale(a, f):
    return _ref_clean({e: c * f for e, c in a.items()})


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, F(0)) + c1 * c2
    return _ref_clean(out)


def _ref_mul_r2k(a, n, k):
    r2 = {tuple(2 if j == i else 0 for j in range(n)): F(1) for i in range(n)}
    for _ in range(k):
        a = _ref_mul(a, r2)
    return a


def _ref_laplacian(a):
    out = {}
    for e, c in a.items():
        for i, ei in enumerate(e):
            if ei >= 2:
                f = e[:i] + (ei - 2,) + e[i + 1 :]
                out[f] = out.get(f, F(0)) + c * ei * (ei - 1)
    return _ref_clean(out)


def _ref_json(n, m, a):
    """json.dumps of the JSON form of the Fraction term map ``a``: the
    content is the gcd of the coefficients' numerators over the lcm of
    their denominators, signed so the lexicographically first integer is
    positive, and ``ints`` holds coefficient / content for every degree-m
    exponent in lexicographic order, zeros included."""
    exps = sorted(a)
    content = F(0)
    if exps:
        den = math.lcm(*(a[e].denominator for e in exps))
        content = F(math.gcd(*(a[e].numerator * (den // a[e].denominator) for e in exps)), den)
        content *= 1 if a[exps[0]] > 0 else -1
    ints = [int(a[e] / content) if e in a else 0 for e in sorted(_all_exponents(n, m))]
    scale = f"{content.numerator}/{content.denominator}"
    return json.dumps({"n": n, "m": m, "scale": scale, "ints": ints})


def _exponents(draw, n, m):
    cuts = sorted(draw(st.lists(st.integers(0, m), min_size=n - 1, max_size=n - 1)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [m]))


_rationals = st.builds(F, st.integers(-60, 60), st.integers(1, 36))


@st.composite
def ref_terms(draw, n, m):
    """A Fraction term map of degree m in n variables, zeros dropped."""
    size = draw(st.integers(0, 7))
    return _ref_clean({_exponents(draw, n, m): draw(_rationals) for _ in range(size)})


@st.composite
def same_shape_pair(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 8))
    a = draw(ref_terms(n, m))
    b = draw(ref_terms(n, m))
    if a and draw(st.booleans()):
        # share monomials with a, so sums cancel coefficients or whole polynomials
        f = draw(_rationals)
        b = _ref_add(b, _ref_scale(a, f if draw(st.booleans()) else F(-1)))
    return n, m, a, b


def _assert_matches(p, n, m, ref):
    assert (p.n, p.degree) == (n, m)
    assert dict(p.terms) == ref
    assert p == HomogPoly(n, m, ref)


@settings(max_examples=150, deadline=None)
@given(same_shape_pair(), _rationals, st.sampled_from([F(0), F(-1), F(-7, 3), F(1)]))
def test_core_ring_ops_match_fraction_reference(pair, f, g):
    n, m, a, b = pair
    p, q = HomogPoly(n, m, a), HomogPoly(n, m, b)
    _assert_matches(p, n, m, a)
    _assert_matches(p + q, n, m, _ref_add(a, b))
    _assert_matches(p - q, n, m, _ref_add(a, _ref_scale(b, F(-1))))
    _assert_matches(p.scale(-1), n, m, _ref_scale(a, F(-1)))
    for factor in (f, g):
        _assert_matches(p.scale(factor), n, m, _ref_scale(a, factor))
    assert json.dumps(p.to_json()) == _ref_json(n, m, a)
    assert json.dumps((p + q).to_json()) == _ref_json(n, m, _ref_add(a, b))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(0, 8), st.data())
def test_core_r2k_and_laplacian_match_fraction_reference(n, m, data):
    a = data.draw(ref_terms(n, m))
    p = HomogPoly(n, m, a)
    for k in (0, 1, 2):
        _assert_matches(p.mul_r2k(k), n, m + 2 * k, _ref_mul_r2k(a, n, k))
    if m >= 2:
        _assert_matches(laplacian(p), n, m - 2, _ref_laplacian(a))
        assert json.dumps(laplacian(p).to_json()) == _ref_json(n, m - 2, _ref_laplacian(a))


@settings(max_examples=100, deadline=None)
@given(same_shape_pair(), _rationals.filter(bool))
def test_core_form_is_canonical(pair, f):
    n, m, a, b = pair
    p = HomogPoly(n, m, a)
    back = p.scale(f).scale(1 / f)
    assert back == p
    assert p - p == HomogPoly.zero(n, m)
    # the same polynomial reached by two routes has one representation
    q = HomogPoly(n, m, b)
    assert (p + q) - q == p
    if ints(p):
        assert math.gcd(*ints(p).values()) == 1
        assert ints(p)[min(ints(p))] > 0


def test_mul_r2k_refuses_a_negative_power():
    p = HomogPoly.monomial(3, (1, 1, 0), 2)
    with pytest.raises(ValueError, match="k=-1"):
        p.mul_r2k(-1)
    assert p.mul_r2k(0) == p


def _fischer(p, q):
    """The Fischer product <p, q>_F, with <x^a, x^b>_F = a! when a = b and
    0 otherwise."""
    exps = monomial_table(p.n, p.degree).exps.tolist()
    weights = [math.prod(map(math.factorial, e)) for e in exps]
    return p.content * q.content * sum(
        int(a) * int(b) * w for a, b, w in zip(p._v.tolist(), q._v.tolist(), weights))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_r2_multiplication_is_the_fischer_adjoint_of_the_laplacian(n):
    rng = random.Random(n)

    def dense(d):
        return HomogPoly(n, d, {e: F(rng.randint(-50, 50), rng.randint(1, 9))
                                for e in _all_exponents(n, d)})

    for m in range(2, 7):
        p, q = dense(m - 2), dense(m)
        assert _fischer(p.mul_r2k(1), q) == _fischer(p, laplacian(q)), (n, m)


def _frozen_gather_mul_r2k(v, n, m, k):
    """r^{2k} times the integer vector v of degree m, as an earlier version
    computed it: every target monomial gathers the coefficients of the at
    most n monomials it divides by some x_i^2, through an index table that
    points at an appended zero where e_i < 2."""
    for _ in range(k):
        down, up = monomial_table(n, m), monomial_table(n, m + 2)
        shifted = up.exps[:, None, :] - 2 * np.eye(n, dtype=np.intp)
        divides = (shifted >= 0).all(axis=2)
        src = np.full((up.size, n), down.size, dtype=np.intp)
        src[divides] = down.rank(shifted[divides])
        if n * int(np.abs(v).max()) > 2**63 - 1:
            v = v.astype(object)
        v = np.append(v, 0)[src].sum(axis=1)
        m += 2
    return polyalg._narrow(v)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_mul_r2k_matches_the_frozen_gather(n):
    """Same integers and dtype as the gather it replaced, for source degrees
    0..6 and k = 0..3 while the target table has at most 20000 monomials
    (n = 16 to degree 5), on int64 vectors, on int64 entries near 2^62
    whose n-fold sums need Python ints, and on object vectors past int64."""
    rng = np.random.default_rng(n)
    for m, k in itertools.product(range(7), range(4)):
        if math.comb(n + m + 2 * k - 1, m + 2 * k) > 20000:
            continue
        size = monomial_table(n, m).size
        small = rng.integers(-1000, 1001, size)
        near = rng.integers(2**62 - 2**20, 2**62, size) * rng.choice([-1, 1], size)
        past = np.array([int(x) * 3 for x in near], dtype=object)
        for vec in (small, near, past):
            p = HomogPoly.from_vector(n, m, vec)
            got = p.mul_r2k(k)
            want = _frozen_gather_mul_r2k(p._v, n, m, k)
            assert got.degree == m + 2 * k and got.content == p.content
            assert got._v.dtype == want.dtype and np.array_equal(got._v, want), (m, k)


def test_terms_view_reads_fractions_from_ints():
    p = HomogPoly.r_squared(6).mul_r2k(2)
    assert len(p.terms) == len(ints(p)) == 56
    assert (0, 0, 0, 0, 0, 6) in p.terms
    assert p.terms[(0, 0, 0, 0, 0, 6)] == 1 and p.terms[(2, 2, 2, 0, 0, 0)] == 6


# ------------------------------------------ dense shapes and the int64 switch
#
# Curvature polynomials fill every monomial of their table, and integers
# past int64 switch the core to Python ints; the reference must agree in
# both places.


def _all_exponents(n, m):
    return [tuple(idx.count(i) for i in range(n))
            for idx in itertools.combinations_with_replacement(range(n), m)]


@pytest.mark.parametrize("n,m", [(1, 4), (3, 0), (5, 3), (10, 4), (16, 2), (16, 4)])
def test_monomial_table_is_lex_ordered_and_ranked(n, m):
    t = monomial_table(n, m)
    exps = [tuple(e) for e in t.exps.tolist()]
    assert exps == sorted(_all_exponents(n, m))
    assert (t.rank(t.exps) == np.arange(t.size)).all()


@pytest.mark.parametrize("n,m", [(1, 4), (2, 3), (5, 4), (10, 4), (16, 2), (16, 4)])
def test_dense_ops_match_fraction_reference(n, m):
    rng = random.Random(100 * n + m)

    def dense():
        return {e: F(rng.randint(1, 99) * rng.choice([1, -1]), rng.randint(1, 60))
                for e in _all_exponents(n, m)}

    a, b = dense(), dense()
    p, q = HomogPoly(n, m, a), HomogPoly(n, m, b)
    assert len(p.terms) == math.comb(n + m - 1, m)
    _assert_matches(p, n, m, a)
    _assert_matches(p + q, n, m, _ref_add(a, b))
    _assert_matches(p - q, n, m, _ref_add(a, _ref_scale(b, F(-1))))
    _assert_matches(p.scale(F(-7, 3)), n, m, _ref_scale(a, F(-7, 3)))
    _assert_matches(p.mul_r2k(1), n, m + 2, _ref_mul_r2k(a, n, 1))
    if m >= 2:
        _assert_matches(laplacian(p), n, m - 2, _ref_laplacian(a))
    assert json.dumps(p.to_json()) == _ref_json(n, m, a)
    assert reassemble(n, m, harmonic_decompose(p)) == p


def test_int64_switch_both_sides():
    """Entries near 2^62 fit int64, but their sums, Laplacians and r^2
    products do not; an object vector whose entries fit is stored as int64,
    and == and hash never depend on the dtype."""
    n, m = 3, 4
    exps = _all_exponents(n, m)
    a = {e: F(2**62 + 2 * i + 1) for i, e in enumerate(exps)}
    b = {e: F(2**62 + 2 * i + 2) for i, e in enumerate(exps)}
    p, q = HomogPoly(n, m, a), HomogPoly(n, m, b)
    assert p._v.dtype == q._v.dtype == np.int64
    for got, want_m, want in [
        (p + q, m, _ref_add(a, b)),
        (laplacian(p), m - 2, _ref_laplacian(a)),
        (p.mul_r2k(1), m + 2, _ref_mul_r2k(a, n, 1)),
    ]:
        assert got._v.dtype == object and max(map(abs, ints(got).values())) > 2**63 - 1
        _assert_matches(got, n, want_m, want)
    back = (p + q) - q
    assert back == p and back._v.dtype == np.int64
    assert (p + p)._v.dtype == np.int64 and p + p == p.scale(2)

    same = HomogPoly._make(n, m, p._v.astype(object), p.content)
    assert same == p
    assert HomogPoly.from_vector(n, m, p._v.astype(object))._v.dtype == np.int64
    low = np.zeros(len(exps), dtype=np.int64)
    low[[0, 1]] = [np.iinfo(np.int64).min, 3]  # |int64 min| itself passes int64
    first, second = map(tuple, monomial_table(n, m).exps[:2].tolist())
    want = {first: F(-(2**63)), second: F(3)}
    _assert_matches(HomogPoly.from_vector(n, m, low), n, m, want)
    _assert_matches(laplacian(HomogPoly.from_vector(n, m, low)), n, m - 2, _ref_laplacian(want))


_huge = st.integers(2**62 - 2**10, 2**62 + 2**10) | st.integers(2**63 - 2**10, 2**64)


@st.composite
def huge_terms(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 5))
    exps = _all_exponents(n, m)
    picks = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=len(exps), unique=True))
    den = st.sampled_from([1, 3, 2**61 + 1])
    sign = st.sampled_from([1, -1])
    return n, m, {e: F(draw(sign) * draw(_huge), draw(den)) for e in picks}


@settings(max_examples=60, deadline=None)
@given(huge_terms(), huge_terms())
def test_core_past_int64_matches_fraction_reference(t1, t2):
    n, m, a = t1
    b = {e: c for e, c in t2[2].items() if len(e) == n and sum(e) == m} if t2[:2] == (n, m) else {}
    p, q = HomogPoly(n, m, a), HomogPoly(n, m, b)
    _assert_matches(p, n, m, a)
    _assert_matches(p + q, n, m, _ref_add(a, b))
    _assert_matches(p - p.scale(F(1, 3)), n, m, _ref_add(a, _ref_scale(a, F(-1, 3))))
    _assert_matches(p.mul_r2k(2), n, m + 4, _ref_mul_r2k(a, n, 2))
    if m >= 2:
        _assert_matches(laplacian(p), n, m - 2, _ref_laplacian(a))
    assert json.dumps(p.to_json()) == _ref_json(n, m, a)
    blocks = harmonic_decompose(p)
    assert reassemble(n, m, blocks) == p
    assert all(laplacian(blk.h).is_zero() for blk in blocks)


def test_one_monomial_tables_keep_the_sign_in_the_content():
    for p in (HomogPoly.constant(3, -5), HomogPoly(1, 2, {(2,): F(-7, 2)}),
              laplacian(HomogPoly.r_squared(4).scale(-1))):
        assert list(ints(p).values()) == [1] and p.content < 0


def test_split_identities_fail_on_a_mutated_split():
    n = 5
    p = HomogPoly.r_squared(n).mul_r2k(1) + HomogPoly.monomial(n, [4, 0, 0, 0, 0], F(3, 7))
    blocks = harmonic_decompose(p)
    assert split_identities(p, blocks) == [("reassembles", True), ("blocks_harmonic", True)]
    scaled = [HarmonicBlock(b.k, b.h.scale(2) if b.k == 1 else b.h) for b in blocks]
    assert dict(split_identities(p, scaled)) == {"reassembles": False, "blocks_harmonic": True}
    assert dict(split_identities(p, [HarmonicBlock(0, p)])) == {"reassembles": True,
                                                                "blocks_harmonic": False}


@pytest.mark.parametrize("n", [5, 8])
def test_solve_residual_vanishes_at_the_solution_only(n):
    rhs = HomogPoly.r_squared(n).mul_r2k(1) + HomogPoly.monomial(n, [1, 1, 1, 1] + [0] * (n - 4))
    psi = solve_AA(n, rhs)
    assert solve_residual(n, psi, rhs).is_zero()
    assert not solve_residual(n, psi, rhs.scale(2)).is_zero()


_P63 = (2**63 - 1) // 7  # 2^63 - 1 = 7 * 73 * 127 * 337 * 92737 * 649657


@pytest.mark.parametrize("v,content,in_int64", [
    ([1, -7, 6, 5, 0, 2], F(_P63, 210), True),        # |p| max|v| = 2^63 - 1
    ([1, -7, 6, 5, 0, 2], F(-_P63, 210), True),
    ([1, -8, 3, 5, 7, 0], F(2**60, 945), False),      # |p| max|v| = 2^63
    ([1, -8, 3, 5, 7, 0], F(-(2**60), 945), False),
    ([3, 0, -2, 9, 4, 6], F(5, 2**63 - 1), True),     # q = 2^63 - 1
    ([3, 0, -2, 9, 4, 6], F(5, 2**63), False),        # q = 2^63
    ([1, 2**70, -3, 0, 5, 7], F(7, 30), False),       # an object vector
    ([1, 2**63, -(2**63) - 1, 0, 2**64 + 1, -2], F(-1, 3), False),
    ([2**63, -5, 0, 0, 1, -(2**80)], F(3), False),
    ([0, 0, 0, 0, 0, 0], F(0), True),                 # the zero polynomial
    ([2**63, -5, 0, 0, 1, 3], F(1, 3), False),        # numpy reads these two as float64,
    ([2**64 - 1, 0, 2, 0, 0, 1], F(-2, 7), False),    # which cannot hold 2^64 - 1,
    ([2**63 + i for i in range(6)], F(5), False),     # and this one as uint64
])
def test_to_json_int64_certificate_edges(v, content, in_int64):
    """The JSON form states the content and the canonical integers as
    written, and reads back through its text to the same polynomial, on
    both sides of the int64 edges: where an integer, or |p| max|v| or q
    for content p/q, passes 2^63 - 1."""
    p = HomogPoly.from_vector(3, 2, np.array(v, dtype=object), content)
    assert p.content == content and (p._v.dtype == np.int64) == (max(map(abs, v)) < 2**63)
    p_num, q = abs(content.numerator), content.denominator
    assert (p_num * max(map(abs, v)) < 2**63 and q < 2**63) == in_int64
    obj = json.loads(json.dumps(p.to_json()))
    assert obj == {"n": 3, "m": 2, "scale": f"{content.numerator}/{content.denominator}",
                   "ints": v}
    coeffs = zip(sorted(_all_exponents(3, 2)), obj["ints"])
    assert {e: F(obj["scale"]) * x for e, x in coeffs if x} == dict(p.terms)
    assert HomogPoly.from_vector(obj["n"], obj["m"], obj["ints"], obj["scale"]) == p


@pytest.mark.parametrize("bad", [[1, 2, 3], [[1, 0, 0], [0, 0, 0]], [1.5, 0, 0, 0, 0, 0],
                                 [2**63, 0.5, 0, 0, 0, 0], ["1", 0, 0, 0, 0, 0], np.zeros(6),
                                 json.loads("[true, 2, 3, 0, 0, 0]"), [2**64, False, 0, 0, 0, 0],
                                 np.array([1, np.bool_(True), 0, 0, 0, 0], dtype=object)])
def test_from_vector_refuses_what_is_not_one_integer_per_monomial(bad):
    with pytest.raises(ValueError, match="one integer per monomial"):
        HomogPoly.from_vector(3, 2, bad)
