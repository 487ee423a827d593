"""Symbolic Green's-function expansion checks.

The n=9 closed form frozen below (the 1/280, 2/117, ... coefficients) is
the independently coded specialization used to pin the general formula.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from qcurv.cli import main
from qcurv.polyalg import HomogPoly, LogRadialExpansion, apply_AA, solve_AA
from qcurv.parametrix import (
    CurvatureJet,
    GreenExpansion,
    flat_expansion,
    green_leading,
    latex_lines,
    n8_log_coefficient,
    phi4,
    psi4_closed_form,
    psi4_solve,
    random_jet,
    shell_identities,
)
from qcurv.tensor import SchoutenHessian, WeylTensor, fix_trace, random_weyl
from test_polyalg import expansion_from_json
from test_tensor import legacy_jet

F = Fraction


def psi4_n9_literal(jet):
    """Literal n=9 coefficients: 1/280, 2/9, 2/117, 1/429, 1/144, 4/117,
    103/5616, 805/1368576."""
    assert jet.n == 9
    q = jet.W.quartic_form()
    g = jet.W.gradient_square_form()
    w2 = jet.W.norm_sq()
    jq = jet.Jh.quadratic_form()
    r2 = HomogPoly.r_squared(9)
    r4 = r2.mul_r2k(1)
    first = (
        q.scale(F(2, 9)) - g.mul_r2k(1).scale(F(2, 117)) + r4.scale(w2 * F(1, 429))
    ).scale(F(1, 280))
    second = (
        g.scale(F(4, 117)) - jq.scale(6) - r2.scale(w2 * F(103, 5616))
    ).mul_r2k(1).scale(F(1, 144))
    third = r4.scale(w2 * F(805, 1368576))
    return first + second + third


# ------------------------------------------------------------------- jets


def test_jet_trace_validation():
    n = 6
    W = random_weyl(n, seed=1)
    with pytest.raises(ValueError):
        CurvatureJet(n, W, SchoutenHessian.zero(n))  # trace constraint violated


def test_flat_jet():
    jet = CurvatureJet.flat(7)
    assert jet.is_flat()


def test_jet_json_round_trip():
    """A jet reads back from its JSON, and from the legacy "p/q" tables, to
    the same JSON: the compact form is canonical."""
    for n in range(4, 17):
        for seed in range(1, 6):
            jet = random_jet(n, seed)
            doc = jet.to_json()
            for src in (json.loads(json.dumps(doc)), legacy_jet(jet)):
                jet2 = CurvatureJet.from_json(src)
                assert jet2.to_json() == doc, (n, seed)
                assert jet2.W.norm_sq() == jet.W.norm_sq()
                assert (jet2.Jh.ints.tolist(), jet2.Jh.scale) == (jet.Jh.ints.tolist(), jet.Jh.scale)


def test_normalized_jet_unit_weyl():
    jet = random_jet(10, seed=5, normalize=True)
    assert abs(float(jet.W.norm_sq()) - 1.0) < 1e-5
    assert jet.Jh.trace() == -jet.W.norm_sq() / (12 * 9)


# ------------------------------------------------------------------- phi4


def test_phi4_flat_is_zero():
    assert phi4(CurvatureJet.flat(9)).is_zero()


def test_phi4_n6_ignores_traceless_schouten():
    # the J-term coefficient 2(n-4)(n-6) vanishes at n=6
    n = 6
    W = random_weyl(n, seed=2)
    J1 = fix_trace(np.zeros((n, n), dtype=np.int64), W)
    raw = [[F(i * j + 1) for j in range(n)] for i in range(n)]
    sym = [[(raw[i][j] + raw[j][i]) / 2 for j in range(n)] for i in range(n)]
    J2 = fix_trace(sym, W)
    assert phi4(CurvatureJet(n, W, J1)) == phi4(CurvatureJet(n, W, J2))


# ------------------------------------------------------------------- psi4


@pytest.mark.parametrize("n", [9, 10, 11, 12, 20, 24])
def test_psi4_solver_equals_closed_form(n):
    for seed in range(3):
        jet = random_jet(n, seed=seed)
        assert psi4_solve(jet) == psi4_closed_form(jet)


def test_psi4_solver_equals_closed_form_at_n32():
    jet = random_jet(32, seed=1)
    assert solve_AA(32, phi4(jet)) == psi4_closed_form(jet)


def test_closed_form_specializes_to_n9_literal():
    for seed in (0, 5):
        jet = random_jet(9, seed=seed)
        closed = psi4_closed_form(jet)
        assert closed.get(4, 0) == psi4_n9_literal(jet)
        assert closed.max_log_power() == 0


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_closed_form_bracket_groups_are_harmonic(n):
    # the closed form groups its degree-4 and degree-2 parts into bracketed
    # combinations that are claimed harmonic; verify rather than assume
    for seed in (0, 1):
        jet = random_jet(n, seed=seed)
        q = jet.W.quartic_form()
        g = jet.W.gradient_square_form()
        w2 = jet.W.norm_sq()
        jq = jet.Jh.quadratic_form()
        r2 = HomogPoly.r_squared(n)
        r4 = r2.mul_r2k(1)
        first = (
            q.scale(F(2, 9))
            - g.mul_r2k(1).scale(F(2, 9 * (n + 4)))
            + r4.scale(w2 * F(1, 3 * (n + 2) * (n + 4)))
        )
        second = (
            g.scale(F(4, 9 * (n + 4)))
            - jq.scale(2 * (n - 6))
            - r2.scale(w2 * F(n * n + 6 * n - 32, 6 * n * (n + 4) * (n - 1)))
        )
        from qcurv.polyalg import laplacian

        assert laplacian(first).is_zero()
        assert laplacian(second).is_zero()


def test_psi4_n8_log_block():
    jet = random_jet(8, seed=1)
    psi = psi4_solve(jet)
    assert psi.max_log_power() == 1
    w2 = jet.W.norm_sq()
    r4 = HomogPoly.r_squared(8).mul_r2k(1)
    assert psi.get(4, 1) == r4.scale(-w2 / 1440)
    assert n8_log_coefficient(jet) == -w2 / 1440


def test_n8_log_coefficient_quadratic_in_weyl():
    jet = random_jet(8, seed=6)
    doubled = CurvatureJet(8, jet.W.rescale(2), fix_trace(jet.Jh.scale * jet.Jh.ints, jet.W.rescale(2)))
    assert n8_log_coefficient(doubled) == 4 * n8_log_coefficient(jet)
    assert psi4_solve(doubled).get(4, 1) == psi4_solve(jet).get(4, 1).scale(4)


def test_psi4_requires_n_at_least_8():
    with pytest.raises(ValueError):
        psi4_solve(random_jet(7, seed=1))


# ------------------------------------------------------------ expansions


def test_flat_expansion_all_orders():
    for n in (5, 8, 11):
        exp = flat_expansion(n)
        assert exp.remainder == "Oinf(1)"
        assert exp.expansion.terms == {(0, 0): HomogPoly.constant(n, 1)}
        assert exp.to_json()["expansion"]["radial_exp"] == f"{4 - n}/1"


def test_green_leading_dispatch():
    jet5 = random_jet(5, seed=2)
    g5 = green_leading(jet5)
    assert g5.constant_symbol == "A"
    assert g5.remainder == "O4(r)"

    g8_flat = green_leading(CurvatureJet.flat(8))
    assert g8_flat.remainder == "Oinf(1)"
    assert not g8_flat.log_terms()

    jet10 = random_jet(10, seed=3)
    g10 = green_leading(jet10)
    assert g10.remainder == "O4(r^{9-n})"
    assert g10.expansion.get(4, 0) == psi4_closed_form(jet10).get(4, 0)
    assert not g10.log_terms()

    jet8 = random_jet(8, seed=3)
    g8 = green_leading(jet8)
    assert g8.remainder == "O4(1)"
    assert g8.log_terms() == [{"deg": 4, "logpow": 1}]
    assert g8.expansion.get(4, 1) == HomogPoly.r_squared(8).mul_r2k(1).scale(
        -jet8.W.norm_sq() / 1440)


def test_green_leading_flat_equals_flat_expansion():
    for n in (5, 8, 10):
        a = green_leading(CurvatureJet.flat(n))
        b = flat_expansion(n)
        assert a.expansion == b.expansion


def test_recursion_residual_zero():
    flat = CurvatureJet.flat(6)
    assert shell_identities(flat, green_leading(flat)) == [("recursion_residual", True)]
    for n in (8, 9, 20, 24):
        jet = random_jet(n, seed=4)
        assert shell_identities(jet, green_leading(jet)) == [("psi4_shell", True),
                                                             ("recursion_residual", True)]


def test_residual_detects_corruption():
    jet = random_jet(9, seed=8)
    g = green_leading(jet)
    bad_terms = dict(g.expansion.terms)
    bad_terms[(4, 0)] = bad_terms[(4, 0)].scale(F(3, 2))
    bad = GreenExpansion(
        n=9,
        expansion=LogRadialExpansion(9, bad_terms),
        remainder=g.remainder,
    )
    assert shell_identities(jet, bad) == [("psi4_shell", False), ("recursion_residual", False)]


def test_residual_source_follows_dimension():
    # below n = 8 psi_4 belongs to the remainder: the bare r^{4-n} owes no
    # phi_4 source, while an n >= 8 expansion that drops psi_4 still fails
    for n in (5, 6, 7):
        for seed in (1, 3):
            jet = random_jet(n, seed=seed)
            assert shell_identities(jet, green_leading(jet)) == [("recursion_residual", True)]
    jet = random_jet(9, seed=8)
    g = green_leading(jet)
    terms = {key: p for key, p in g.expansion.terms.items() if key != (4, 0)}
    bare = GreenExpansion(9, LogRadialExpansion(9, terms), g.remainder)
    assert shell_identities(jet, bare) == [("psi4_shell", False), ("recursion_residual", False)]


def test_expansion_serialization_and_latex():
    jet = random_jet(8, seed=9)
    g = green_leading(jet)
    obj = g.to_json()
    assert obj["remainder"] == "O4(1)"
    assert obj["log_terms"] == [{"deg": 4, "logpow": 1}]
    round_trip = expansion_from_json(obj["expansion"])
    assert round_trip == g.expansion
    lines = latex_lines(g)
    assert any("\\log r" in ln for ln in lines)
    assert all(ln.startswith(r"r^{-4}\left(") for ln in lines)


@pytest.mark.parametrize("n", [8, 16])
def test_written_report_expansion_reads_back(tmp_path, n):
    """The compact polynomials of a written report, the n = 8 log shell
    among them, parse back to the expansion they were written from."""
    out = tmp_path / "p.json"
    res = CliRunner().invoke(main, ["parametrix", "--n", str(n), "--seed", "1", "--report", str(out)])
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    want = green_leading(random_jet(n, 1)).expansion
    assert expansion_from_json(doc["expansion"]) == want
    assert any(k > 0 for _, k in want.terms) == (n == 8)
