"""Task bodies of the in-process workloads, `exact-jets` and `sphere-numerics`.

Each task builds its own inputs from the seeded parameters it is given,
calls the qcurv entry points it measures through the tracer (one span per
call), and compares the outputs with independently coded forms: exact results with
`==`, floats at the tolerances the library documents for them.  A failed
comparison raises `CheckFailed`.

Objects are never shared between tasks.  `WeylTensor` memoizes its quartic
and gradient-square forms on the instance, so a reused tensor would turn a
repeated task into a cache hit.  The only work that repeats from task to
task is work fixed by the dimension alone, such as powers of r^2 and the
eigenvalue chains of the harmonic decomposition.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from qcurv import asymptotics as asym
from qcurv import parametrix as par
from qcurv import polyalg, report, sphereforms, spectral, tensor
from qcurv.polyalg import HomogPoly, LogRadialExpansion

from workloads import expect

# documented tolerances: spectral.* checks of `qcurv spectral` / `verify
# spectral`, the per-case fit tolerances of `qcurv asymptotics`, the
# residual bounds of `qcurv constants` and the bubble PDE bound of
# `verify bubbles`
THETA4_RTOL = 1e-8
DUALITY_RTOL = 1e-10
THETA2_DUALITY_RTOL = 1e-8
MOBIUS_DRIFT = 1e-6
BOUNDED_SLACK = 1e-6
FIT_RTOL = {"flat": 0.02, "lowdim": 0.02, "high": 0.02, "n9": 0.05, "n8": 0.10}
MOMENTS_RESID = 1e-12
DUALITY_RESID = 1e-14
BUBBLE_PDE_RESID = 1e-10

ITER_STEPS = 200
MOBIUS_T = (1.5, 2.0, 4.0)
CONSTANTS_DIMS = range(5, 13)
BUBBLE_RADII = np.geomspace(0.1, 10.0, 100)


def _terms(x) -> int:
    """Number of monomials in a polynomial, expansion or block list."""
    if isinstance(x, HomogPoly):
        return len(x.terms)
    if isinstance(x, LogRadialExpansion):
        return sum(len(p.terms) for p in x.terms.values())
    return sum(len(b.h.terms) for b in x)


def _poly(tr, name, fn, *args):
    """A call into polyalg, with its call and output-term counts."""
    out = tr.call(name, fn, *args)
    tr.count("polyalg.calls")
    tr.count("polyalg.terms_out", _terms(out))
    return out


def _close(computed: float, expected: float, rtol: float) -> bool:
    """Relative comparison as in `qcurv.report.close_check`."""
    return abs(computed - expected) <= rtol * max(abs(expected), 1e-300)


# -- exact-jets ------------------------------------------------------------------


def weyl_task(tr, n: int, seed: int) -> None:
    """The identity bundle `verify weyl` runs on one seeded Weyl tensor, plus
    the generic harmonic decomposition of its quartic against the closed-form
    split."""
    W = tr.call("tensor.random_weyl", tensor.random_weyl, n, seed)
    q = tr.call("tensor.quartic_form", W.quartic_form)
    g = tr.call("tensor.gradient_square_form", W.gradient_square_form)
    expect(tr.call("tensor.invariants_hold", tensor.invariants_hold, W), "Weyl invariants")
    w2 = W.norm_sq()
    lap = _poly(tr, "polyalg.laplacian", polyalg.laplacian, q)
    expect(lap == g.scale(2), "Lap Q = 2 |grad|^2 form")
    lap2 = _poly(tr, "polyalg.laplacian", polyalg.laplacian, lap)
    expect(lap2 == HomogPoly.constant(n, 12 * w2), "Lap^2 Q = 12 |W|^2")
    expect(W.cross_contraction() == w2 / 2, "cross contraction = |W|^2 / 2")

    split = tr.call("tensor.quartic_harmonic_split", W.quartic_harmonic_split)
    expect(_poly(tr, "polyalg.reassemble", polyalg.reassemble, n, 4, split) == q,
           "harmonic split reassembles Q")
    expect(split[2].h == HomogPoly.constant(n, w2 * Fraction(3, 2 * n * (n + 2))),
           "radial block = 3|W|^2 / (2n(n+2))")
    blocks = _poly(tr, "polyalg.harmonic_decompose", polyalg.harmonic_decompose, q)
    expect({b.k: b.h for b in blocks} == {b.k: b.h for b in split if not b.h.is_zero()},
           "generic harmonic decomposition = closed-form split")
    for b in blocks:
        expect(_poly(tr, "polyalg.laplacian", polyalg.laplacian, b.h).is_zero(),
               f"block k={b.k} harmonic")
    Jh = tr.call("tensor.random_schouten_hessian", tensor.random_schouten_hessian, n, seed, W)
    expect(Jh.trace() == -w2 / (12 * (n - 1)), "Schouten trace constraint")


def parametrix_task(tr, n: int, seed: int) -> None:
    """What `qcurv parametrix --n n --seed seed` computes (n >= 8), with the
    solver output held against the closed form or the n=8 log shell."""
    jet = tr.call("parametrix.random_jet", par.random_jet, n, seed)
    src = tr.call("parametrix.phi4", par.phi4, jet)
    psi = _poly(tr, "polyalg.solve_AA", polyalg.solve_AA, n, src)
    tr.count("polyalg.log_blocks", sum(1 for (_, k) in psi.terms if k > 0))
    applied = _poly(tr, "polyalg.apply_AA", polyalg.apply_AA, n, psi)
    expect((applied + LogRadialExpansion.from_poly(src)).is_zero(), "A A psi4 + phi4 = 0")
    if n >= 9:
        closed = tr.call("parametrix.psi4_closed_form", par.psi4_closed_form, jet)
        expect(psi == closed, "psi4 = closed form")
    else:
        shell = HomogPoly.r_squared(8).mul_r2k(1).scale(-jet.W.norm_sq() / 1440)
        expect(psi.get(4, 1) == shell, "n=8 log shell = -|W|^2/1440 r^4")

    green = tr.call("parametrix.green_leading", par.green_leading, jet)
    expect(all(green.expansion.get(d, k) == p for (d, k), p in psi.terms.items()),
           "expansion carries psi4")
    expansion = tr.call("report.to_json", green.to_json)
    payload = {"command": "parametrix", "config": {"n": n, "seed": seed, "flat": False},
               "n": n, "jet": jet.to_json(), "expansion": expansion,
               "remainder": green.remainder, "log_terms": green.log_terms()}
    text = tr.call("report.dump_report", report.dump_report, payload)
    tr.count("report.bytes", len(text.encode()))


# -- sphere-numerics -------------------------------------------------------------


def sphere_task(tr, n: int, L: int, amplitude: float) -> None:
    """What `verify spectral` checks at (n, L), plus a perturbed extremal
    iteration as in `qcurv spectral --init perturbed`."""
    solver = tr.call("spectral.SphereSolver", spectral.SphereSolver, n, L)
    theta4 = sphereforms.sharp_constants(n).Theta4_sphere

    f0 = solver.constant_field(1.0)
    f0.coeffs[2] += amplitude * f0.coeffs[0]
    traj = tr.call("spectral.extremal_iteration", solver.extremal_iteration, f0, ITER_STEPS, 0.5)
    tr.count("spectral.steps", ITER_STEPS)
    expect(len(traj) == ITER_STEPS + 1, "one iterate per step")
    expect(max(v for _, v in traj) <= theta4 + BOUNDED_SLACK, "iteration bounded by Theta4")

    const = solver.constant_field(1.0)
    with tr.span("spectral.functionals"):
        th = solver.theta4_functional(const)
        y4 = solver.y4_functional(const)
        th2 = solver.theta2_functional(const)
        y2 = solver.yamabe_functional(const)
    expect(_close(th, theta4, THETA4_RTOL), "theta4 at constants")
    expect(_close(th * y4, 1.0, DUALITY_RTOL), "theta4 * Y4 = 1")
    expect(_close(th2 * y2, 1.0, THETA2_DUALITY_RTOL), "theta2 * Yamabe = 1")
    for t in MOBIUS_T:
        pulled = tr.call("spectral.mobius_pullback", solver.mobius_pullback, const, t)
        moved = tr.call("spectral.functionals", solver.theta4_functional, pulled)
        expect(abs(moved - th) / th <= MOBIUS_DRIFT, f"Moebius invariance at t={t}")


def fit_task(tr, case: str, n: int, seed: int) -> None:
    """`qcurv asymptotics --case case --n n --seed seed` without the report."""
    jet = par.random_jet(n, seed, normalize=True) if case in ("n8", "n9", "high") else None
    model = asym.TestFunctionModel(case=case, n=n, jet=jet)
    fit = tr.call("asymptotics.fit_expansion", asym.fit_expansion, model)
    tr.count("asymptotics.lambda_points", len(fit.details["evaluations"]))
    expect(_close(fit.coefficient, fit.expected, FIT_RTOL[case]),
           f"ratio coefficient within {FIT_RTOL[case]:.0%}")
    checks = tr.call("asymptotics.numerator_coefficient_check",
                     asym.numerator_coefficient_check, model)
    for c in checks:
        expect(c.passed, c.check_id)


def constants_task(tr) -> None:
    rows = tr.call("sphereforms.constants_table", sphereforms.constants_table, CONSTANTS_DIMS)
    expect([r["n"] for r in rows] == list(CONSTANTS_DIMS), "one row per dimension")
    for r in rows:
        expect(r["resid_Y4_vs_moments"] < MOMENTS_RESID, f"Y4 moments n={r['n']}")
        expect(r["resid_duality"] < DUALITY_RESID, f"duality n={r['n']}")
        expect(r["Q_sphere"] == Fraction(r["n"] * (r["n"] + 2) * (r["n"] - 2), 8),
               f"Q n={r['n']}")


def bubbles_task(tr, n: int, lams: list[float]) -> None:
    """Bubble PDE residual as in `verify bubbles` at one n, and the profiles'
    radial derivatives held against the first-order equation they satisfy.

    u = (lam / g)^m with g = r^2 + lam^2 and m = (n-4)/2 solves
    g u' + 2 m r u = 0; differentiating k times gives
    g u^(k+1) + 2(k+m) r u^(k) + k(k-1+2m) u^(k-1) = 0.  The terms are of
    one order in r, so the sum is held against the sum of their magnitudes
    at the bubble PDE bound.  f = u^((n+4)/(n-4)) is held at the same bound.
    """
    r = BUBBLE_RADII
    m = (n - 4) / 2
    r2 = r * r
    for lam in lams:
        res = tr.call("sphereforms.bubble_pde_residual",
                      sphereforms.bubble_pde_residual, lam, n, r)
        expect(float(res.max()) <= BUBBLE_PDE_RESID, f"bubble PDE lam={lam}")
        u = sphereforms.bubble_u(lam, n)
        f = sphereforms.bubble_f(lam, n)
        with tr.span("radial.profile_eval"):
            d = [u.deriv(k, r) for k in range(5)]
            fv = f.deriv(0, r)
        for k in range(4):
            terms = [(r2 + lam * lam) * d[k + 1], 2 * (k + m) * r * d[k]]
            if k:
                terms.append(k * (k - 1 + 2 * m) * d[k - 1])
            worst = float(np.max(np.abs(sum(terms)) / sum(np.abs(t) for t in terms)))
            expect(worst <= BUBBLE_PDE_RESID, f"derivative {k + 1} equation lam={lam}")
        worst = float(np.max(np.abs(fv - d[0] ** ((n + 4) / (n - 4))) / fv))
        expect(worst <= BUBBLE_PDE_RESID, f"f = u^((n+4)/(n-4)) lam={lam}")


TASKS = {
    "weyl": weyl_task,
    "parametrix": parametrix_task,
    "sphere": sphere_task,
    "fit": fit_task,
    "constants": constants_task,
    "bubbles": bubbles_task,
}
