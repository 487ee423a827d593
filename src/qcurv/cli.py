"""Command-line entry point: every computation and verification suite as a
subcommand emitting machine-readable reports.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error.  All randomness derives from a single 64-bit seed
through counter-based generators, and serialized reports carry no timing,
so a fixed (subcommand, config, seed) triple reproduces its report byte
for byte.  The ``verify`` suites run the identity lists of the library
modules (``tensor.weyl_identities``, ``polyalg.split_identities``, ...) over
seeds or trials; a failing aggregated check computes the first failing
witness, such as "n=7,seed=3: lap_quartic", in place of true.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import click
import numpy as np
from click.core import ParameterSource

from . import asymptotics as asym
from . import parametrix as par
from . import polyalg, sphereforms, spectral, tensor
from .report import VerificationReport, abs_check, close_check, dump_report, exact_check

# tolerances of the spectral and constants checks; the fit tolerances are
# the rtol of each asymptotics.CASES row
THETA4_RTOL = 1e-8
DUALITY_RTOL = 1e-10
THETA2_DUALITY_RTOL = 1e-8
MOBIUS_DRIFT = 1e-6
BOUNDED_SLACK = 1e-6
FIXED_POINT_DRIFT = 1e-8
MOMENTS_RESID = 1e-12
DUALITY_RESID = 1e-14
SHELL_PROVENANCE = "degree-4 expansion shell, exact"
# measured: the drift fails n = 6..9 at L = 32 and passes n = 5..9 at L = 40
L_HELP = "the Moebius check needs L >= 40 at n = 5..9 (ROADMAP direction 2)"


def _bound(x: float) -> str:
    """A bound as the report texts write it: 1e-06 -> "1e-6"."""
    mantissa, exponent = f"{x:e}".split("e")
    return f"{float(mantissa):g}e{int(exponent)}"


def _finish(reports: list[VerificationReport], payload: dict, out: str | None, table=None):
    """Write the report to ``out``, or to stdout, where a ``table`` takes the
    JSON's place; one verdict per check on stderr; exit 1 if any fails."""
    ok = all(r.passed for r in reports)
    payload["reports"] = [r.to_json() for r in reports]
    payload["pass"] = ok
    text = dump_report(payload, out)
    if out:
        click.echo(f"report written to {out}", err=True)
    if table is not None or not out:
        click.echo(text if table is None else table, nl=False)
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        click.echo(f"[{status}] {r.check_id}", err=True)
    sys.exit(0 if ok else 1)


def _parse_n_range(text: str, min_n: int, max_n: int | None, who: str) -> range | list[int]:
    """The dimensions of a ``--n`` value: "lo..hi" as a lazy range, "a,b,c"
    as a list.  The bounds [min_n, max_n] (None: no upper bound) are checked
    before any dimension is listed, their messages opening with ``who``,
    and a repeated dimension is refused."""
    try:
        if ".." in text:
            lo, hi = (int(v) for v in text.split(".."))
            if hi < lo:
                raise ValueError
            ns, repeated = range(lo, hi + 1), []
        else:
            ns = [int(v) for v in text.split(",")]
            lo, hi = min(ns), max(ns)
            repeated = [n for n, count in Counter(ns).items() if count > 1]
    except ValueError:
        raise click.UsageError(f"bad dimension range {text!r}; use e.g. 5..8 or 5,7,9")
    if lo < min_n:
        raise click.UsageError(f"{who} n >= {min_n}")
    if max_n is not None and hi > max_n:
        raise click.UsageError(f"{who} n <= {max_n}")
    if repeated:
        raise click.UsageError(f"dimension {repeated[0]} appears more than once in --n {text}; "
                               "each dimension runs once")
    return ns


def _report_dir_exists(ctx, param, value):
    """Refuse an empty --report path, or one whose directory does not exist,
    before any computation."""
    if value == "":
        raise click.BadParameter("the path is empty")
    if value is not None and not os.path.isdir(os.path.dirname(os.path.abspath(value))):
        raise click.BadParameter(f"directory of {value!r} does not exist")
    return value


_report_option = click.option("--report", "out", type=click.Path(dir_okay=False), default=None,
                              callback=_report_dir_exists, help="write the JSON report here")


class _Main(click.Group):
    def invoke(self, ctx):
        """Run a subcommand and write the report it returns.  A ValueError
        raised while it computes is an input the library refuses: exit 2.
        A report that cannot be written stays a program fault."""
        try:
            result = super().invoke(ctx)
        except ValueError as e:
            name = ctx.invoked_subcommand
            raise click.UsageError(str(e), click.Context(self.commands[name], ctx, name)) from e
        _finish(*result)


@click.group(cls=_Main)
def main():
    """Paneitz / Q-curvature computation and verification engine."""


# ---------------------------------------------------------------- constants


@main.command("constants")
@click.option("--n", "n_range", default="5..12", show_default=True, help="dimension range")
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "latex"]), default="csv")
@_report_option
def cmd_constants(n_range, fmt, out):
    """Sphere constants Q, omega_n, Y4, Theta4 with cross-check residuals."""
    rows = sphereforms.constants_table(
        _parse_n_range(n_range, 5, sphereforms.MOMENTS_MAX_N, "constants need"))
    table = None  # json: the report is the stdout
    if fmt == "csv":
        cols = ["n", "Q_sphere", "omega_n", "Y4", "Theta4", "resid_Y4_vs_moments", "resid_duality"]
        cells = [[str(r[c]) if c in ("n", "Q_sphere") else repr(float(r[c])) for c in cols]
                 for r in rows]
        table = "\n".join(",".join(line) for line in [cols, *cells]) + "\n"
    elif fmt == "latex":
        lines = [r"\begin{tabular}{rrrrr}", r"$n$ & $Q$ & $\omega_n$ & $Y_4$ & $\Theta_4$ \\"]
        for r in rows:
            lines.append(
                f"{r['n']} & {r['Q_sphere']} & {r['omega_n']:.12g} & "
                f"{r['Y4']:.12g} & {r['Theta4']:.12g} \\\\"
            )
        lines.append(r"\end{tabular}")
        table = "\n".join(lines) + "\n"
    return _constants_checks(rows), {"command": "constants", "rows": rows}, out, table


# ---------------------------------------------------------------- parametrix


@main.command("parametrix")
@click.option("--n", type=int, required=True)
@click.option("--seed", type=click.IntRange(min=0), default=1, show_default=True)
@click.option("--flat", is_flag=True, help="use the flat jet")
@click.option("--jet-file", type=click.Path(exists=True), default=None, help="JSON jet input")
@_report_option
def cmd_parametrix(n, seed, flat, jet_file, out):
    """Green's-function expansion at the leading curvature order."""
    if flat and jet_file:
        raise click.UsageError("--flat and --jet-file name two jets; give one")
    if n < 5:
        raise click.UsageError("n >= 5 required")
    if n > tensor.MAX_N:
        raise click.UsageError(f"n <= {tensor.MAX_N} required, the largest Weyl tensor dimension")
    if jet_file:
        try:
            with open(jet_file) as f:
                jet = par.CurvatureJet.from_json(json.load(f))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            raise click.UsageError(f"bad jet file {jet_file}: {e!r}")
        if jet.n != n:
            raise click.UsageError("jet dimension does not match --n")
    elif flat:
        jet = par.CurvatureJet.flat(n)
    else:
        jet = par.random_jet(n, seed)

    green = par.green_leading(jet)
    payload = {
        "command": "parametrix",
        "config": {"n": n, "seed": seed, "flat": flat},
        "jet": jet.to_json(),
        **green.to_json(),
    }
    if n == 8 and not jet.is_flat():
        payload["n8_log_coefficient"] = par.n8_log_coefficient(jet)
    check = _witness_check("parametrix.identities", payload["config"], SHELL_PROVENANCE,
                           par.shell_identities(jet, green))
    return [check], payload, out


# ---------------------------------------------------------------- asymptotics


@main.command("asymptotics")
@click.option("--case", "case", type=click.Choice(list(asym.CASES)), required=True)
@click.option("--n", type=int, required=True)
@click.option("--seed", type=click.IntRange(min=0), default=7, show_default=True,
              help="picks the jet, normalized to |W|^2 within 1e-6 of 1; |W|^2 is all the fit "
                   "reads; flat and lowdim read no jet")
@click.option("--a0", type=float, default=1.0, show_default=True,
              help="flat/lowdim constant; the cases that read a jet refuse it")
@click.option("--lambdas", default=None, help="comma-separated lam grid override")
@_report_option
@click.pass_context
def cmd_asymptotics(ctx, case, n, seed, a0, lambdas, out):
    """Fit the test-function expansion coefficient for one case."""
    try:  # an empty --lambdas is a bad grid, not the row's own
        lam_grid = tuple(float(v) for v in lambdas.split(",")) if lambdas is not None else ()
    except ValueError:
        raise click.UsageError(f"bad --lambdas {lambdas!r}; use e.g. 0.04,0.02,0.01,0.005")
    needs_jet = asym.CASES[case].needs_jet
    # --seed stays accepted by flat and lowdim, which read no jet: the
    # benchmark's cli-calls mix passes it to every case
    if needs_jet and ctx.get_parameter_source("a0") is ParameterSource.COMMANDLINE:
        raise click.UsageError(f"case {case!r} reads no --a0")
    if needs_jet and n > tensor.MAX_N:
        raise click.UsageError(f"case {case!r} needs n <= {tensor.MAX_N}, "
                               "the largest Weyl tensor dimension")
    jet = par.random_jet(n, seed, normalize=True) if needs_jet else None
    model = asym.TestFunctionModel(case=case, n=n, jet=jet, A0=a0, lambdas=lam_grid)
    unit_name, unit = model.unit
    if 0.0 in (c * unit for c in model.closed_forms):  # the checks are relative to them
        raise click.UsageError(f"{unit_name} = {unit:g} makes a closed form of case {case!r} "
                               f"at n={n} zero; no relative check can hold against it")
    fit = asym.fit_expansion(model)
    checks = [_ratio_check(case, n, seed, fit)] + asym.numerator_coefficient_check(model)
    payload = {
        "command": "asymptotics",
        "config": {
            "case": case,
            "n": n,
            "seed": seed,
            "A0": a0,
            "lambdas": list(fit.lambdas),
            "cutoff_degree": asym.SMOOTHSTEP.degree(),
        },
        "fit": fit.to_json(),
    }
    return checks, payload, out


# ------------------------------------------------------------------- spectral


@main.command("spectral")
@click.option("--n", type=int, default=5, show_default=True)
@click.option("--l", "--L", "trunc", type=click.IntRange(min=2, max=spectral.MAX_L), default=64,
              show_default=True, help=f"truncation degree; {L_HELP}")
@click.option("--iters", type=click.IntRange(min=0), default=200, show_default=True)
@click.option("--damping", type=float, default=0.5, show_default=True)
@click.option("--init", type=click.Choice(["constant", "perturbed"]), default="constant")
@_report_option
def cmd_spectral(n, trunc, iters, damping, init, out):
    """Zonal extremal iteration plus invariance checks."""
    solver = spectral.SphereSolver(n, trunc)
    rep = spectral.spectral_report(solver, iters, damping, init)
    checks = _spectral_checks(solver, rep["invariance_checks"])
    theta4 = sphereforms.sharp_constants(n).Theta4_sphere
    top = max(rep["functional_values"])
    checks.append(
        abs_check(
            "spectral.iteration_bounded",
            {"n": n, "L": trunc, "iters": iters, "init": init},
            f"<= {theta4} + {_bound(BOUNDED_SLACK)}",
            "sharp maximality of constants on the sphere",
            top,
            BOUNDED_SLACK,
            deviation=top - theta4,
        )
    )
    if init == "constant":
        vals = rep["functional_values"]
        fixed = abs(vals[-1] - vals[0])
        checks.append(
            abs_check(
                "spectral.fixed_point_drift",
                {"n": n, "L": trunc, "iters": iters},
                f"<= {_bound(FIXED_POINT_DRIFT)}",
                "constants solve the dual extremal equation",
                fixed,
                FIXED_POINT_DRIFT,
                deviation=fixed,
            )
        )
    payload = {
        "command": "spectral",
        "config": {"n": n, "L": trunc, "iters": iters, "damping": damping, "init": init},
        "result": rep,
    }
    return checks, payload, out


# --------------------------------------------------------------------- verify


def _witness_check(check_id, inputs, provenance, witnesses) -> VerificationReport:
    """One exact check over (label, holds) witnesses: computed is true when
    every witness holds, else the label of the first that fails."""
    failed = next((label for label, ok in witnesses if not ok), None)
    return exact_check(check_id, inputs, True, provenance, True if failed is None else failed)


def _seeded_checks(ns, trials, seed, family, provenance, identities) -> list[VerificationReport]:
    """One exact check per n, ``family(n)[n=..,trials=..]``, over the
    (name, holds) pairs of ``identities(n, s)`` for the seeds s = seed ..
    seed + trials - 1; a witness reads "n=7,seed=3: name"."""
    return [_witness_check(f"{family(n)}[n={n},trials={trials}]",
                           {"n": n, "trials": trials, "seed": seed}, provenance,
                           ((f"n={n},seed={s}: {name}", ok)
                            for s in range(seed, seed + trials) for name, ok in identities(n, s)))
            for n in ns]


def _verify_weyl(n, trials, seed) -> list[VerificationReport]:
    def identities(n, s):
        W = tensor.random_weyl(n, s)
        return tensor.weyl_identities(W, tensor.random_schouten_hessian(n, s, W))

    return _seeded_checks(n, trials, seed, lambda n: "weyl.identities",
                          "curvature quartic and trace identities, exact", identities)


def _verify_polyalg(trials, seed) -> list[VerificationReport]:
    def polys():  # drawn lazily from a fresh Philox(seed), so memory stays flat in trials
        rng = np.random.Generator(np.random.Philox(seed))
        for _ in range(trials):
            n, m = int(rng.integers(2, 9)), int(rng.integers(0, 9))
            terms = {tuple(rng.multinomial(m, np.ones(n) / n).tolist()):
                     Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                     for _ in range(int(rng.integers(1, 6)))}
            yield polyalg.HomogPoly(n, m, terms)

    # lazy witnesses: each check stops at its first failing trial
    split = ((f"trial={k}: {name}", ok) for k, p in enumerate(polys())
             for name, ok in polyalg.split_identities(p, polyalg.harmonic_decompose(p)))
    solved = ((f"trial={k}: solve_residual",
               polyalg.solve_residual(p.n, polyalg.solve_AA(p.n, p), p).is_zero())
              for k, p in enumerate(polys()))
    inputs = {"trials": trials, "seed": seed}
    return [
        _witness_check(f"polyalg.decomposition[trials={trials}]", inputs,
                       "harmonic reassembly, exact", split),
        _witness_check(f"polyalg.solver[trials={trials}]", inputs,
                       "radial bilaplacian-family inversion, exact", solved),
    ]


def _verify_parametrix(n, trials, seed) -> list[VerificationReport]:
    def identities(n, s):
        jet = par.random_jet(n, s)
        return par.shell_identities(jet, par.green_leading(jet))

    return _seeded_checks(n, trials, seed,
                          lambda n: f"parametrix.{'closed-form' if n >= 9 else 'log-coefficient'}",
                          SHELL_PROVENANCE, identities)


def _constants_checks(rows: list[dict]) -> list[VerificationReport]:
    out = []
    for r in rows:
        out += [
            abs_check(
                f"constants.moments[n={r['n']}]",
                {"n": r["n"]},
                0.0,
                "moment quotient vs closed form",
                r["resid_Y4_vs_moments"],
                MOMENTS_RESID,
            ),
            abs_check(
                f"constants.duality[n={r['n']}]",
                {"n": r["n"]},
                1.0,
                "dual sharp constant is the reciprocal",
                1.0 + r["resid_duality"],
                DUALITY_RESID,
                deviation=r["resid_duality"],
            ),
        ]
    return out


def _verify_constants(n) -> list[VerificationReport]:
    return _constants_checks(sphereforms.constants_table(n))


def _verify_bubbles(n) -> list[VerificationReport]:
    # the canonical term lists hold the identity symbolically in lam, so
    # lam = 1 stands for every lam
    return [
        exact_check(
            f"bubble.pde[n={d}]",
            {"n": d},
            sphereforms.bubble_source(d).terms,
            "Delta^2 u_lam = n(n+2)(n-2)(n-4) f_lam as canonical terms "
            "(c, lam power, r power, (r^2+lam^2) power)",
            sphereforms.bubble_bilaplacian(1.0, d).terms,
        )
        for d in n
    ]


def _spectral_checks(solver: spectral.SphereSolver, drift_rows: list[dict]
                     ) -> list[VerificationReport]:
    """The checks at constants that `verify spectral` and `spectral` share:
    the dual functional, both dualities, and the largest Moebius drift of
    ``drift_rows`` (the ``spectral.mobius_drifts`` rows of ``solver``)."""
    n, L = solver.n, solver.L
    const = solver.constant_field(1.0)
    th = solver.theta4_functional(const)
    drift = max(row["theta4_drift"] for row in drift_rows)
    inputs = {"n": n, "L": L}
    return [
        close_check(
            f"spectral.theta4_const[n={n},L={L}]",
            inputs,
            sphereforms.sharp_constants(n).Theta4_sphere,
            "dual functional at constants",
            th,
            rtol=THETA4_RTOL,
        ),
        close_check(
            f"spectral.duality[n={n},L={L}]",
            inputs,
            1.0,
            "product of primal and dual sharp values",
            th * solver.y4_functional(const),
            rtol=DUALITY_RTOL,
        ),
        close_check(
            f"spectral.theta2_duality[n={n},L={L}]",
            inputs,
            1.0,
            "second-order analogue duality",
            solver.theta2_functional(const) * solver.yamabe_functional(const),
            rtol=THETA2_DUALITY_RTOL,
        ),
        abs_check(
            f"spectral.mobius[n={n},L={L}]",
            {**inputs, "t": list(spectral.MOBIUS_T)},
            f"drift <= {_bound(MOBIUS_DRIFT)}",
            "conformal invariance",
            drift,
            MOBIUS_DRIFT,
            deviation=drift,
        ),
    ]


def _verify_spectral(n, L) -> list[VerificationReport]:
    solvers = (spectral.SphereSolver(d, L) for d in n)
    return [c for s in solvers for c in _spectral_checks(s, spectral.mobius_drifts(s))]


def _ratio_check(case: str, n: int, seed: int, fit: asym.FitResult) -> VerificationReport:
    """The fitted expansion coefficient of one asymptotics case against its
    closed form, as `verify asymptotics` and `asymptotics` check it."""
    row = asym.CASES[case]
    return close_check(
        f"asymptotics.{case}[n={n}]",
        {"n": n, "seed": seed if row.needs_jet else None},
        fit.expected,
        "expansion coefficient vs closed form",
        fit.coefficient,
        rtol=row.rtol,
    )


def _verify_asymptotics(seed) -> list[VerificationReport]:
    out = []
    for case, n in (("flat", 5), ("high", 10), ("n9", 9), ("n8", 8)):
        jet = par.random_jet(n, seed, normalize=True) if asym.CASES[case].needs_jet else None
        out.append(_ratio_check(case, n, seed,
                                asym.fit_expansion(asym.TestFunctionModel(case=case, n=n, jet=jet))))
    return out


@dataclass(frozen=True)
class Suite:
    """A verify suite: ``checks`` takes the options it reads as keywords,
    with ``options`` their defaults (``n``: the dimensions); ``n_bounds``
    bound its --n (None: no largest).  Weyl tensors exist from n = 4 and are
    built up to tensor.MAX_N, the degree-4 shell starts at n = 8, the sphere
    forms need n >= 5, and the moments stay normal floats to MOMENTS_MAX_N."""

    checks: Callable[..., list[VerificationReport]]
    options: dict
    n_bounds: tuple[int | None, int | None] = (None, None)


SUITES = {
    "weyl": Suite(_verify_weyl, {"n": range(5, 11), "trials": 50, "seed": 1}, (4, tensor.MAX_N)),
    "polyalg": Suite(_verify_polyalg, {"trials": 40, "seed": 1}),
    "parametrix": Suite(_verify_parametrix, {"n": range(8, 13), "trials": 10, "seed": 1},
                        (8, tensor.MAX_N)),
    "constants": Suite(_verify_constants, {"n": range(5, 13)}, (5, sphereforms.MOMENTS_MAX_N)),
    "bubbles": Suite(_verify_bubbles, {"n": range(5, 13)}, (5, None)),
    "spectral": Suite(_verify_spectral, {"n": range(5, 10), "L": 64}, (5, None)),
    "asymptotics": Suite(_verify_asymptotics, {"seed": 1}),
}
# the defaults `verify all` sets over a suite's own: ten weyl trials keep it short
ALL_DEFAULTS = {"weyl": {"trials": 10}}


@main.command("verify")
@click.argument("suite", type=click.Choice([*SUITES, "all"]))
@click.option("--n", default=None, help="dimension range, e.g. 5..10")
@click.option("--trials", type=click.IntRange(min=1), default=None)
@click.option("--seed", type=click.IntRange(min=0), default=1, show_default=True)
@click.option("--l", "--L", "L", type=click.IntRange(min=2, max=spectral.MAX_L),
              default=None, help=f"spectral truncation degree; {L_HELP}")
@_report_option
@click.pass_context
def cmd_verify(ctx, suite, out, **options):
    """Run a verification suite; exit 0 only if every check passes."""
    # suite -> its defaults; `verify all` runs each suite at its own dimensions
    runs = ({name: row.options | ALL_DEFAULTS.get(name, {}) for name, row in SUITES.items()}
            if suite == "all" else {suite: SUITES[suite].options})
    read = {key for defaults in runs.values() for key in defaults if suite != "all" or key != "n"}
    given = {key: value for key, value in options.items()
             if ctx.get_parameter_source(key) is ParameterSource.COMMANDLINE}
    for key in given:
        if key not in read:
            raise click.UsageError(f"verify {suite} takes no --{key}")
    if "n" in given:
        given["n"] = _parse_n_range(given["n"], *SUITES[suite].n_bounds, f"verify {suite} needs")
    reports = [check for name, opts in runs.items()
               for check in SUITES[name].checks(**{k: given.get(k, v) for k, v in opts.items()})]
    return reports, {"command": "verify", "config": {"suite": suite, **options}}, out


if __name__ == "__main__":
    main()
