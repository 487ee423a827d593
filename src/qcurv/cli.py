"""Command-line entry point: every computation and verification suite as a
subcommand emitting machine-readable reports.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error.  All randomness derives from one nonnegative integer
seed through counter-based generators, reports carry no timing, and a run
takes and records only the options it reads (``_config``), so a report's
(command, config) pair reproduces it byte for byte.  The ``verify`` suites
run the library's identity lists (``tensor.weyl_identities``, ...) over
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


def _config(who: str, read: dict, takes=None) -> dict:
    """The config of a run of the current command that reads ``read`` (option
    -> value): each option but --report, --format and --jet-file (the report
    holds its jet) at its value in ``read``, else null.  An option given on
    the command line outside ``takes`` (default: ``read``) exits 2 naming it."""
    ctx = click.get_current_context()
    taken = {"out", *(read if takes is None else takes)}
    for param in ctx.command.params:
        source = ctx.get_parameter_source(param.name)
        if param.name not in taken and source is ParameterSource.COMMANDLINE:
            raise click.UsageError(f"{who} takes no {param.opts[-1]}")
    return {name: read.get(name) for name in ctx.params if name not in ("out", "fmt", "jet_file")}


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
@click.option("--n", default="5..12", show_default=True, help="dimension range")
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "latex"]), default="csv")
@_report_option
def cmd_constants(n, fmt, out):
    """Sphere constants Q, omega_n, Y4, Theta4 with cross-check residuals."""
    config = _config("constants", {"n": n, "fmt": fmt})
    rows = sphereforms.constants_table(
        _parse_n_range(n, 5, sphereforms.MOMENTS_MAX_N, "constants need"))
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
    payload = {"command": "constants", "config": config, "rows": rows}
    return _constants_checks(rows), payload, out, table


# ---------------------------------------------------------------- parametrix


@main.command("parametrix")
@click.option("--n", type=int, required=True)
@click.option("--seed", type=click.IntRange(min=0), default=1, show_default=True)
@click.option("--flat", is_flag=True, help="use the flat jet")
@click.option("--jet-file", type=click.Path(exists=True), default=None, help="JSON jet input")
@_report_option
def cmd_parametrix(n, seed, flat, jet_file, out):
    """Green's-function expansion at the leading curvature order."""
    if n < 5:
        raise click.UsageError("n >= 5 required")
    if n > tensor.MAX_N:
        raise click.UsageError(f"n <= {tensor.MAX_N} required, the largest Weyl tensor dimension")
    if jet_file:
        config = _config("parametrix --jet-file", {"n": n, "jet_file": jet_file})
        try:
            with open(jet_file) as f:
                jet = par.CurvatureJet.from_json(json.load(f))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            raise click.UsageError(f"bad jet file {jet_file}: {e!r}")
        if jet.n != n:
            raise click.UsageError("jet dimension does not match --n")
    elif flat:
        config = _config("parametrix --flat", {"n": n, "flat": flat})
        jet = par.CurvatureJet.flat(n)
    else:
        config = _config("parametrix", {"n": n, "seed": seed, "flat": flat})
        jet = par.random_jet(n, seed)

    green = par.green_leading(jet)
    payload = {"command": "parametrix", "config": config, "jet": jet.to_json(), **green.to_json()}
    if n == 8 and not jet.is_flat():
        payload["n8_log_coefficient"] = par.n8_log_coefficient(jet)
    check = _witness_check("parametrix.identities", config, SHELL_PROVENANCE,
                           par.shell_identities(jet, green))
    return [check], payload, out


# ---------------------------------------------------------------- asymptotics


@main.command("asymptotics")
@click.option("--case", "case", type=click.Choice(list(asym.CASES)), required=True)
@click.option("--n", type=int, required=True)
@click.option("--seed", type=click.IntRange(min=0), default=7, show_default=True,
              help="picks the jet, normalized to |W|^2 within 1e-6 of 1; |W|^2 is all the fit "
                   "reads; flat and lowdim read no jet")
@click.option("--a0", "A0", type=float, default=None, show_default="1.0",
              help="flat/lowdim constant; the cases that read a jet refuse it")
@click.option("--lambdas", default=None, help="comma-separated lam grid override")
@_report_option
def cmd_asymptotics(case, n, seed, A0, lambdas, out):
    """Fit the test-function expansion coefficient for one case."""
    try:  # an empty --lambdas is a bad grid, not the row's own
        lam_grid = tuple(float(v) for v in lambdas.split(",")) if lambdas is not None else ()
    except ValueError:
        raise click.UsageError(f"bad --lambdas {lambdas!r}; use e.g. 0.04,0.02,0.01,0.005")
    if asym.CASES[case].needs_jet and n > tensor.MAX_N:
        raise click.UsageError(f"case {case!r} needs n <= {tensor.MAX_N}, "
                               "the largest Weyl tensor dimension")
    model = _asymptotics_model(case, n, seed, A0, lam_grid)
    read = {"case": case, "n": n, "lambdas": list(model.lambdas),
            **({"seed": seed} if model.A0 is None else {"A0": model.A0})}
    # the one option a run takes without reading it: flat and lowdim read
    # no jet, but the benchmark's cli-calls mix passes --seed to every case
    config = _config(f"asymptotics --case {case}", read, {*read, "seed"})
    fit, checks = _asymptotics_checks(model)
    return checks, {"command": "asymptotics", "config": config, "fit": fit.to_json()}, out


# ------------------------------------------------------------------- spectral


@main.command("spectral")
@click.option("--n", type=int, default=5, show_default=True)
@click.option("--l", "--L", "L", type=click.IntRange(min=2, max=spectral.MAX_L), default=64,
              show_default=True, help=f"truncation degree; {L_HELP}")
@click.option("--iters", type=click.IntRange(min=0), default=200, show_default=True)
@click.option("--damping", type=float, default=0.5, show_default=True)
@click.option("--init", type=click.Choice(["constant", "perturbed"]), default="constant")
@_report_option
def cmd_spectral(n, L, iters, damping, init, out):
    """Zonal extremal iteration plus invariance checks."""
    config = _config("spectral", {"n": n, "L": L, "iters": iters, "damping": damping, "init": init})
    solver = spectral.SphereSolver(n, L)
    rep = spectral.spectral_report(solver, iters, damping, init)
    checks = _spectral_checks(solver, rep["invariance_checks"])
    theta4 = sphereforms.sharp_constants(n).Theta4_sphere
    top = max(rep["functional_values"])
    checks.append(
        abs_check(
            "spectral.iteration_bounded",
            {"n": n, "L": L, "iters": iters, "init": init},
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
                {"n": n, "L": L, "iters": iters},
                f"<= {_bound(FIXED_POINT_DRIFT)}",
                "constants solve the dual extremal equation",
                fixed,
                FIXED_POINT_DRIFT,
                deviation=fixed,
            )
        )
    return checks, {"command": "spectral", "config": config, "result": rep}, out


# --------------------------------------------------------------------- verify


def _witness_check(check_id, inputs, provenance, witnesses) -> VerificationReport:
    """One exact check over (label, holds) witnesses: computed is true when
    every witness holds, else the label of the first that fails."""
    failed = next((label for label, ok in witnesses if not ok), None)
    return exact_check(check_id, inputs, True, provenance, True if failed is None else failed)


def _seeded_checks(ns, trials, seed, family, provenance, identities) -> list[VerificationReport]:
    """One exact check per n, ``{family}[n=..,trials=..]``, over the
    (name, holds) pairs of ``identities(n, s)`` for the seeds s = seed ..
    seed + trials - 1; a witness reads "n=7,seed=3: name".  ``family`` is
    the id of the identity list, which a subcommand emits bare for its one
    draw (``parametrix.identities``)."""
    return [_witness_check(f"{family}[n={n},trials={trials}]",
                           {"n": n, "trials": trials, "seed": seed}, provenance,
                           ((f"n={n},seed={s}: {name}", ok)
                            for s in range(seed, seed + trials) for name, ok in identities(n, s)))
            for n in ns]


def _verify_weyl(n, trials, seed) -> list[VerificationReport]:
    def identities(n, s):
        W = tensor.random_weyl(n, s)
        return tensor.weyl_identities(W, tensor.random_schouten_hessian(n, s, W))

    return _seeded_checks(n, trials, seed, "weyl.identities",
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

    return _seeded_checks(n, trials, seed, "parametrix.identities", SHELL_PROVENANCE, identities)


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
    # the canonical term lists are lam-free: they hold the identity for
    # every lam at once
    return [
        exact_check(
            f"bubbles.pde[n={d}]",
            {"n": d},
            sphereforms.bubble_source(d).terms,
            "Delta^2 u_lam = n(n+2)(n-2)(n-4) f_lam as canonical terms "
            "(c, lam power, r power, (r^2+lam^2) power)",
            sphereforms.bubble_bilaplacian(d).terms,
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


def _asymptotics_model(case, n, seed, A0=None, lambdas=()) -> asym.TestFunctionModel:
    """One asymptotics case: the seed picks the jet, A0 the constant, of the rows that read it."""
    if asym.CASES[case].needs_jet:
        jet = par.random_jet(n, seed, normalize=True)
        return asym.TestFunctionModel(case=case, n=n, jet=jet, lambdas=lambdas)
    return asym.TestFunctionModel(case=case, n=n, A0=A0, lambdas=lambdas)


def _asymptotics_checks(model) -> tuple[asym.FitResult, list[VerificationReport]]:
    """The fit of one asymptotics model and its checks, as `asymptotics` and
    `verify asymptotics` both emit them: the fitted expansion coefficient
    against its closed form, then the row's split checks."""
    fit = asym.fit_expansion(model)
    unit_name, unit = model.unit
    ratio = close_check(f"asymptotics.{model.case}[n={model.n}]",
                        {"lambdas": list(fit.lambdas), unit_name: unit}, fit.expected,
                        "expansion coefficient vs closed form", fit.coefficient,
                        rtol=asym.CASES[model.case].rtol)
    return fit, [ratio, *asym.numerator_coefficient_check(model)]


def _verify_asymptotics(seed) -> list[VerificationReport]:
    return [check for case, n in (("flat", 5), ("high", 10), ("n9", 9), ("n8", 8))
            for check in _asymptotics_checks(_asymptotics_model(case, n, seed))[1]]


@dataclass(frozen=True)
class Suite:
    """A verify suite: ``checks`` takes the options it reads as keywords,
    with ``options`` their defaults (``n`` as --n text); ``n_bounds`` bound
    its --n (None: no largest).  Weyl tensors exist from n = 4 and are
    built up to tensor.MAX_N, the degree-4 shell starts at n = 8, the sphere
    forms need n >= 5, and the moments stay normal floats to MOMENTS_MAX_N."""

    checks: Callable[..., list[VerificationReport]]
    options: dict
    n_bounds: tuple[int | None, int | None] = (None, None)


SUITES = {
    "weyl": Suite(_verify_weyl, {"n": "5..10", "trials": 50, "seed": 1}, (4, tensor.MAX_N)),
    "polyalg": Suite(_verify_polyalg, {"trials": 40, "seed": 1}),
    "parametrix": Suite(_verify_parametrix, {"n": "8..12", "trials": 10, "seed": 1},
                        (8, tensor.MAX_N)),
    "constants": Suite(_verify_constants, {"n": "5..12"}, (5, sphereforms.MOMENTS_MAX_N)),
    "bubbles": Suite(_verify_bubbles, {"n": "5..12"}, (5, None)),
    "spectral": Suite(_verify_spectral, {"n": "5..9", "L": 64}, (5, None)),
    "asymptotics": Suite(_verify_asymptotics, {"seed": 1}),
}
# the defaults `verify all` sets over a suite's own: ten weyl trials keep it short
ALL_DEFAULTS = {"weyl": {"trials": 10}}


@main.command("verify")
@click.argument("suite", type=click.Choice([*SUITES, "all"]))
@click.option("--n", default=None, help="dimension range, e.g. 5..10")
@click.option("--trials", type=click.IntRange(min=1), default=None)
@click.option("--seed", type=click.IntRange(min=0), default=None, show_default="1")
@click.option("--l", "--L", "L", type=click.IntRange(min=2, max=spectral.MAX_L),
              default=None, help=f"spectral truncation degree; {L_HELP}")
@_report_option
def cmd_verify(suite, out, **options):
    """Run a verification suite; exit 0 only if every check passes."""
    # suite -> its defaults; `verify all` runs each suite at its own dimensions
    runs = ({name: row.options | ALL_DEFAULTS.get(name, {}) for name, row in SUITES.items()}
            if suite == "all" else {suite: SUITES[suite].options})
    ran = {name: {k: v if options[k] is None else options[k] for k, v in defaults.items()}
           for name, defaults in runs.items()}
    # option -> {suite: the value it runs with}, for the options some suite reads
    read = {key: {name: kw[key] for name, kw in ran.items() if key in kw}
            for key in options if any(key in kw for kw in ran.values())}
    takes = {"suite", *read} - ({"n"} if suite == "all" else set())
    config = _config(f"verify {suite}", {"suite": suite, **read}, takes)
    reports = []
    for name, kw in ran.items():
        if "n" in kw:
            kw["n"] = _parse_n_range(kw["n"], *SUITES[name].n_bounds, f"verify {suite} needs")
        reports += SUITES[name].checks(**kw)
    return reports, {"command": "verify", "config": config}, out


if __name__ == "__main__":
    main()
