"""The option rule: a run takes and records only the options it reads.

Two halves.  The replay rebuilds every pinned command from its report's
``command`` and ``config`` alone and gets the same bytes, so the config
names every input the run read.  The neighbours move each option of each
pinned command to a stated neighbouring value: the report changes outside
its config, or the run exits 2 naming the option, so the config names no
input that the run ignores.
"""

import functools
import json

import click
import numpy as np
import pytest
from click.testing import CliRunner

from qcurv import parametrix, tensor
from qcurv.cli import main
from test_report import PINNED, PINNED_ONE_THREAD


def _run(argv, tmp_path):
    """The result and JSON report of one in-process run; the JSON is read
    through --report, since constants prints a table on stdout."""
    out = tmp_path / "replay.json"
    out.unlink(missing_ok=True)
    res = CliRunner().invoke(main, [*argv, "--report", str(out)])
    return res, (out.read_bytes() if res.exit_code in (0, 1) else None)


def replay_argv(doc: dict, jet_file) -> list[str]:
    """The argv that the report ``doc`` names: its command and config.

    A config value of null is an option the run did not read, so it is not
    passed.  `verify` records each option per suite; an option is passed
    where every suite that read it ran with one value (the suites of
    `verify all` keep their own trials and dimensions).  A parametrix
    config with no seed and no --flat read a jet file: its jet is written
    to ``jet_file``.
    """
    config = dict(doc["config"])
    argv = [doc["command"]]
    if doc["command"] == "verify":
        argv.append(config.pop("suite"))
        config = {key: None if per_suite is None or len(set(per_suite.values())) != 1
                  else next(iter(per_suite.values())) for key, per_suite in config.items()}
    if doc["command"] == "parametrix" and config["seed"] is None and not config["flat"]:
        jet_file.write_text(json.dumps(doc["jet"]))
        argv += ["--jet-file", str(jet_file)]
    for key, value in config.items():
        if value is True:
            argv.append(f"--{key}")
        elif value is not None and value is not False:
            text = ",".join(map(repr, value)) if isinstance(value, list) else str(value)
            argv += [f"--{key.lower()}", text]
    return argv


_PINNED_ARGVS = list(dict.fromkeys(tuple(argv) for argv, _ in PINNED + PINNED_ONE_THREAD))


@pytest.mark.parametrize("argv", _PINNED_ARGVS, ids=[" ".join(a) for a in _PINNED_ARGVS])
def test_pinned_report_replays_from_its_config(argv, tmp_path):
    res, report = _run(list(argv), tmp_path)
    assert res.exit_code == 0, res.output
    again, replayed = _run(replay_argv(json.loads(report), tmp_path / "jet.json"), tmp_path)
    assert again.exit_code == 0, again.output
    assert replayed == report


# the checks that only a subcommand emits: they read nothing but the run's
# options, which the config holds
SUBCOMMAND_ONLY = {"parametrix.identities", "spectral.iteration_bounded",
                   "spectral.fixed_point_drift"}
_SUBCOMMAND_ARGVS = [argv for argv in _PINNED_ARGVS if argv[0] != "verify"]


@pytest.mark.parametrize("argv", _SUBCOMMAND_ARGVS, ids=[" ".join(a) for a in _SUBCOMMAND_ARGVS])
def test_no_payload_field_repeats_the_config(argv, tmp_path):
    """The config is the one place a report states an option: no key of it
    is a key of the payload's top level, its result or its fit, and a check
    only a subcommand emits, the one kind whose id names no instance, has
    empty inputs."""
    res, report = _run(list(argv), tmp_path)
    assert res.exit_code == 0, res.output
    doc = json.loads(report)
    for part in (doc, doc.get("result", {}), doc.get("fit", {})):
        assert set(doc["config"]).isdisjoint(part)
    bare = [r for r in doc["reports"] if "[" not in r["check"]]
    assert {r["check"] for r in bare} <= SUBCOMMAND_ONLY
    assert all(r["inputs"] == {} for r in bare)


def test_jet_file_report_replays_from_its_jet(tmp_path):
    # no pin reads a jet file: this one is written from a seeded jet
    jf = tmp_path / "in.json"
    jf.write_text(json.dumps(parametrix.random_jet(9, 5).to_json()))
    res, report = _run(["parametrix", "--n", "9", "--jet-file", str(jf)], tmp_path)
    assert res.exit_code == 0, res.output
    argv = replay_argv(json.loads(report), tmp_path / "jet.json")
    assert argv == ["parametrix", "--jet-file", str(tmp_path / "jet.json"), "--n", "9"]
    assert _run(argv, tmp_path)[1] == report


def _outside_config(report: bytes) -> dict:
    """A report without its config."""
    doc = json.loads(report)
    del doc["config"]
    return doc


# (option, pinned argv, its neighbour, refused): the neighbour moves the
# report outside its config, or, where ``refused`` names an option, exits 2
# naming it.  A jet file is written where an argv names "JET".
MOVES = None
NEIGHBOURS = [
    ("--n", ["constants", "--format", "json"], ["constants", "--format", "json", "--n", "5..11"],
     MOVES),
    ("--format", ["constants", "--format", "json"], ["constants", "--format", "csv"], MOVES),
    ("--n", ["parametrix", "--n", "8", "--seed", "1"], ["parametrix", "--n", "9", "--seed", "1"],
     MOVES),
    ("--seed", ["parametrix", "--n", "8", "--seed", "1"], ["parametrix", "--n", "8", "--seed", "2"],
     MOVES),
    ("--flat", ["parametrix", "--n", "8", "--seed", "1"], ["parametrix", "--n", "8", "--flat"],
     MOVES),
    ("--seed", ["parametrix", "--n", "8", "--flat"],
     ["parametrix", "--n", "8", "--flat", "--seed", "2"], "--seed"),
    ("--jet-file", ["parametrix", "--n", "9", "--seed", "5"],
     ["parametrix", "--n", "9", "--jet-file", "JET", "--seed", "5"], "--seed"),
    ("--flat", ["parametrix", "--n", "9", "--seed", "5"],
     ["parametrix", "--n", "9", "--flat", "--jet-file", "JET"], "--flat"),
    ("--n", ["spectral"], ["spectral", "--n", "6"], MOVES),
    ("--L", ["spectral"], ["spectral", "--L", "63"], MOVES),
    ("--iters", ["spectral"], ["spectral", "--iters", "199"], MOVES),
    ("--damping", ["spectral"], ["spectral", "--damping", "0.4"], MOVES),
    ("--init", ["spectral"], ["spectral", "--init", "perturbed"], MOVES),
    ("--case", ["asymptotics", "--case", "lowdim", "--n", "6"],
     ["asymptotics", "--case", "flat", "--n", "6"], MOVES),
    ("--n", ["asymptotics", "--case", "high", "--n", "10"],
     ["asymptotics", "--case", "high", "--n", "11"], MOVES),
    ("--seed", ["asymptotics", "--case", "high", "--n", "10"],
     ["asymptotics", "--case", "high", "--n", "10", "--seed", "8"], MOVES),
    ("--a0", ["asymptotics", "--case", "flat", "--n", "5"],
     ["asymptotics", "--case", "flat", "--n", "5", "--a0", "2"], MOVES),
    ("--a0", ["asymptotics", "--case", "high", "--n", "10"],
     ["asymptotics", "--case", "high", "--n", "10", "--a0", "1"], "--a0"),
    ("--lambdas", ["asymptotics", "--case", "flat", "--n", "5"],
     ["asymptotics", "--case", "flat", "--n", "5", "--lambdas", "0.1,0.05,0.025,0.0125,0.00625"],
     MOVES),
    ("--seed", ["verify", "all", "--seed", "1"], ["verify", "all", "--seed", "2"], MOVES),
    ("--trials", ["verify", "all", "--seed", "1"], ["verify", "all", "--trials", "1"], MOVES),
    ("--L", ["verify", "all", "--seed", "1"], ["verify", "all", "--L", "40"], MOVES),
    ("--n", ["verify", "all", "--seed", "1"], ["verify", "all", "--n", "5..6"], "--n"),
    ("--n", ["verify", "weyl", "--n", "4..12", "--trials", "5"],
     ["verify", "weyl", "--n", "4..11", "--trials", "5"], MOVES),
    ("--trials", ["verify", "weyl", "--n", "4..12", "--trials", "5"],
     ["verify", "weyl", "--n", "4..12", "--trials", "4"], MOVES),
    ("--seed", ["verify", "weyl", "--n", "4..12", "--trials", "5"],
     ["verify", "weyl", "--n", "4..12", "--trials", "5", "--seed", "2"], MOVES),
    ("--L", ["verify", "weyl", "--n", "4..12", "--trials", "5"],
     ["verify", "weyl", "--n", "4..12", "--trials", "5", "--L", "40"], "--L"),
    ("--seed", ["verify", "polyalg", "--seed", "3", "--trials", "8"],
     ["verify", "polyalg", "--seed", "4", "--trials", "8"], MOVES),
    ("--trials", ["verify", "polyalg", "--seed", "3", "--trials", "8"],
     ["verify", "polyalg", "--seed", "3", "--trials", "7"], MOVES),
    ("--n", ["verify", "polyalg", "--seed", "3", "--trials", "8"],
     ["verify", "polyalg", "--seed", "3", "--trials", "8", "--n", "5"], "--n"),
    ("--L", ["verify", "polyalg", "--seed", "3", "--trials", "8"],
     ["verify", "polyalg", "--seed", "3", "--trials", "8", "--L", "40"], "--L"),
    ("--n", ["verify", "parametrix", "--n", "8..10", "--trials", "2"],
     ["verify", "parametrix", "--n", "8..9", "--trials", "2"], MOVES),
    ("--trials", ["verify", "parametrix", "--n", "8..10", "--trials", "2"],
     ["verify", "parametrix", "--n", "8..10", "--trials", "1"], MOVES),
    ("--seed", ["verify", "parametrix", "--n", "8..10", "--trials", "2"],
     ["verify", "parametrix", "--n", "8..10", "--trials", "2", "--seed", "2"], MOVES),
    ("--L", ["verify", "parametrix", "--n", "8..10", "--trials", "2"],
     ["verify", "parametrix", "--n", "8..10", "--trials", "2", "--L", "40"], "--L"),
    ("--n", ["verify", "spectral"], ["verify", "spectral", "--n", "5..8"], MOVES),
    ("--L", ["verify", "spectral"], ["verify", "spectral", "--L", "63"], MOVES),
    ("--seed", ["verify", "spectral"], ["verify", "spectral", "--seed", "2"], "--seed"),
    ("--trials", ["verify", "spectral"], ["verify", "spectral", "--trials", "2"], "--trials"),
    ("--n", ["verify", "bubbles"], ["verify", "bubbles", "--n", "5..11"], MOVES),
    ("--seed", ["verify", "bubbles"], ["verify", "bubbles", "--seed", "2"], "--seed"),
    ("--trials", ["verify", "bubbles"], ["verify", "bubbles", "--trials", "2"], "--trials"),
    ("--L", ["verify", "bubbles"], ["verify", "bubbles", "--L", "40"], "--L"),
    ("--seed", ["verify", "asymptotics"], ["verify", "asymptotics", "--seed", "2"], MOVES),
    ("--n", ["verify", "asymptotics"], ["verify", "asymptotics", "--n", "5"], "--n"),
    ("--trials", ["verify", "asymptotics"], ["verify", "asymptotics", "--trials", "2"], "--trials"),
    ("--L", ["verify", "asymptotics"], ["verify", "asymptotics", "--L", "40"], "--L"),
    ("--seed", ["verify", "constants"], ["verify", "constants", "--seed", "3"], "--seed"),
]


def _pinned_command(argv) -> tuple:
    """A pinned run's command: the subcommand, and its suite for verify."""
    return tuple(argv[:2]) if argv[0] == "verify" else (argv[0],)


def test_every_option_of_every_pinned_command_has_a_neighbour():
    have = {(_pinned_command(base), option) for option, base, _, _ in NEIGHBOURS}
    for argv in _PINNED_ARGVS:
        for param in main.commands[argv[0]].params:
            if isinstance(param, click.Option) and param.opts[-1] != "--report":
                assert (_pinned_command(argv), param.opts[-1]) in have, argv


@functools.cache
def _base_stdout(argv: tuple) -> bytes:
    res = CliRunner().invoke(main, list(argv))
    assert res.exit_code == 0, res.output
    return res.stdout_bytes


@pytest.mark.parametrize("option,base,neighbour,refused", NEIGHBOURS,
                         ids=[" ".join(n) for _, _, n, _ in NEIGHBOURS])
def test_each_option_moves_the_report_or_is_refused(option, base, neighbour, refused, tmp_path):
    if "JET" in neighbour:
        jf = tmp_path / "jet.json"
        jf.write_text(json.dumps(parametrix.random_jet(9, 5).to_json()))
        neighbour = [str(jf) if a == "JET" else a for a in neighbour]
    res = CliRunner().invoke(main, neighbour)
    if refused:
        assert res.exit_code == 2, res.output
        assert f"takes no {refused}" in res.output
    elif option == "--format":  # shapes stdout alone, so the config never records it
        assert res.exit_code == 0 and res.stdout_bytes != _base_stdout(tuple(base))
    else:
        assert res.exit_code == 0, res.output
        assert _outside_config(res.stdout_bytes) != _outside_config(_base_stdout(tuple(base)))


@pytest.mark.parametrize("case,n", [("flat", 5), ("lowdim", 6)])
def test_flat_and_lowdim_take_an_unread_seed(case, n):
    """The rule's one exception: the benchmark's cli-calls mix passes --seed
    to every asymptotics case, so flat and lowdim take it, record it as null
    and give the report of a run without it."""
    argv = ["asymptotics", "--case", case, "--n", str(n)]
    res = CliRunner().invoke(main, [*argv, "--seed", "3"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.stdout)
    assert doc["config"]["seed"] is None
    assert res.stdout_bytes == CliRunner().invoke(main, argv).stdout_bytes


# (suite, its options, the seeded draw, the arguments of its calls at --seed 2)
SEEDED_SUITES = [
    ("weyl", ["--n", "5..6", "--trials", "3"], (tensor, "random_weyl"),
     [(n, s) for n in (5, 6) for s in (2, 3, 4)]),
    ("parametrix", ["--n", "8..9", "--trials", "2"], (parametrix, "random_jet"),
     [(n, s) for n in (8, 9) for s in (2, 3)]),
    # one fresh Philox(seed) per check, each drawing the same polynomials
    ("polyalg", ["--trials", "3"], (np.random, "Philox"), [(2,), (2,)]),
]


@pytest.mark.parametrize("suite,options,draw,calls", SEEDED_SUITES,
                         ids=[s for s, *_ in SEEDED_SUITES])
def test_seed_of_an_exact_suite_reaches_its_draws(suite, options, draw, calls, monkeypatch):
    """Each n of a seeded suite draws seeds seed .. seed + trials - 1.  The
    neighbours above cannot tell: these suites echo --seed in their checks'
    inputs, so a suite that ignored it would still move its report."""
    module, name = draw
    real, drawn = getattr(module, name), []
    monkeypatch.setattr(module, name, lambda *a: drawn.append(a) or real(*a))
    res = CliRunner().invoke(main, ["verify", suite, *options, "--seed", "2"])
    assert res.exit_code == 0, res.output
    assert drawn == calls
