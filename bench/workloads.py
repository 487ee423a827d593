"""Workload schedules of the qcurv benchmark, and the `cli-calls` task.

Every workload is a fixed mix of task kinds, run in rounds: one round
holds each stratum of the mix exactly once (each dimension, case or
subcommand), in an order shuffled by the seed.  The seed also draws the
content of each task (jet seeds, perturbation sizes, bubble scales,
subcommand seeds), but never how many tasks of each stratum a round has,
so two seeds always run the same program on different data.

This module imports nothing from qcurv: the `cli-calls` workload reaches
the library only through `python -m qcurv.cli` subprocesses.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# one BLAS/OpenMP thread everywhere, so a run never uses more than the two
# cores of the reference machine; applied before numpy is first imported
SINGLE_THREAD = {
    v: "1"
    for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}

# no CLI call here takes more than about 1.2 s; a hung one fails its task
CALL_TIMEOUT_S = 60

# dimensions and truncation degrees the in-process workloads cover
JET_DIMS = range(5, 17)
SPHERE_DIMS = range(5, 10)
SPHERE_DEGREES = (64, 256)
BUBBLE_DIMS = range(5, 13)
# one dimension per asymptotics case, as the CLI and acceptance tests use them
FIT_CASES = (("flat", 5), ("lowdim", 6), ("high", 10), ("n9", 9), ("n8", 8))


def rational_kernel() -> dict:
    """Fixed pure-Python work of the exact core's kind, sharing no code with
    qcurv: Fractions summed into a dict keyed by exponent-like tuples.  The
    fits and bubbles, interpreted scalar work, follow it as well."""
    acc: dict[tuple[int, int, int], Fraction] = {}
    for i in range(1500):
        key = (i % 13, i % 7, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 17 + 1, i % 11 + 1)
    return acc


@functools.cache
def _matvec_inputs():
    import numpy as np

    B = np.cos(np.outer(np.arange(257), np.linspace(0.0, 3.0, 390)))
    return B, np.linspace(1.0, 0.0, 257), np.linspace(0.5, 1.5, 390)


def matvec_kernel() -> float:
    """Fixed dense work of the spectral solver's kind, sharing no code with
    qcurv: a 257 x 390 matrix applied to a vector, then a weighted L^4 sum,
    as a zonal synthesis on an oversampled grid.  The L = 64 solver tasks
    follow it closely."""
    import numpy as np

    B, c, w = _matvec_inputs()
    acc = 0.0
    for _ in range(120):
        acc += float(np.sum(w * np.abs(B.T @ c) ** 4))
    return acc


def run_child(cmd: list[str], timeout: float = CALL_TIMEOUT_S,
              **kwargs) -> subprocess.CompletedProcess:
    """`subprocess.run` without its timeout polling.

    Given a timeout, `subprocess` waits for the child by polling at
    intervals that grow to 50 ms, so a measured call is rounded up to the
    next poll: `import numpy` read 164.8 or 215.0 ms and nothing between.
    Here the wait blocks, and a timer kills the child at the timeout.
    """
    killed = []

    def kill():
        killed.append(True)
        proc.kill()

    with subprocess.Popen(cmd, **kwargs) as proc:
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
            timer.join()
    if killed:
        raise subprocess.TimeoutExpired(cmd, timeout, out, err)
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def numpy_import() -> None:
    """A fresh interpreter that imports numpy and nothing of qcurv: start-up
    and import, the bulk of every CLI call and of every set-up probe."""
    proc = run_child([sys.executable, "-c", "import numpy"], env=child_env(ROOT))
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)


# Host speed references.  The host drifts in speed by 15-35% between runs
# a few minutes apart: it switches between a normal and a fast phase that
# last seconds to tens of seconds, and the kinds of work speed up by
# different amounts in the fast phase.  So each task is paired with a
# kernel of its own kind of work, timed just before it, and a round scales
# the task's latency by the kernel's duration at reference speed over its
# median in the round.  Set-up is scaled the same way by the numpy import
# timed beside each probe.  The kernels share no code with qcurv, so the
# pairing only decides how much host noise is left: a change to qcurv
# moves a scaled figure as it moves wall time.
#
# Durations at reference speed are medians on a shared 2-vCPU x86_64 VM
# under Python 3.11.  Sphere tasks at L = 256 are left unscaled: they
# follow the host least, and the kernels tried added more noise to them
# than they took away (see README.md).
#
# Each kernel: (function, seconds at reference speed, timed before every
# k-th task paired with it).  The numpy import costs a third of a CLI call,
# so it runs before every third one.
NUMPY_IMPORT_S = 0.165
KERNELS = {
    "rational": (rational_kernel, 6.4e-3, 1),
    "matvec": (matvec_kernel, 3.0e-3, 1),
    "numpy-import": (numpy_import, NUMPY_IMPORT_S, 3),
}


def speed_reference(kind: str, params: dict) -> str | None:
    """Name of the kernel in KERNELS that a task is scaled by, or None."""
    if kind == "sphere":
        return "matvec" if params["L"] < 256 else None
    if kind == "cli":
        return "numpy-import"
    return "rational"  # weyl, parametrix, fit, bubbles, constants


class CheckFailed(Exception):
    """A task's output disagreed with its independently coded expectation."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 1 << 31)


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def _cli_configs(seed: int) -> list[tuple[str, list[str]]]:
    """The `cli-calls` mix: (label, argv) pairs; seeds are fixed per run so
    later rounds repeat each configuration and can be compared byte for byte."""
    rng = _rng("cli-calls", seed)
    out = [("constants", ["constants"])]
    out += [(f"parametrix n={n}", ["parametrix", "--n", str(n), "--seed", str(_seed(rng))])
            for n in range(8, 13)]
    out.append(("spectral", ["spectral"]))
    out += [(f"asymptotics {case}", ["asymptotics", "--case", case, "--n", str(n),
                                     "--seed", str(_seed(rng))])
            for case, n in FIT_CASES]
    # `verify polyalg` draws the sizes of its random polynomials from its
    # seed, so a drawn seed would choose how much work the call does
    out.append(("verify polyalg", ["verify", "polyalg", "--seed", "1"]))
    out += [(f"verify {s}", ["verify", s]) for s in ("constants", "bubbles", "spectral")]
    out.append(("verify asymptotics", ["verify", "asymptotics", "--seed", str(_seed(rng))]))
    return out


def round_tasks(workload: str, seed: int, r: int) -> list[tuple[str, str, dict]]:
    """Tasks of round ``r``: (label, kind, params), in seeded order."""
    rng = _rng(workload, seed, r)
    if workload == "exact-jets":
        tasks = [(f"weyl n={n}", "weyl", {"n": n, "seed": _seed(rng)}) for n in JET_DIMS]
        tasks += [(f"parametrix n={n}", "parametrix", {"n": n, "seed": _seed(rng)})
                  for n in JET_DIMS if n >= 8]
    elif workload == "sphere-numerics":
        tasks = [
            (f"sphere n={n} L={L}", "sphere",
             {"n": n, "L": L, "amplitude": rng.uniform(0.05, 0.15)})
            for n in SPHERE_DIMS
            for L in SPHERE_DEGREES
        ]
        tasks += [(f"fit {case}", "fit", {"case": case, "n": n, "seed": _seed(rng)})
                  for case, n in FIT_CASES]
        tasks += [(f"bubbles n={n}", "bubbles",
                   {"n": n, "lams": sorted(round(2.0 ** rng.uniform(-1, 1), 6) for _ in range(3))})
                  for n in BUBBLE_DIMS]
        tasks.append(("constants", "constants", {}))
    elif workload == "cli-calls":
        tasks = [(label, "cli", {"argv": argv}) for label, argv in _cli_configs(seed)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(tasks)
    return tasks


def child_env(root: str) -> dict:
    """Environment for qcurv child processes: `src` on the path, one BLAS
    thread, and bytecode caching on as in an installed package."""
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class CliRunner:
    """Runs one `python -m qcurv.cli` call per task and checks its report."""

    def __init__(self, root: str, scratch: str, tracer):
        self.root = root
        self.report_path = os.path.join(scratch, "cli-report.json")
        self.env = child_env(root)
        self.tr = tracer
        self.digests: dict[str, str] = {}

    def __call__(self, label: str, argv: list[str]) -> None:
        cmd = [sys.executable, "-m", "qcurv.cli", *argv, "--report", self.report_path]
        proc = self.tr.call(
            f"cli.{argv[0]}", run_child, cmd, cwd=self.root, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            self.tr.count("cli.exit_nonzero")
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            raise CheckFailed(f"exit code {proc.returncode}: {tail[0]}")
        with open(self.report_path, "rb") as f:
            data = f.read()
        os.unlink(self.report_path)
        expect(json.loads(data).get("pass") is True, "report does not say pass")
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(label, digest)
        expect(first == digest, "report bytes differ from an earlier call with the same config")
