"""One round of each in-process benchmark workload runs without a failed task.

The task bodies in ``bench/inproc.py`` call the library's entry points and
check what they return; a task that raises counts as failed in a benchmark
run.  Here one round of ``exact-jets`` and of ``sphere-numerics`` runs in a
subprocess, with ``src`` and ``bench`` on the path and one BLAS thread, as
the benchmark runs them, so a break in that API shows in the suite.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from test_report import _ONE_THREAD

ROOT = pathlib.Path(__file__).resolve().parents[1]

ONE_ROUND = """
import sys
import inproc, spans, workloads
tasks = workloads.round_tasks(sys.argv[1], 1, 0)
for label, kind, params in tasks:
    inproc.TASKS[kind](spans.Tracer(), **params)
print(len(tasks))
"""


@pytest.mark.parametrize("workload", ["exact-jets", "sphere-numerics"])
def test_one_benchmark_round_runs(workload):
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    env = {**os.environ, **_ONE_THREAD, "PYTHONPATH": path}
    res = subprocess.run([sys.executable, "-c", ONE_ROUND, workload], capture_output=True,
                         text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) > 0
