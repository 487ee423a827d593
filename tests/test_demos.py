"""Every demo script runs to completion.

The demos are the only callers of some public API (``latex_lines``,
``eigen_AA``, ``max_log_power``), so running them keeps that API honest.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import qcurv

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6, DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    # as the README runs it, with the package source on the path and numpy's
    # RuntimeWarnings raised as errors, like the rest of the suite
    src = os.path.dirname(os.path.dirname(qcurv.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout
