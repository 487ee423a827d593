"""Report bytes: the one-pass encoder against json.dumps, and pinned
digests of the reports that guard byte-identical output."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from qcurv.cli import main
from qcurv.report import SCHEMA, dump_report, jsonable


def _oracle(payload: dict) -> str:
    doc = {"schema": SCHEMA}
    doc.update(payload)
    return json.dumps(jsonable(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


_text = st.text() | st.sampled_from(['', '"', "\\", "\n\t\x00\x1f", "é∂😀", "a/b", " "])
_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | _text
    | st.builds(Fraction, st.integers(), st.integers(1, 10**6))
    | st.builds(np.float64, st.floats(allow_nan=False, allow_infinity=False))
    | st.builds(np.int64, st.integers(-(2**63), 2**63 - 1))
)
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.lists(_text, max_size=5)
    | st.dictionaries(_text | st.integers(), inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_text, _values, max_size=6))
def test_dump_report_matches_json_dumps(payload):
    assert dump_report(payload) == _oracle(payload)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_dump_report_refuses_nested_non_finite(bad):
    with pytest.raises(ValueError):
        dump_report({"a": [1, {"b": ["x", bad]}]})


# sha256 of stdout; a change here is a declared report change
PINNED = [
    (["verify", "all", "--seed", "1"],
     "69dced6b61a7a546961def7eeaf22407f280816b4168883e989e072feeb0f9f4"),
    (["parametrix", "--n", "8", "--seed", "1"],
     "2226ccddfc4f152499982eeb42259bbc03f2593b77f4aa562769f57dc2c4b1c3"),
    (["parametrix", "--n", "12", "--seed", "1"],
     "70823b56f2ac69d5478a78cf8e3ca39b4445c12b33d68ecd51007f96cfb940c6"),
    (["parametrix", "--n", "16", "--seed", "1"],
     "83c81f3e34a0a732c1957b683e174aa1ea013e35a14134fbd405cf4f746b270a"),
    (["spectral"],
     "a31f6b6bc772d48de242d455cc8c5eb9364a9a36dbe38db28f33ae8de6558b95"),
]

# a large-L report, pinned under one BLAS thread: from L = 512 OpenBLAS
# splits the transforms across threads, which changes their sums
PINNED_ONE_THREAD = [
    (["spectral", "--n", "7", "--L", "256", "--init", "perturbed"],
     "e76503dedcd8d547aa93403fb57a168ecd61c1e18f7a874c7a2a26e09e19493f"),
]
_ONE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


@pytest.mark.parametrize("argv,digest", PINNED, ids=[" ".join(a) for a, _ in PINNED])
def test_report_bytes_pinned(argv, digest):
    res = CliRunner().invoke(main, argv)
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", PINNED_ONE_THREAD,
                         ids=[" ".join(a) for a, _ in PINNED_ONE_THREAD])
def test_report_bytes_pinned_one_blas_thread(argv, digest):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, **_ONE_THREAD,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-m", "qcurv.cli", *argv], env=env,
                         capture_output=True, timeout=120)
    assert res.returncode == 0, res.stderr.decode()
    assert hashlib.sha256(res.stdout).hexdigest() == digest
