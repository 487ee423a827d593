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
from hypothesis import example, given, settings, strategies as st

from qcurv import report
from qcurv.cli import main
from qcurv.parametrix import green_leading, random_jet
from qcurv.report import SCHEMA, dump_report, jsonable


def _oracle(payload: dict) -> str:
    doc = {"schema": SCHEMA}
    doc.update(payload)
    return json.dumps(jsonable(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


class _Str(str):
    pass


_text = st.text() | st.sampled_from(['', '"', "\\", "\n\t\x00\x1f", "é∂😀", "a/b", " "])
# strings JSON writes as themselves, and single characters it escapes
_plain = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters='"\\'))
_awkward = st.sampled_from(['"', "\\", "\x7f", "\x00", "\x1f", "\n", "é", "😀", "\u2028", "a\"b"])
_strings = _plain | _awkward | _text | st.builds(_Str, _plain | _awkward)
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
_string_rows = (
    st.lists(_plain, min_size=1, max_size=5)
    | st.lists(_strings, max_size=5)
    | st.lists(_plain, max_size=4).map(tuple)
)
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | _string_rows
    | st.lists(_string_rows, max_size=4)
    | st.lists(st.lists(_string_rows, max_size=3), max_size=3)
    | st.dictionaries(_plain | _awkward, _plain | _awkward | st.builds(_Str, _plain), max_size=5)
    | st.tuples(st.lists(_plain, max_size=4), inner).map(lambda t: [*t[0], t[1]])
    | st.dictionaries(_text | st.integers(), inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_text, _values, max_size=6))
@example({"a": {"\x1f": None}})
@example({"a": {"\x1f": "x", "k": "v"}, "b": [["x", "y"], ["z", "\x7f"]], "c": ["p", "q", 1]})
@example({"a": [["x", "y"], [], ["z"]], "b": [["x"], ("y",)], "c": [_Str("s"), "t"]})
def test_dump_report_matches_json_dumps(payload):
    assert dump_report(payload) == _oracle(payload)


@pytest.mark.parametrize("n", range(8, 17))
def test_parametrix_payload_matches_json_dumps(n):
    jet = random_jet(n, 1)
    green = green_leading(jet)
    payload = {"jet": jet.to_json(), "expansion": green.to_json(), "log_terms": green.log_terms()}
    assert dump_report(payload) == _oracle(payload)


def test_jet_payload_escapes_no_entry(monkeypatch):
    """The n^4 table of "p/q" strings is joined raw: the escaper sees the
    keys only, never one entry."""
    escaped = []
    escape = report._ESC
    monkeypatch.setattr(report, "_ESC", lambda s: escaped.append(s) or escape(s))
    jet = random_jet(12, 1)
    payload = {"command": "parametrix", "jet": jet.to_json()}
    assert dump_report(payload) == _oracle(payload)
    assert sorted(escaped) == ["J", "W", "command", "jet", "n", "parametrix", "qcurv-report/1",
                               "schema"]


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
    (["constants", "--format", "json"],
     "0ed26747af4cee11d9e8b8d8099f68f85db2c210af22f21049d30c2443e9db86"),
    (["spectral"],
     "a31f6b6bc772d48de242d455cc8c5eb9364a9a36dbe38db28f33ae8de6558b95"),
    (["asymptotics", "--case", "flat", "--n", "5"],
     "5a4a794b72d99716526a7332b5ea146ecaaa74b7a05d56a27aaca9678713f959"),
    (["asymptotics", "--case", "lowdim", "--n", "6"],
     "32ed068f39864379a19650e997378ed85931e76964839c75ea96214079b79a57"),
    (["asymptotics", "--case", "n8", "--n", "8"],
     "e4364fcd6b1a41941e1c72bc1a93120d65c4750f7636a9f4267505a4aa181fd6"),
    (["asymptotics", "--case", "n9", "--n", "9"],
     "7c2572897854468d9187bb9ef26b6dd71107e53695cb0328f8ad958c6127b86f"),
    (["asymptotics", "--case", "high", "--n", "10"],
     "07b138854fcf9b41f313bbecd42e2e794f6dfd764106a7ffd7d122270528cba3"),
    (["verify", "asymptotics"],
     "b253746af2c4f0ea228553993e877f040557f2b4e0677a14fa4e7ab7abaaabae"),
    (["verify", "bubbles"],
     "bc8342141700158978f534f7722839e1ea19e5e010e913a4be637cc531ca714d"),
    (["verify", "weyl", "--n", "4..12", "--trials", "5"],
     "dc94188acbaadf34259b7cff7f7ba0211e64c362985fecaa5b01089c51d82ecd"),
    (["verify", "polyalg", "--seed", "3", "--trials", "8"],
     "2ab17499e1b8f69597f487eb5d161126a9379cc05d07fbcfbffa66368ba6681d"),
    (["verify", "parametrix", "--n", "8..10", "--trials", "2"],
     "35c3728cd1d93b44a11fb32abaadc3f14e246dceeae5eb3e5a78d300f67daddf"),
    (["verify", "spectral"],
     "1910867a71e5440cf387bb7dfb78cc03e3c8dca5900da12380c6c80a4993dfc1"),
]

# reports pinned under one BLAS thread.  A large-L spectral report: from
# L = 512 OpenBLAS splits the transforms across threads, which changes their
# sums.  Two reports whose Weyl Gram products run through float64 BLAS keep
# their PINNED digests, taken under the default thread count: those sums
# are exact, so no thread count can change them.
_BLAS_GRAM = (["parametrix", "--n", "16", "--seed", "1"],
              ["verify", "weyl", "--n", "4..12", "--trials", "5"])
PINNED_ONE_THREAD = [
    (["spectral", "--n", "7", "--L", "256", "--init", "perturbed"],
     "e76503dedcd8d547aa93403fb57a168ecd61c1e18f7a874c7a2a26e09e19493f"),
    *[(argv, digest) for argv, digest in PINNED if argv in _BLAS_GRAM],
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
