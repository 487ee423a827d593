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
# scalars the C encoder writes whole when a dict or list holds nothing else
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**63 - 4, 2**70) | st.integers(-(2**70), -(2**63) + 4)
    | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1.5e-7])
    | st.floats(allow_nan=False, allow_infinity=False)
    | _plain | _awkward | _text
)
_keys = _plain | _awkward | _text
_scalar_rows = st.lists(_scalars, min_size=1, max_size=6) | st.dictionaries(
    _keys, _scalars, min_size=1, max_size=6)
# a container that is scalar-only but for one value, which must take the walk
_odd_scalars = (
    st.builds(_Str, _plain | _awkward)
    | st.builds(np.float64, st.floats(allow_nan=False, allow_infinity=False))
    | st.builds(np.int64, st.integers(-(2**63), 2**63 - 1))
    | st.builds(np.bool_, st.booleans())
    | st.builds(Fraction, st.integers(), st.integers(1, 10**6))
)
_almost_rows = st.tuples(st.lists(_scalars, max_size=4), _odd_scalars, st.integers(0, 4)).map(
    lambda t: [*t[0][:t[2]], t[1], *t[0][t[2]:]]
) | st.tuples(st.dictionaries(_keys, _scalars, max_size=4), _keys, _odd_scalars).map(
    lambda t: {**t[0], t[1]: t[2]}
)
_values = st.recursive(
    _leaves | _scalar_rows | _almost_rows,
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
@example({"a": [2**64, -(2**63) - 1, -0.0, 5e-324, 1e308, True, None, "\u2028"],
          "b": {"\x00": False, "é": 0.1, '"': 2**100, "k": [None]},
          "c": {"s": _Str("x"), "t": 1}, "d": [1.0, np.float64(2.5)], "e": {"f": np.int64(3)},
          "g": [[[[{"h": [1, "x", None]}]]]]})
def test_dump_report_matches_json_dumps(payload):
    assert dump_report(payload) == _oracle(payload)


@pytest.mark.parametrize("n", range(8, 17))
def test_parametrix_payload_matches_json_dumps(n):
    jet = random_jet(n, 1)
    green = green_leading(jet)
    payload = {"jet": jet.to_json(), "expansion": green.to_json(), "log_terms": green.log_terms()}
    assert dump_report(payload) == _oracle(payload)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_dump_report_refuses_nested_non_finite(bad):
    with pytest.raises(ValueError):
        dump_report({"a": [1, {"b": ["x", bad]}]})


# sha256 of stdout; a change here is a declared report change
PINNED = [
    (["verify", "all", "--seed", "1"],
     "1ff51980c7842b52e6eabf26dd5fbc525a6b1795fc2febc896bdaaae6b4b61e6"),
    (["parametrix", "--n", "6", "--seed", "1"],
     "33484f312862cd42c645dde20a19f50d393ffca5b007a3617bfe155fa6dfeefd"),
    (["parametrix", "--n", "8", "--seed", "1"],
     "2e99d226f755069bfd699acef3cc77a432f4502042913f82946a275909d93299"),
    (["parametrix", "--n", "12", "--seed", "1"],
     "85b24ac6a42fafd6d9afbc75a194cb6091582fc8923d46638ecccd05952773d3"),
    (["parametrix", "--n", "16", "--seed", "1"],
     "720352b3d5fc406da60b7524b1b0f021d396504f5dfe4b84c717edc387737706"),
    (["constants", "--format", "json"],
     "ef727f532e766a3421d71b0c41fb34ee33e7557de938e68db2f3220c7d6197e7"),
    (["spectral"],
     "98634b50bb678ba6b0982861693655b0730cd3287e02478de7d5b271320b021c"),
    (["spectral", "--n", "9", "--init", "perturbed", "--damping", "0.3"],
     "374fba46c2b0a841a8dc391740f2728a623fed6a595327587dd41795d269b2a3"),
    # an odd L, an undamped step, and integer critical exponents 3 and 5
    (["spectral", "--n", "8", "--L", "41", "--init", "perturbed", "--damping", "1.0"],
     "f10a3cbaa8fdcfb9edaa221a15ae895602a5998838c7e395004ed62ab3629347"),
    (["spectral", "--n", "6", "--L", "41", "--init", "perturbed", "--damping", "1.0",
      "--iters", "30"],
     "09e72d06f19678b8a2216a44af80cbf17df09ceb940b70a827e7d136e65d1957"),
    (["asymptotics", "--case", "flat", "--n", "5"],
     "29f37fed55cc4fa60778b111fac11b97d29a3ff326fab911e7e4ea64596fad83"),
    (["asymptotics", "--case", "lowdim", "--n", "6"],
     "5a525703e805fd57a4c1c543faaa910e439479303c2605a40e43356bc2f832cb"),
    (["asymptotics", "--case", "n8", "--n", "8"],
     "0d85ee9d70675e23d08df592ac06d5372f26a3caa932d6bc79cb80537dc93c25"),
    (["asymptotics", "--case", "n9", "--n", "9"],
     "d575612d975bf88262963efb90e2394a621eb3c9c42a16f06ccd0760caa09a73"),
    (["asymptotics", "--case", "high", "--n", "10"],
     "a026c5a8a3c3539b8750541124a91a7732bbaa243d235aff88489242aa6d03ff"),
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
     "edd8db79ec1dd335784172d9877c348d60f1dfc5c66c42709078b2bcb18a2bca"),
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
     "2cd333da432cf635faf6cb33e83702ba765fd3475ff14eca24f9bd69744ed5ca"),
    (["spectral", "--n", "5", "--L", "256", "--iters", "50", "--init", "perturbed"],
     "04d7c0ed4ccfece03aeda5569179cddedc5f057473359cb04a8d43bd7bde8f8a"),
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
