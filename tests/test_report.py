"""Report bytes: the leaves the encoder maps, and pinned digests of the
reports that guard byte-identical output."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from qcurv.cli import main
from qcurv.report import SCHEMA, dump_report


class _Str(str):
    pass


class _Exact:
    def to_json(self):
        return {"scale": Fraction(3, 4), "ints": (1, np.int64(-2))}


def test_dump_report_maps_every_leaf():
    payload = {"fraction": Fraction(-2, 6), "float": np.float64(0.1), "int": np.int64(-7),
               "bool": np.bool_(True), "object": _Exact(), "tuple": (1, "x", None),
               "str": _Str("s\u00e9\n")}
    doc = json.loads(dump_report(payload))
    assert doc == {"schema": SCHEMA, "fraction": "-1/3", "float": 0.1, "int": -7, "bool": True,
                   "object": {"scale": "3/4", "ints": [1, -2]}, "tuple": [1, "x", None],
                   "str": "s\u00e9\n"}
    assert doc["bool"] is True and type(doc["int"]) is int
    with pytest.raises(TypeError):
        dump_report({"a": [object()]})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_dump_report_refuses_nested_non_finite(bad):
    # strict JSON has no token for it, at the top level or nested deeper
    for payload in ({"a": bad}, {"a": [1, {"b": ["x", bad]}]}):
        with pytest.raises(ValueError):
            dump_report(payload)


# sha256 of stdout; a change here is a declared report change
PINNED = [
    (["verify", "all", "--seed", "1"],
     "11bdf58ffb6a496f22ebe2bb29674846d55fa46f4d4ede7196ff9f2b5141db04"),
    (["parametrix", "--n", "6", "--seed", "1"],
     "47b55e3123da5e2371707d2f15453102e43f6a8d0fa84df36f8436b2c76704de"),
    (["parametrix", "--n", "8", "--seed", "1"],
     "250e8009fc752afcaa1553354f11ba4982322659cf76de2760a6eee072c3295e"),
    (["parametrix", "--n", "12", "--seed", "1"],
     "4c76a93ed1e2243e141e364c4d9ea500d90dcca881c3644e8e49b4958e3f84b8"),
    (["parametrix", "--n", "16", "--seed", "1"],
     "9bbb07e670efe647ba2d58209444a67ee9a91d84db9b96c65c4104f1a7dc80ef"),
    (["constants", "--format", "json"],
     "6f03718872480cbdcc4dbcda433bbd449aa2426fd73c396c65bca1fefae536e8"),
    (["spectral"],
     "0d988388c61b55a64953797ce92aba9e9fd29f776121385412e04e353a045f9d"),
    (["spectral", "--n", "9", "--init", "perturbed", "--damping", "0.3"],
     "ee2019fa1ae3d312702e52711db5129717ff7d3f50b918b30f29d6721a6f3385"),
    # an odd L, an undamped step, and integer critical exponents 3 and 5
    (["spectral", "--n", "8", "--L", "41", "--init", "perturbed", "--damping", "1.0"],
     "b22b49ef0c69ecf60e4f1a53669d259d23e722d37900a1e78d9661e6b1961a68"),
    (["spectral", "--n", "6", "--L", "41", "--init", "perturbed", "--damping", "1.0",
      "--iters", "30"],
     "f169ab4418423f17f353dd79ebdd341b1700c360b1ad357d2c2515bef85bb52c"),
    (["asymptotics", "--case", "flat", "--n", "5"],
     "3da3e62d6d2dde5728d03fc3c8183921f3e52183e3512f45b601ab64e3d5b2db"),
    (["asymptotics", "--case", "lowdim", "--n", "6"],
     "4cce3de6fc7b7fc64c234833e2e5010fd9000d26c87ab271d5e676e4e939e7fb"),
    (["asymptotics", "--case", "n8", "--n", "8"],
     "a7dc67d3006dd72a6a71a90145661f5125eed8d3863c8ca35bd9f5f2b640188c"),
    (["asymptotics", "--case", "n9", "--n", "9"],
     "9576bf09dcef5d939de796e96ca40f575f0ad918285661379cc1cc2d3b598078"),
    (["asymptotics", "--case", "high", "--n", "10"],
     "acb87ca6de832bacfe45af93ff7385043099521c7f252197f02b8554d0dddcad"),
    (["verify", "asymptotics"],
     "b0a8b12e6cbfa8b68a374d45b22fe3792cd96461312c02d6aa43ad5f156f12fa"),
    (["verify", "bubbles"],
     "e35d24dd3e6dce170df7158eeca09f044e4fb911d30f2d90ff443b25556fe334"),
    (["verify", "weyl", "--n", "4..12", "--trials", "5"],
     "830cbb45c33ee1de5933569c0359a98ee764d717ea64e4d3ab23e42c25fc1ca9"),
    (["verify", "polyalg", "--seed", "3", "--trials", "8"],
     "950a7f6b77375eda26b4bbb8228900706f41b8895d6a1ea773d5337cb1ca0fa0"),
    (["verify", "parametrix", "--n", "8..10", "--trials", "2"],
     "e29ebb04773cac658dd0c6782cc0cb429acdfd68e4371769bf48c7549070916f"),
    (["verify", "spectral"],
     "b457cad42deb5668a3a24d6d08fa04ab4884f059528480b6f2ac7fdc9e1c9fc2"),
]

# reports pinned under one BLAS thread.  Two large-L spectral reports:
# OpenBLAS may split a transform's product across threads, which changes
# its sums.  Whether it does goes by the product's shape, not by an L
# threshold: both L = 256 commands below give other bytes at two threads,
# and an L = 512 one (--n 9 --iters 50 --init perturbed) does not.  Two
# reports whose Weyl Gram products run through float64 BLAS keep their
# PINNED digests, taken under the default thread count: those sums are
# exact, so no thread count can change them.
_BLAS_GRAM = (["parametrix", "--n", "16", "--seed", "1"],
              ["verify", "weyl", "--n", "4..12", "--trials", "5"])
PINNED_ONE_THREAD = [
    (["spectral", "--n", "7", "--L", "256", "--init", "perturbed"],
     "a88449b28d28effc3c6ef919c10a4c414d372b9a1a26d7e5c1cfed18559a636a"),
    (["spectral", "--n", "5", "--L", "256", "--iters", "50", "--init", "perturbed"],
     "171f73330fd6c906ebc9b6af23890cbc4a3ca98d20018c7010ff696613662432"),
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
