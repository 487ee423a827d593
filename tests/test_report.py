"""Report bytes: the leaves the encoder maps, and pinned digests of the
reports that guard byte-identical output."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import click
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
    # a payload is plain data and Fractions: an object with to_json and a
    # numpy integer or bool are refused, not converted
    payload = {"fraction": Fraction(-2, 6), "float": np.float64(0.1), "tuple": (1, "x", None),
               "str": _Str("s\u00e9\n")}
    doc = json.loads(dump_report(payload))
    assert doc == {"schema": SCHEMA, "fraction": "-1/3", "float": 0.1, "tuple": [1, "x", None],
                   "str": "s\u00e9\n"}
    for leaf in (object(), _Exact(), np.int64(-7), np.bool_(True)):
        with pytest.raises(TypeError):
            dump_report({"a": [leaf]})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_dump_report_refuses_nested_non_finite(bad):
    # strict JSON has no token for it, at the top level or nested deeper
    for payload in ({"a": bad}, {"a": [1, {"b": ["x", bad]}]}):
        with pytest.raises(ValueError):
            dump_report(payload)


def test_schema_is_pinned_and_named_in_the_readme():
    # a schema bump is a declared report change: this pin, the digests
    # below and the README move with it
    assert SCHEMA == "qcurv-report/2"
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as f:
        assert f'"schema": "{SCHEMA}"' in f.read()


# sha256 of stdout; a change here is a declared report change
PINNED = [
    (["verify", "all", "--seed", "1"],
     "ea3d6423308715ab7fe48bbca20127f9897f03fd84f01006a2cf533e690b481b"),
    (["parametrix", "--n", "6", "--seed", "1"],
     "19ae32cf4648ca9990ce2c3882eb26ae19e69a36d61f38611c1077df05a4d627"),
    (["parametrix", "--n", "8", "--seed", "1"],
     "fea63daf4736b4bbe8636c50f08c30015b85f388850f4dc5f53b08c79fec1d8d"),
    (["parametrix", "--n", "12", "--seed", "1"],
     "8315ad1b3380d1ef967d31db0ddf36f01b3c95b778d6e32123544868ccd1f266"),
    (["parametrix", "--n", "16", "--seed", "1"],
     "432cb779e5dcab73ea43de3514ab94482e07ab32de28e7aae5575385ae0d4cda"),
    (["parametrix", "--n", "8", "--flat"],
     "b1edc7833a9d37dad5767913787cc4e4376a749984fb76016c933e0e5fc8eb0b"),
    (["constants", "--format", "json"],
     "78162f04d72d0b6e87d1a15218a776929d89cf1f35e96ef3e30c380fc131de2a"),
    (["constants", "--n", "5..6", "--format", "latex"],
     "26695c1d63da14cedc14a740e4b48d5e58e44de6faad6de550b0e8e7276c6f46"),
    (["spectral"],
     "6ddaa3f702a988545d790faf6db37d56bdc70df98bf28ffe00f35e7a63fe2ca2"),
    (["spectral", "--n", "9", "--init", "perturbed", "--damping", "0.3"],
     "cc2a883355497f6ed2313e6563fd8b584963de8c3c1edd273d0e8fbd8da0f1ef"),
    # an odd L, an undamped step, and integer critical exponents 3 and 5
    (["spectral", "--n", "8", "--L", "41", "--init", "perturbed", "--damping", "1.0"],
     "f215b5b5d31a73e80dfc5dc3dd508115b2a496adee1ee51c219f898730549116"),
    (["spectral", "--n", "6", "--L", "41", "--init", "perturbed", "--damping", "1.0",
      "--iters", "30"],
     "38dd5a50ec01dd80031c9bb18b8656d796f24ac7ee53e615f0dc203f74c90cd2"),
    (["asymptotics", "--case", "flat", "--n", "5"],
     "37017a67bd07c4ce16035116eb63d3d5e606c6486187aefe3ec11eb8ea284952"),
    (["asymptotics", "--case", "lowdim", "--n", "6"],
     "00b5cc6f2991fbd11a69f5f3262504551410bdbddd0909ee1f136074b8220b5b"),
    (["asymptotics", "--case", "n8", "--n", "8"],
     "fc129010089ade3afd0e6a1d016bc65b06a0533970ffdf3d810318c743603287"),
    (["asymptotics", "--case", "n9", "--n", "9"],
     "7b3795cad0c66899ba4523c7fc8a3f2e09e89e3de622edd55ae62f03394d2b99"),
    (["asymptotics", "--case", "high", "--n", "10"],
     "f35d248b16b958a0ca3b23b6d1977ceef2d78aafa033e6ad65a44b0c43df33e3"),
    (["asymptotics", "--case", "high", "--n", "12", "--seed", "3",
      "--lambdas", "0.04,0.028,0.02,0.014,0.01"],
     "fbd64b9bca4b0480aeb7e868e206dcb436b49af0eab7951073270bddf96ef951"),
    (["asymptotics", "--case", "flat", "--n", "6", "--a0", "2.5",
      "--lambdas", "0.1,0.05,0.025,0.0125,0.00625"],
     "32669f440eaf28fed267e6c9bb5a00765cd9189afda3734c1492b584b27ac6ae"),
    (["verify", "asymptotics"],
     "f400c78c1a27fd6d8ae6e26e0e4bb7ac0f66712c47aa7571fccaf5642608416c"),
    (["verify", "bubbles"],
     "3534a1f38f07c4e0b8443cf292f2cc174eeb3d8257d7fc8796a335e7457cae73"),
    (["verify", "weyl", "--n", "4..12", "--trials", "5"],
     "7d88198f2801e2a8fe27056eaf786c19fe8bf6189e6a8a62a931f6e9acdb4814"),
    (["verify", "polyalg", "--seed", "3", "--trials", "8"],
     "4a897e3de70a30bb3125e7fbab0da4bc824c8d034cebf48d302dd057983a0a5e"),
    (["verify", "parametrix", "--n", "8..10", "--trials", "2"],
     "e5b5123c53bec81f5f978c770b8dd06a01f08eee4ec11f6f3ef0a00873fcc7e9"),
    (["verify", "spectral"],
     "f05ca568f0f789abee848bb0428a7aaa3c3327e3ec8e0de7f4b43e8f8e1f18b1"),
    (["verify", "spectral", "--n", "5,7", "--L", "40"],
     "e970776bd18dea3a0cecb1ac125fa5bc427b655efe8b2df94708f97298f5b21a"),
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
     "41ca4f6d08d72d1085a6db94867222743058f359c8da78240485cd6e86b53f6f"),
    (["spectral", "--n", "5", "--L", "256", "--iters", "50", "--init", "perturbed"],
     "e01e558c327f53b142130250347485d8a49a941ddb8a1b8aabc53dcf0c68b45b"),
    *[(argv, digest) for argv, digest in PINNED if argv in _BLAS_GRAM],
]
_ONE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


# tools/reach_audit.py runs one call of each
_UNPINNED_OPTIONS = {"--report", "--jet-file"}


def test_every_option_is_pinned():
    # each option of each command is set by some pinned argv of that command
    pinned = [argv for argv, _ in PINNED + PINNED_ONE_THREAD]
    missing = [f"{name} {param.opts[0]}" for name, command in main.commands.items()
               for param in command.params
               if isinstance(param, click.Option) and not _UNPINNED_OPTIONS & set(param.opts)
               and not any(argv[0] == name and set(param.opts) & set(argv) for argv in pinned)]
    assert missing == []


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
