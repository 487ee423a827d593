"""Report bytes: the leaves the encoder maps, and pinned digests of the
reports that guard byte-identical output."""

import ctypes
import glob
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
     "d71b59b0d15d8b1340b7e1b786accea34763220b3eca42f3d11d0f5d908526b3"),
    (["parametrix", "--n", "6", "--seed", "1"],
     "3359af32dd45b97a3350ecb329e06e8799e9c5c29180b4967f56f0b38413a361"),
    (["parametrix", "--n", "8", "--seed", "1"],
     "209a4df1c7fa522366ed8a56919f054d67ee146c50e4751e1fb8b5acc4b53378"),
    (["parametrix", "--n", "12", "--seed", "1"],
     "b5a80964acd57c64790a9cc1cd999787df2fa92116666274d0fbd5dd3bc0aaa0"),
    (["parametrix", "--n", "16", "--seed", "1"],
     "67c57b7b3397ba726ba2d8f955b565049889b6cda25ae6077ca0a16004dda93d"),
    # the top dimension the CLI accepts, tensor.MAX_N
    (["parametrix", "--n", "40", "--seed", "1"],
     "6ab44ab426d0966cec9f26098887b7b68bd533d3dd8ecc0625074518a7a92eca"),
    (["parametrix", "--n", "8", "--flat"],
     "473dd4178c8857411b62e633a98d9f54139e0951b94f35edb3294165b292c3f8"),
    (["constants", "--format", "json"],
     "10bb6d362ca874e4d4c7643525c1b5e7ba7822fba764c7b69977472f2bfb7a85"),
    (["constants", "--n", "5..6", "--format", "latex"],
     "26695c1d63da14cedc14a740e4b48d5e58e44de6faad6de550b0e8e7276c6f46"),
    (["spectral"],
     "d5fca2f515e9f4acea3fd154b5711b099cbbb5c1b0ba8b5bfc5cab2b3a8a8c71"),
    (["spectral", "--n", "9", "--init", "perturbed", "--damping", "0.3"],
     "db25a031edebbfefcee54c4dd63a7c220a337d64a4176dc5e06187e04c2687a7"),
    # an odd L, an undamped step, and integer critical exponents 3 and 5
    (["spectral", "--n", "8", "--L", "41", "--init", "perturbed", "--damping", "1.0"],
     "0dae140fe0fa7ef9c7e806e67e974e07cf7152c03dabcf49d386a7fab869c63e"),
    (["spectral", "--n", "6", "--L", "41", "--init", "perturbed", "--damping", "1.0",
      "--iters", "30"],
     "cbe59cd7c1272aab0200e726ed56652976a9ec8c9dbda19ba44836404fd80277"),
    (["asymptotics", "--case", "flat", "--n", "5"],
     "f9e0a7debded2a1dc1ada31756420d4ab9e79d90141bcb28d1d08372273680b8"),
    (["asymptotics", "--case", "lowdim", "--n", "6"],
     "ada572c6dc68af976824a7193771c475cacaefbc6a73f92d2d85f15f5bdc41b0"),
    (["asymptotics", "--case", "n8", "--n", "8"],
     "5757b9c230d168f42253edb897f933b1d78936cafc47e26b71596af30c1e4eeb"),
    (["asymptotics", "--case", "n9", "--n", "9"],
     "acc998fb19d40ec7d6af70179821c991ca656e607afa906651dd455212d1630b"),
    (["asymptotics", "--case", "high", "--n", "10"],
     "bd3c1e3cb59b39acf53c0bdad457c9645ac98ec411aeded8175f7be64f1d6241"),
    (["asymptotics", "--case", "high", "--n", "12", "--seed", "3",
      "--lambdas", "0.04,0.028,0.02,0.014,0.01"],
     "c9f3595c5bea382e95143f496dbc131ac7adfadbecdb61cbac6ccbbeed241ec5"),
    (["asymptotics", "--case", "flat", "--n", "6", "--a0", "2.5",
      "--lambdas", "0.1,0.05,0.025,0.0125,0.00625"],
     "3766eca5e45a47f90e11029148cae2ed76c4e9c4816fd07422f387c69d3587f6"),
    (["verify", "asymptotics"],
     "249cee9af72eca54b3c78854818bb7eabf33196a77a7b2f217841a6d5d3f22f2"),
    (["verify", "bubbles"],
     "bf8104c2921be1a9eab464be48f635f1cc19f52f7d6e4b1097110670dc77e93d"),
    (["verify", "weyl", "--n", "4..12", "--trials", "5"],
     "9a24e11b268419395b2b6fa9e4ebd539e6040d89a965e3373357cf8729f6b4b4"),
    (["verify", "polyalg", "--seed", "3", "--trials", "8"],
     "c19fbf755b51aeb07d0f3ce2f743d7e4b14d35de1411f07b39abcae3041a92c7"),
    (["verify", "parametrix", "--n", "8..10", "--trials", "2"],
     "3021f5306fa25e275154564f8a55fb83f5644b78874956fea53bb30da59ee898"),
    (["verify", "spectral"],
     "e1c14771d5ca2e769b5dc3e955644e194826253f759efa9d01e04089ec1f9382"),
    (["verify", "spectral", "--n", "5,7", "--L", "40"],
     "2c46978de1b084159b68e96e267012ed90b068915536eb73b0b9719024a8966f"),
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
     "eeaf53e53786be32d7d8d3e08346584ca165b3b603ad8535336a8d4c39d8907c"),
    (["spectral", "--n", "5", "--L", "256", "--iters", "50", "--init", "perturbed"],
     "a34bbb380b62cd0b0e84c8d95382d77b9383d838b5f962050309d1ad3a84e9a6"),
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


# The pins that hold across CPU kernels: the exact reports and the two
# constants and bubbles ones.  The float pins of spectral and asymptotics
# move with numpy's SIMD kernels and OpenBLAS's core kernels (ROADMAP
# direction 24); they hold only on the kernels they were taken on.
KERNEL_FREE = [(argv, digest) for argv, digest in PINNED
               if argv[0] in ("parametrix", "constants")
               or argv[:2] in [["verify", "weyl"], ["verify", "polyalg"], ["verify", "parametrix"],
                               ["verify", "bubbles"]]]


def _kernel_probe() -> dict:
    """Emulation variable -> what it sets, as this process reads it: numpy's
    AVX-512 dispatch, and the core the bundled OpenBLAS picked (None where
    numpy bundles no OpenBLAS that names its core)."""
    from numpy._core._multiarray_umath import __cpu_features__

    core = None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            core = corename().decode()
    return {"NPY_DISABLE_CPU_FEATURES": __cpu_features__.get("AVX512_SKX"),
            "OPENBLAS_CORETYPE": core}


# prints its probe before it runs anything, so a child whose emulation fails
# to start is told apart from one whose reports move
_KERNEL_CHILD = """
import hashlib, json
from click.testing import CliRunner
from qcurv.cli import main
from test_report import KERNEL_FREE, _kernel_probe
print(json.dumps(_kernel_probe()), flush=True)
print(json.dumps([hashlib.sha256(CliRunner().invoke(main, argv).stdout_bytes).hexdigest()
                  for argv, _ in KERNEL_FREE]))
"""


@pytest.mark.parametrize("variable,value", [
    ("NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR"),
    ("OPENBLAS_CORETYPE", "Haswell"),
])
def test_kernel_free_pins_hold_under_other_cpu_kernels(variable, value):
    """Each emulation is set on one child process at one BLAS thread; the
    child shows first that it took effect, then gives the pinned bytes."""
    assert len(KERNEL_FREE) == 12
    tests = os.path.dirname(os.path.abspath(__file__))
    path = [os.path.join(os.path.dirname(tests), "src"), tests, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **_ONE_THREAD, variable: value, "PYTHONPATH": os.pathsep.join(path)}
    res = subprocess.run([sys.executable, "-c", _KERNEL_CHILD], env=env, capture_output=True,
                         text=True, timeout=300)
    lines = res.stdout.splitlines()
    if not lines:
        pytest.skip(f"{variable}={value} does not start here: {res.stderr.strip()[-300:]}")
    probe, here = json.loads(lines[0])[variable], _kernel_probe()[variable]
    if probe == here:
        pytest.skip(f"{variable}={value} has no effect here: the probe reads {probe!r} either way")
    assert res.returncode == 0, res.stderr
    assert json.loads(lines[1]) == [digest for _, digest in KERNEL_FREE]
