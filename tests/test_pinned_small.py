"""The benchmark's small-size outputs keep their bits. Each workload runs in
a child interpreter with one OpenBLAS thread at each pinned seed, and its
``loss_final``, ``probe_miou`` and ``language_cos`` must equal, by ``repr``,
the values in ``pinned_small.json``. The pins hold for one build only:
numpy, scipy and the runtime configuration of numpy's bundled OpenBLAS,
which names the CPU kernel it picked. On any other build the test skips and names what differs.
A change that means to move these bits rewrites the file and reports the
old and new values."""

import ctypes
import json
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
import scipy

from oracles import child_env

ROOT = Path(__file__).resolve().parents[1]
PINNED = json.loads((Path(__file__).with_name("pinned_small.json")).read_text())
OUTPUTS = ("loss_final", "probe_miou", "language_cos")


def openblas_config():
    """The runtime configuration string of the OpenBLAS bundled with numpy,
    or None where numpy bundles none."""
    libs = sorted((Path(numpy.__file__).resolve().parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    if not libs:
        return None
    get = ctypes.CDLL(str(libs[0])).scipy_openblas_get_config64_
    get.restype = ctypes.c_char_p
    return get().decode()


def build_differences() -> list:
    here = {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": openblas_config()}
    return [f"{k} is {here[k]!r}, the pins were taken with {v!r}"
            for k, v in PINNED["build"].items() if here[k] != v]


@pytest.mark.parametrize("workload", sorted(PINNED["outputs"]))
def test_small_run_outputs_match_the_pins(workload):
    differ = build_differences()
    if differ:
        pytest.skip("another build: " + "; ".join(differ))
    got = {}
    for seed in PINNED["outputs"][workload]:
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                              "--seed", seed, "--size", "small", "--seconds", "1"],
                             cwd=ROOT, env=child_env("1"), capture_output=True, text=True,
                             timeout=300, check=True).stdout
        metrics = json.loads(out.splitlines()[-1])["metrics"]
        got[seed] = {k: repr(metrics[k]["value"]) for k in OUTPUTS}
    assert got == PINNED["outputs"][workload]
