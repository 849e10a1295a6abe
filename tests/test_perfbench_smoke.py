"""The benchmark's workloads run at their small size through the same code as
a full run, so a change that breaks what they call (the set-up round-trip
checks, the tracer's wrappers and counters) fails the unit tests, not only
the benchmark's own self-tests."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 3


@pytest.fixture(scope="module")
def workloads():
    # the benchmark's modules import each other by their bare names
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload,traced", [("pretrain", False), ("pretrain_points", False),
                                             ("eval", False), ("pretrain_points", True),
                                             ("pretrain", True), ("eval", True)])
def test_small_run_passes_every_check(workloads, tmp_path, workload, traced):
    # the traced eval run fits the probes on the row-block thread pool while
    # the tracer's wrappers are installed
    metrics, checks, _info = workloads.run(workload, SEED, 1.0, traced, "small", 0.0, tmp_path)
    assert checks.total_attempted > 0 and checks.total_failed == 0, checks.failed
    if traced and workload == "eval":
        assert metrics["probes.linear_probe_s"].value > 0
    elif traced:
        assert 0 < metrics["objectives.patch_hit_ratio"].value <= 1
