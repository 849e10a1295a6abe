"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

Each workload runs at a reduced size through the same code path as the
full benchmark, traced and untraced.
"""

from __future__ import annotations

import functools
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import catalog  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                           "--size", "small"],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@functools.cache
def small_run(workload, trace):
    """(result, report) of one reduced-size run, run once per session."""
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert lines[-2].startswith("report ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("report "):])


def test_benchmark_json_is_the_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == catalog.manifest()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert 2 <= len(doc["workloads"]) <= 8 and len(doc["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    e2e = {m["name"] for m in doc["end_to_end"]}
    for m in catalog.PER_LAYER:
        for metric, workload in m["moves"]:
            assert metric in e2e and workload in catalog.WORKLOADS


@pytest.mark.parametrize("workload", list(catalog.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_small_run_emits_every_metric(workload, trace):
    result, report = small_run(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["error_rate"] == 0
    specs = catalog.END_TO_END if not trace else [(m["name"], m["unit"])
                                                   for m in catalog.PER_LAYER]
    expect = {spec[0]: spec[1] for spec in specs}
    assert set(result["metrics"]) == set(expect)
    for name, m in result["metrics"].items():
        assert m["unit"] == expect[name]
        assert math.isfinite(m["value"]) and m["value"] >= 0
        if not trace:
            assert m["value"] > 0, name
    prov = report["provenance"]
    for key in ("commit", "dirty", "nproc", "python", "numpy", "scipy", "blas",
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "seed"):
        assert key in prov


def test_trainer_phases_add_up_to_the_step():
    metrics = small_run("pretrain", 1)[0]["metrics"]
    phases = [f"trainer.{p}_s" for p in tracing.TRAINER_PHASES] + ["trainer.other_s"]
    total = sum(metrics[p]["value"] for p in phases)
    assert total == pytest.approx(metrics["trainer.step_s"]["value"], rel=1e-9)
    assert metrics["trainer.other_s"]["value"] >= 0
    assert metrics["tensor.matmul.bwd_s"]["value"] > 0
    assert metrics["trainer.build_correspondence.calls"]["value"] == 2  # one per scene


def test_eval_runs_no_encoder_backward():
    metrics = small_run("eval", 1)[0]["metrics"]
    for name in ("trainer.step_s", "tensor.gelu.bwd_s", "tensor.segment_mean.bwd_s",
                 "views.make_viewset_s", "objectives.intra_loss_s"):
        assert metrics[name]["value"] == 0, name


@pytest.mark.parametrize("workload", list(catalog.WORKLOADS))
def test_traced_loss_is_bit_identical(workload):
    untraced = small_run(workload, 0)[0]["metrics"]["loss_final"]["value"]
    _result, report = small_run(workload, 1)
    assert report["checks"]["trace_observes_only"] == {"attempted": 1, "failed": 0}
    assert report["info"]["traced_loss_final"] == untraced


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("pretrain", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    tr.spans = [["bench.round", 0.0, 10.0, -1],
                ["trainer.step", 1.0, 6.0, 0],
                ["trainer.encode_student", 1.0, 3.0, 1],
                ["encoder.encode", 1.0, 3.0, 2],
                ["tensor.matmul.fwd", 1.5, 2.5, 3],
                ["trainer.backward", 4.0, 5.0, 1],
                ["tensor.backward", 4.0, 5.0, 5],
                ["tensor.matmul.bwd", 4.2, 4.6, 6]]
    times = tracing.span_times(tr.spans)
    assert [t[2] for t in times] == pytest.approx([5.0, 2.0, 0.0, 1.0, 1.0, 0.0, 0.6, 0.4])
    m = tracing.layer_metrics(tr, ["matmul"])
    assert m["trainer.step_s"] == 5.0
    assert m["trainer.encode_student_s"] == 2.0
    assert m["trainer.backward_s"] == 1.0
    assert m["trainer.other_s"] == 2.0
    assert m["encoder.encode_s"] == 1.0
    assert m["tensor.matmul.fwd_s"] == 1.0
    assert m["tensor.backward_s"] == pytest.approx(0.6)
