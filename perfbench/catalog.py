"""The benchmark's metric catalogue: workloads, end-to-end metrics and
per-layer metrics, with the end-to-end metric and workload each per-layer
metric should move.

This module is the single source of the names and units that ``run.py``
emits; ``BENCHMARK.json`` at the repository root is ``manifest()`` written
out (``python3 perfbench/catalog.py > BENCHMARK.json``), and the self-tests
check that the two agree.
"""

from __future__ import annotations

import json

PRETRAIN = "pretrain"
POINTS = "pretrain_points"
EVAL = "eval"

WORKLOADS = {
    PRETRAIN: "pinned config, 2 scenes x 4096 points, 992-wide features and 1024 "
              "prototypes: dense matmul/gelu and the prototype scatter dominate",
    POINTS: "narrow encoder on 2 scenes x 32768 points: per-point index work "
            "(voxelize, sort/reduceat, masks, view matching) dominates",
    EVAL: "forward-only feature extraction of 4 scenes x 16384 points, then "
          "linear and language probes: no encoder backward, no views, no intra loss",
}

ALL = (PRETRAIN, POINTS, EVAL)

# name, unit, better, bound. Every workload emits every metric; on ``eval``
# the training loop is the linear-probe head (see README.md). Timings get
# the widest bound: on a 2-CPU VM their run-to-run spread reached 0.18.
# The deterministic metrics vary only with the data seed.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("step_s", "s", "lower", 0.25),
    ("train_s", "s", "lower", 0.25),
    ("loss_final", "nat", "lower", 0.25),
    ("probe_miou", "ratio", "higher", 0.1),
    ("extract_s", "s", "lower", 0.25),
    ("probe_s", "s", "lower", 0.25),
    ("language_cos", "cos", "higher", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

# Ops measured per ``Tensor._op`` family: ``add`` covers add/add_bias/
# add_scalar and ``mul`` covers mul/mul_row/mul_scalar.
OPS = ("matmul", "gelu", "gather_rows", "segment_mean", "voxel_smooth",
       "log_softmax", "layernorm", "l2norm", "cosine", "concat", "add", "mul",
       "transpose", "reshape", "sum", "mean", "cross_entropy_rows")

DENSE_OPS = {"matmul", "gelu", "log_softmax", "layernorm", "l2norm", "cosine",
             "add", "mul", "transpose", "sum", "mean", "cross_entropy_rows"}

_STEP_BOTH = [("step_s", PRETRAIN), ("step_s", POINTS)]


def _layer(name, unit, better, moves):
    return {"name": name, "unit": unit, "better": better, "moves": moves}


def _per_layer():
    out = []
    for phase in ("make_viewset", "encode_student", "encode_teacher", "intra_loss",
                  "cross_loss", "backward", "adamw_step", "ema_update", "other"):
        out.append(_layer(f"trainer.{phase}_s", "s", "lower", _STEP_BOTH))
    out.append(_layer("trainer.step_s", "s", "lower", _STEP_BOTH))
    out.append(_layer("trainer.save_checkpoint_s", "s", "lower", [("train_s", PRETRAIN)]))
    out.append(_layer("trainer.build_correspondence.calls", "count", "lower",
                      [("train_s", PRETRAIN)]))
    for op in OPS:
        if op in DENSE_OPS:
            moves = [("step_s", PRETRAIN), ("probe_s", EVAL)]
        else:
            moves = _STEP_BOTH + [("extract_s", EVAL)]
        out.append(_layer(f"tensor.{op}.fwd_s", "s", "lower", moves))
        out.append(_layer(f"tensor.{op}.bwd_s", "s", "lower", moves))
        out.append(_layer(f"tensor.{op}.calls", "count", "lower", moves))
    out.append(_layer("tensor.backward_s", "s", "lower", _STEP_BOTH + [("probe_s", EVAL)]))
    out.append(_layer("tensor.scatter_add_rows_s", "s", "lower", _STEP_BOTH))
    out.append(_layer("tensor.segment_sum_np_s", "s", "lower", _STEP_BOTH))
    out.append(_layer("tensor.tape_nodes", "count", "lower",
                      [("peak_rss_mb", PRETRAIN), ("step_s", PRETRAIN)]))
    out.append(_layer("tensor.tape_mb", "MB", "lower",
                      [("peak_rss_mb", PRETRAIN), ("step_s", PRETRAIN)]))
    for name in ("encoder.encode_s", "encoder.upcast_s"):
        out.append(_layer(name, "s", "lower", _STEP_BOTH + [("extract_s", EVAL)]))
    out.append(_layer("geometry.voxelize_s", "s", "lower",
                      [("step_s", POINTS), ("extract_s", EVAL)]))
    out.append(_layer("geometry.voxelize.points", "count", "lower",
                      [("step_s", POINTS), ("extract_s", EVAL)]))
    out.append(_layer("geometry.build_correspondence_s", "s", "lower",
                      [("step_s", POINTS), ("extract_s", EVAL)]))
    out.append(_layer("views.make_viewset_s", "s", "lower", [("step_s", POINTS)]))
    out.append(_layer("views.match_views_s", "s", "lower", [("step_s", POINTS)]))
    out.append(_layer("views.points_per_step", "count", "lower", [("step_s", POINTS)]))
    out.append(_layer("objectives.intra_loss_s", "s", "lower", [("step_s", PRETRAIN)]))
    out.append(_layer("objectives.cross_loss_s", "s", "lower",
                      [("step_s", PRETRAIN), ("step_s", POINTS)]))
    out.append(_layer("objectives.assign_patches_s", "s", "lower",
                      [("step_s", PRETRAIN), ("step_s", POINTS)]))
    out.append(_layer("objectives.matched_pairs", "count", "higher", [("step_s", PRETRAIN)]))
    out.append(_layer("objectives.patch_hit_ratio", "ratio", "higher",
                      [("step_s", PRETRAIN), ("step_s", POINTS)]))
    out.append(_layer("probes.extract_features_s", "s", "lower", [("extract_s", EVAL)]))
    for name in ("probes.linear_probe_s", "probes.language_probe_s",
                 "probes.lift_patch_features_s"):
        out.append(_layer(name, "s", "lower", [("probe_s", EVAL)]))
    setup_all = [("setup_s", w) for w in ALL]
    for name in ("dataio.generate_synthetic_s", "dataio.save_dataset_s",
                 "dataio.load_all_samples_s"):
        out.append(_layer(name, "s", "lower", setup_all))
    io_moves = setup_all + [("train_s", PRETRAIN)]
    out.append(_layer("ctsr.save_s", "s", "lower", io_moves))
    out.append(_layer("ctsr.load_s", "s", "lower", io_moves))
    out.append(_layer("ctsr.bytes_written", "B", "lower", io_moves))
    out.append(_layer("ctsr.bytes_read", "B", "lower", io_moves))
    out.append(_layer("trace.overhead", "ratio", "lower", []))
    return out


PER_LAYER = _per_layer()

RUN_SECONDS = 35


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2))
