"""Pretraining loop: AdamW with depth-scaled learning rates, cosine
annealing with warmup, an EMA teacher momentum schedule, image-usage
control, JSONL logging, and bit-exact checkpoint/resume.

Every random choice is derived statelessly from (seed, purpose, step), so a
resumed run consumes exactly the same randomness as an uninterrupted one.

Precision policy, mixed precision with float64 master weights (Micikevicius
et al., arXiv 1710.03740): the student and teacher parameters, the Adam
moments, the center and every checkpoint are float64. Each step casts the
student to ``COMPUTE_DTYPE`` leaves and the teacher to ``COMPUTE_DTYPE``
constants once; encoding, both losses and backward run on those copies, and
the gradients are upcast to float64 before clipping and AdamW. A checkpoint
records the compute dtype, and resume refuses another one. The probes follow
the same policy through ``compute_copies`` and ``master_grads``; the
``probes`` docstring gives their one exception.

Memory: one step's tape is alive at a time. A step drops its encodings,
losses and their graph once its log row is written, so the next step builds
its tape in the room this one freed, not beside it.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import tensor as T
from .ctsr import load_ctsr, save_ctsr
from .dataio import SceneSample
from .encoder import EncoderConfig, clone_params, encode, ema_update, init_params
from .geometry import Correspondence, build_correspondence, lattice_keys
from .objectives import ClusterLossConfig, LossWeights, combine, cross_loss, intra_loss
from .views import (MASK_GRID, MIN_LOCAL_POINTS, AugmentConfig, augmented_bounds,
                    make_viewset)

LOG_KEYS = ("step", "intra", "cross", "cross_mean_baseline", "total", "lr", "m_ema",
            "matched_pairs", "nonempty_patches", "grad_norm", "center_norm", "proto_used")

# AdamW (arXiv 1711.05101) with the usual moment decays
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.05    # the trainer's; the probes train without decay
LR_DEPTH_DECAY = 0.9   # learning-rate factor per stage toward the input
WARMUP_FRACTION = 0.1  # share of the steps spent in linear warmup
EMA_BASE = 0.996       # teacher momentum ramps from this to 1 (DINO, arXiv 2104.14294)
COMPUTE_DTYPE = np.float32  # of each step's forward and backward pass


def compute_copies(params: Dict[str, T.Tensor], track: bool) -> Dict[str, T.Tensor]:
    """``COMPUTE_DTYPE`` copies of ``params`` (as a rule, float64 masters):
    ``T.param`` leaves when ``track`` (the only tensors a backward pass
    reaches), constants otherwise."""
    make = T.param if track else T.Tensor
    return {k: make(p.data.astype(COMPUTE_DTYPE)) for k, p in params.items()}


def master_grads(copies: Dict[str, T.Tensor]) -> Dict[str, np.ndarray]:
    """The gradients of ``compute_copies(..., track=True)`` leaves, upcast to
    float64; zeros for a leaf the loss did not reach."""
    return {k: (c.grad.astype(np.float64) if c.grad is not None
                else np.zeros(c.data.shape))
            for k, c in copies.items()}


class TrainerError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 100
    base_lr: float = 0.004
    image_usage_ratio: float = 1.0
    weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0
    grad_clip: Optional[float] = None  # max global gradient norm; None = no clipping
    checkpoint_every_epochs: int = 0  # 0 = final checkpoint only
    total_steps: Optional[int] = None  # override epochs * len(dataset)

    def __post_init__(self):
        for name in ("epochs", "total_steps", "checkpoint_every_epochs"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0 < self.base_lr < np.inf:
            raise ValueError("base_lr must be positive and finite")
        if not 0 <= self.image_usage_ratio <= 1:
            raise ValueError("image_usage_ratio must be in [0, 1]")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ValueError("grad_clip must be positive when present")


@dataclass
class AdamState:
    m: Dict[str, np.ndarray]
    v: Dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, params: Dict[str, T.Tensor]) -> "AdamState":
        return cls(m={k: np.zeros_like(p.data) for k, p in params.items()},
                   v={k: np.zeros_like(p.data) for k, p in params.items()},
                   step=0)


def lr_schedule(step: int, total_steps: int, base_lr: float, warmup_steps: int) -> float:
    """Linear warmup to base_lr, then cosine annealing to zero."""
    if not 0 <= step <= total_steps:
        raise ValueError("step outside [0, total_steps]")
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * step / warmup_steps
    if total_steps == warmup_steps:
        return base_lr
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return 0.5 * base_lr * (1.0 + np.cos(np.pi * progress))


def ema_schedule(step: int, total_steps: int, m_base: float) -> float:
    """Cosine ramp of the teacher momentum from m_base to 1."""
    if total_steps <= 0:
        return m_base
    progress = min(max(step / total_steps, 0.0), 1.0)
    return 1.0 - (1.0 - m_base) * 0.5 * (1.0 + np.cos(np.pi * progress))


def lr_depth_factors(params: Dict[str, T.Tensor], cfg: EncoderConfig) -> Dict[str, float]:
    """Per-parameter learning-rate factor: LR_DEPTH_DECAY^(stage depth from
    the output); heads sit at the output, the mask token at the input."""
    deepest = cfg.num_stages - 1
    factors = {}
    for name in params:
        if name.startswith("stage"):
            s = int(name[5:name.index(".")])
            factors[name] = LR_DEPTH_DECAY ** (deepest - s)
        elif name == "mask_token":
            factors[name] = LR_DEPTH_DECAY ** deepest
        else:
            factors[name] = 1.0
    return factors


def adamw_step(params: Dict[str, T.Tensor], grads: Dict[str, np.ndarray],
               state: AdamState, lr: float, lr_factors: Dict[str, float],
               weight_decay: float = 0.0) -> None:
    """Standard decoupled-weight-decay Adam update, in place.

    Decay applies to 2-D weights only (not biases, tokens, prototypes-bias).
    Non-finite gradients abort the step naming the offending parameter.
    """
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise TrainerError(f"non-finite gradient in parameter '{name}'")
    t = state.step + 1
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1 - BETA1) * g
        v *= BETA2
        v += (1 - BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        step_lr = lr * lr_factors.get(name, 1.0)
        if weight_decay > 0 and p.data.ndim == 2:
            p.data -= step_lr * weight_decay * p.data
        p.data -= step_lr * update
    state.step = t


def clip_gradients(grads: Dict[str, np.ndarray], max_norm: Optional[float]) -> float:
    """Global-norm clipping (none when ``max_norm`` is None); returns the
    pre-clip norm. The sum runs in name order, so a resumed run, whose
    parameters load in that order, gets the same bits."""
    total = float(np.sqrt(sum(float((grads[k] * grads[k]).sum()) for k in sorted(grads))))
    if max_norm is not None and total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    params: Dict[str, T.Tensor]
    teacher: Dict[str, T.Tensor]
    state: AdamState
    center: np.ndarray
    step: int
    meta: dict


def save_checkpoint(path, params, teacher, state: AdamState, center: np.ndarray,
                    step: int, meta: Optional[dict] = None) -> Path:
    """Write a checkpoint directory atomically: every file goes into a
    temporary sibling, which then replaces ``path`` whole, so a save that
    fails partway leaves an earlier checkpoint at ``path`` as it was. (A
    process killed between the two renames leaves it at ``<path>.old``.)"""
    path = Path(path)
    tmp, old = path.with_name(path.name + ".tmp"), path.with_name(path.name + ".old")
    shutil.rmtree(tmp, ignore_errors=True)  # left behind by a killed save
    tmp.mkdir(parents=True)
    try:
        for sub, tensors in (("student", params), ("teacher", teacher)):
            for name, p in tensors.items():
                save_ctsr(tmp / sub / f"{name}.ctsr", p.data)
        for sub, arrays in (("adam_m", state.m), ("adam_v", state.v)):
            for name, arr in arrays.items():
                save_ctsr(tmp / sub / f"{name}.ctsr", arr)
        save_ctsr(tmp / "center.ctsr", center)
        doc = {"step": int(step), "adam_step": int(state.step),
               "param_names": sorted(params.keys())}
        doc.update(meta or {})
        (tmp / "meta.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    # a directory cannot be renamed over a non-empty one: move the old
    # checkpoint aside, and delete it once the new one is in place
    if path.exists():
        shutil.rmtree(old, ignore_errors=True)
        os.replace(path, old)
    os.replace(tmp, path)
    shutil.rmtree(old, ignore_errors=True)
    return path


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    meta_path = path / "meta.json"
    if not meta_path.exists():
        raise TrainerError(f"not a checkpoint directory: {path}")
    meta = json.loads(meta_path.read_text())
    names = meta["param_names"]
    params = {n: T.param(load_ctsr(path / "student" / f"{n}.ctsr")) for n in names}
    teacher = {n: T.Tensor(load_ctsr(path / "teacher" / f"{n}.ctsr")) for n in names}
    state = AdamState(m={n: load_ctsr(path / "adam_m" / f"{n}.ctsr") for n in names},
                      v={n: load_ctsr(path / "adam_v" / f"{n}.ctsr") for n in names},
                      step=int(meta["adam_step"]))
    center = load_ctsr(path / "center.ctsr")
    return Checkpoint(params=params, teacher=teacher, state=state, center=center,
                      step=int(meta["step"]), meta=meta)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    params: Dict[str, T.Tensor]
    teacher: Dict[str, T.Tensor]
    center: np.ndarray
    state: AdamState
    log: List[dict]
    checkpoints: List[Path]


def _scene_grids(sample: SceneSample):
    if any(v.feature_grid is None for v in sample.views) or not sample.views:
        return None
    return [v.flat_feature_grid() for v in sample.views]


def _truncate_log(path: Path, start_step: int):
    """Drop the rows of step ``start_step`` and later from an existing log, so
    a resumed run logs each step once. The kept rows go to a temporary file
    that is renamed into place."""
    if not path.exists():
        return
    with open(path) as fh:
        # a row without its newline was cut short by an interrupted write
        kept = [line for line in fh
                if line.endswith("\n") and json.loads(line)["step"] < start_step]
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.writelines(kept)
    os.replace(tmp, path)


def _check_resumable(ck: Checkpoint, meta: dict, params: Dict[str, T.Tensor],
                     path) -> None:
    """Refuse to resume a checkpoint under an encoder config or a compute
    dtype it was not trained with, or whose parameter names or shapes differ
    from ``params``."""
    for key in ("encoder", "compute_dtype"):
        if key not in ck.meta:
            raise TrainerError(f"checkpoint {path} has no '{key}' entry in meta.json")
    saved, enc_meta = ck.meta["encoder"], meta["encoder"]
    differ = sorted(k for k in saved.keys() | enc_meta.keys()
                    if saved.get(k) != enc_meta.get(k))
    if differ:
        raise TrainerError(f"checkpoint {path} was trained with a different encoder "
                           f"config; differing fields: {', '.join(differ)}")
    if ck.meta["compute_dtype"] != meta["compute_dtype"]:
        raise TrainerError(f"checkpoint {path} was trained with compute_dtype "
                           f"{ck.meta['compute_dtype']}, this run computes in "
                           f"{meta['compute_dtype']}")
    got, want = ({k: p.shape for k, p in d.items()} for d in (ck.params, params))
    for name in sorted(got.keys() | want.keys()):
        if got.get(name) != want.get(name):
            raise TrainerError(f"checkpoint {path}: parameter '{name}' has shape "
                               f"{got.get(name)}, the encoder config gives {want.get(name)}")


def train(samples: Sequence[SceneSample], cfg: TrainConfig, enc_cfg: EncoderConfig,
          aug_cfg: AugmentConfig, cluster_cfg: ClusterLossConfig,
          out_dir=None, resume_from=None, step_hook=None) -> TrainResult:
    """Run the pretraining loop over scene samples.

    Deterministic under (configs, seed); a run resumed from a checkpoint at
    step k produces the same parameters and log lines as an uninterrupted
    run, bit for bit. ``step_hook(step, params, teacher, m_ema)`` is called
    after every optimizer/EMA update (observer only). With ``out_dir``, only
    a completed schedule writes ``ckpt_final``, the last of ``checkpoints``;
    an exception, from ``step_hook`` or not, stops the run like a crash, and
    it resumes from its last periodic ``ckpt_step<k>``. Every checkpoint
    records the encoder config and the compute dtype, and resuming under
    another one, or from parameters of other names or shapes, is refused. So
    is a scene too small to crop, one whose augmented views can reach
    beyond the voxel key range (``views.augmented_bounds``), and, when the
    cross branch can run, one whose image features are not
    ``enc_cfg.cross_dim`` wide; these checks run before step 0.
    """
    if not samples:
        raise TrainerError("dataset is empty")
    # the finest lattice a step voxelizes (coarser ones have smaller keys),
    # checked on the box that augmentation can carry a scene's views into
    finest_cell = min(enc_cfg.voxel_size, MASK_GRID)
    cross_can_run = cfg.weights.cross > 0 and cfg.image_usage_ratio > 0
    for sample in samples:
        # every step draws local crops of at least this many points
        if sample.cloud.num_points < MIN_LOCAL_POINTS:
            raise TrainerError(f"scene {sample.scene_id} has {sample.cloud.num_points} "
                               f"points; training needs at least {MIN_LOCAL_POINTS}")
        try:
            lattice_keys(np.stack(augmented_bounds(sample.cloud.coords, aug_cfg)),
                         finest_cell)
        except ValueError as e:
            raise TrainerError(f"scene {sample.scene_id}, once augmented: {e}") from e
        grids = _scene_grids(sample) if cross_can_run else None
        for i, grid in enumerate(grids or ()):
            if grid.shape[1] != enc_cfg.cross_dim:
                raise TrainerError(f"scene {sample.scene_id}, view {i}: image features are "
                                   f"{grid.shape[1]} wide, enc_cfg.cross_dim is {enc_cfg.cross_dim}")
    # the JSON round trip makes the stored and the current entry compare equal
    meta = {"encoder": json.loads(json.dumps(asdict(enc_cfg))),
            "compute_dtype": np.dtype(COMPUTE_DTYPE).name}
    n = len(samples)
    total_steps = cfg.total_steps if cfg.total_steps is not None else cfg.epochs * n
    warmup_steps = int(round(WARMUP_FRACTION * total_steps))

    params = init_params(enc_cfg, seed=cfg.seed)
    if resume_from is not None:
        ck = load_checkpoint(resume_from)
        _check_resumable(ck, meta, params, resume_from)
        params, teacher, state, center = ck.params, ck.teacher, ck.state, ck.center
        start_step = ck.step
    else:
        teacher = clone_params(params)
        state = AdamState.init(params)
        center = np.zeros(enc_cfg.proto_count)
        start_step = 0

    factors = lr_depth_factors(params, enc_cfg)
    corr_cache: Dict[str, Correspondence] = {}
    out = Path(out_dir) if out_dir is not None else None
    log_fh = None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        log_path = out / "train_log.jsonl"
        if resume_from is not None:
            _truncate_log(log_path, start_step)
        log_fh = open(log_path, "a" if resume_from else "w")

    log: List[dict] = []
    checkpoints: List[Path] = []
    try:
        for step in range(start_step, total_steps):
            epoch = step // n
            order = np.random.default_rng([cfg.seed, 88, epoch]).permutation(n)
            sample = samples[order[step % n]]

            step_rng = np.random.default_rng([cfg.seed, 55, step])
            view_seed = int(step_rng.integers(2 ** 31))
            image_draw = step_rng.random()

            grids = _scene_grids(sample)
            use_images = (grids is not None and cfg.weights.cross > 0
                          and image_draw < cfg.image_usage_ratio)

            vs = make_viewset(sample.cloud, aug_cfg, seed=view_seed)
            # compute copies of the float64 masters; only they join the tape
            params_c = compute_copies(params, track=True)
            teacher_c = compute_copies(teacher, track=False)
            student = [(v, encode(v, params_c, enc_cfg)) for v in vs.student_views]
            teach = [(v, encode(v, teacher_c, enc_cfg)) for v in vs.teacher_views]

            intra, center, pairs, proto_used = intra_loss(
                student, teach, params_c, teacher_c, center, cluster_cfg)
            cross = None
            patches, cross_baseline = 0, 0.0
            if use_images:
                if sample.scene_id not in corr_cache:
                    corr_cache[sample.scene_id] = build_correspondence(
                        sample.cloud.coords, sample.views)
                cross, patches, cross_baseline = cross_loss(
                    student[0][1], corr_cache[sample.scene_id], grids, params_c)
            total = combine(intra, cross, cfg.weights)
            if not np.isfinite(total.data).all():
                if out is not None:
                    save_checkpoint(out / "dump_nonfinite", params, teacher, state,
                                    center, step, meta=meta)
                raise TrainerError(f"non-finite loss at step {step}")

            T.backward(total)
            grads = master_grads(params_c)
            grad_norm = clip_gradients(grads, cfg.grad_clip)
            lr = lr_schedule(step, total_steps, cfg.base_lr, warmup_steps)
            adamw_step(params, grads, state, lr, factors, weight_decay=WEIGHT_DECAY)
            m_ema = ema_schedule(step, total_steps, EMA_BASE)
            ema_update(teacher, params, m_ema)
            if step_hook is not None:
                step_hook(step, params, teacher, m_ema)

            row = dict(zip(LOG_KEYS, (
                step, intra.item(), cross.item() if cross is not None else 0.0,
                cross_baseline, total.item(), float(lr), float(m_ema), pairs, patches,
                grad_norm, float(np.linalg.norm(center)), proto_used)))
            log.append(row)
            if log_fh is not None:
                log_fh.write(json.dumps(row) + "\n")
                log_fh.flush()
            # free this step's tape before the next step builds its own
            del student, teach, intra, cross, total

            if (out is not None and cfg.checkpoint_every_epochs > 0 and step + 1 < total_steps
                    and (step + 1) % (n * cfg.checkpoint_every_epochs) == 0):
                checkpoints.append(save_checkpoint(out / f"ckpt_step{step + 1:06d}",
                                                   params, teacher, state, center,
                                                   step + 1, meta=meta))
        if out is not None:
            # a run resumed past a shorter schedule keeps its checkpoint's step
            checkpoints.append(save_checkpoint(out / "ckpt_final", params, teacher, state,
                                               center, max(start_step, total_steps), meta=meta))
    finally:
        if log_fh is not None:
            log_fh.close()
    return TrainResult(params=params, teacher=teacher, center=center, state=state,
                       log=log, checkpoints=checkpoints)
