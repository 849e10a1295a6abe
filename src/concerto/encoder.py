"""Hierarchical voxel-pooling point encoder with teacher/student parameter
pairs, upcast feature concatenation, projection/prototype/cross heads, and
low-rank adapter factors, plain parameter tensors that are merged into their
weights before encoding.

A ``Hierarchy``, built once per cloud, holds its voxel levels: level k + 1 is
level k's centroids on cells of ``voxel_size * 2**k``, one level per pooling
step plus a coarser one that only context mixing reads, with the parent and
mixing maps as ``T.SegmentMap``s, which every encode of the cloud (the
trainer's masked views share the first global view's) and its backward read.
Stage 0 embeds per-point input features (colors plus offsets from the finest
voxel centroid; no absolute coordinates, so features cannot shortcut through
position). Each later stage mean-pools the previous stage into its parent
voxels and applies an MLP; one voxel-neighborhood mean per stage, over its
ancestors two levels up (one for the last stage), mixes in local context.
``upcast`` copies every coarser stage down to a finer point set through its
composed parent map, writing all stages side by side into one output. The
encoder owns the feature levels: the intra-modal heads read ``INTRA_LEVEL``
upcast steps, the cross-modal head ``CROSS_LEVEL``. ``proj_head`` reads the
stages of an ``EncodeResult`` directly: its first layer multiplies each stage
on its own rows and gathers the products, so the wide upcast is never built.
Prototypes are the columns of a (proj_dim, proto_count) matrix.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import tensor as T
from .geometry import voxelize
from .views import View

logger = logging.getLogger(__name__)

INPUT_DIM = 6  # rgb + intra-voxel offset
MLP_DEPTH = 2  # linear layers per stage block
# upcast levels (pooling steps up from the coarsest stage) of the features
# the intra-modal and cross-modal branches read
INTRA_LEVEL = 2
CROSS_LEVEL = 3


@dataclass
class EncoderConfig:
    stage_dims: List[int] = field(default_factory=lambda: [32, 64, 128, 256, 512])
    voxel_size: float = 0.05  # pooling step k voxelizes at voxel_size * 2**k
    proto_count: int = 1024
    proj_dim: int = 256
    cross_dim: Optional[int] = None

    def __post_init__(self):
        if any(d <= 0 for d in self.stage_dims):
            raise ValueError("stage dims must be positive")
        if not 0 < self.voxel_size < np.inf:
            raise ValueError("voxel_size must be positive and finite")
        if self.proto_count < 1 or self.proj_dim < 1 or (
                self.cross_dim is not None and self.cross_dim < 1):
            raise ValueError("proto_count, proj_dim and a set cross_dim must be at least 1")
        if self.num_pool_steps < CROSS_LEVEL:
            raise ValueError(f"cross upcast level {CROSS_LEVEL} needs at least "
                             f"{CROSS_LEVEL} pooling steps, got {self.num_pool_steps}")

    @property
    def num_stages(self) -> int:
        return len(self.stage_dims)

    @property
    def num_pool_steps(self) -> int:
        return len(self.stage_dims) - 1

    def upcast_dim(self, level: int) -> int:
        """Feature width after ``level`` upcast steps from the coarsest stage."""
        if not 0 <= level <= self.num_pool_steps:
            raise ValueError(f"upcast level {level} out of range")
        return int(sum(self.stage_dims[self.num_stages - 1 - level:]))


def init_params(cfg: EncoderConfig, seed: int = 0) -> Dict[str, T.Tensor]:
    """Student parameter set. Weight layout is (d_in, d_out); y = x @ w + b."""
    if cfg.cross_dim is None:
        raise ValueError("cross_dim must be set (the image feature width) before init")
    rng = np.random.default_rng([seed, 0xE2C0])
    params: Dict[str, T.Tensor] = {}

    def lin(name, d_in, d_out):
        params[f"{name}.w"] = T.param(rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d_out)))
        params[f"{name}.b"] = T.param(np.zeros(d_out))

    # not zeros: layernorm's backward scales a constant, zero-variance input row
    # by 1/sqrt(eps). Its own rng stream keeps the other parameters' draws apart.
    params["mask_token"] = T.param(
        np.random.default_rng([seed, 0x3A5C]).normal(0.0, 0.02, size=INPUT_DIM))
    for s, d_out in enumerate(cfg.stage_dims):
        d_in = INPUT_DIM if s == 0 else cfg.stage_dims[s - 1]
        for i in range(MLP_DEPTH):
            lin(f"stage{s}.lin{i}", d_in if i == 0 else d_out, d_out)
    lin("proj.lin0", cfg.upcast_dim(INTRA_LEVEL), cfg.proj_dim)
    lin("proj.lin1", cfg.proj_dim, cfg.proj_dim)
    params["proto.w"] = T.param(rng.normal(0.0, 1.0 / np.sqrt(cfg.proj_dim),
                                           size=(cfg.proto_count, cfg.proj_dim)).T.copy())
    lin("cross", cfg.upcast_dim(CROSS_LEVEL), cfg.cross_dim)
    return params


def clone_params(params: Dict[str, T.Tensor]) -> Dict[str, T.Tensor]:
    """Teacher copy: same values, never tracked by the optimizer or the tape."""
    return {k: T.Tensor(v.data.copy(), requires_grad=False) for k, v in params.items()}


def ema_update(teacher: Dict[str, T.Tensor], student: Dict[str, T.Tensor], m: float) -> None:
    """theta_t <- m * theta_t + (1 - m) * theta_s, elementwise, heads included."""
    if teacher.keys() != student.keys():
        raise ValueError("teacher/student parameter sets differ")
    for k, t in teacher.items():
        s = student[k]
        if t.data.shape != s.data.shape:
            raise ValueError(f"shape mismatch for {k}")
        t.data *= m
        t.data += (1.0 - m) * s.data


# ---------------------------------------------------------------------------
# lora
# ---------------------------------------------------------------------------

def make_lora_adapters(params: Dict[str, T.Tensor], rank: int, seed: int) -> Dict[str, T.Tensor]:
    """Low-rank factors ``lora.<w>.a`` (d_in, r), random, and ``lora.<w>.b``
    (r, d_out), zero, for every 2-D stage-MLP weight ``<w>``, so each
    adapted map starts exactly equal to its weight.

    Weights narrower than the rank (e.g. the 6-wide input layer) are left
    unadapted; a low-rank update cannot be low-rank there.
    """
    rng = np.random.default_rng([seed, 0x10BA])
    factors = {}
    for name, p in sorted(params.items()):
        if p.data.ndim != 2 or not name.endswith(".w") or not name.startswith("stage"):
            continue
        d_in, d_out = p.data.shape
        if rank > min(d_in, d_out):
            logger.debug("skipping lora on %s: shape %s below rank %d", name, p.data.shape, rank)
            continue
        factors[f"lora.{name}.a"] = T.param(rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, rank)))
        factors[f"lora.{name}.b"] = T.param(np.zeros((rank, d_out)))
    if not factors:
        raise ValueError(f"no weight is wide enough for lora rank {rank}")
    return factors


def lora_weights(params: Dict[str, T.Tensor], factors: Dict[str, T.Tensor],
                 scaling: float) -> Dict[str, T.Tensor]:
    """``params`` with each weight W that ``factors`` adapts replaced by
    W + scaling * A B, built on the tape so gradients reach A and B (Hu et
    al., arXiv 2106.09685: the adapted weight can be formed explicitly).
    Entries of ``factors`` other than ``lora.*`` factors are ignored."""
    merged = dict(params)
    for name, w in params.items():
        if f"lora.{name}.a" in factors:
            ab = T.op_matmul(factors[f"lora.{name}.a"], factors[f"lora.{name}.b"], None)
            merged[name] = T.op_add(w, T.op_mul(ab, scaling))
    return merged


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

class Hierarchy:
    """The voxel levels of the points ``coords`` (level 0) under ``cfg``, up
    to level P + 1 for P pooling steps. ``parents[k]`` maps level k to
    k + 1, and ``mix[s]`` level s to level min(s + 2, P + 1)."""

    def __init__(self, coords: np.ndarray, cfg: EncoderConfig):
        self.coords = [coords]
        self.parents: List[T.SegmentMap] = []
        for k in range(cfg.num_pool_steps + 1):
            grid = voxelize(self.coords[-1], cfg.voxel_size * 2 ** k)
            self.parents.append(grid.cells)
            self.coords.append(grid.centroids)
        self.mix = [T.SegmentMap(up.ids[p.ids], up.num)
                    for p, up in zip(self.parents[:-1], self.parents[1:])] + self.parents[-1:]

    def ancestors(self, level: int) -> np.ndarray:
        """Map from level-0 points to their level-``level`` ancestors."""
        anc = np.arange(self.coords[0].shape[0])
        for p in self.parents[:level]:
            anc = p.ids[anc]
        return anc


@dataclass
class EncodeResult:
    feats: List[T.Tensor]   # per-stage features
    hierarchy: Hierarchy    # of the view's cloud; stage s is its level s

    @property
    def num_stages(self) -> int:
        return len(self.feats)

    def ancestors(self, stage: int) -> np.ndarray:
        """Map from P_0 point positions to their stage-``stage`` ancestors."""
        return self.hierarchy.ancestors(stage)


def _linear(x, params, name):
    return T.op_matmul(x, params[f"{name}.w"], params[f"{name}.b"])


def _stage_block(x, params, s):
    h = T.op_layernorm(x)
    for i in range(MLP_DEPTH):
        h = _linear(h, params, f"stage{s}.lin{i}")
        if i < MLP_DEPTH - 1:
            h = T.op_gelu(h)
    return h


def encode(view: View, params: Dict[str, T.Tensor], cfg: EncoderConfig,
           hierarchy: Hierarchy) -> EncodeResult:
    """Per-stage features for one view over ``hierarchy``, the
    ``Hierarchy`` of ``view.cloud.coords`` under ``cfg``.

    Stage s mixes over its ancestors in level min(s + 2, P + 1), for P
    pooling steps. Stage-0 input features are colors concatenated with
    offsets from the finest voxel centroid; masked points' input features
    are replaced by the learned mask token. The input arrays take the
    parameters' dtype, so the whole pass computes in it.
    """
    coords, parents = hierarchy.coords, hierarchy.parents
    if coords[0] is not view.cloud.coords or len(parents) != cfg.num_pool_steps + 1:
        raise ValueError("encode needs the hierarchy of the view's own cloud under cfg")
    dtype = params["mask_token"].data.dtype
    offsets = coords[0] - coords[1][parents[0].ids]
    raw = np.concatenate([view.cloud.colors, offsets], axis=1).astype(dtype, copy=False)
    if view.mask is not None and view.mask.any():
        raw[view.mask] = 0.0
        hole = view.mask.astype(dtype)[:, None] * np.ones((1, INPUT_DIM), dtype)
        x = T.op_add(T.Tensor(raw), T.op_mul(T.Tensor(hole), params["mask_token"]))
    else:
        x = T.Tensor(raw)

    feats = []
    for s in range(cfg.num_stages):
        if s:
            x = T.op_segment_mean(feats[-1], parents[s - 1])
        feats.append(T.op_local_mix(_stage_block(x, params, s), hierarchy.mix[s]))
    return EncodeResult(feats=feats, hierarchy=hierarchy)


def _upcast_blocks(result: EncodeResult, level: int, rows):
    """The stage features and row indices of ``level`` upcast steps, on the
    P_{top-level} points ``rows`` (None: every point, in order): the
    operands of ``T.op_gather_concat`` and ``T.op_gather_linear``. Each
    coarser stage's index is its parent map gathered by the previous one,
    so ``level`` steps take ``level`` gathers."""
    top = result.num_stages - 1
    if not 0 <= level <= top:
        raise ValueError(f"upcast level {level} out of range 0..{top}")
    index = [rows]
    for parent in (m.ids for m in result.hierarchy.parents[top - level:top]):
        index.append(parent if index[-1] is None else parent[index[-1]])
    return result.feats[top - level:], index


def upcast(result: EncodeResult, level: int, rows) -> T.Tensor:
    """Features of stages top-level..top side by side on the P_{top-level}
    points ``rows`` (None: every point, in order).

    Each row takes its point's own stage-(top-level) features, then those of
    its ancestor at every coarser stage; level 0 is the coarsest stage's
    features. Rows out of range raise ``IndexError``.
    """
    return T.op_gather_concat(*_upcast_blocks(result, level, rows))


# ---------------------------------------------------------------------------
# heads
# ---------------------------------------------------------------------------

def proj_head(params: Dict[str, T.Tensor], result: EncodeResult) -> T.Tensor:
    """Two-layer GELU MLP from the ``INTRA_LEVEL`` upcast of every point to
    the prototype space, L2-normalized. The first layer reads the stages
    themselves (``T.op_gather_linear``): each stage's rows meet their block
    of the weight once, and the upcast is never built."""
    h = T.op_gather_linear(*_upcast_blocks(result, INTRA_LEVEL, None),
                           params["proj.lin0.w"], params["proj.lin0.b"])
    h = T.op_gelu(h)
    h = _linear(h, params, "proj.lin1")
    return T.op_l2norm(h)


def cross_head(params: Dict[str, T.Tensor], x: T.Tensor) -> T.Tensor:
    """Linear map from cross-level point features to the image feature space."""
    return _linear(x, params, "cross")
