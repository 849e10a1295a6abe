"""Hierarchical voxel-pooling point encoder with teacher/student parameter
pairs, upcast feature concatenation, projection/prototype/cross heads, and
low-rank adapters, which are merged into their weights before encoding.

Stage 0 embeds per-point input features (colors plus intra-voxel coordinate
offsets; no absolute coordinates, so features cannot shortcut through
position). Each later stage mean-pools the previous stage over a voxel grid
and applies an MLP; a single voxel-neighborhood mean per stage mixes in
local context. ``upcast`` copies every coarser stage down to a finer point
set through its composed parent map, writing all stages side by side into
one output. The encoder owns the feature levels: the intra-modal heads read
``INTRA_LEVEL`` upcast steps, the cross-modal head ``CROSS_LEVEL``.
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
    cell_sizes: List[float] = field(default_factory=lambda: [0.05, 0.1, 0.2, 0.4])
    proto_count: int = 1024
    proj_dim: int = 256
    cross_dim: Optional[int] = None

    def __post_init__(self):
        if len(self.cell_sizes) != len(self.stage_dims) - 1:
            raise ValueError("need exactly len(stage_dims) - 1 pooling cell sizes")
        if any(d <= 0 for d in self.stage_dims) or any(c <= 0 for c in self.cell_sizes):
            raise ValueError("stage dims and cell sizes must be positive")
        if self.num_pool_steps < CROSS_LEVEL:
            raise ValueError(f"cross upcast level {CROSS_LEVEL} needs at least "
                             f"{CROSS_LEVEL} pooling steps, got {self.num_pool_steps}")

    @property
    def num_stages(self) -> int:
        return len(self.stage_dims)

    @property
    def num_pool_steps(self) -> int:
        return len(self.cell_sizes)

    def upcast_dim(self, level: int) -> int:
        """Feature width after ``level`` upcast steps from the coarsest stage."""
        if not 0 <= level <= self.num_pool_steps:
            raise ValueError(f"upcast level {level} out of range")
        return int(sum(self.stage_dims[self.num_stages - 1 - level:]))


@dataclass
class LoraAdapter:
    """Additive low-rank update for one weight matrix: W + (alpha/r) A B,
    with A (d_in, r) random and B (r, d_out) zero so the adapted map starts
    exactly equal to W."""

    a: T.Tensor
    b: T.Tensor
    rank: int
    alpha: float

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank

    @property
    def param_count(self) -> int:
        return self.a.size + self.b.size


def _stage_in_dim(cfg: EncoderConfig, s: int) -> int:
    return INPUT_DIM if s == 0 else cfg.stage_dims[s - 1]


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
        d_in = _stage_in_dim(cfg, s)
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

def make_adapter(weight: T.Tensor, rank: int, alpha: float,
                 rng: np.random.Generator) -> LoraAdapter:
    if weight.data.ndim != 2:
        raise ValueError("lora adapts 2-D weights only")
    d_in, d_out = weight.data.shape
    if rank > min(d_in, d_out):
        raise ValueError(f"rank {rank} exceeds min dim of a {weight.data.shape} weight")
    return LoraAdapter(
        a=T.param(rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, rank))),
        b=T.param(np.zeros((rank, d_out))),
        rank=rank, alpha=alpha)


def make_lora_adapters(params: Dict[str, T.Tensor], rank: int, alpha: float,
                       seed: int) -> Dict[str, LoraAdapter]:
    """One adapter per 2-D stage-MLP weight.

    Weights narrower than the rank (e.g. the 6-wide input layer) are left
    unadapted; a low-rank update cannot be low-rank there.
    """
    rng = np.random.default_rng([seed, 0x10BA])
    adapters = {}
    for name, p in sorted(params.items()):
        if p.data.ndim != 2 or not name.endswith(".w") or not name.startswith("stage"):
            continue
        if rank > min(p.data.shape):
            logger.debug("skipping lora on %s: shape %s below rank %d", name, p.data.shape, rank)
            continue
        adapters[name] = make_adapter(p, rank, alpha, rng)
    if not adapters:
        raise ValueError(f"no weight is wide enough for lora rank {rank}")
    return adapters


def lora_weights(params: Dict[str, T.Tensor],
                 adapters: Dict[str, LoraAdapter]) -> Dict[str, T.Tensor]:
    """``params`` with each adapted weight W replaced by W + scaling * A B,
    built on the tape so gradients reach A and B (Hu et al., arXiv
    2106.09685: the adapted weight can be formed explicitly)."""
    merged = dict(params)
    for name, ad in adapters.items():
        delta = T.op_mul(T.op_matmul(ad.a, ad.b), ad.scaling)
        merged[name] = T.op_add(params[name], delta)
    return merged


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

@dataclass
class EncodeResult:
    coords: List[np.ndarray]    # per-stage point coordinates
    feats: List[T.Tensor]       # per-stage features
    parents: List[np.ndarray]   # parents[s]: P_s -> P_{s+1} voxel membership

    @property
    def num_stages(self) -> int:
        return len(self.feats)

    def ancestors(self, stage: int, start: int = 0) -> np.ndarray:
        """Map from P_start point positions to their stage-``stage`` ancestors."""
        anc = np.arange(self.coords[start].shape[0])
        for s in range(start, stage):
            anc = self.parents[s][anc]
        return anc


def _linear(x, params, name):
    return T.op_add(T.op_matmul(x, params[f"{name}.w"]), params[f"{name}.b"])


def _stage_block(x, params, s):
    h = T.op_layernorm(x)
    for i in range(MLP_DEPTH):
        h = _linear(h, params, f"stage{s}.lin{i}")
        if i < MLP_DEPTH - 1:
            h = T.op_gelu(h)
    return h


def _local_mix(feats, assignments, num_segments):
    """Half-and-half blend of each point's features with its voxel-neighborhood
    mean; keeps dimensions, adds context."""
    means = T.op_segment_mean(feats, assignments, num_segments)
    spread = T.op_gather_rows(means, assignments)
    return T.op_mul(T.op_add(feats, spread), 0.5)


def encode(view: View, params: Dict[str, T.Tensor], cfg: EncoderConfig) -> EncodeResult:
    """Per-stage features and parent maps for one view.

    Stage-0 input features are colors concatenated with offsets from the
    finest voxel centroid; masked points' input features are replaced by the
    learned mask token.
    """
    coords0 = view.cloud.coords
    base_grid = voxelize(coords0, cfg.cell_sizes[0])
    offsets = coords0 - base_grid.centroids[base_grid.assignments]
    raw = np.concatenate([view.cloud.colors, offsets], axis=1)

    x = T.Tensor(raw)
    if view.mask is not None and view.mask.any():
        keep = (~view.mask).astype(np.float64)[:, None] * np.ones((1, INPUT_DIM))
        hole = view.mask.astype(np.float64)[:, None] * np.ones((1, INPUT_DIM))
        x = T.op_add(T.op_mul(x, T.Tensor(keep)),
                     T.op_mul(T.Tensor(hole), params["mask_token"]))

    coords = [coords0]
    feats = []
    parents = []
    agg_cells = [2.0 * cfg.cell_sizes[min(s, cfg.num_pool_steps - 1)]
                 for s in range(cfg.num_stages)]

    mix = voxelize(coords0, agg_cells[0])
    h = _stage_block(x, params, 0)
    h = _local_mix(h, mix.assignments, mix.num_voxels)
    feats.append(h)

    for s in range(1, cfg.num_stages):
        # the first pooling grid is the same grid the offsets came from
        grid = base_grid if s == 1 else voxelize(coords[s - 1], cfg.cell_sizes[s - 1])
        parents.append(grid.assignments)
        coords.append(grid.centroids)
        pooled = T.op_segment_mean(feats[s - 1], grid.assignments, grid.num_voxels)
        h = _stage_block(pooled, params, s)
        mix = voxelize(grid.centroids, agg_cells[s])
        h = _local_mix(h, mix.assignments, mix.num_voxels)
        feats.append(h)

    return EncodeResult(coords=coords, feats=feats, parents=parents)


def upcast(result: EncodeResult, level: int) -> T.Tensor:
    """Features of stages top-level..top side by side on P_{top-level}.

    Each row of P_{top-level} takes its own stage-(top-level) features, then
    those of its ancestor at every coarser stage; level 0 is the coarsest
    stage's features.
    """
    top = result.num_stages - 1
    if not 0 <= level <= top:
        raise ValueError(f"upcast level {level} out of range 0..{top}")
    start = top - level
    stages = range(start, top + 1)
    return T.op_gather_concat(
        [result.feats[s] for s in stages],
        [None] + [result.ancestors(s, start) for s in stages[1:]])


# ---------------------------------------------------------------------------
# heads
# ---------------------------------------------------------------------------

def proj_head(params: Dict[str, T.Tensor], x: T.Tensor) -> T.Tensor:
    """Two-layer GELU MLP to the prototype space, L2-normalized."""
    h = _linear(x, params, "proj.lin0")
    h = T.op_gelu(h)
    h = _linear(h, params, "proj.lin1")
    return T.op_l2norm(h)


def proto_scores(params: Dict[str, T.Tensor], z: T.Tensor) -> T.Tensor:
    """Prototype logits: z @ W_proto, one prototype per column of W_proto."""
    return T.op_matmul(z, params["proto.w"])


def cross_head(params: Dict[str, T.Tensor], x: T.Tensor) -> T.Tensor:
    """Linear map from cross-level point features to the image feature space."""
    return _linear(x, params, "cross")
