"""Frozen-encoder evaluation: linear probing, low-rank-adapter probing,
language-space probing, zero-shot classification, limited-annotation label
budgets, and segmentation metrics.

The linear and lora probes train a single linear layer (plus adapters in
lora mode) with full-batch AdamW under a fixed seed. The language probe
is one ridge solve; zero-shot classification trains nothing. The
encoder checkpoint is never mutated. Features are the full-resolution
upcast. The lora probe merges its adapters into the frozen weights and
encodes with the merged weights, so there is one encoder forward path.

Precision policy, the trainer's: the encoder runs on ``COMPUTE_DTYPE``
copies of its weights, so features come out float32. The linear and lora
probes keep their heads and adapters (and the standardization statistics,
accumulated in float64) as float64 masters; each epoch runs forward and
backward on ``COMPUTE_DTYPE`` copies, and AdamW steps the masters with the
upcast gradients. The language probe is the exception: it upcasts its
features and fits in float64, because its Gram matrix squares the
features' condition number (see ``language_probe``).

The linear and lora heads train through one fused op,
``T.op_linear_softmax_xent``, which walks the training rows in blocks of
``T.gemm_block_rows`` rows and accumulates the head's gradient in the same
pass; the evaluation logits are computed in the same blocks, so no
whole-size logits exist. ``linear_probe`` copies the kept training rows
once into one ``COMPUTE_DTYPE`` matrix, takes its float64 standardization
statistics in one pass (``_moments``), and standardizes it in place; each
epoch then streams that matrix once through the fused op. No float64 copy
of the features is made. The statistics and the standardization run in
float64-sized row blocks on ``T.map_blocks``' thread pool, one worker per
usable CPU, and what the blocks return is merged in block order, so the
probe's outputs have the same bits for any number of workers; the 6-class
heads take the fused op's class-major pass, whose blocks run there too,
each GEMM on OpenBLAS's one-thread small-matrix kernel (``T._xent_classes``
picks the forward product by the block's rows times classes).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .dataio import SceneSample
from .encoder import (EncoderConfig, Hierarchy, encode, lora_weights, make_lora_adapters,
                      upcast)
from .geometry import build_correspondence, patch_table
from .trainer import COMPUTE_DTYPE, AdamState, adamw_step, compute_copies, master_grads
from .views import View

logger = logging.getLogger(__name__)

LORA_ALPHA = 16.0  # adapter scaling is LORA_ALPHA / rank
_RIDGE = 1e-4  # the language probe's ridge, relative to the mean of its Gram diagonal


class ProbeError(ValueError):
    pass


@dataclass
class ProbeConfig:
    epochs: int = 50                    # AdamW steps of the linear and lora probes
    lr: float = 1e-3
    label_budget: Optional[int] = None  # labeled points kept per scene
    seed: int = 0
    lora_rank: int = 8
    lora_lr: Optional[float] = None     # None -> lr

    def __post_init__(self):
        if self.label_budget is not None and self.label_budget <= 0:
            raise ValueError("label_budget must be positive when present")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not 0 <= self.lr < np.inf:
            raise ValueError("lr must be non-negative and finite")
        if self.lora_lr is not None and not 0 <= self.lora_lr < np.inf:
            raise ValueError("lora_lr must be non-negative and finite when present")
        if self.lora_rank < 1:
            raise ValueError("lora_rank must be at least 1")


@dataclass
class SegMetrics:
    per_class_iou: np.ndarray       # NaN where the union is empty
    miou: float
    macc: float
    allacc: float
    confusion: np.ndarray           # (C, C), rows = ground truth


@dataclass
class TextSpace:
    class_embeddings: np.ndarray    # (C, D_text) unit rows

    def __post_init__(self):
        self.class_embeddings = np.asarray(self.class_embeddings, dtype=np.float64)
        norms = np.linalg.norm(self.class_embeddings, axis=1)
        if not (np.abs(norms - 1.0) <= 1e-6).all():
            raise ValueError("class embeddings must be finite unit rows")


def _check_labels(labels: np.ndarray, num_classes: int, where: str) -> None:
    """Rejects a label at or above ``num_classes``, naming where it is."""
    if labels.size and labels.max() >= num_classes:
        raise ProbeError(f"{where}: label {labels.max()} is not below num_classes={num_classes}")


def compute_metrics(pred, gt, num_classes: int) -> SegMetrics:
    """Confusion-matrix segmentation metrics; gt == -1 is ignored."""
    if num_classes <= 0:
        raise ValueError("num_classes must be positive")
    pred = np.asarray(pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    if pred.shape != gt.shape:
        raise ValueError("pred and gt must have the same length")
    _check_labels(gt, num_classes, "ground truth")
    keep = gt >= 0
    pred, gt = pred[keep], gt[keep]
    bad = pred[(pred < 0) | (pred >= num_classes)]
    if bad.size:
        raise ValueError(f"prediction {bad[0]} is outside [0, {num_classes})")
    conf = np.bincount(gt * num_classes + pred, minlength=num_classes ** 2)
    conf = conf.reshape(num_classes, num_classes).astype(np.int64)
    diag = np.diag(conf).astype(np.float64)
    rows = conf.sum(axis=1)
    cols = conf.sum(axis=0)
    union = rows + cols - diag
    with np.errstate(invalid="ignore", divide="ignore"):
        iou = np.where(union > 0, diag / np.maximum(union, 1), np.nan)
        acc = np.where(rows > 0, diag / np.maximum(rows, 1), np.nan)
    miou = float(np.nanmean(iou)) if np.isfinite(iou).any() else 0.0
    macc = float(np.nanmean(acc)) if np.isfinite(acc).any() else 0.0
    allacc = float(diag.sum() / conf.sum()) if conf.sum() else 0.0
    return SegMetrics(per_class_iou=iou, miou=miou, macc=macc, allacc=allacc,
                      confusion=conf)


# ---------------------------------------------------------------------------
# feature extraction
# ---------------------------------------------------------------------------

def plain_view(sample: SceneSample) -> View:
    return View(cloud=sample.cloud, origin_index=np.arange(sample.cloud.num_points))


def extract_features(sample: SceneSample, params, enc_cfg: EncoderConfig,
                     level: int) -> np.ndarray:
    """Upcast ``COMPUTE_DTYPE`` features of the unaugmented cloud. The
    encoder runs on ``COMPUTE_DTYPE`` constant copies of ``params``, so no
    tape is recorded even when they are ``T.param`` leaves."""
    params = compute_copies(params, track=False)
    hierarchy = Hierarchy(sample.cloud.coords, enc_cfg)
    return upcast(encode(plain_view(sample), params, enc_cfg, hierarchy), level, None).data


def label_budget_indices(n: int, budget: Optional[int], seed: int, scene_idx: int) -> np.ndarray:
    """Deterministic seeded subset; budgets nest (b < b' share a prefix)."""
    if budget is None or budget >= n:
        return np.arange(n)
    perm = np.random.default_rng([seed, 0xB9d6, scene_idx]).permutation(n)
    return np.sort(perm[:budget])


def lift_patch_features_to_points(sample: SceneSample):
    """Per-point mean of the image features of every patch the point is
    visible in; points seen by no view get zeros and valid=False. A scene
    without views, or with a view lacking a feature grid, or a depth map
    where points project into it, is refused by name."""
    if not sample.views:
        raise ProbeError(f"scene {sample.scene_id} has no views")
    for i, v in enumerate(sample.views):
        if v.feature_grid is None:
            raise ProbeError(f"scene {sample.scene_id}: view {i} has no feature grid")
    try:
        corr = build_correspondence(sample.cloud.coords, sample.views)
    except ValueError as e:
        raise ProbeError(f"scene {sample.scene_id}: {e}") from e
    seen = T.SegmentMap(corr.point_index, sample.cloud.num_points)
    return T.segment_mean_np(patch_table(sample.views)[corr.row], seen), seen.counts > 0


# ---------------------------------------------------------------------------
# shared head training
# ---------------------------------------------------------------------------

def _moments(x: np.ndarray):
    """Per-column mean and (floored) standard deviation in float64 of the
    rows of ``x``, whatever its dtype, in one pass over float64-sized row
    blocks, so no float64 copy of the whole of ``x`` is made. Block 0 is
    read first. Every later block, shifted by block 0's mean, gives its mean
    and centred sum of squares on ``T.map_blocks``' pool, and these are
    merged into the running ones in block order (Chan, Golub and LeVeque,
    1979), so the result has the same bits for any number of workers. The
    sum of block 0's rows less its mean, what its rounded mean missed, is
    carried into every later merge, so an offset far above the spread (mean
    1e4, sd 1e-2) costs no digits. Each block is cast and shifted into
    float64 by one ``np.subtract``. Over a single block the arithmetic is
    ``np.mean``'s and ``np.std``'s."""
    blocks = T.row_blocks(x.shape[0], T.block_rows(x.shape[1], np.float64))

    def centred(blk, shift):
        c = np.subtract(x[blk], shift, dtype=np.float64)
        b = c.sum(axis=0) / c.shape[0]
        c -= b
        return c, b

    def reduce(blk):
        c, b = centred(blk, shift)
        c *= c
        return c.shape[0], b, c.sum(axis=0)

    c, shift = centred(blocks[0], 0.0)
    n, mean, missed = c.shape[0], 0.0, c.sum(axis=0)
    c *= c
    squares = c.sum(axis=0)
    del c
    for m, b, sq in T.map_blocks(reduce, blocks[1:]):
        gap = b - mean - missed / n  # the block's mean less the running one
        mean = mean + (b - mean) * (m / (n + m))
        squares = squares + gap * gap * (n * m / (n + m)) + sq
        n += m
    return shift + mean, np.maximum(np.sqrt(squares / n), 1e-8)


def _standardizer(mu: np.ndarray, sd: np.ndarray, dtype):
    """``(mu, 1 / sd)`` in ``dtype``: every probe standardizes as
    ``(x - mu) * (1 / sd)`` in its features' dtype."""
    return mu.astype(dtype), (1.0 / sd).astype(dtype)


def _head_targets(y: np.ndarray, num_classes: int) -> np.ndarray:
    """The softmax head's ``COMPUTE_DTYPE`` targets: one-hot rows divided
    by the row count."""
    out = np.zeros((y.size, num_classes), COMPUTE_DTYPE)
    out[np.arange(y.size), y] = 1.0 / y.size
    return out


@dataclass
class ProbeResult:
    weight: np.ndarray
    bias: np.ndarray
    metrics: SegMetrics
    missing_train_classes: List[int]
    params_learnable: int
    adapters: Optional[Dict[str, T.Tensor]] = None  # lora factors, by parameter name
    train_mu: Optional[np.ndarray] = None
    train_sd: Optional[np.ndarray] = None


def _fit(params: Dict[str, T.Tensor], loss_of, cfg: ProbeConfig,
         rates: Dict[str, float]) -> None:
    """``cfg.epochs`` full-batch AdamW steps on the float64 masters
    ``params``, each stepped at its own rate in ``rates``. Each epoch
    ``loss_of(copies)`` builds the loss on the tape from ``COMPUTE_DTYPE``
    copies, whose gradients are upcast for the step."""
    state = AdamState.init(params)
    for _epoch in range(cfg.epochs):
        copies = compute_copies(params, track=True)
        loss = loss_of(copies)
        T.backward(loss)
        del loss  # one epoch's tape is not kept while the next is built
        adamw_step(params, master_grads(copies), state, 1.0, rates)


def _zero_head(dim: int, num_classes: int) -> Dict[str, T.Tensor]:
    return {"head.w": T.param(np.zeros((dim, num_classes))),
            "head.b": T.param(np.zeros(num_classes))}


def _head_loss(head, feats: T.Tensor, weights: np.ndarray) -> T.Tensor:
    """Softmax cross-entropy of the head on ``feats``, one fused op that
    never holds the whole logits; ``weights`` are the one-hot targets
    divided by the row count."""
    return T.op_linear_softmax_xent(feats, head["head.w"], head["head.b"], weights, 1.0)


def _labeled_rows(labels: Sequence[np.ndarray], num_classes: int, cfg: ProbeConfig):
    """Per training scene, the labeled rows the label budget keeps (seeded,
    nested); also their concatenated labels and the classes none has."""
    keeps = []
    for i, lab in enumerate(labels):
        _check_labels(lab, num_classes, f"training scene {i}")
        keep = label_budget_indices(lab.shape[0], cfg.label_budget, cfg.seed, i)
        keeps.append(keep[lab[keep] >= 0])
    y = np.concatenate([lab[k] for lab, k in zip(labels, keeps)])
    if y.size == 0:
        raise ProbeError("no labeled training points after budgeting")
    missing = sorted(set(range(num_classes)) - set(np.unique(y).tolist()))
    if missing:
        logger.warning("classes absent from probe training set: %s", missing)
    return keeps, y, missing


def _evaluate(head, eval_scenes, mu, sd, num_classes: int) -> SegMetrics:
    """Metrics of the head's argmax over standardized (features, labels)
    pairs; each scene's logits are computed in its features' dtype, in the
    row blocks of the fused cross-entropy (``T.gemm_block_rows``), on
    ``T.map_blocks``' pool."""
    pred_all, gt_all = [], []
    for i, (feats, labels) in enumerate(eval_scenes):
        _check_labels(labels, num_classes, f"eval scene {i}")
        shift, scale = _standardizer(mu, sd, feats.dtype)
        w = head["head.w"].data.astype(feats.dtype)
        b = head["head.b"].data.astype(feats.dtype)
        pred = np.empty(feats.shape[0], dtype=np.int64)

        def predict(blk):
            pred[blk] = ((feats[blk] - shift) * scale @ w + b).argmax(axis=1)

        rows = T.gemm_block_rows(*w.shape, feats.dtype)
        T.map_blocks(predict, T.row_blocks(feats.shape[0], rows))
        pred_all.append(pred)
        gt_all.append(labels)
    return compute_metrics(np.concatenate(pred_all), np.concatenate(gt_all), num_classes)


def linear_probe(train_scenes: Sequence[Tuple[np.ndarray, np.ndarray]],
                 eval_scenes: Sequence[Tuple[np.ndarray, np.ndarray]],
                 num_classes: int, cfg: ProbeConfig) -> ProbeResult:
    """Single linear layer on frozen features, softmax cross-entropy, AdamW.

    ``train_scenes`` / ``eval_scenes`` are (features, labels) pairs; features
    may be concatenations of several sources. label_budget limits the
    labeled points used per training scene (seeded, nested). The kept
    training rows are copied once into one ``COMPUTE_DTYPE`` matrix, which
    is standardized in place and is what the head fits on. A scene without
    labels, with features of another width than training scene 0's, or
    with another number of feature rows than labels, is refused before
    fitting. The callers' arrays are never written.
    """
    for role, scenes in (("training", train_scenes), ("evaluation", eval_scenes)):
        if not scenes:
            raise ProbeError(f"linear probe needs at least one {role} scene")
    width = train_scenes[0][0].shape[1]
    for role, scenes in (("training", train_scenes), ("evaluation", eval_scenes)):
        for i, (f, labels) in enumerate(scenes):
            if labels is None:
                raise ProbeError(f"{role} scene {i} has no labels")
            if f.shape[1] != width:
                raise ProbeError(f"{role} scene {i}: features are {f.shape[1]} wide, "
                                 f"training scene 0's are {width}")
            if f.shape[0] != labels.shape[0]:
                raise ProbeError(f"{role} scene {i}: {f.shape[0]} feature rows for "
                                 f"{labels.shape[0]} labels")
    keeps, y, missing = _labeled_rows([lab for _f, lab in train_scenes], num_classes, cfg)
    # a scene that keeps every row is passed whole: indexing all of it would
    # add a scene-sized temporary
    x = np.concatenate([f if k.size == f.shape[0] else f[k]
                        for (f, _labels), k in zip(train_scenes, keeps)],
                       axis=0, dtype=COMPUTE_DTYPE)
    mu, sd = _moments(x)
    shift, scale = _standardizer(mu, sd, COMPUTE_DTYPE)

    def standardize(blk):
        rows = x[blk]
        rows -= shift
        rows *= scale

    T.map_blocks(standardize, T.row_blocks(y.size, T.block_rows(width, np.float64)))
    head = _zero_head(width, num_classes)
    feats, weights = T.Tensor(x), _head_targets(y, num_classes)
    _fit(head, lambda h: _head_loss(h, feats, weights), cfg, dict.fromkeys(head, cfg.lr))
    return ProbeResult(weight=head["head.w"].data.copy(), bias=head["head.b"].data.copy(),
                       metrics=_evaluate(head, eval_scenes, mu, sd, num_classes),
                       missing_train_classes=missing,
                       params_learnable=width * num_classes + num_classes,
                       train_mu=mu, train_sd=sd)


def lora_probe(train_samples: Sequence[SceneSample], eval_samples: Sequence[SceneSample],
               frozen_params, enc_cfg: EncoderConfig, num_classes: int,
               cfg: ProbeConfig) -> ProbeResult:
    """Low-rank adapters on the frozen encoder plus a linear head.

    Only adapter and head parameters train. Each epoch encodes with the
    adapters merged into their weights. With a zero adapter rate this
    reduces exactly to the linear probe (adapters start as the identity).
    Features and labels cannot disagree in length: the features are the
    cloud's points, and ``PointCloud`` refuses labels of another length.
    """
    for role, samples in (("training", train_samples), ("evaluation", eval_samples)):
        if not samples:
            raise ProbeError(f"lora probe needs at least one {role} scene")
        for s in samples:
            if s.cloud.labels is None:
                raise ProbeError(f"{role} scene {s.scene_id} has no labels")
    # ``COMPUTE_DTYPE`` constants, cast once: the frozen weights never
    # receive gradients
    base = compute_copies(frozen_params, track=False)
    factors = make_lora_adapters(base, rank=cfg.lora_rank, seed=cfg.seed)
    scaling = LORA_ALPHA / cfg.lora_rank
    lora_lr = cfg.lr if cfg.lora_lr is None else cfg.lora_lr

    level = enc_cfg.num_pool_steps
    head = _zero_head(enc_cfg.upcast_dim(level), num_classes)
    keeps, y, missing = _labeled_rows([s.cloud.labels for s in train_samples],
                                      num_classes, cfg)
    weights = _head_targets(y, num_classes)

    # each scene's view and hierarchy, read by every epoch
    scenes = [(plain_view(s), Hierarchy(s.cloud.coords, enc_cfg)) for s in train_samples]

    def loss_of(copies):
        merged = lora_weights(base, copies, scaling)
        rows = [upcast(encode(v, merged, enc_cfg, h), level, k)
                for (v, h), k in zip(scenes, keeps)]
        x = rows[0] if len(rows) == 1 else T.op_concat_rows(rows)
        shift, scale = _standardizer(*_moments(x.data), x.data.dtype)
        x = T.op_mul(T.op_add(x, T.Tensor(-shift)), T.Tensor(scale))
        return _head_loss(copies, x, weights)

    _fit({**head, **factors}, loss_of, cfg,
         {**dict.fromkeys(head, cfg.lr), **dict.fromkeys(factors, lora_lr)})

    # final standardization stats and eval features from the merged weights,
    # merged in the arithmetic the epochs used
    merged = lora_weights(base, compute_copies(factors, track=False), scaling)
    stacked = np.concatenate([extract_features(s, merged, enc_cfg, level)[k]
                              for s, k in zip(train_samples, keeps)])
    mu, sd = _moments(stacked)
    evals = ((extract_features(s, merged, enc_cfg, level), s.cloud.labels)
             for s in eval_samples)
    learnable = sum(t.size for t in (*factors.values(), *head.values()))
    return ProbeResult(weight=head["head.w"].data.copy(), bias=head["head.b"].data.copy(),
                       metrics=_evaluate(head, evals, mu, sd, num_classes),
                       missing_train_classes=missing,
                       params_learnable=int(learnable), adapters=factors,
                       train_mu=mu, train_sd=sd)


# ---------------------------------------------------------------------------
# language probing and zero-shot
# ---------------------------------------------------------------------------

def language_probe(train_scenes: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]], _cfg):
    """Fit a linear map from point features to target text-space features:
    a ridge regression (Hoerl and Kennard, Technometrics 1970). No labels
    are consumed.

    ``train_scenes`` rows are (features, targets, valid_mask); invalid points
    (no visible patch) are excluded. Returns (map W, mean train cosine of W).
    An empty scene list is refused with a ``ProbeError``, and so is a scene
    whose targets or mask have another length than its features, with a
    non-finite valid row, or whose features or targets are not as wide as
    scene 0's, naming it; the scenes are checked in order, each one's
    features before its targets, before anything is solved. ``_cfg`` is not
    read; it stays because the benchmark still passes a ``ProbeConfig`` in
    its place.

    Each scene's valid rows are copied into one float64 array X, so at most
    one scene's masked rows exist beside it. W solves (G + lam I) W = X^T T
    with G = X^T X and lam = ``_RIDGE`` * trace(G) / d, the mean of G's
    diagonal scaled. G + lam I is positive definite for any X that is not
    all zero, wide or rank-deficient alike, and all-zero features are
    refused. Upcast features are near-singular, and the minimum-norm
    least-squares map on them had norms near 1e6, which amplified rounding
    and the BLAS thread count's changes into the cosine; the ridge bounds
    the map. Nothing is recorded on the tape.
    """
    if not train_scenes:
        raise ProbeError("language probe needs at least one training scene")
    n = sum(int(np.count_nonzero(m)) for _f, _tg, m in train_scenes)
    x = np.empty((n, train_scenes[0][0].shape[1]))
    t = np.empty((n, train_scenes[0][1].shape[1]))
    a = 0
    for i, (f, tg, m) in enumerate(train_scenes):
        for kind, arr in (("targets", tg), ("mask", m)):
            if len(arr) != len(f):
                raise ProbeError(f"language probe scene {i}: {kind} have {len(arr)} rows, "
                                 f"features {len(f)}")
        for kind, arr, out in (("features", f, x), ("targets", tg, t)):
            rows = arr[m]
            if not np.isfinite(rows).all():
                raise ProbeError(f"language probe scene {i}: non-finite {kind}")
            if rows.shape[1] != out.shape[1]:
                raise ProbeError(f"language probe scene {i}: {kind} are {rows.shape[1]} wide, "
                                 f"scene 0's are {out.shape[1]}")
            out[a:a + len(rows)] = rows
        a += len(rows)
    if n == 0:
        raise ProbeError("no visible points to fit the language probe")
    if np.abs(t).max() == 0:
        raise ProbeError("degenerate language targets: all zero vectors")
    g = x.T @ x
    scale = np.trace(g) / g.shape[0]
    if scale == 0:
        raise ProbeError("degenerate language features: all zero vectors")
    g.flat[::g.shape[0] + 1] += _RIDGE * scale
    w = np.linalg.solve(g, x.T @ t)
    return w, T.op_mean(T.op_cosine(T.Tensor(x @ w), T.Tensor(t))).item()


def zero_shot_segment(point_text_feats: np.ndarray, space: TextSpace,
                      gt: Optional[np.ndarray] = None):
    """Label each point by the closest class embedding (cosine); ties go to
    the lowest class index. Metrics are computed when ground truth is given."""
    feats = np.asarray(point_text_feats, dtype=np.float64)
    norms = np.maximum(np.linalg.norm(feats, axis=1, keepdims=True), 1e-12)
    cos = (feats / norms) @ space.class_embeddings.T
    labels = cos.argmax(axis=1)
    if gt is None:
        return labels, None
    return labels, compute_metrics(labels, gt, space.class_embeddings.shape[0])
