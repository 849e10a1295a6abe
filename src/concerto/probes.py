"""Frozen-encoder evaluation: linear probing, low-rank-adapter probing,
language-space probing, zero-shot classification, limited-annotation label
budgets, and segmentation metrics.

All probes train a single linear layer (plus adapters in lora mode) with
full-batch AdamW under a fixed seed; the encoder checkpoint is never
mutated. Features are the full-resolution upcast. The lora probe
merges its adapters into the frozen weights and encodes with the merged
weights, so there is one encoder forward path.

Precision policy, the trainer's: the encoder runs on ``COMPUTE_DTYPE``
copies of its weights, so features come out float32. The linear and lora
probes keep their heads and adapters (and the standardization statistics,
accumulated in float64) as float64 masters; each epoch runs forward and
backward on ``COMPUTE_DTYPE`` copies, and AdamW steps the masters with the
upcast gradients. The language probe is the exception: it upcasts its
features and fits in float64, because its least-squares warm start is
ill-conditioned on real features (see ``language_probe``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .dataio import SceneSample
from .encoder import (EncoderConfig, LoraAdapter, encode, lora_weights, make_lora_adapters,
                      upcast)
from .geometry import build_correspondence, patch_table
from .trainer import COMPUTE_DTYPE, AdamState, adamw_step, compute_copies, master_grads
from .views import View

logger = logging.getLogger(__name__)

LORA_ALPHA = 16.0  # adapter scaling is LORA_ALPHA / rank


class ProbeError(ValueError):
    pass


@dataclass
class ProbeConfig:
    epochs: int = 50                    # an upper bound for the language probe
    lr: float = 1e-3
    label_budget: Optional[int] = None  # labeled points kept per scene
    seed: int = 0
    standardize: bool = True
    lora_rank: int = 8
    lora_lr: Optional[float] = None     # None -> lr

    def __post_init__(self):
        if self.label_budget is not None and self.label_budget <= 0:
            raise ValueError("label_budget must be positive when present")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")


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
        if np.abs(norms - 1.0).max() > 1e-6:
            raise ValueError("class embeddings must be unit rows")


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
    params = compute_copies(params, COMPUTE_DTYPE, track=False)
    return upcast(encode(plain_view(sample), params, enc_cfg), level).data


def label_budget_indices(n: int, budget: Optional[int], seed: int, scene_idx: int) -> np.ndarray:
    """Deterministic seeded subset; budgets nest (b < b' share a prefix)."""
    if budget is None or budget >= n:
        return np.arange(n)
    perm = np.random.default_rng([seed, 0xB9d6, scene_idx]).permutation(n)
    return np.sort(perm[:budget])


def lift_patch_features_to_points(sample: SceneSample):
    """Per-point mean of the image features of every patch the point is
    visible in; points seen by no view get zeros and valid=False."""
    corr = build_correspondence(sample.cloud.coords, sample.views)
    out, counts = T.segment_mean_np(patch_table(sample.views)[corr.row], corr.point_index,
                                    sample.cloud.num_points)
    return out, counts > 0


# ---------------------------------------------------------------------------
# shared head training
# ---------------------------------------------------------------------------

def _standardize_fit(x: np.ndarray):
    """Per-column mean and (floored) standard deviation, accumulated in
    float64 whatever the dtype of ``x``."""
    mu = x.mean(axis=0, dtype=np.float64)
    sd = x.std(axis=0, dtype=np.float64)
    return mu, np.maximum(sd, 1e-8)


def _standardizer(mu: np.ndarray, sd: np.ndarray, dtype):
    """``(mu, 1 / sd)`` in ``dtype``: every probe standardizes as
    ``(x - mu) * (1 / sd)`` in its features' dtype."""
    return mu.astype(dtype), (1.0 / sd).astype(dtype)


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def _head_targets(y: np.ndarray, num_classes: int) -> np.ndarray:
    """The softmax head's ``COMPUTE_DTYPE`` targets: one-hot rows divided
    by the row count."""
    return (_one_hot(y, num_classes) / y.size).astype(COMPUTE_DTYPE)


@dataclass
class ProbeResult:
    weight: np.ndarray
    bias: np.ndarray
    metrics: SegMetrics
    missing_train_classes: List[int]
    params_learnable: int
    adapters: Optional[Dict[str, LoraAdapter]] = None
    train_mu: Optional[np.ndarray] = None
    train_sd: Optional[np.ndarray] = None


def _fit(params: Dict[str, T.Tensor], loss_of, cfg: ProbeConfig,
         lr_factors: Dict[str, float], dtype) -> None:
    """``cfg.epochs`` full-batch AdamW steps on the float64 masters
    ``params``. Each epoch ``loss_of(copies)`` builds the loss on the tape
    from ``dtype`` copies of them, whose gradients are upcast for the step."""
    state = AdamState.init(params)
    for _epoch in range(cfg.epochs):
        copies = compute_copies(params, dtype, track=True)
        loss = loss_of(copies)
        T.backward(loss)
        del loss  # one epoch's tape is not kept while the next is built
        adamw_step(params, master_grads(copies), state, cfg.lr, lr_factors)


def _zero_head(dim: int, num_classes: int) -> Dict[str, T.Tensor]:
    return {"head.w": T.param(np.zeros((dim, num_classes))),
            "head.b": T.param(np.zeros(num_classes))}


def _head_loss(head, feats: T.Tensor, weights: np.ndarray) -> T.Tensor:
    """Softmax cross-entropy of the head on ``feats``; ``weights`` are the
    one-hot targets divided by the row count."""
    logits = T.op_add(T.op_matmul(feats, head["head.w"]), head["head.b"])
    return T.op_softmax_xent(logits, weights, 1.0)


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
    pairs; each scene's logits are computed in its features' dtype."""
    pred_all, gt_all = [], []
    for i, (feats, labels) in enumerate(eval_scenes):
        _check_labels(labels, num_classes, f"eval scene {i}")
        shift, scale = _standardizer(mu, sd, feats.dtype)
        logits = ((feats - shift) * scale @ head["head.w"].data.astype(feats.dtype)
                  + head["head.b"].data.astype(feats.dtype))
        pred_all.append(logits.argmax(axis=1))
        gt_all.append(labels)
    return compute_metrics(np.concatenate(pred_all), np.concatenate(gt_all), num_classes)


def linear_probe(train_scenes: Sequence[Tuple[np.ndarray, np.ndarray]],
                 eval_scenes: Sequence[Tuple[np.ndarray, np.ndarray]],
                 num_classes: int, cfg: ProbeConfig) -> ProbeResult:
    """Single linear layer on frozen features, softmax cross-entropy, AdamW.

    ``train_scenes`` / ``eval_scenes`` are (features, labels) pairs; features
    may be concatenations of several sources. label_budget limits the
    labeled points used per training scene (seeded, nested). The head fits
    on ``COMPUTE_DTYPE`` training features.
    """
    keeps, y, missing = _labeled_rows([lab for _f, lab in train_scenes], num_classes, cfg)
    # a fresh array, so standardizing in place leaves the callers' untouched; a
    # scene that keeps every row goes to the concatenation uncopied
    x = np.concatenate([f if k.size == f.shape[0] else f[k]
                        for (f, _lab), k in zip(train_scenes, keeps)],
                       axis=0, dtype=COMPUTE_DTYPE)
    dim = x.shape[1]
    if cfg.standardize:
        mu, sd = _standardize_fit(x)
        shift, scale = _standardizer(mu, sd, x.dtype)
        x -= shift
        x *= scale
    else:
        mu, sd = np.zeros(dim), np.ones(dim)
    head = _zero_head(dim, num_classes)
    feats, weights = T.Tensor(x), _head_targets(y, num_classes)
    _fit(head, lambda h: _head_loss(h, feats, weights), cfg, {}, COMPUTE_DTYPE)
    return ProbeResult(weight=head["head.w"].data.copy(), bias=head["head.b"].data.copy(),
                       metrics=_evaluate(head, eval_scenes, mu, sd, num_classes),
                       missing_train_classes=missing,
                       params_learnable=dim * num_classes + num_classes,
                       train_mu=mu, train_sd=sd)


def lora_probe(train_samples: Sequence[SceneSample], eval_samples: Sequence[SceneSample],
               frozen_params, enc_cfg: EncoderConfig, num_classes: int,
               cfg: ProbeConfig) -> ProbeResult:
    """Low-rank adapters on the frozen encoder plus a linear head.

    Only adapter and head parameters train. Each epoch encodes with the
    adapters merged into their weights. With a zero adapter rate this
    reduces exactly to the linear probe (adapters start as the identity).
    """
    # ``COMPUTE_DTYPE`` constants, cast once: the frozen weights never
    # receive gradients
    base = compute_copies(frozen_params, COMPUTE_DTYPE, track=False)
    adapters = make_lora_adapters(base, rank=cfg.lora_rank, alpha=LORA_ALPHA, seed=cfg.seed)
    adapter_params: Dict[str, T.Tensor] = {}
    for name, ad in adapters.items():
        adapter_params[f"lora.{name}.a"] = ad.a
        adapter_params[f"lora.{name}.b"] = ad.b
    lora_lr = cfg.lr if cfg.lora_lr is None else cfg.lora_lr
    lr_factors = {k: (lora_lr / cfg.lr if cfg.lr > 0 else 0.0) for k in adapter_params}

    level = enc_cfg.num_pool_steps
    dim = enc_cfg.upcast_dim(level)
    head = _zero_head(dim, num_classes)
    keeps, y, missing = _labeled_rows([s.cloud.labels for s in train_samples],
                                      num_classes, cfg)
    weights = _head_targets(y, num_classes)

    def merged_weights(tensors):
        """``base`` with the adapters whose factors ``tensors`` holds merged in."""
        return lora_weights(base, {
            name: LoraAdapter(a=tensors[f"lora.{name}.a"], b=tensors[f"lora.{name}.b"],
                              rank=ad.rank, alpha=ad.alpha)
            for name, ad in adapters.items()})

    def loss_of(copies):
        merged = merged_weights(copies)
        rows = [T.op_gather_rows(upcast(encode(plain_view(s), merged, enc_cfg), level), k)
                for s, k in zip(train_samples, keeps)]
        x = rows[0] if len(rows) == 1 else T.op_concat_rows(rows)
        if cfg.standardize:
            shift, scale = _standardizer(*_standardize_fit(x.data), x.data.dtype)
            x = T.op_mul(T.op_add(x, T.Tensor(-shift)), T.Tensor(scale))
        return _head_loss(copies, x, weights)

    _fit({**head, **adapter_params}, loss_of, cfg, lr_factors, COMPUTE_DTYPE)

    # final standardization stats and eval features from the merged weights,
    # merged in the arithmetic the epochs used
    merged = merged_weights(compute_copies(adapter_params, COMPUTE_DTYPE, track=False))
    stacked = np.concatenate([extract_features(s, merged, enc_cfg, level)[k]
                              for s, k in zip(train_samples, keeps)])
    mu, sd = _standardize_fit(stacked) if cfg.standardize else (np.zeros(dim), np.ones(dim))
    evals = ((extract_features(s, merged, enc_cfg, level), s.cloud.labels)
             for s in eval_samples)
    learnable = sum(a.param_count for a in adapters.values()) + \
        head["head.w"].size + head["head.b"].size
    return ProbeResult(weight=head["head.w"].data.copy(), bias=head["head.b"].data.copy(),
                       metrics=_evaluate(head, evals, mu, sd, num_classes),
                       missing_train_classes=missing,
                       params_learnable=int(learnable), adapters=adapters,
                       train_mu=mu, train_sd=sd)


# ---------------------------------------------------------------------------
# language probing and zero-shot
# ---------------------------------------------------------------------------

def language_probe(train_scenes: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
                   cfg: ProbeConfig):
    """Fit a linear map from point features to target text-space features by
    maximizing cosine similarity. No labels are consumed.

    ``train_scenes`` rows are (features, targets, valid_mask); invalid points
    (no visible patch) are excluded. Returns (map W, mean train cosine of W).

    The warm start is the minimum-norm least-squares map. The polish then
    takes at most ``cfg.epochs`` AdamW steps on the cosine and stops at the
    first iterate that does not beat the best so far, so the probe returns
    its best iterate and never scores below its warm start. Adam's
    bias-corrected first step moves every entry of W by about ``cfg.lr``
    whatever the gradient's size, which from a least-squares optimum on
    ill-conditioned features collapses the fit (0.964 -> 0.563 on one
    16,384-point synthetic scene); the remaining 49 epochs only partly
    repaired it (0.947). The trade-off: a polish that would first fall,
    then overtake its start, gives up that late gain (5e-4 of cosine on
    two 32,768-point scenes of a narrow encoder).

    Unlike the other probes it fits in float64, on inputs upcast to
    float64. Its warm start is the minimum-norm least-squares solution, and
    upcast features are ill-conditioned: on one 8,547 x 992 synthetic scene
    the condition number was 1.7e12 and the warm start's norm 3.1e8. A map
    that large amplifies float32 rounding: applied to the same features
    rounded to float32, that warm start's cosine fell from 0.964 to 0.31.
    """
    x = np.concatenate([f[m] for f, _t, m in train_scenes], axis=0, dtype=np.float64)
    t = np.concatenate([tg[m] for _f, tg, m in train_scenes], axis=0, dtype=np.float64)
    if x.shape[0] == 0:
        raise ProbeError("no visible points to fit the language probe")
    if np.abs(t).max() == 0:
        raise ProbeError("degenerate language targets: all zero vectors")
    w0, *_ = np.linalg.lstsq(x, t, rcond=None)
    params = {"w": T.param(w0)}
    state = AdamState.init(params)
    feats, targets = T.Tensor(x), T.Tensor(t)
    best_w, best_cos = None, None
    for epoch in range(cfg.epochs + 1):
        copies = compute_copies(params, np.float64, track=True)
        cos = T.op_mean(T.op_cosine(T.op_matmul(feats, copies["w"]), targets))
        if best_w is not None and not cos.item() > best_cos:
            break
        best_w, best_cos = copies["w"].data, cos.item()
        if epoch < cfg.epochs:
            T.backward(T.op_mul(cos, -1.0))
            del cos  # one epoch's tape is not kept while the next is built
            adamw_step(params, master_grads(copies), state, cfg.lr, {})
    return best_w, best_cos


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
