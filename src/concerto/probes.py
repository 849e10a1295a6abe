"""Frozen-encoder evaluation: linear probing, low-rank-adapter probing,
language-space probing, zero-shot classification, limited-annotation label
budgets, and segmentation metrics.

All probes train a single linear layer (plus adapters in lora mode) with
full-batch AdamW under a fixed seed; the encoder checkpoint is never
mutated. Features are the full-resolution upcast. The lora probe
merges its adapters into the frozen weights and encodes with the merged
weights, so there is one encoder forward path.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .dataio import SceneSample
from .encoder import (EncoderConfig, LoraAdapter, clone_params, encode, lora_weights,
                      make_lora_adapters, upcast)
from .geometry import build_correspondence, patch_table
from .trainer import AdamState, adamw_step
from .views import View

logger = logging.getLogger(__name__)

LORA_ALPHA = 16.0  # adapter scaling is LORA_ALPHA / rank


class ProbeError(ValueError):
    pass


@dataclass
class ProbeConfig:
    epochs: int = 50
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
    """Upcast features of the unaugmented cloud. The encoder runs on
    untracked views of ``params``, so no tape is recorded even when they
    are ``T.param`` leaves."""
    params = {k: T.Tensor(p.data) for k, p in params.items()}
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
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    return mu, np.maximum(sd, 1e-8)


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


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
         lr_factors: Dict[str, float]) -> Optional[float]:
    """``cfg.epochs`` full-batch AdamW steps on ``params``; ``loss_of()``
    builds one epoch's loss on the tape. Returns the last loss value."""
    state = AdamState.init(params)
    last = None
    for _epoch in range(cfg.epochs):
        loss = loss_of()
        T.backward(loss)
        last = loss.item()
        del loss  # one epoch's tape is not kept while the next is built
        grads = {k: (p.grad if p.grad is not None else np.zeros_like(p.data))
                 for k, p in params.items()}
        for p in params.values():
            p.zero_grad()
        adamw_step(params, grads, state, cfg.lr, lr_factors)
    return last


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
    """Metrics of the head's argmax over standardized (features, labels) pairs."""
    pred_all, gt_all = [], []
    for i, (feats, labels) in enumerate(eval_scenes):
        _check_labels(labels, num_classes, f"eval scene {i}")
        logits = (feats - mu) * (1.0 / sd) @ head["head.w"].data + head["head.b"].data
        pred_all.append(logits.argmax(axis=1))
        gt_all.append(labels)
    return compute_metrics(np.concatenate(pred_all), np.concatenate(gt_all), num_classes)


def linear_probe(train_scenes: Sequence[Tuple[np.ndarray, np.ndarray]],
                 eval_scenes: Sequence[Tuple[np.ndarray, np.ndarray]],
                 num_classes: int, cfg: ProbeConfig) -> ProbeResult:
    """Single linear layer on frozen features, softmax cross-entropy, AdamW.

    ``train_scenes`` / ``eval_scenes`` are (features, labels) pairs; features
    may be concatenations of several sources. label_budget limits the
    labeled points used per training scene (seeded, nested).
    """
    keeps, y, missing = _labeled_rows([lab for _f, lab in train_scenes], num_classes, cfg)
    # a fresh array, so standardizing in place leaves the callers' untouched; a
    # scene that keeps every row goes to the concatenation uncopied
    x = np.concatenate([f if k.size == f.shape[0] else f[k]
                        for (f, _lab), k in zip(train_scenes, keeps)], axis=0)
    if cfg.standardize:
        # the same arithmetic as (x - mean) / std, with no full-size temporary
        # beyond std's squares
        mu = x.mean(axis=0)
        x -= mu
        sd = np.maximum(np.sqrt(np.square(x).sum(axis=0) / x.shape[0]), 1e-8)
        x *= 1.0 / sd
    else:
        mu, sd = 0.0, 1.0
    dim = x.shape[1]
    head = _zero_head(dim, num_classes)
    feats, weights = T.Tensor(x), _one_hot(y, num_classes) / y.size
    _fit(head, lambda: _head_loss(head, feats, weights), cfg, {})
    return ProbeResult(weight=head["head.w"].data.copy(), bias=head["head.b"].data.copy(),
                       metrics=_evaluate(head, eval_scenes, mu, sd, num_classes),
                       missing_train_classes=missing,
                       params_learnable=dim * num_classes + num_classes,
                       train_mu=np.asarray(mu), train_sd=np.asarray(sd))


def lora_probe(train_samples: Sequence[SceneSample], eval_samples: Sequence[SceneSample],
               frozen_params, enc_cfg: EncoderConfig, num_classes: int,
               cfg: ProbeConfig) -> ProbeResult:
    """Low-rank adapters on the frozen encoder plus a linear head.

    Only adapter and head parameters train. Each epoch encodes with the
    adapters merged into their weights. With a zero adapter rate this
    reduces exactly to the linear probe (adapters start as the identity).
    """
    base = clone_params(frozen_params)  # never receives gradients
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
    weights = _one_hot(y, num_classes) / y.size

    def loss_of():
        merged = lora_weights(base, adapters)
        rows = [T.op_gather_rows(upcast(encode(plain_view(s), merged, enc_cfg), level), k)
                for s, k in zip(train_samples, keeps)]
        x = rows[0] if len(rows) == 1 else T.op_concat_rows(rows)
        if cfg.standardize:
            mu, sd = _standardize_fit(x.data)
            x = T.op_mul(T.op_add(x, T.Tensor(-mu)), T.Tensor(1.0 / sd))
        return _head_loss(head, x, weights)

    _fit({**head, **adapter_params}, loss_of, cfg, lr_factors)

    # final standardization stats and eval features from the merged weights
    merged = lora_weights(base, adapters)
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
    (no visible patch) are excluded. Returns (map W, mean train cosine of the
    last epoch, 0.0 when there is none).
    """
    x = np.concatenate([f[m] for f, _t, m in train_scenes], axis=0)
    t = np.concatenate([tg[m] for _f, tg, m in train_scenes], axis=0)
    if x.shape[0] == 0:
        raise ProbeError("no visible points to fit the language probe")
    if np.abs(t).max() == 0:
        raise ProbeError("degenerate language targets: all zero vectors")
    # least-squares warm start (uses only features/targets), cosine polish after
    w0, *_ = np.linalg.lstsq(x, t, rcond=None)
    w = T.param(w0)
    feats, targets = T.Tensor(x), T.Tensor(t)

    def loss_of():
        cos = T.op_cosine(T.op_matmul(feats, w), targets)
        return T.op_mean(T.op_add(T.op_mul(cos, -1.0), 1.0))

    loss = _fit({"w": w}, loss_of, cfg, {})
    return w.data.copy(), 0.0 if loss is None else 1.0 - loss


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
