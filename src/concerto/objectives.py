"""The dual self-supervised objective.

Intra-modal branch: online-clustering cross-entropy between a centered,
temperature-sharpened teacher prototype distribution (global views, plain
arrays) and the student's prototype softmax (masked + local views), one
cross-entropy fused with the prototype matmul per student view, averaged
over matched point pairs and over view combinations. Student and teacher
heads read the encoder's stages through ``proj_head``, so no
``INTRA_LEVEL`` upcast is built, and the center update sums each teacher
view's logit columns instead of stacking the logits.

Cross-modal branch: per-patch mean pooling of the first masked view's
point features, a linear head into the image feature space, and a
(1 - cosine) criterion against the frozen per-patch image features.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from . import tensor as T
from .encoder import CROSS_LEVEL, INTRA_LEVEL, EncodeResult, cross_head, proj_head, upcast
from .geometry import Correspondence
from .views import View, match_views

logger = logging.getLogger(__name__)


@dataclass
class ClusterLossConfig:
    student_temp: float = 0.1
    teacher_temp: float = 0.04
    center_momentum: float = 0.9

    def __post_init__(self):
        for name in ("student_temp", "teacher_temp"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"temperatures must be positive and finite: {name}")
        if not 0 <= self.center_momentum < 1:
            raise ValueError("center momentum must be in [0, 1)")


@dataclass
class LossWeights:
    cross: float = 2.0
    intra: float = 2.0

    def __post_init__(self):
        for name in ("cross", "intra"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"loss weights must be non-negative and finite: {name}")
        if self.cross == 0 and self.intra == 0:
            raise ValueError("at least one loss weight must be positive")


def _teacher_probs(params_t, enc: EncodeResult, center: np.ndarray, cfg: ClusterLossConfig):
    """Centered, sharpened teacher prototype distribution of every
    ``INTRA_LEVEL`` point of ``enc``, and the column sums of its raw logits,
    in the center's dtype.

    Everything on the teacher side is constant; plain arrays come back, the
    distribution in the features' dtype. It is computed in the logits' own
    buffer once their sums are taken.
    """
    z = proj_head(params_t, enc)
    logits = T.op_matmul(z, params_t["proto.w"], None).data
    logit_sum = logits.sum(axis=0, dtype=center.dtype)
    logits -= center.astype(logits.dtype)
    return T.softmax_np(logits, cfg.teacher_temp), logit_sum


def intra_loss(student: Sequence[Tuple[View, EncodeResult]],
               teacher: Sequence[Tuple[View, EncodeResult]],
               params_s, params_t, center: np.ndarray, cfg: ClusterLossConfig):
    """Clustering cross-entropy over all (student view, teacher view) pairs.

    Returns (loss tensor, updated center, matched pair count, fraction of
    prototypes that are the argmax of at least one teacher row). Pairing is
    by original point index; each matched point contributes the feature of
    its ``INTRA_LEVEL`` ancestor. The center update is the momentum mean of the
    raw teacher logits seen this step. The loss takes the features' dtype;
    the center keeps its own.
    """
    if not teacher:
        raise ValueError("intra_loss needs at least one teacher view")
    dtype = teacher[0][1].feats[0].data.dtype
    n_stages = teacher[0][1].num_stages
    stage = n_stages - 1 - INTRA_LEVEL

    teacher_sides = []
    logit_sum = np.zeros(center.shape, center.dtype)
    logit_rows = 0
    used = np.zeros(center.shape[0], dtype=bool)
    for view, enc in teacher:
        probs, view_sum = _teacher_probs(params_t, enc, center, cfg)
        teacher_sides.append((view, enc.ancestors(stage), probs))
        logit_sum += view_sum
        logit_rows += probs.shape[0]
        used[probs.argmax(axis=1)] = True

    # each student view's loss is one fused cross-entropy against the teacher
    # distributions of every view it matches, aggregated onto its feature rows
    # through a sparse (student row, teacher row) pair matrix, entries 1/|pairs|
    loss = None
    num_combos = 0
    total_pairs = 0
    for s_view, s_enc in student:
        s_anc = s_enc.ancestors(stage)
        rows = s_enc.feats[stage].data.shape[0]
        weights = None
        for t_view, t_anc, t_probs in teacher_sides:
            if s_view is t_view:
                continue
            ia, ib = match_views(s_view, t_view)
            if ia.size == 0:
                continue
            pair_weights = sp.coo_matrix(
                (np.full(ia.size, 1.0 / ia.size, dtype), (s_anc[ia], t_anc[ib])),
                shape=(rows, t_probs.shape[0])).tocsr()
            agg = pair_weights @ t_probs
            weights = agg if weights is None else np.add(weights, agg, out=weights)
            num_combos += 1
            total_pairs += int(ia.size)
        if weights is None:
            continue
        xent = T.op_linear_softmax_xent(proj_head(params_s, s_enc), params_s["proto.w"], None,
                                        weights, cfg.student_temp)
        loss = xent if loss is None else T.op_add(loss, xent)

    if loss is None:
        logger.warning("intra_loss: zero matched pairs across all view combinations")
        loss = T.Tensor(np.zeros((), dtype))
    else:
        loss = T.op_mul(loss, 1.0 / num_combos)

    new_center = cfg.center_momentum * center + (1 - cfg.center_momentum) * (logit_sum / logit_rows)
    return loss, new_center, total_pairs, float(used.mean())


def assign_patches(enc: EncodeResult, corr: Correspondence, level: int):
    """Patch assignment for pooled points at the given upcast level.

    Each correspondence entry names a source point; the entry votes for its
    upcast-level ancestor. Every (view, ancestor) group takes the majority
    patch-table row, ties to the lowest row. Returns (member_rows,
    segment_ids, segment_rows, num_segments): segment s pools the feature
    rows ``member_rows[segment_ids == s]`` and is scored against patch-table
    row ``segment_rows[s]``.
    """
    stage = enc.num_stages - 1 - level
    if len(corr) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, 0
    u = enc.ancestors(stage)[corr.point_index]
    # count votes per (view, ancestor, row) via packed codes
    n_u, n_r = int(u.max()) + 1, int(corr.row.max()) + 1
    codes, counts = np.unique((corr.view_index * n_u + u) * n_r + corr.row, return_counts=True)
    view, u, row = codes // (n_r * n_u), (codes // n_r) % n_u, codes % n_r
    # majority with ties to the lowest row: sort by (view, u, -count, row)
    order = np.lexsort((row, -counts, u, view))
    view, u, row = view[order], u[order], row[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (np.diff(view) != 0) | (np.diff(u) != 0)
    seg_rows, seg_ids = np.unique(row[first], return_inverse=True)
    return u[first], seg_ids.astype(np.int64), seg_rows, seg_rows.size


def cross_loss(enc: EncodeResult, corr: Correspondence, grids: List[np.ndarray], params):
    """Mean (1 - cosine) between predicted and stored patch features of the
    ``CROSS_LEVEL`` upcast, over the patches that have assigned points.

    ``grids`` holds one flattened (num_patches, D) feature grid per view, in
    the views' order, so ``np.concatenate(grids)`` is the ``patch_table``
    that ``corr.row`` indexes. It stays a per-view list because perfbench's
    tracer counts each call's patches as the sum of its row counts, the
    denominator of ``objectives.patch_hit_ratio``. The targets take the
    features' dtype. Returns (loss tensor, number of nonempty patches, the
    ``cross_mean_baseline`` of their targets); with no nonempty patch, the
    loss and baseline are 0.
    """
    member_rows, seg_ids, seg_rows, n_seg = assign_patches(enc, corr, CROSS_LEVEL)
    if n_seg == 0:
        logger.warning("cross_loss: no nonempty patches")
        return T.Tensor(np.zeros((), enc.feats[0].data.dtype)), 0, 0.0
    pooled = T.op_segment_mean(upcast(enc, CROSS_LEVEL, member_rows), seg_ids, n_seg)
    predicted = cross_head(params, pooled)
    targets = np.concatenate(grids)[seg_rows].astype(pooled.data.dtype, copy=False)
    cos = T.op_cosine(predicted, T.Tensor(targets))
    loss = T.op_mean(T.op_add(T.op_mul(cos, -1.0), 1.0))
    return loss, int(n_seg), cross_mean_baseline(targets)


def cross_mean_baseline(targets: np.ndarray) -> float:
    """mean(1 - cos(mean target, target_i)) over the rows of ``targets``: the
    cross loss of a head that predicts the mean target for every patch. A
    cross loss near it means the head has learned nothing beyond the mean."""
    mean = np.broadcast_to(targets.mean(axis=0), targets.shape)
    return float(1.0 - T.op_cosine(T.Tensor(targets), T.Tensor(mean)).data.mean())


def combine(intra: T.Tensor, cross: Optional[T.Tensor], weights: LossWeights):
    """Weighted total; ``cross`` is None when the step used no images, and
    the cross branch is then skipped entirely."""
    total = T.op_mul(intra, weights.intra)
    if cross is not None:
        total = T.op_add(total, T.op_mul(cross, weights.cross))
    return total

