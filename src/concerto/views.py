"""Multi-view point cloud augmentation: 2 global + 2 masked + 4 local views
with original-index provenance.

Masked views reuse the principal (first global) view's geometry and differ
only in a point mask, so any correspondence built on the principal view's
source points stays valid for them. Local views are contiguous ball crops.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .dataio import PointCloud
from .geometry import voxelize

logger = logging.getLogger(__name__)

MIN_LOCAL_POINTS = 16
LOCAL_RETRIES = 8
GLOBAL_VIEWS = 2
MASKED_VIEWS = 2
LOCAL_VIEWS = 4
MASK_GRID = 0.1  # cell size of the masked views' voxel masks


@dataclass
class AugmentConfig:
    rotation_range: Tuple[float, float] = (0.0, 2 * np.pi)  # about z
    scale_range: Tuple[float, float] = (0.9, 1.1)
    flip_prob: float = 0.5
    jitter_sigma: float = 0.005
    color_jitter: float = 0.05
    crop_range: Tuple[float, float] = (0.1, 0.4)
    mask_ratio: float = 0.3

    def __post_init__(self):
        for name in ("rotation_range", "scale_range", "crop_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} is not well ordered")
        if not 0 <= self.flip_prob <= 1:
            raise ValueError("flip_prob must be in [0, 1]")
        if not 0 <= self.mask_ratio <= 1:
            raise ValueError("mask_ratio must be in [0, 1]")


@dataclass
class View:
    cloud: PointCloud
    origin_index: np.ndarray         # per-point index into the source cloud
    mask: Optional[np.ndarray] = None  # True = masked out


@dataclass
class ViewSet:
    globals_: List[View]
    masked: List[View]
    locals_: List[View]

    @property
    def principal(self) -> View:
        return self.globals_[0]

    @property
    def student_views(self) -> List[View]:
        return self.masked + self.locals_

    @property
    def teacher_views(self) -> List[View]:
        return self.globals_

    @property
    def all_views(self) -> List[View]:
        return self.globals_ + self.masked + self.locals_


def _augment_cloud(cloud: PointCloud, cfg: AugmentConfig, rng: np.random.Generator) -> PointCloud:
    """Random rigid pose + scale + flips around the centroid, coordinate
    jitter, and color jitter."""
    coords = cloud.coords
    center = coords.mean(axis=0)
    theta = rng.uniform(*cfg.rotation_range)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    scale = rng.uniform(*cfg.scale_range)
    flips = np.where(rng.random(2) < cfg.flip_prob, -1.0, 1.0)
    diag = np.array([flips[0], flips[1], 1.0])
    out = (coords - center) * diag @ rot.T * scale + center
    if cfg.jitter_sigma > 0:
        out = out + rng.normal(0.0, cfg.jitter_sigma, size=out.shape)
    colors = cloud.colors
    if cfg.color_jitter > 0:
        colors = np.clip(colors + rng.uniform(-cfg.color_jitter, cfg.color_jitter,
                                              size=colors.shape), 0.0, 1.0)
    return PointCloud(coords=out, colors=colors, normals=None,
                      labels=None if cloud.labels is None else cloud.labels.copy())


def _grid_mask(coords: np.ndarray, ratio: float, grid: float,
               rng: np.random.Generator) -> np.ndarray:
    """Mask whole voxel cells in random order until ``ratio`` of the points is
    covered; the last cell is trimmed so the final count is exact."""
    n = coords.shape[0]
    target = int(round(ratio * n))
    mask = np.zeros(n, dtype=bool)
    if target == 0:
        return mask
    vox = voxelize(coords, grid)
    order = rng.permutation(vox.num_voxels)
    by_cell = np.argsort(vox.assignments, kind="stable")
    ends = np.cumsum(vox.counts)
    covered = 0
    for cell in order:
        members = by_cell[ends[cell] - vox.counts[cell]:ends[cell]]
        room = target - covered
        if members.size > room:
            members = rng.choice(members, size=room, replace=False)
        mask[members] = True
        covered += members.size
        if covered >= target:
            break
    return mask


def _local_crop(cloud: PointCloud, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Indices of a contiguous ball crop holding a crop-fraction of points."""
    n = cloud.num_points
    frac = rng.uniform(*cfg.crop_range)
    center = cloud.coords[rng.integers(n)]
    for attempt in range(LOCAL_RETRIES):
        k = int(round(frac * n))
        if k >= MIN_LOCAL_POINTS:
            d = np.linalg.norm(cloud.coords - center, axis=1)
            idx = np.argpartition(d, min(k, n) - 1)[:k]
            return np.sort(idx)
        frac = min(1.0, frac * 2)
    raise ValueError(f"local crop produced fewer than {MIN_LOCAL_POINTS} points after {LOCAL_RETRIES} retries")


def make_viewset(cloud: PointCloud, cfg: AugmentConfig, seed: int) -> ViewSet:
    """2 global + 2 masked + 4 local views, deterministic under the seed.

    The first global view is the principal view; masked views share its
    cloud object and carry a mask covering ``mask_ratio`` of the points.
    Views share arrays nothing mutates: the clouds and the origin index.
    """
    if cloud.num_points < 1:
        raise ValueError("cloud is empty")
    rng = np.random.default_rng([seed, 0x5eed])
    all_idx = np.arange(cloud.num_points)
    globals_ = [View(cloud=_augment_cloud(cloud, cfg, rng), origin_index=all_idx)
                for _g in range(GLOBAL_VIEWS)]
    principal = globals_[0].cloud
    masked = [View(cloud=principal, origin_index=all_idx,
                   mask=_grid_mask(principal.coords, cfg.mask_ratio, MASK_GRID, rng))
              for _m in range(MASKED_VIEWS)]

    locals_ = []
    for _l in range(LOCAL_VIEWS):
        idx = _local_crop(cloud, cfg, rng)
        sub = PointCloud(coords=cloud.coords[idx], colors=cloud.colors[idx],
                         labels=None if cloud.labels is None else cloud.labels[idx])
        locals_.append(View(cloud=_augment_cloud(sub, cfg, rng), origin_index=idx))

    return ViewSet(globals_=globals_, masked=masked, locals_=locals_)


def match_views(student: View, teacher: View):
    """Positions (i, j) with matching origin indices, sorted by origin index."""
    _common, ia, ib = np.intersect1d(student.origin_index, teacher.origin_index,
                                     assume_unique=True, return_indices=True)
    return ia, ib

