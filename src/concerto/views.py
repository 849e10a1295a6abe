"""Multi-view point cloud augmentation: 2 global + 2 masked + 4 local views
with original-index provenance.

Masked views reuse the principal (first global) view's geometry and differ
only in a point mask drawn from one voxel grid of it, so any correspondence
built on the principal view's source points stays valid for them. Local
views are contiguous ball crops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .dataio import PointCloud
from .geometry import voxelize
from .tensor import SegmentMap

MIN_LOCAL_POINTS = 16
GLOBAL_VIEWS = 2
MASKED_VIEWS = 2
LOCAL_VIEWS = 4
MASK_GRID = 0.1  # cell size of the masked views' voxel masks
JITTER_SIGMAS = 10  # margin of augmented_bounds for coordinate jitter, in sigmas


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
            if not lo <= hi:
                raise ValueError(f"{name} is not well ordered")
            if np.isinf((lo, hi)).any():
                raise ValueError(f"{name} must be finite")
        for name in ("jitter_sigma", "color_jitter"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be non-negative and finite")
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
    def student_views(self) -> List[View]:
        return self.masked + self.locals_

    @property
    def teacher_views(self) -> List[View]:
        return self.globals_

    @property
    def all_views(self) -> List[View]:
        return self.globals_ + self.masked + self.locals_


def _augment_cloud(coords: np.ndarray, colors: np.ndarray, cfg: AugmentConfig,
                   rng: np.random.Generator) -> PointCloud:
    """Random rigid pose + scale + flips around the centroid, coordinate
    jitter, and color jitter; the result carries no normals or labels."""
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
    if cfg.color_jitter > 0:
        colors = np.clip(colors + rng.uniform(-cfg.color_jitter, cfg.color_jitter,
                                              size=colors.shape), 0.0, 1.0)
    return PointCloud(coords=out, colors=colors)


def augmented_bounds(coords: np.ndarray, cfg: AugmentConfig):
    """Corners (lo, hi) of a box that holds every coordinate ``make_viewset``
    can give a view of ``coords``.

    A view scales by at most max|scale_range|, and flips and rotates about z,
    around the centroid of its own points (the cloud's, or a crop's), which
    lies in the cloud's bounding box. So no point lands farther from that box
    than the scale times its xy diagonal across x and y, or times its height
    along z. Jitter adds ``JITTER_SIGMAS`` standard deviations, which a
    Gaussian coordinate exceeds with probability 1.5e-23.
    """
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    size = hi - lo
    diag = np.hypot(size[0], size[1])
    scale = max(abs(v) for v in cfg.scale_range)
    margin = scale * np.array([diag, diag, size[2]]) + JITTER_SIGMAS * cfg.jitter_sigma
    return lo - margin, hi + margin


def _grid_mask(cells: SegmentMap, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Mask whole cells of a voxel grid's ``cells`` in random order until
    ``ratio`` of its points is covered; only the cell that reaches the
    target is trimmed, so the final count is exact."""
    n = cells.ids.size
    target = int(round(ratio * n))
    if target == 0:
        return np.zeros(n, dtype=bool)
    order = rng.permutation(cells.num)
    reach = np.cumsum(cells.counts[order])
    last = int(np.searchsorted(reach, target))  # the first cell to reach the target
    whole = np.zeros(cells.num, dtype=bool)
    whole[order[:last]] = True
    mask = whole[cells.ids]
    members = np.flatnonzero(cells.ids == order[last])
    room = target - (reach[last - 1] if last else 0)
    if members.size > room:
        members = rng.choice(members, size=room, replace=False)
    mask[members] = True
    return mask


def _local_crop(coords: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Indices of a contiguous ball crop: the points nearest a random one,
    a crop-fraction of them but at least ``MIN_LOCAL_POINTS``."""
    n = coords.shape[0]
    if n < MIN_LOCAL_POINTS:
        raise ValueError(f"local crop needs at least {MIN_LOCAL_POINTS} points; the cloud has {n}")
    frac = rng.uniform(*cfg.crop_range)
    center = coords[rng.integers(n)]
    k = min(n, max(int(round(frac * n)), MIN_LOCAL_POINTS))
    d = np.linalg.norm(coords - center, axis=1)
    return np.sort(np.argpartition(d, k - 1)[:k])


def make_viewset(cloud: PointCloud, cfg: AugmentConfig, seed: int) -> ViewSet:
    """2 global + 2 masked + 4 local views, deterministic under the seed.

    The first global view is the principal view; masked views share its
    cloud object and carry masks of ``mask_ratio`` of its points, drawn from
    one ``MASK_GRID`` voxelization of it. Views share arrays nothing
    mutates: the clouds and the origin index.
    """
    rng = np.random.default_rng([seed, 0x5eed])
    coords, colors = cloud.coords, cloud.colors
    all_idx = np.arange(cloud.num_points)
    globals_ = [View(cloud=_augment_cloud(coords, colors, cfg, rng), origin_index=all_idx)
                for _g in range(GLOBAL_VIEWS)]
    principal = globals_[0].cloud
    cells = voxelize(principal.coords, MASK_GRID).cells
    masked = [View(cloud=principal, origin_index=all_idx,
                   mask=_grid_mask(cells, cfg.mask_ratio, rng))
              for _m in range(MASKED_VIEWS)]

    locals_ = []
    for _l in range(LOCAL_VIEWS):
        idx = _local_crop(coords, cfg, rng)
        locals_.append(View(cloud=_augment_cloud(coords[idx], colors[idx], cfg, rng),
                            origin_index=idx))

    return ViewSet(globals_=globals_, masked=masked, locals_=locals_)


def match_views(student: View, teacher: View):
    """Positions (i, j) with matching origin indices, sorted by origin index,
    read from a table of teacher positions: ``np.intersect1d``'s, with no sort,
    as origins ascend strictly in every view ``make_viewset`` and ``plain_view`` build."""
    s, t = student.origin_index, teacher.origin_index
    pos = np.full(max(s.max(initial=-1), t.max(initial=-1)) + 1, -1, dtype=np.int64)
    pos[t] = np.arange(t.size)
    ia = np.flatnonzero(pos[s] >= 0)
    return ia, pos[s[ia]]

