"""Pinhole cameras, vectorized projection, depth-based visibility,
point-to-patch correspondence with its stacked patch table, and voxel grids.

Conventions: extrinsics map world to camera (q = R p + t), the camera looks
down +z, pixels are half-open ([0, W) x [0, H)), depth lookups use the
floor pixel, and depth values <= 0 or NaN are invalid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .tensor import SegmentMap, segment_mean_np

# key packing for voxelize: 21 bits per axis, offset to keep keys positive
_KEY_BITS = 21
_KEY_OFFSET = 1 << (_KEY_BITS - 1)
_KEY_MASK = (1 << _KEY_BITS) - 1

# a point is visible where its depth is within this of the depth map's value
EPS_DEPTH = 0.01


@dataclass
class CameraView:
    """One camera: intrinsics, world-to-camera extrinsics, optional depth map
    and image feature grid (H/patch x W/patch x D)."""

    intrinsics: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    image_size: Tuple[int, int]  # (W, H) pixels
    patch_size: int
    depth_map: Optional[np.ndarray] = None
    feature_grid: Optional[np.ndarray] = None

    def __post_init__(self):
        self.intrinsics = np.asarray(self.intrinsics, dtype=np.float64).reshape(3, 3)
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not (np.isfinite(self.intrinsics).all() and np.isfinite(self.translation).all()):
            raise ValueError("intrinsics and translation must be finite")
        if not (self.intrinsics[0, 0] > 0 and self.intrinsics[1, 1] > 0):
            raise ValueError("focal lengths K[0,0] and K[1,1] must be positive")
        R = self.rotation
        if not np.allclose(R.T @ R, np.eye(3), atol=1e-9):
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > 1e-9:
            raise ValueError("rotation determinant is not +1")
        if np.shape(self.image_size) != (2,) or not all(
                isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n > 0
                for n in self.image_size):
            raise ValueError(f"image_size {self.image_size!r} must be two positive integers")
        w, h = self.image_size = tuple(int(n) for n in self.image_size)
        if self.patch_size <= 0:
            raise ValueError("patch_size must be positive")
        if self.depth_map is not None:
            self.depth_map = np.asarray(self.depth_map, dtype=np.float64)
            if self.depth_map.shape != (h, w):
                raise ValueError(f"depth map shape {self.depth_map.shape} != (H={h}, W={w})")
        if self.feature_grid is not None:
            if w % self.patch_size or h % self.patch_size:
                raise ValueError("image size must be divisible by patch_size when a feature grid is present")
            self.feature_grid = np.asarray(self.feature_grid, dtype=np.float64)
            expect = (h // self.patch_size, w // self.patch_size)
            if self.feature_grid.shape[:2] != expect:
                raise ValueError(f"feature grid {self.feature_grid.shape[:2]} != {expect}")
            if not np.isfinite(self.feature_grid).all():
                raise ValueError("feature grid must be finite")

    def flat_feature_grid(self) -> np.ndarray:
        """Feature grid reshaped to (num_patches, D), row-major patch order."""
        if self.feature_grid is None:
            raise ValueError("view has no feature grid")
        return self.feature_grid.reshape(-1, self.feature_grid.shape[-1])


@dataclass
class Correspondence:
    """Visibility-verified point-to-patch matches: entry k says that point
    ``point_index[k]`` is visible in view ``view_index[k]`` and projects
    into the patch whose image feature is ``patch_table(views)[row[k]]``.

    Three int64 arrays of one length, sorted by (view_index, point_index).
    ``build_correspondence`` is the one place that turns a (view, patch)
    pair into a row; consumers index or pool by ``row`` alone.
    """

    point_index: np.ndarray
    view_index: np.ndarray
    row: np.ndarray

    def __len__(self):
        return self.point_index.shape[0]


@dataclass
class VoxelGrid:
    """Single-level voxelization: every point maps to exactly one cell."""

    cells: SegmentMap       # point -> voxel map, with each voxel's point count
    centroids: np.ndarray   # (V, 3) per-voxel coordinate means


def project_points(points: np.ndarray, cam: CameraView):
    """Vectorized pinhole projection.

    Returns (xy (N,2) float, depth (N,) float, in_bounds (N,) bool).
    Behind-camera points get in_bounds False; their pixel values are NaN.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    q = pts @ cam.rotation.T + cam.translation
    depth = q[:, 2]
    w, h = cam.image_size
    with np.errstate(divide="ignore", invalid="ignore"):
        uvw = q @ cam.intrinsics.T
        xy = uvw[:, :2] / depth[:, None]
    ok = depth > 0
    xy[~ok] = np.nan
    in_bounds = ok & (xy[:, 0] >= 0) & (xy[:, 0] < w) & (xy[:, 1] >= 0) & (xy[:, 1] < h)
    return xy, depth, in_bounds


def visible_mask(points: np.ndarray, cam: CameraView):
    """Vectorized visibility within ``EPS_DEPTH`` for all points against one camera.

    Returns (mask, ix, iy) where ix/iy are valid only where mask holds.
    """
    xy, depth, inb = project_points(points, cam)
    n = xy.shape[0]
    ix = np.zeros(n, dtype=np.int64)
    iy = np.zeros(n, dtype=np.int64)
    mask = np.zeros(n, dtype=bool)
    if not inb.any():
        return mask, ix, iy
    if cam.depth_map is None:
        raise ValueError("view has no depth map")
    sel = np.flatnonzero(inb)
    sx = np.floor(xy[sel, 0]).astype(np.int64)
    sy = np.floor(xy[sel, 1]).astype(np.int64)
    d = cam.depth_map[sy, sx]
    ok = np.isfinite(d) & (d > 0) & (np.abs(d - depth[sel]) < EPS_DEPTH)
    mask[sel[ok]] = True
    ix[sel] = sx
    iy[sel] = sy
    return mask, ix, iy


def patch_table(views: Sequence[CameraView]) -> np.ndarray:
    """The views' flattened feature grids stacked in view order, one row per
    patch: the (num_patches_total, D) table a ``Correspondence`` row
    indexes."""
    return np.concatenate([cam.flat_feature_grid() for cam in views])


def build_correspondence(points: np.ndarray, views: Sequence[CameraView]) -> Correspondence:
    """All (point, view) matches visible within ``EPS_DEPTH``, each with the
    ``patch_table`` row of the patch it projects into: a view's rows follow
    those of the views before it, in row-major patch order."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    empty = np.zeros(0, dtype=np.int64)
    point_index, view_index, row = [empty], [empty], [empty]
    offset = 0
    for v, cam in enumerate(views):
        mask, ix, iy = visible_mask(pts, cam)
        idx = np.flatnonzero(mask)
        point_index.append(idx)
        view_index.append(np.full_like(idx, v))
        patches_x = cam.image_size[0] // cam.patch_size
        row.append(offset + (iy[idx] // cam.patch_size) * patches_x + ix[idx] // cam.patch_size)
        offset += patches_x * (cam.image_size[1] // cam.patch_size)
    # the leading int64 empties fix the dtype and cover a call with no views
    return Correspondence(*(np.concatenate(a) for a in (point_index, view_index, row)))


def render_depth(points: np.ndarray, cam: CameraView) -> np.ndarray:
    """Point-splat depth map: per-pixel minimum projected depth. Pixels no
    point reaches are NaN (invalid)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise ValueError("render_depth needs a nonempty point set")
    w, h = cam.image_size
    depth = np.full((h, w), np.inf)
    xy, z, inb = project_points(pts, cam)
    sel = np.flatnonzero(inb)
    ix = np.floor(xy[sel, 0]).astype(np.int64)
    iy = np.floor(xy[sel, 1]).astype(np.int64)
    np.minimum.at(depth, (iy, ix), z[sel])
    depth[~np.isfinite(depth)] = np.nan
    return depth


def lattice_keys(points: np.ndarray, cell_size: float) -> np.ndarray:
    """Per-point cell floor(coord / cell_size) as (N, 3) int64 keys shifted
    by the packing offset; raises ValueError for a key outside the range
    ``voxelize`` can pack."""
    if cell_size <= 0:
        raise ValueError("cell_size must be positive")
    keys3 = np.floor(np.asarray(points, dtype=np.float64).reshape(-1, 3) / cell_size)
    # compared as floats, where a huge coordinate cannot overflow and NaN fails
    if not -_KEY_OFFSET <= keys3.min() <= keys3.max() <= _KEY_MASK - _KEY_OFFSET:
        raise ValueError("coordinates exceed the voxel key range")
    return keys3.astype(np.int64) + _KEY_OFFSET


def voxelize(points: np.ndarray, cell_size: float) -> VoxelGrid:
    """Assign each point to the cell floor(coord / cell_size); stable voxel
    ordering by lattice key."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    shifted = lattice_keys(pts, cell_size)
    packed = (shifted[:, 0] << (2 * _KEY_BITS)) | (shifted[:, 1] << _KEY_BITS) | shifted[:, 2]
    uniq, assignments = np.unique(packed, return_inverse=True)
    cells = SegmentMap(assignments, uniq.size)
    return VoxelGrid(cells=cells, centroids=segment_mean_np(pts, cells))
