"""Scene manifests, data-piece assembly, and a synthetic room generator.

A sample is one point cloud with up to 4 camera views. The generator builds
axis-aligned rooms (floor, walls, per-class boxes), samples labeled points
on surfaces with class-correlated colors, renders per-view depth by point
splatting, and writes per-patch image features that are an exact linear
function of patch geometry/color summaries (plus optional noise), so
cross-modal training has an attainable target with a known ground truth.

On disk a dataset is ``manifest.json`` plus one ``.ctsr`` file per array:
``scenes/<scene_id>/<key>.ctsr`` for a cloud's, ``scenes/<scene_id>/view<v>_<key>.ctsr``
for view v's (``_LAYOUT``) and ``synthetic_A.ctsr``. A path is a JSON string
relative to the manifest; ``?`` marks an optional key::

    {"version": 1, "image_feature_dim": int, "patch_size": int, "synthetic_A"?: path,
     "samples": [{"scene_id": string, "split"?: string ("train"), "cloud": {"coords": path,
       "colors": path, "normals"?: path, "labels"?: path}, "views": [{"K": array,
       "R": array, "t": array, "image_size": [int, int], "depth"?: path, "features"?: path}]}]}
"""

from __future__ import annotations

import colorsys
import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .ctsr import load_ctsr, save_ctsr
from .geometry import CameraView, build_correspondence, render_depth
from .tensor import SegmentMap, segment_mean_np

MAX_VIEWS_PER_PIECE = 4
MANIFEST_VERSION = 1
# synthetic rooms: side length in meters, and the half-width of the uniform
# color noise about each class color; each room has MAX_VIEWS_PER_PIECE cameras
ROOM_EXTENT = 6.0
COLOR_JITTER = 0.08


class ManifestError(ValueError):
    """Manifest or sample fails validation."""


@dataclass
class PointCloud:
    coords: np.ndarray            # (N, 3) meters
    colors: np.ndarray            # (N, 3) in [0, 1]
    normals: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None  # (N,) int64, -1 = unlabeled

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64).reshape(-1, 3)
        self.colors = np.asarray(self.colors, dtype=np.float64).reshape(-1, 3)
        n = self.coords.shape[0]
        if n < 1:
            raise ValueError("point cloud must contain at least one point")
        if self.colors.shape != (n, 3):
            raise ValueError("colors shape does not match coords")
        if not np.isfinite(self.coords).all():
            raise ValueError("coords must be finite")
        if not ((self.colors >= 0) & (self.colors <= 1)).all():
            raise ValueError("colors must be finite and lie in [0, 1]")
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=np.float64).reshape(n, 3)
            norms = np.linalg.norm(self.normals, axis=1)
            if not (np.abs(norms - 1.0) <= 1e-6).all():
                raise ValueError("normals must be finite and unit length")
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.size != n:
                raise ValueError(f"labels have {labels.size} entries for {n} points")
            labels = labels.reshape(n)
            # integer labels pay only the range check
            if labels.dtype.kind not in "iu" and not (
                    np.isfinite(labels) & (labels == np.round(labels))).all():
                raise ValueError("labels must be finite whole numbers")
            if labels.min() < -1:
                raise ValueError("labels must be -1 (unlabeled) or non-negative")
            self.labels = labels.astype(np.int64, copy=False)

    @property
    def num_points(self) -> int:
        return self.coords.shape[0]


@dataclass
class SceneSample:
    cloud: PointCloud
    views: List[CameraView]
    scene_id: str

    def __post_init__(self):
        if len(self.views) > MAX_VIEWS_PER_PIECE:
            raise ManifestError(f"scene {self.scene_id}: {len(self.views)} views exceeds the "
                                f"{MAX_VIEWS_PER_PIECE}-view piece limit")


@dataclass
class SampleRef:
    scene_id: str
    split: str
    cloud: dict
    views: List[dict]


@dataclass
class DatasetManifest:
    root: Path
    image_feature_dim: int
    patch_size: int
    samples: List[SampleRef]
    synthetic_a_path: Optional[str] = None


@dataclass
class SyntheticSpec:
    num_scenes: int = 8
    points_per_scene: int = 4096
    num_classes: int = 6
    image_size: int = 64
    patch_size: int = 8
    feature_dim: int = 16
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("num_classes", "num_scenes", "points_per_scene", "image_size", "patch_size",
                     "feature_dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.image_size % self.patch_size:
            raise ValueError("image_size must be divisible by patch_size")
        if not self.noise_sigma >= 0:
            raise ValueError("noise_sigma must be non-negative")

    @property
    def summary_dim(self) -> int:
        return 6 + self.num_classes


def class_palette(num_classes: int) -> np.ndarray:
    """Fixed well-separated base colors, one hue per class."""
    cols = [colorsys.hsv_to_rgb(i / num_classes, 0.75, 0.9) for i in range(num_classes)]
    return np.asarray(cols, dtype=np.float64)


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------

def _rect(origin, edge_u, edge_v, cls):
    origin = np.asarray(origin, dtype=np.float64)
    edge_u = np.asarray(edge_u, dtype=np.float64)
    edge_v = np.asarray(edge_v, dtype=np.float64)
    area = np.linalg.norm(np.cross(edge_u, edge_v))
    return origin, edge_u, edge_v, int(cls), float(area)


def _room_surfaces(spec: SyntheticSpec, rng: np.random.Generator):
    """Axis-aligned rectangles: floor (class 0), walls (class 1), and one
    box per remaining class (sides + top, no bottom)."""
    ex = ROOM_EXTENT
    wall_h = 0.45 * ex
    surfaces = [_rect((0, 0, 0), (ex, 0, 0), (0, ex, 0), 0)]
    if spec.num_classes >= 2:
        surfaces += [
            _rect((0, 0, 0), (ex, 0, 0), (0, 0, wall_h), 1),
            _rect((0, ex, 0), (ex, 0, 0), (0, 0, wall_h), 1),
            _rect((0, 0, 0), (0, ex, 0), (0, 0, wall_h), 1),
            _rect((ex, 0, 0), (0, ex, 0), (0, 0, wall_h), 1),
        ]
    for cls in range(2, spec.num_classes):
        sx, sy = rng.uniform(0.14 * ex, 0.24 * ex, size=2)
        sz = rng.uniform(0.12 * ex, 0.28 * ex)
        x0 = rng.uniform(0.1 * ex, 0.9 * ex - sx)
        y0 = rng.uniform(0.1 * ex, 0.9 * ex - sy)
        surfaces += [
            _rect((x0, y0, sz), (sx, 0, 0), (0, sy, 0), cls),                 # top
            _rect((x0, y0, 0), (sx, 0, 0), (0, 0, sz), cls),                  # -y side
            _rect((x0, y0 + sy, 0), (sx, 0, 0), (0, 0, sz), cls),             # +y side
            _rect((x0, y0, 0), (0, sy, 0), (0, 0, sz), cls),                  # -x side
            _rect((x0 + sx, y0, 0), (0, sy, 0), (0, 0, sz), cls),             # +x side
        ]
    return surfaces


def _allocate_counts(areas: np.ndarray, total: int) -> np.ndarray:
    raw = areas / areas.sum() * total
    counts = np.floor(raw).astype(np.int64)
    short = total - counts.sum()
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def _camera_ring(rng: np.random.Generator) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Rotation/translation pairs for cameras on a ring looking inward."""
    ex = ROOM_EXTENT
    wall_h = 0.45 * ex
    center = np.array([ex / 2, ex / 2, 0.30 * wall_h])
    radius = 0.40 * ex
    height = 0.75 * wall_h
    start = rng.uniform(0, 2 * np.pi)
    cams = []
    for k in range(MAX_VIEWS_PER_PIECE):
        ang = start + 2 * np.pi * k / MAX_VIEWS_PER_PIECE
        pos = np.array([ex / 2 + radius * np.cos(ang), ex / 2 + radius * np.sin(ang), height])
        fwd = center - pos
        fwd = fwd / np.linalg.norm(fwd)
        up = np.array([0.0, 0.0, 1.0])
        right = np.cross(fwd, up)
        right = right / np.linalg.norm(right)
        down = np.cross(fwd, right)
        R = np.stack([right, down, fwd], axis=0)  # world -> camera rows
        t = -R @ pos
        cams.append((R, t))
    return cams


def _patch_summaries(coords, colors, labels, corr, num_rows, num_classes):
    """Per patch-table row, the summary [centered xyz / extent, rgb - 1/2,
    class fraction histogram]; empty patches are all zero."""
    ex = ROOM_EXTENT
    pts = corr.point_index
    onehot = np.zeros((pts.size, num_classes))
    onehot[np.arange(pts.size), labels[pts]] = 1.0
    rows = SegmentMap(corr.row, num_rows)
    means = segment_mean_np(np.concatenate([coords[pts], colors[pts], onehot], axis=1), rows)
    summary = np.concatenate([(means[:, :3] - ex / 2) / ex, means[:, 3:6] - 0.5, means[:, 6:]],
                             axis=1)
    summary[rows.counts == 0] = 0.0
    return summary


def synthetic_feature_matrix(spec: SyntheticSpec) -> np.ndarray:
    """The fixed seeded linear map from patch summaries to image features."""
    rng = np.random.default_rng([spec.seed, 9001])
    return rng.normal(0.0, 1.0, size=(spec.feature_dim, spec.summary_dim)) / np.sqrt(spec.summary_dim)


def generate_synthetic(spec: SyntheticSpec):
    """Deterministic synthetic dataset.

    Returns (samples, A) where A is the feature matrix such that, at
    noise_sigma=0, every nonempty patch feature equals A @ summary exactly.
    The clouds carry no normals.
    """
    A = synthetic_feature_matrix(spec)
    palette = class_palette(spec.num_classes)
    f = 0.6 * spec.image_size
    K = np.array([[f, 0, spec.image_size / 2],
                  [0, f, spec.image_size / 2],
                  [0, 0, 1.0]])
    side = spec.image_size // spec.patch_size

    samples = []
    for s in range(spec.num_scenes):
        rng = np.random.default_rng([spec.seed, 101, s])
        surfaces = _room_surfaces(spec, rng)
        areas = np.array([sf[4] for sf in surfaces])
        counts = _allocate_counts(areas, spec.points_per_scene)
        coords, labels = [], []
        for (origin, eu, ev, cls, _area), cnt in zip(surfaces, counts):
            if cnt == 0:
                continue
            ab = rng.uniform(0, 1, size=(cnt, 2))
            coords.append(origin + ab[:, :1] * eu + ab[:, 1:] * ev)
            labels.append(np.full(cnt, cls, dtype=np.int64))
        coords = np.concatenate(coords, axis=0)
        labels = np.concatenate(labels)
        colors = palette[labels] + rng.uniform(-COLOR_JITTER, COLOR_JITTER, size=(coords.shape[0], 3))
        colors = np.clip(colors, 0.0, 1.0)

        views = []
        for R, t in _camera_ring(rng):
            cam = CameraView(intrinsics=K, rotation=R, translation=t,
                             image_size=(spec.image_size, spec.image_size),
                             patch_size=spec.patch_size)
            cam.depth_map = render_depth(coords, cam)
            views.append(cam)

        corr = build_correspondence(coords, views)
        summary = _patch_summaries(coords, colors, labels, corr, len(views) * side * side,
                                   spec.num_classes)
        feats = summary @ A.T
        if spec.noise_sigma > 0:
            feats = feats + spec.noise_sigma * rng.normal(size=feats.shape)
        # the patch table's rows back into one grid per view
        for cam, block in zip(views, np.split(feats, len(views))):
            cam.feature_grid = block.reshape(side, side, spec.feature_dim)

        cloud = PointCloud(coords=coords, colors=colors, labels=labels)
        samples.append(SceneSample(cloud=cloud, views=views, scene_id=f"scene_{s:04d}"))
    return samples, A


# ---------------------------------------------------------------------------
# data pieces
# ---------------------------------------------------------------------------

def assemble_pieces(sample: SceneSample) -> List[SceneSample]:
    """Split a scene with many views into pieces of at most 4 views.

    Scenes with fewer than 5 views stay as a single piece. Views are grouped
    in capture order, so the result is deterministic.
    """
    views = sample.views
    if len(views) <= MAX_VIEWS_PER_PIECE:
        return [sample]
    pieces = []
    for i in range(0, len(views), MAX_VIEWS_PER_PIECE):
        chunk = views[i:i + MAX_VIEWS_PER_PIECE]
        pieces.append(SceneSample(cloud=sample.cloud, views=list(chunk),
                                  scene_id=f"{sample.scene_id}#p{i // MAX_VIEWS_PER_PIECE}"))
    return pieces


# ---------------------------------------------------------------------------
# manifest io
# ---------------------------------------------------------------------------

# manifest key -> PointCloud ("cloud") or CameraView ("view") field, in manifest order
_LAYOUT = {"cloud": {key: key for key in ("coords", "colors", "normals", "labels")},
           "view": {"depth": "depth_map", "features": "feature_grid"}}
_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer"}


def _check_scene_ids(scene_ids, error) -> None:
    """Refuse a non-string or repeated scene id: each names ``scenes/<scene_id>/``."""
    first = {}
    for i, scene_id in enumerate(scene_ids):
        if not isinstance(scene_id, str):
            raise error(f"sample {i}: scene_id {scene_id!r} is not a string")
        if first.setdefault(scene_id, i) != i:
            raise error(f"samples {first[scene_id]} and {i} share scene_id {scene_id}")


def _check_json_type(value, kind, what: str) -> None:
    """Refuse, naming it, a value not of JSON type ``kind`` (a bool is not an integer)."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ManifestError(f"{what} must be a JSON {_JSON_TYPES[kind]}, "
                            f"not {type(value).__name__}")


def _entry(obj: dict, key: str, kind, where: str, optional: bool = False):
    """``obj[key]`` once ``_check_json_type`` passes it; None if an ``optional`` key is missing."""
    if key in obj:
        _check_json_type(obj[key], kind, f"{where} {key}")
    elif not optional:
        raise ManifestError(f"{where}: missing key '{key}'")
    return obj.get(key)


def _save_arrays(obj, part: str, out: Path, stem: str, entry: dict) -> dict:
    """Save each ``_LAYOUT[part]`` array ``obj`` holds as ``out/<stem><key>.ctsr``, in ``entry``."""
    for key, field in _LAYOUT[part].items():
        if getattr(obj, field) is not None:
            entry[key] = f"{stem}{key}.ctsr"
            save_ctsr(out / entry[key], getattr(obj, field))
    return entry


def _load_arrays(root: Path, entry: dict, part: str, where: str, required=()) -> dict:
    """The ``_LAYOUT[part]`` arrays the manifest ``entry`` lists, by field."""
    return {field: load_ctsr(root / path) for key, field in _LAYOUT[part].items()
            if (path := _entry(entry, key, str, where, key not in required)) is not None}


def save_dataset(samples: Sequence[SceneSample], out_dir, image_feature_dim: int,
                 patch_size: int, splits: Optional[Sequence[str]] = None,
                 synthetic_a: Optional[np.ndarray] = None) -> Path:
    """Write scenes + manifest.json under ``out_dir``; returns the manifest path.
    Refuses, before writing, splits of another length, a bad scene id, and a view
    whose grid is not ``image_feature_dim`` wide or whose patch size differs."""
    if splits is None:
        splits = ["train"] * len(samples)
    if len(splits) != len(samples):
        raise ValueError(f"{len(splits)} splits given for {len(samples)} scenes")
    _check_scene_ids([s.scene_id for s in samples], ValueError)
    for sample in samples:
        for v, cam in enumerate(sample.views):
            dim = image_feature_dim if cam.feature_grid is None else cam.feature_grid.shape[-1]
            if (dim, cam.patch_size) != (image_feature_dim, patch_size):
                raise ValueError(f"scene {sample.scene_id} view {v}: feature dim {dim}, patch_size "
                                 f"{cam.patch_size} != dataset's {image_feature_dim}, {patch_size}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for sample, split in zip(samples, splits):
        stem = f"scenes/{sample.scene_id}/"
        views = [_save_arrays(cam, "view", out, f"{stem}view{v}_", dict(
            K=cam.intrinsics.tolist(), R=cam.rotation.tolist(), t=cam.translation.tolist(),
            image_size=list(cam.image_size))) for v, cam in enumerate(sample.views)]
        entries.append(dict(scene_id=sample.scene_id, split=split,
                            cloud=_save_arrays(sample.cloud, "cloud", out, stem, {}), views=views))
    manifest = {"version": MANIFEST_VERSION, "image_feature_dim": int(image_feature_dim),
                "patch_size": int(patch_size), "samples": entries}
    if synthetic_a is not None:
        save_ctsr(out / "synthetic_A.ctsr", synthetic_a)
        manifest["synthetic_A"] = "synthetic_A.ctsr"
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return out / "manifest.json"


def load_manifest(path) -> DatasetManifest:
    """Read ``manifest.json``, refusing with a ``ManifestError`` that names the entry a
    missing file, invalid JSON, another version, a missing key, a value of another JSON
    type than the module docstring gives, and a non-string or repeated scene id."""
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"manifest not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ManifestError(f"manifest is not valid JSON: {e}") from e
    _check_json_type(doc, dict, "manifest")
    if (version := _entry(doc, "version", int, "manifest")) != MANIFEST_VERSION:
        raise ManifestError(f"manifest {path} has version {version}; this "
                            f"reader takes version {MANIFEST_VERSION}")
    refs = []
    for i, s in enumerate(_entry(doc, "samples", list, "manifest")):
        _check_json_type(s, dict, f"sample {i}")
        where = f"sample {i} (scene {s.get('scene_id')})"
        refs.append(SampleRef(scene_id=_entry(s, "scene_id", object, where),
                              split=_entry({"split": "train", **s}, "split", str, where),
                              cloud=_entry(s, "cloud", dict, where),
                              views=_entry(s, "views", list, where)))
        for v, ve in enumerate(refs[-1].views):
            _check_json_type(ve, dict, f"{where} view {v}")
    _check_scene_ids([r.scene_id for r in refs], ManifestError)
    return DatasetManifest(path.parent, _entry(doc, "image_feature_dim", int, "manifest"),
                           _entry(doc, "patch_size", int, "manifest"), refs,
                           _entry(doc, "synthetic_A", str, "manifest", optional=True))


def load_sample(manifest: DatasetManifest, ref: SampleRef) -> SceneSample:
    """Fully validated in-memory sample; raises on any invariant violation."""
    root, scene, dim = manifest.root, ref.scene_id, manifest.image_feature_dim
    arrays = _load_arrays(root, ref.cloud, "cloud", f"scene {scene} cloud", ("coords", "colors"))
    try:
        cloud = PointCloud(**arrays)
    except ValueError as e:
        raise ManifestError(f"scene {scene}: {e}") from e
    views = []
    for v, ve in enumerate(ref.views):
        where = f"scene {scene} view {v}"
        K, R, t, size = (_entry(ve, key, list, where) for key in ("K", "R", "t", "image_size"))
        arrays = _load_arrays(root, ve, "view", where)
        if "feature_grid" in arrays and arrays["feature_grid"].shape[-1] != dim:
            raise ManifestError(f"{where}: feature dim {arrays['feature_grid'].shape[-1]} "
                                f"!= manifest dim {dim}")
        try:
            views.append(CameraView(np.array(K), np.array(R), np.array(t), size,
                                    manifest.patch_size, **arrays))
        except ValueError as e:
            raise ManifestError(f"{where}: {e}") from e
    return SceneSample(cloud=cloud, views=views, scene_id=scene)


def load_all_samples(manifest: DatasetManifest, split: Optional[str] = None) -> List[SceneSample]:
    refs = manifest.samples if split is None else [r for r in manifest.samples if r.split == split]
    return [load_sample(manifest, r) for r in refs]
