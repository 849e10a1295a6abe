"""Scene manifests, data-piece assembly, and a synthetic room generator.

A sample is one point cloud with up to 4 camera views. The generator builds
axis-aligned rooms (floor, walls, per-class boxes), samples labeled points
on surfaces with class-correlated colors, renders per-view depth by point
splatting, and writes per-patch image features that are an exact linear
function of patch geometry/color summaries (plus optional noise), so
cross-modal training has an attainable target with a known ground truth.
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
from .tensor import segment_mean_np

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
            raise ManifestError(
                f"scene {self.scene_id}: {len(self.views)} views exceeds the {MAX_VIEWS_PER_PIECE}-view piece limit"
            )


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
        if self.num_classes <= 0:
            raise ValueError("num_classes must be positive")
        for name in ("num_scenes", "points_per_scene", "image_size", "patch_size", "feature_dim"):
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
    means, counts = segment_mean_np(np.concatenate([coords[pts], colors[pts], onehot], axis=1),
                                    corr.row, num_rows)
    summary = np.concatenate([(means[:, :3] - ex / 2) / ex, means[:, 3:6] - 0.5, means[:, 6:]],
                             axis=1)
    summary[counts == 0] = 0.0
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

def _check_scene_ids(scene_ids, error) -> None:
    """Refuse a non-string or repeated scene id: each names ``scenes/<scene_id>/``."""
    first = {}
    for i, scene_id in enumerate(scene_ids):
        if not isinstance(scene_id, str):
            raise error(f"sample {i}: scene_id {scene_id!r} is not a string")
        if first.setdefault(scene_id, i) != i:
            raise error(f"samples {first[scene_id]} and {i} share scene_id {scene_id}")


def _check_json_type(value, kind, what: str) -> None:
    """Refuse a manifest entry that is not a JSON object (``dict``) or array
    (``list``), naming it."""
    if not isinstance(value, kind):
        raise ManifestError(f"{what} must be a JSON {'object' if kind is dict else 'array'}, "
                            f"not {type(value).__name__}")


def save_dataset(samples: Sequence[SceneSample], out_dir, image_feature_dim: int,
                 patch_size: int, splits: Optional[Sequence[str]] = None,
                 synthetic_a: Optional[np.ndarray] = None) -> Path:
    """Write scenes + manifest.json under ``out_dir``; returns the manifest path."""
    if splits is None:
        splits = ["train"] * len(samples)
    if len(splits) != len(samples):
        raise ValueError(f"{len(splits)} splits given for {len(samples)} scenes")
    _check_scene_ids([s.scene_id for s in samples], ValueError)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for sample, split in zip(samples, splits):
        sdir = out / "scenes" / sample.scene_id
        cloud = sample.cloud
        rel = f"scenes/{sample.scene_id}"
        save_ctsr(sdir / "coords.ctsr", cloud.coords)
        save_ctsr(sdir / "colors.ctsr", cloud.colors)
        cloud_entry = {"coords": f"{rel}/coords.ctsr", "colors": f"{rel}/colors.ctsr"}
        if cloud.normals is not None:
            save_ctsr(sdir / "normals.ctsr", cloud.normals)
            cloud_entry["normals"] = f"{rel}/normals.ctsr"
        if cloud.labels is not None:
            save_ctsr(sdir / "labels.ctsr", cloud.labels)
            cloud_entry["labels"] = f"{rel}/labels.ctsr"
        view_entries = []
        for v, cam in enumerate(sample.views):
            ve = {
                "K": cam.intrinsics.tolist(),
                "R": cam.rotation.tolist(),
                "t": cam.translation.tolist(),
                "image_size": list(cam.image_size),
            }
            if cam.depth_map is not None:
                save_ctsr(sdir / f"view{v}_depth.ctsr", cam.depth_map)
                ve["depth"] = f"{rel}/view{v}_depth.ctsr"
            if cam.feature_grid is not None:
                save_ctsr(sdir / f"view{v}_features.ctsr", cam.feature_grid)
                ve["features"] = f"{rel}/view{v}_features.ctsr"
            view_entries.append(ve)
        entries.append({"scene_id": sample.scene_id, "split": split,
                        "cloud": cloud_entry, "views": view_entries})
    manifest = {
        "version": MANIFEST_VERSION,
        "image_feature_dim": int(image_feature_dim),
        "patch_size": int(patch_size),
        "samples": entries,
    }
    if synthetic_a is not None:
        save_ctsr(out / "synthetic_A.ctsr", synthetic_a)
        manifest["synthetic_A"] = "synthetic_A.ctsr"
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2))
    return path


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"manifest not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ManifestError(f"manifest is not valid JSON: {e}") from e
    for key in ("version", "image_feature_dim", "patch_size", "samples"):
        if key not in doc:
            raise ManifestError(f"manifest missing key '{key}'")
    if doc["version"] != MANIFEST_VERSION:
        raise ManifestError(f"manifest {path} has version {doc['version']}; this "
                            f"reader takes version {MANIFEST_VERSION}")
    _check_json_type(doc["samples"], list, "manifest samples")
    refs = []
    for i, s in enumerate(doc["samples"]):
        _check_json_type(s, dict, f"sample {i}")
        where = f"sample {i} (scene {s.get('scene_id')})"
        try:
            ref = SampleRef(scene_id=s["scene_id"], split=s.get("split", "train"),
                            cloud=s["cloud"], views=s["views"])
        except KeyError as e:
            raise ManifestError(f"{where}: missing key {e}") from e
        _check_json_type(ref.cloud, dict, f"{where} cloud")
        _check_json_type(ref.views, list, f"{where} views")
        for v, ve in enumerate(ref.views):
            _check_json_type(ve, dict, f"{where} view {v}")
        refs.append(ref)
    _check_scene_ids([r.scene_id for r in refs], ManifestError)
    return DatasetManifest(root=path.parent, image_feature_dim=int(doc["image_feature_dim"]),
                           patch_size=int(doc["patch_size"]), samples=refs,
                           synthetic_a_path=doc.get("synthetic_A"))


def load_sample(manifest: DatasetManifest, ref: SampleRef) -> SceneSample:
    """Fully validated in-memory sample; raises on any invariant violation."""
    root = manifest.root
    cloud_paths = ref.cloud
    try:
        coords = load_ctsr(root / cloud_paths["coords"])
        colors = load_ctsr(root / cloud_paths["colors"])
    except KeyError as e:
        raise ManifestError(f"scene {ref.scene_id} cloud: missing key {e}") from e
    normals = load_ctsr(root / cloud_paths["normals"]) if "normals" in cloud_paths else None
    labels = load_ctsr(root / cloud_paths["labels"]) if "labels" in cloud_paths else None
    try:
        cloud = PointCloud(coords=coords, colors=colors, normals=normals, labels=labels)
    except ValueError as e:
        raise ManifestError(f"scene {ref.scene_id}: {e}") from e
    if len(ref.views) > MAX_VIEWS_PER_PIECE:
        raise ManifestError(f"scene {ref.scene_id}: more than {MAX_VIEWS_PER_PIECE} views")
    views = []
    for v, ve in enumerate(ref.views):
        depth = load_ctsr(root / ve["depth"]) if "depth" in ve else None
        grid = load_ctsr(root / ve["features"]) if "features" in ve else None
        if grid is not None and grid.shape[-1] != manifest.image_feature_dim:
            raise ManifestError(
                f"scene {ref.scene_id} view {v}: feature dim {grid.shape[-1]} != manifest dim {manifest.image_feature_dim}"
            )
        try:
            views.append(CameraView(intrinsics=np.array(ve["K"]), rotation=np.array(ve["R"]),
                                    translation=np.array(ve["t"]),
                                    image_size=tuple(ve["image_size"]),
                                    patch_size=manifest.patch_size,
                                    depth_map=depth, feature_grid=grid))
        except KeyError as e:
            raise ManifestError(f"scene {ref.scene_id} view {v}: missing key {e}") from e
        except ValueError as e:
            raise ManifestError(f"scene {ref.scene_id} view {v}: {e}") from e
    return SceneSample(cloud=cloud, views=views, scene_id=ref.scene_id)


def load_all_samples(manifest: DatasetManifest, split: Optional[str] = None) -> List[SceneSample]:
    refs = manifest.samples if split is None else [r for r in manifest.samples if r.split == split]
    return [load_sample(manifest, r) for r in refs]
