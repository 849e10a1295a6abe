"""PCA projection of point features to RGB colors and ASCII PLY export."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)


@dataclass
class PcaModel:
    mean: np.ndarray                # (D,)
    components: np.ndarray          # (3, D) orthonormal rows
    explained_variance: np.ndarray  # (3,) non-increasing
    channel_min: np.ndarray         # (3,)
    channel_max: np.ndarray         # (3,)


def fit_pca(features: np.ndarray) -> PcaModel:
    """Top-3 principal directions of the feature covariance.

    Deterministic symmetric eigensolver; the sign convention makes the
    largest-magnitude entry of every component positive. Features need at
    least 3 columns. Feature sets with covariance rank < 3 still get
    orthonormal components from the eigensolver (with a warning);
    all-identical features are an error.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 4:
        raise ValueError("fit_pca needs at least 4 feature rows")
    if x.shape[1] < 3:
        raise ValueError(f"fit_pca needs at least 3 feature columns, got {x.shape[1]}")
    mean = x.mean(axis=0)
    xc = x - mean
    if np.abs(xc).max() == 0:
        raise ValueError("all features identical; PCA undefined")
    cov = xc.T @ xc / (x.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(evals, kind="stable")[::-1]
    evals = np.maximum(evals[order], 0.0)
    comps = evecs[:, order[:3]].T.copy()
    rank = int((evals > max(evals[0], 1e-300) * 1e-12).sum())
    if rank < 3:
        logger.warning("feature covariance rank %d < 3; the components past it "
                       "are an arbitrary orthonormal completion", rank)
    # fix signs: largest-|entry| coordinate positive
    for i in range(3):
        j = int(np.abs(comps[i]).argmax())
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    proj = xc @ comps.T
    return PcaModel(mean=mean, components=comps, explained_variance=evals[:3],
                    channel_min=proj.min(axis=0), channel_max=proj.max(axis=0))


def colorize(features: np.ndarray, model: PcaModel) -> np.ndarray:
    """Project onto the model's components and min-max normalize each channel
    to [0, 1] with the model's stored ranges; constant channels map to 0.5."""
    x = np.asarray(features, dtype=np.float64)
    proj = (x - model.mean) @ model.components.T
    rgb = np.empty_like(proj)
    for c in range(3):
        lo, hi = model.channel_min[c], model.channel_max[c]
        if hi - lo <= 0:
            rgb[:, c] = 0.5
        else:
            rgb[:, c] = np.clip((proj[:, c] - lo) / (hi - lo), 0.0, 1.0)
    return rgb


def export_ply(coords: np.ndarray, rgb: np.ndarray, path) -> Path:
    """ASCII PLY 1.0 with positions and u8 colors."""
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    rgb = np.asarray(rgb, dtype=np.float64).reshape(-1, 3)
    if coords.shape[0] != rgb.shape[0]:
        raise ValueError("coords and colors differ in length")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    colors = np.clip(np.round(rgb * 255), 0, 255).astype(np.uint8)
    lines = [
        "ply", "format ascii 1.0",
        f"element vertex {coords.shape[0]}",
        "property float x", "property float y", "property float z",
        "property uchar red", "property uchar green", "property uchar blue",
        "end_header",
    ]
    for (x, y, z), (r, g, b) in zip(coords, colors):
        lines.append(f"{x:.6f} {y:.6f} {z:.6f} {r} {g} {b}")
    path.write_text("\n".join(lines) + "\n")
    return path
