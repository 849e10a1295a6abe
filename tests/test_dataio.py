import json

import numpy as np
import pytest

from concerto.ctsr import CtsrError, save_ctsr
from concerto.dataio import (ROOM_EXTENT, DatasetManifest, ManifestError, PointCloud,
                             SceneSample, SyntheticSpec, assemble_pieces, generate_synthetic,
                             load_all_samples, load_manifest, load_sample,
                             save_dataset, synthetic_feature_matrix)
from concerto.geometry import (EPS_DEPTH, CameraView, build_correspondence, project_points,
                               visible_mask)


def small_spec(**kw):
    base = dict(num_scenes=2, points_per_scene=800, num_classes=4, image_size=32,
                patch_size=8, feature_dim=8, noise_sigma=0.0, seed=7)
    base.update(kw)
    return SyntheticSpec(**base)


class TestPointCloud:
    def test_rejects_out_of_range_colors(self):
        with pytest.raises(ValueError, match="colors"):
            PointCloud(coords=np.zeros((2, 3)), colors=np.full((2, 3), 1.5))

    def test_rejects_non_unit_normals(self):
        with pytest.raises(ValueError, match="normals"):
            PointCloud(coords=np.zeros((2, 3)), colors=np.zeros((2, 3)),
                       normals=np.full((2, 3), 0.9))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["coords", "colors", "normals"])
    def test_rejects_non_finite(self, field, bad):
        arrays = {"coords": np.zeros((2, 3)), "colors": np.full((2, 3), 0.5),
                  "normals": np.tile([0.0, 0.0, 1.0], (2, 1))}
        arrays[field][1, 2] = bad
        with pytest.raises(ValueError, match=field):
            PointCloud(**arrays)

    @pytest.mark.parametrize("labels", [[0, 1.7, 2.0], [0, np.nan, 1], [0, np.inf, 1],
                                        [0, -5, 1], [0.0, -2.0, 1.0]])
    def test_rejects_bad_labels(self, labels):
        with pytest.raises(ValueError, match="labels"):
            PointCloud(coords=np.zeros((3, 3)), colors=np.zeros((3, 3)), labels=labels)

    @pytest.mark.parametrize("labels", [[0, -1, 2], [0.0, -1.0, 2.0],
                                        np.array([0, 1, 2], dtype=np.uint8)])
    def test_whole_labels_become_int64(self, labels):
        cloud = PointCloud(coords=np.zeros((3, 3)), colors=np.zeros((3, 3)), labels=labels)
        assert cloud.labels.dtype == np.int64
        np.testing.assert_array_equal(cloud.labels, np.asarray(labels, dtype=np.int64))


class TestSynthetic:
    def test_deterministic_under_seed(self):
        a, A1 = generate_synthetic(small_spec())
        b, A2 = generate_synthetic(small_spec())
        np.testing.assert_array_equal(A1, A2)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.cloud.coords, sb.cloud.coords)
            np.testing.assert_array_equal(sa.cloud.colors, sb.cloud.colors)
            for va, vb in zip(sa.views, sb.views):
                np.testing.assert_array_equal(va.depth_map, vb.depth_map)
                np.testing.assert_array_equal(va.feature_grid, vb.feature_grid)

    def test_zero_classes_rejected(self):
        with pytest.raises(ValueError):
            small_spec(num_classes=0)

    def test_sample_invariants_hold(self):
        for seed in (0, 1, 2):
            spec = small_spec(seed=seed, num_classes=3)
            samples, _ = generate_synthetic(spec)
            for s in samples:
                assert len(s.views) <= 4
                assert s.cloud.colors.min() >= 0 and s.cloud.colors.max() <= 1
                assert s.cloud.labels.min() >= 0 and s.cloud.labels.max() < 3

    def test_noise_free_features_match_recomputation_oracle(self):
        spec = small_spec(noise_sigma=0.0)
        samples, A = generate_synthetic(spec)
        s = samples[0]
        coords, colors, labels = s.cloud.coords, s.cloud.colors, s.cloud.labels
        center = np.full(3, ROOM_EXTENT / 2)
        side = spec.image_size // spec.patch_size
        for v, cam in enumerate(s.views):
            mask, ix, iy = visible_mask(coords, cam, EPS_DEPTH)
            idx = np.flatnonzero(mask)
            patches = (iy[idx] // spec.patch_size) * side + ix[idx] // spec.patch_size
            flat = cam.flat_feature_grid()
            for patch in np.unique(patches):
                members = idx[patches == patch]
                summary = np.concatenate([
                    (coords[members].mean(axis=0) - center) / ROOM_EXTENT,
                    colors[members].mean(axis=0) - 0.5,
                    np.bincount(labels[members], minlength=spec.num_classes) / members.size,
                ])
                np.testing.assert_allclose(flat[patch], A @ summary, atol=1e-12)

    def test_depth_maps_self_consistent(self):
        # the nearest point in every valid pixel passes the visibility check
        spec = small_spec()
        samples, _ = generate_synthetic(spec)
        for s in samples:
            for cam in s.views:
                xy, depth, inb = project_points(s.cloud.coords, cam)
                sel = np.flatnonzero(inb)
                ix = np.floor(xy[sel, 0]).astype(int)
                iy = np.floor(xy[sel, 1]).astype(int)
                d_c = cam.depth_map[iy, ix]
                # z-buffer property: recorded depth is the minimum projection
                assert (depth[sel] >= d_c - 1e-12).all()
                mask, _, _ = visible_mask(s.cloud.coords, cam, EPS_DEPTH)
                hit = np.zeros_like(cam.depth_map, dtype=bool)
                hit[iy[mask[sel]], ix[mask[sel]]] = True
                assert (hit | ~np.isfinite(cam.depth_map)).all()

    def test_identifiability_least_squares_recovers_a(self):
        spec = small_spec(noise_sigma=0.0, num_scenes=3)
        samples, A = generate_synthetic(spec)
        rows_s, rows_f = [], []
        center = np.full(3, ROOM_EXTENT / 2)
        side = spec.image_size // spec.patch_size
        for s in samples:
            coords, colors, labels = s.cloud.coords, s.cloud.colors, s.cloud.labels
            for cam in s.views:
                mask, ix, iy = visible_mask(coords, cam, EPS_DEPTH)
                idx = np.flatnonzero(mask)
                patches = (iy[idx] // spec.patch_size) * side + ix[idx] // spec.patch_size
                flat = cam.flat_feature_grid()
                for patch in np.unique(patches):
                    members = idx[patches == patch]
                    rows_s.append(np.concatenate([
                        (coords[members].mean(axis=0) - center) / ROOM_EXTENT,
                        colors[members].mean(axis=0) - 0.5,
                        np.bincount(labels[members], minlength=spec.num_classes) / members.size,
                    ]))
                    rows_f.append(flat[patch])
        S = np.stack(rows_s)
        F = np.stack(rows_f)
        A_hat, *_ = np.linalg.lstsq(S, F, rcond=None)
        rel = np.abs(A_hat.T - A).max() / np.abs(A).max()
        assert rel <= 1e-6


class TestAssemble:
    def make_scene(self, m):
        samples, _ = generate_synthetic(small_spec(num_scenes=1))
        s = samples[0]
        views = [s.views[i % 4] for i in range(m)]
        return SceneSample(cloud=s.cloud, views=[], scene_id="s"), views

    def test_nine_views_split_441(self):
        base, views = self.make_scene(9)
        base.views = views
        sizes = [len(p.views) for p in assemble_pieces(base)]
        assert sizes == [4, 4, 1]

    def test_three_views_kept_whole(self):
        base, views = self.make_scene(3)
        base.views = views
        pieces = assemble_pieces(base)
        assert len(pieces) == 1 and len(pieces[0].views) == 3

    def test_preserves_view_multiset_and_is_stable(self):
        base, views = self.make_scene(8)
        base.views = views
        p1 = assemble_pieces(base)
        p2 = assemble_pieces(base)
        flat1 = [v for p in p1 for v in p.views]
        assert flat1 == views
        assert [len(p.views) for p in p1] == [len(p.views) for p in p2]


class TestManifestIO:
    def test_round_trip_bit_identical(self, tmp_path):
        spec = small_spec()
        samples, A = generate_synthetic(spec)
        path = save_dataset(samples, tmp_path, spec.feature_dim, spec.patch_size,
                            splits=["train", "val"], synthetic_a=A)
        manifest = load_manifest(path)
        assert manifest.image_feature_dim == spec.feature_dim
        assert [r.split for r in manifest.samples] == ["train", "val"]
        np.testing.assert_array_equal(manifest.load_synthetic_a(), A)
        back = load_all_samples(manifest)
        for orig, got in zip(samples, back):
            np.testing.assert_array_equal(orig.cloud.coords, got.cloud.coords)
            np.testing.assert_array_equal(orig.cloud.labels, got.cloud.labels)
            for vo, vg in zip(orig.views, got.views):
                np.testing.assert_array_equal(vo.depth_map, vg.depth_map)
                np.testing.assert_array_equal(vo.feature_grid, vg.feature_grid)
                np.testing.assert_array_equal(vo.intrinsics, vg.intrinsics)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ManifestError, match="not found"):
            load_manifest(tmp_path / "nope.json")

    def test_other_manifest_version_rejected(self, tmp_path):
        spec = small_spec(num_scenes=1)
        samples, _ = generate_synthetic(spec)
        path = save_dataset(samples, tmp_path, spec.feature_dim, spec.patch_size)
        doc = json.loads(path.read_text())
        doc["version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="version 2.*version 1"):
            load_manifest(path)

    def test_wrong_feature_dim_rejected(self, tmp_path):
        spec = small_spec()
        samples, A = generate_synthetic(spec)
        path = save_dataset(samples, tmp_path, spec.feature_dim, spec.patch_size, synthetic_a=A)
        doc = json.loads(path.read_text())
        doc["image_feature_dim"] = spec.feature_dim + 3
        path.write_text(json.dumps(doc))
        manifest = load_manifest(path)
        with pytest.raises(ManifestError, match="feature dim"):
            load_sample(manifest, manifest.samples[0])

    def test_missing_tensor_file(self, tmp_path):
        spec = small_spec()
        samples, _ = generate_synthetic(spec)
        path = save_dataset(samples, tmp_path, spec.feature_dim, spec.patch_size)
        (tmp_path / "scenes" / samples[0].scene_id / "coords.ctsr").unlink()
        manifest = load_manifest(path)
        with pytest.raises(CtsrError, match="missing"):
            load_sample(manifest, manifest.samples[0])

    def test_non_finite_coords_rejected_naming_the_scene(self, tmp_path):
        spec = small_spec()
        samples, _ = generate_synthetic(spec)
        path = save_dataset(samples, tmp_path, spec.feature_dim, spec.patch_size)
        coords = samples[1].cloud.coords.copy()
        coords[5, 0] = np.nan
        save_ctsr(tmp_path / "scenes" / samples[1].scene_id / "coords.ctsr", coords)
        manifest = load_manifest(path)
        load_sample(manifest, manifest.samples[0])
        with pytest.raises(ManifestError, match=f"scene {samples[1].scene_id}: coords"):
            load_sample(manifest, manifest.samples[1])

    def test_fractional_labels_rejected_naming_the_scene(self, tmp_path):
        spec = small_spec()
        samples, _ = generate_synthetic(spec)
        path = save_dataset(samples, tmp_path, spec.feature_dim, spec.patch_size)
        labels = samples[1].cloud.labels.astype(np.float64)
        labels[3] += 0.5
        save_ctsr(tmp_path / "scenes" / samples[1].scene_id / "labels.ctsr", labels)
        manifest = load_manifest(path)
        load_sample(manifest, manifest.samples[0])
        with pytest.raises(ManifestError, match=f"scene {samples[1].scene_id}: labels"):
            load_sample(manifest, manifest.samples[1])

    def test_non_finite_feature_grid_rejected_naming_the_view(self, tmp_path):
        spec = small_spec()
        samples, _ = generate_synthetic(spec)
        path = save_dataset(samples, tmp_path, spec.feature_dim, spec.patch_size)
        grid = samples[1].views[2].feature_grid.copy()
        grid[1, 0, 3] = np.nan
        save_ctsr(tmp_path / "scenes" / samples[1].scene_id / "view2_features.ctsr", grid)
        manifest = load_manifest(path)
        load_sample(manifest, manifest.samples[0])
        with pytest.raises(ManifestError,
                           match=f"scene {samples[1].scene_id} view 2: feature grid"):
            load_sample(manifest, manifest.samples[1])

    def test_five_views_rejected(self, tmp_path):
        spec = small_spec(num_scenes=1)
        samples, _ = generate_synthetic(spec)
        path = save_dataset(samples, tmp_path, spec.feature_dim, spec.patch_size)
        doc = json.loads(path.read_text())
        doc["samples"][0]["views"].append(doc["samples"][0]["views"][0])
        doc["samples"][0]["views"].append(doc["samples"][0]["views"][1])
        path.write_text(json.dumps(doc))
        manifest = load_manifest(path)
        with pytest.raises(ManifestError, match="views"):
            load_sample(manifest, manifest.samples[0])
