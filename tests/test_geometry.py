import numpy as np
import pytest

from concerto.geometry import (EPS_DEPTH, CameraView, Correspondence, build_correspondence,
                               project_points, render_depth, visible_mask, voxelize)


def simple_cam(w=64, h=64, f=100.0, depth=None, patch=8):
    K = np.array([[f, 0, w / 2], [0, f, h / 2], [0, 0, 1.0]])
    return CameraView(intrinsics=K, rotation=np.eye(3), translation=np.zeros(3),
                      image_size=(w, h), patch_size=patch, depth_map=depth)


def random_cam(rng, w=64, h=64, patch=8, depth=None):
    # random rotation via QR, fixed to det +1
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    f = rng.uniform(40, 120)
    K = np.array([[f, 0, w / 2], [0, f, h / 2], [0, 0, 1.0]])
    return CameraView(intrinsics=K, rotation=q, translation=rng.normal(size=3),
                      image_size=(w, h), patch_size=patch, depth_map=depth)


class TestProject:
    def test_optical_axis(self):
        cam = simple_cam(f=100.0, w=64, h=64)
        # principal point at 32,32
        xy, depth, inb = project_points(np.array([0.0, 0.0, 2.0]), cam)
        assert inb[0]
        np.testing.assert_allclose(xy[0], (32.0, 32.0), atol=1e-12)
        np.testing.assert_allclose(depth[0], 2.0)

    def test_behind_camera(self):
        cam = simple_cam()
        assert not project_points(np.array([0.0, 0.0, -1.0]), cam)[2][0]

    def test_boundary_is_half_open(self):
        cam = simple_cam(f=32.0, w=64, h=64)
        # x = W exactly -> out of bounds
        xy, _, inb = project_points(np.array([1.0, 0.0, 1.0]), cam)
        assert xy[0, 0] == 64.0 and not inb[0]

    def test_matches_homogeneous_matrix_oracle(self):
        rng = np.random.default_rng(0)
        cam = random_cam(rng)
        pts = rng.normal(scale=3.0, size=(1000, 3))
        xy, depth, _ = project_points(pts, cam)
        # independent oracle: full 3x4 homogeneous matrix multiply then divide
        P = cam.intrinsics @ np.hstack([cam.rotation, cam.translation[:, None]])
        hom = np.hstack([pts, np.ones((1000, 1))]) @ P.T
        front = hom[:, 2] > 0
        np.testing.assert_allclose(depth, hom[:, 2], atol=1e-10)
        np.testing.assert_allclose(xy[front], hom[front, :2] / hom[front, 2:3], atol=1e-10)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        cam = random_cam(rng)
        pts = rng.normal(scale=2.0, size=(200, 3))
        xy, depth, inb = project_points(pts, cam)
        for i in np.flatnonzero(inb):
            # invert K, then the rigid world-to-camera map
            q = np.linalg.solve(cam.intrinsics, np.append(xy[i] * depth[i], depth[i]))
            back = cam.rotation.T @ (q - cam.translation)
            np.testing.assert_allclose(back, pts[i], atol=1e-9)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(2)
        cam = random_cam(rng)
        pts = rng.normal(scale=2.0, size=(300, 3))
        xy0, d0, b0 = project_points(pts, cam)
        # apply one rigid transform to both the points and the camera
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        shift = rng.normal(size=3)
        pts2 = pts @ q.T + shift
        R2 = cam.rotation @ q.T
        t2 = cam.translation - R2 @ shift
        cam2 = CameraView(intrinsics=cam.intrinsics, rotation=R2, translation=t2,
                          image_size=cam.image_size, patch_size=cam.patch_size)
        xy1, d1, b1 = project_points(pts2, cam2)
        np.testing.assert_allclose(d1, d0, atol=1e-9)
        np.testing.assert_allclose(xy1[b0], xy0[b0], atol=1e-9)
        assert (b0 == b1).all()

    def test_rotation_validation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            CameraView(intrinsics=np.eye(3), rotation=np.eye(3) * 2,
                       translation=np.zeros(3), image_size=(8, 8), patch_size=2)

    @pytest.mark.parametrize("field", ["intrinsics", "translation", "feature_grid"])
    def test_rejects_non_finite(self, field):
        arrays = {"intrinsics": np.eye(3), "translation": np.zeros(3),
                  "feature_grid": np.zeros((4, 4, 2))}
        arrays[field].flat[1] = np.nan
        with pytest.raises(ValueError, match=field.replace("_", " ")):
            CameraView(rotation=np.eye(3), image_size=(8, 8), patch_size=2, **arrays)


class TestVisible:
    def make(self, d_c):
        depth = np.full((64, 64), np.nan)
        depth[32, 32] = d_c
        return simple_cam(depth=depth)

    # a point on the optical axis projects to pixel (32, 32) at depth z
    def test_within_tolerance(self):
        mask, ix, iy = visible_mask(np.array([[0.0, 0.0, 2.005]]), self.make(2.000), 0.01)
        assert mask[0] and (ix[0], iy[0]) == (32, 32)

    def test_exceeds_tolerance(self):
        mask, _, _ = visible_mask(np.array([[0.0, 0.0, 2.020]]), self.make(2.000), 0.01)
        assert not mask[0]

    def test_invalid_depth_rejected(self):
        point = np.array([[0.0, 0.0, 2.0]])
        assert not visible_mask(point, self.make(np.nan), 0.01)[0][0]
        assert not visible_mask(point, self.make(-1.0), 0.01)[0][0]


def brute_force_correspondence(points, views, eps):
    """Independent per-point loop oracle."""
    rows = []
    for v, cam in enumerate(views):
        for i, p in enumerate(points):
            xy, depth, inb = project_points(p, cam)  # one row
            if not inb[0]:
                continue
            ix, iy = int(np.floor(xy[0, 0])), int(np.floor(xy[0, 1]))
            d = cam.depth_map[iy, ix]
            if not np.isfinite(d) or d <= 0:
                continue
            if abs(d - depth[0]) < eps:
                patch = (iy // cam.patch_size) * (cam.image_size[0] // cam.patch_size) + ix // cam.patch_size
                rows.append((i, v, ix, iy, patch))
    return set(rows)


class TestCorrespondence:
    def test_frontal_plane_fully_matched(self):
        cam = simple_cam(f=32.0, w=64, h=64)
        xs = np.linspace(-0.9, 0.9, 20)
        pts = np.array([[x, y, 1.0] for x in xs for y in xs])
        cam.depth_map = render_depth(pts, cam)
        corr = build_correspondence(pts, [cam])
        _, _, inb = project_points(pts, cam)
        assert len(corr) == inb.sum() == len(pts)

    def test_occlusion_excludes_far_point(self):
        cam = simple_cam()
        near = np.array([0.0, 0.0, 1.0])
        far = np.array([0.0, 0.0, 2.0])
        cam.depth_map = render_depth(near[None, :], cam)
        corr = build_correspondence(np.stack([near, far]), [cam])
        assert corr.point_index.tolist() == [0]

    def test_matches_brute_force_zbuffer_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            pts = rng.uniform(-1.5, 1.5, size=(400, 3)) + np.array([0, 0, 2.5])
            views = []
            for _v in range(2):
                cam = random_cam(rng, w=32, h=32, patch=8)
                cam.translation = np.array([0.0, 0.0, 0.5]) - cam.rotation @ np.zeros(3)
                cam.rotation = np.eye(3)
                cam.depth_map = render_depth(pts, cam)
                views.append(cam)
            corr = build_correspondence(pts, views)
            got = set(map(tuple, corr.entries.tolist()))
            assert got == brute_force_correspondence(pts, views, EPS_DEPTH)

    def test_no_views_empty(self):
        corr = build_correspondence(np.zeros((4, 3)), [])
        assert len(corr) == 0

    def test_point_order_invariance_as_sets(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1, 1, size=(200, 3)) + np.array([0, 0, 2])
        cam = simple_cam()
        cam.depth_map = render_depth(pts, cam)
        corr = build_correspondence(pts, [cam])
        perm = rng.permutation(len(pts))
        corr_p = build_correspondence(pts[perm], [cam])
        base = {(perm[r[0]], r[1], r[2], r[3], r[4]) for r in corr_p.entries.tolist()}
        assert base == set(map(tuple, corr.entries.tolist()))

    def test_patch_index_formula(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1, 1, size=(300, 3)) + np.array([0, 0, 2])
        cam = simple_cam(patch=8)
        cam.depth_map = render_depth(pts, cam)
        corr = build_correspondence(pts, [cam])
        for _p, _v, ix, iy, patch in corr.entries.tolist():
            assert patch == (iy // 8) * (64 // 8) + (ix // 8)


class TestRenderDepth:
    def test_single_point(self):
        cam = simple_cam()
        d = render_depth(np.array([[0.0, 0.0, 2.0]]), cam)
        assert np.isfinite(d).sum() == 1
        assert d[32, 32] == 2.0

    def test_zbuffer_min(self):
        cam = simple_cam()
        d = render_depth(np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]]), cam)
        assert d[32, 32] == 1.0

    def test_matches_exhaustive_loop(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1, 1, size=(500, 3)) + np.array([0, 0, 2])
        cam = simple_cam(w=32, h=32)
        d = render_depth(pts, cam)
        expect = np.full((32, 32), np.inf)
        for p in pts:
            xy, depth, inb = project_points(p, cam)  # one row
            if inb[0]:
                ix, iy = int(xy[0, 0]), int(xy[0, 1])
                expect[iy, ix] = min(expect[iy, ix], depth[0])
        expect[~np.isfinite(expect)] = np.nan
        np.testing.assert_array_equal(np.isnan(d), np.isnan(expect))
        np.testing.assert_allclose(d[np.isfinite(d)], expect[np.isfinite(expect)])


class TestVoxelize:
    def test_two_points_one_cell(self):
        g = voxelize(np.array([[0.1, 0, 0], [0.3, 0, 0]]), 1.0)
        assert g.num_voxels == 1
        np.testing.assert_allclose(g.centroids[0], [0.2, 0, 0])

    def test_lattice_boundary_floor_convention(self):
        g = voxelize(np.array([[0.0, 0, 0], [1.0, 0, 0]]), 1.0)
        assert g.num_voxels == 2

    def test_matches_hashmap_oracle(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-5, 5, size=(10_000, 3))
        g = voxelize(pts, 0.37)
        table = {}
        for i, p in enumerate(pts):
            key = tuple(int(np.floor(c / 0.37)) for c in p)
            table.setdefault(key, []).append(i)
        assert g.num_voxels == len(table)
        for v in range(g.num_voxels):
            members = np.flatnonzero(g.assignments == v)
            key = tuple(g.keys[v].tolist())
            assert sorted(table[key]) == members.tolist()

    def test_key_range_edges(self):
        # 21-bit keys: each axis spans cells -2**20 .. 2**20 - 1
        g = voxelize(np.array([[-2.0 ** 20, 0, 0], [2.0 ** 20 - 0.5, 0, 0]]), 1.0)
        np.testing.assert_array_equal(g.keys[:, 0], [-2 ** 20, 2 ** 20 - 1])
        for bad in (-2.0 ** 20 - 0.5, 2.0 ** 20, 1e30, np.nan):
            with pytest.raises(ValueError, match="key range"):
                voxelize(np.array([[0.0, bad, 0]]), 1.0)

    def test_bad_cell_size(self):
        with pytest.raises(ValueError):
            voxelize(np.zeros((1, 3)), 0.0)

    def test_centroid_inside_cell(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(-2, 2, size=(500, 3))
        g = voxelize(pts, 0.5)
        lo = g.keys * 0.5
        assert (g.centroids >= lo - 1e-12).all() and (g.centroids <= lo + 0.5 + 1e-12).all()
