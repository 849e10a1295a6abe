import numpy as np
import pytest

from concerto import views
from concerto.dataio import PointCloud, SyntheticSpec, generate_synthetic
from concerto.geometry import voxelize
from concerto.views import (MASK_GRID, MIN_LOCAL_POINTS, AugmentConfig, _grid_mask,
                            _local_crop, augmented_bounds, make_viewset, match_views)


@pytest.fixture(scope="module")
def cloud():
    samples, _ = generate_synthetic(SyntheticSpec(num_scenes=1, points_per_scene=1200,
                                                  num_classes=4, image_size=32,
                                                  patch_size=8, feature_dim=8, seed=3))
    return samples[0].cloud


NAN = float("nan")
BAD_AUGMENT = {
    "jitter_negative": (dict(jitter_sigma=-0.01), "jitter_sigma must be non-negative"),
    "jitter_nan": (dict(jitter_sigma=NAN), "jitter_sigma must be non-negative"),
    "color_jitter_negative": (dict(color_jitter=-0.01), "color_jitter must be non-negative"),
    "color_jitter_nan": (dict(color_jitter=NAN), "color_jitter must be non-negative"),
    "scale_low_nan": (dict(scale_range=(NAN, 1.1)), "scale_range is not well ordered"),
    "scale_high_nan": (dict(scale_range=(0.9, NAN)), "scale_range is not well ordered"),
    "crop_low_nan": (dict(crop_range=(NAN, 0.4)), "crop_range is not well ordered"),
    "crop_reversed": (dict(crop_range=(0.4, 0.1)), "crop_range is not well ordered"),
}


@pytest.mark.parametrize("kwargs,match", BAD_AUGMENT.values(), ids=BAD_AUGMENT.keys())
def test_augment_config_rejects_bad_values(kwargs, match):
    with pytest.raises(ValueError, match=match):
        AugmentConfig(**kwargs)


INF = float("inf")


@pytest.mark.parametrize("field,value", [
    ("rotation_range", (-INF, 0.0)), ("scale_range", (0.9, INF)), ("crop_range", (0.1, INF)),
    ("jitter_sigma", INF), ("color_jitter", INF)])
def test_augment_config_rejects_infinite_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be .*finite"):
        AugmentConfig(**{field: value})


class TestViewSet:
    def test_composition_and_principal(self, cloud):
        vs = make_viewset(cloud, AugmentConfig(), seed=0)
        assert len(vs.globals_) == 2 and len(vs.masked) == 2 and len(vs.locals_) == 4
        # the principal view is the first global one; masked views share its cloud
        assert all(m.cloud is vs.globals_[0].cloud for m in vs.masked)
        # views carry geometry and color only; losses pair points by origin index
        assert all(v.cloud.labels is None and v.cloud.normals is None for v in vs.all_views)

    def test_mask_ratio_zero_equals_principal(self, cloud):
        cfg = AugmentConfig(mask_ratio=0.0)
        vs = make_viewset(cloud, cfg, seed=1)
        for m in vs.masked:
            assert m.mask.sum() == 0
            np.testing.assert_array_equal(m.cloud.coords, vs.globals_[0].cloud.coords)

    def test_mask_ratio_within_tolerance(self, cloud):
        cfg = AugmentConfig(mask_ratio=0.3)
        vs = make_viewset(cloud, cfg, seed=2)
        for m in vs.masked:
            frac = m.mask.mean()
            assert abs(frac - 0.3) <= 0.02

    def test_masked_views_share_principal_geometry(self, cloud):
        vs = make_viewset(cloud, AugmentConfig(), seed=3)
        for m in vs.masked:
            np.testing.assert_array_equal(m.cloud.coords, vs.globals_[0].cloud.coords)
            np.testing.assert_array_equal(m.origin_index, vs.globals_[0].origin_index)

    def test_full_crop_fraction_gives_full_cloud(self, cloud):
        cfg = AugmentConfig(crop_range=(1.0, 1.0))
        vs = make_viewset(cloud, cfg, seed=4)
        for l in vs.locals_:
            assert l.origin_index.size == cloud.num_points

    def test_determinism(self, cloud):
        a = make_viewset(cloud, AugmentConfig(), seed=5)
        b = make_viewset(cloud, AugmentConfig(), seed=5)
        for va, vb in zip(a.all_views, b.all_views):
            np.testing.assert_array_equal(va.origin_index, vb.origin_index)
            np.testing.assert_array_equal(va.cloud.coords, vb.cloud.coords)
            if va.mask is not None:
                np.testing.assert_array_equal(va.mask, vb.mask)

    def test_rigid_augmentation_preserves_distances(self, cloud):
        cfg = AugmentConfig(scale_range=(1.0, 1.0), jitter_sigma=0.0)
        vs = make_viewset(cloud, cfg, seed=6)
        sub = np.arange(0, cloud.num_points, 37)
        base = np.linalg.norm(cloud.coords[sub][:, None] - cloud.coords[sub][None], axis=-1)
        for g in vs.globals_:
            aug = np.linalg.norm(g.cloud.coords[sub][:, None] - g.cloud.coords[sub][None], axis=-1)
            np.testing.assert_allclose(aug, base, atol=1e-9)

    def test_tiny_cloud_local_crop_error(self):
        pc = PointCloud(coords=np.random.default_rng(0).normal(size=(4, 3)),
                        colors=np.full((4, 3), 0.5))
        with pytest.raises(ValueError, match="local crop"):
            make_viewset(pc, AugmentConfig(crop_range=(0.1, 0.1)), seed=0)

    def test_one_voxelization_at_the_mask_grid(self, cloud, monkeypatch):
        calls = []

        def counting_voxelize(coords, cell):
            calls.append((coords, cell))
            return voxelize(coords, cell)

        monkeypatch.setattr(views, "voxelize", counting_voxelize)
        vs = make_viewset(cloud, AugmentConfig(), seed=10)
        assert len(calls) == 1
        assert calls[0][0] is vs.globals_[0].cloud.coords and calls[0][1] == MASK_GRID

    def test_zero_crop_fraction_gives_minimum_crops(self, cloud):
        vs = make_viewset(cloud, AugmentConfig(crop_range=(0.0, 0.0)), seed=11)
        assert [l.origin_index.size for l in vs.locals_] == [MIN_LOCAL_POINTS] * 4


def local_crop_sort_oracle(coords, crop_range, rng):
    """A local crop by full sort of the distances, taking the same draws as
    ``_local_crop``."""
    n = coords.shape[0]
    frac = rng.uniform(*crop_range)
    center = coords[rng.integers(n)]
    k = min(n, max(int(round(frac * n)), MIN_LOCAL_POINTS))
    d = np.linalg.norm(coords - center, axis=1)
    return np.sort(np.argsort(d, kind="stable")[:k])


class TestLocalCrop:
    @pytest.mark.parametrize("crop_range", [(0.0, 0.0), (0.005, 0.02), (0.1, 0.4), (1.0, 1.0)])
    @pytest.mark.parametrize("num_points", [20, None])
    def test_equal_to_sort_oracle(self, cloud, crop_range, num_points):
        coords = cloud.coords[:num_points]
        n = coords.shape[0]
        for seed in range(5):
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            idx = _local_crop(coords, AugmentConfig(crop_range=crop_range), rng)
            expect = local_crop_sort_oracle(coords, crop_range, rng_ref)
            np.testing.assert_array_equal(idx, expect)
            assert MIN_LOCAL_POINTS <= idx.size <= n
            assert rng.integers(2 ** 62) == rng_ref.integers(2 ** 62)


def grid_mask_loop_oracle(coords, ratio, grid, rng):
    """The per-cell scan ``_grid_mask`` replaced, kept as a test-only oracle."""
    n = coords.shape[0]
    target = int(round(ratio * n))
    mask = np.zeros(n, dtype=bool)
    if target == 0:
        return mask
    vox = voxelize(coords, grid)
    order = rng.permutation(vox.cells.num)
    covered = 0
    for cell in order:
        members = np.flatnonzero(vox.cells.ids == cell)
        room = target - covered
        if members.size > room:
            members = rng.choice(members, size=room, replace=False)
        mask[members] = True
        covered += members.size
        if covered >= target:
            break
    return mask


class TestAugmentedBounds:
    @pytest.mark.parametrize("cfg", [AugmentConfig(),
                                     AugmentConfig(scale_range=(1.4, 1.6), crop_range=(0.05, 0.1),
                                                   flip_prob=1.0, jitter_sigma=0.02)])
    def test_box_holds_every_view(self, cloud, cfg):
        lo, hi = augmented_bounds(cloud.coords, cfg)
        for seed in range(25):
            for v in make_viewset(cloud, cfg, seed=seed).all_views:
                assert np.all(v.cloud.coords >= lo) and np.all(v.cloud.coords <= hi)

    def test_box_holds_the_cloud_and_grows_with_scale(self, cloud):
        lo, hi = augmented_bounds(cloud.coords, AugmentConfig())
        assert np.all(cloud.coords >= lo) and np.all(cloud.coords <= hi)
        lo2, hi2 = augmented_bounds(cloud.coords, AugmentConfig(scale_range=(0.9, 2.0)))
        assert np.all(lo2 < lo) and np.all(hi2 > hi)


class TestGridMask:
    @pytest.mark.parametrize("ratio,grid", [(0.3, 0.1), (0.7, 0.25), (1.0, 0.1), (0.01, 0.5)])
    def test_bit_equal_to_loop_oracle(self, cloud, ratio, grid):
        for seed in range(3):
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            mask = _grid_mask(voxelize(cloud.coords, grid).cells, ratio, rng)
            np.testing.assert_array_equal(mask, grid_mask_loop_oracle(cloud.coords, ratio,
                                                                      grid, rng_ref))
            assert mask.sum() == int(round(ratio * cloud.num_points))
            # the same draws were taken
            assert rng.integers(2 ** 62) == rng_ref.integers(2 ** 62)


class TestMatchViews:
    def test_identical_views_full_pairing(self, cloud):
        vs = make_viewset(cloud, AugmentConfig(), seed=7)
        ia, ib = match_views(vs.masked[0], vs.globals_[0])
        assert ia.size == cloud.num_points
        np.testing.assert_array_equal(vs.masked[0].origin_index[ia],
                                      vs.globals_[0].origin_index[ib])

    def test_disjoint_crops_empty(self, cloud):
        vs = make_viewset(cloud, AugmentConfig(), seed=8)
        a = vs.locals_[0]
        b = vs.locals_[1]
        left = np.setdiff1d(a.origin_index, b.origin_index)
        if left.size == 0:
            pytest.skip("crops fully overlap for this seed")
        # restrict a to indices absent from b -> pairing must be empty
        keep = np.isin(a.origin_index, left)
        a2 = type(a)(cloud=a.cloud, origin_index=a.origin_index[keep])
        ia, _ = match_views(a2, b)
        assert ia.size == 0

    def test_matches_hash_join_oracle(self, cloud):
        vs = make_viewset(cloud, AugmentConfig(), seed=9)
        s, t = vs.locals_[2], vs.globals_[1]
        ia, ib = match_views(s, t)
        lookup = {o: j for j, o in enumerate(t.origin_index)}
        expect = sorted((i, lookup[o]) for i, o in enumerate(s.origin_index) if o in lookup)
        got = sorted(zip(ia.tolist(), ib.tolist()))
        assert got == expect
        # sorted by origin index
        origins = s.origin_index[ia]
        assert (np.diff(origins) > 0).all()

    @pytest.mark.parametrize("sizes", [(0, 0), (0, 40), (40, 0), (30, 50), (200, 200),
                                       (1, 1)])
    def test_matches_intersect1d_on_ascending_origins(self, sizes):
        # one pair that shares no index (evens against odds), then random
        # strictly ascending origins over ranges of up to 400 indices
        rng = np.random.default_rng(list(sizes))
        pairs = [(2 * np.arange(sizes[0]), 2 * np.arange(sizes[1]) + 1)]
        for _ in range(19):
            span = int(rng.integers(max(sizes) + 1, 400))
            pairs.append([np.sort(rng.choice(span, size=k, replace=False)) for k in sizes])
        for s, t in pairs:
            views_ = [views.View(cloud=None, origin_index=o) for o in (s, t)]
            ia, ib = match_views(*views_)
            _common, want_a, want_b = np.intersect1d(s, t, assume_unique=True,
                                                     return_indices=True)
            for got, want in ((ia, want_a), (ib, want_b)):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def test_viewset_origins_strictly_ascend(self, cloud):
        for seed in range(5):
            for view in make_viewset(cloud, AugmentConfig(), seed=seed).all_views:
                assert (np.diff(view.origin_index) > 0).all()

