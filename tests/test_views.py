import numpy as np
import pytest

from concerto.dataio import PointCloud, SyntheticSpec, generate_synthetic
from concerto.geometry import voxelize
from concerto.views import AugmentConfig, _grid_mask, make_viewset, match_views


@pytest.fixture(scope="module")
def cloud():
    samples, _ = generate_synthetic(SyntheticSpec(num_scenes=1, points_per_scene=1200,
                                                  num_classes=4, image_size=32,
                                                  patch_size=8, feature_dim=8, seed=3))
    return samples[0].cloud


class TestViewSet:
    def test_composition_and_principal(self, cloud):
        vs = make_viewset(cloud, AugmentConfig(), seed=0)
        assert len(vs.globals_) == 2 and len(vs.masked) == 2 and len(vs.locals_) == 4
        assert vs.principal is vs.globals_[0]

    def test_mask_ratio_zero_equals_principal(self, cloud):
        cfg = AugmentConfig(mask_ratio=0.0)
        vs = make_viewset(cloud, cfg, seed=1)
        for m in vs.masked:
            assert m.mask.sum() == 0
            np.testing.assert_array_equal(m.cloud.coords, vs.principal.cloud.coords)

    def test_mask_ratio_within_tolerance(self, cloud):
        cfg = AugmentConfig(mask_ratio=0.3)
        vs = make_viewset(cloud, cfg, seed=2)
        for m in vs.masked:
            frac = m.mask.mean()
            assert abs(frac - 0.3) <= 0.02

    def test_masked_views_share_principal_geometry(self, cloud):
        vs = make_viewset(cloud, AugmentConfig(), seed=3)
        for m in vs.masked:
            np.testing.assert_array_equal(m.cloud.coords, vs.principal.cloud.coords)
            np.testing.assert_array_equal(m.origin_index, vs.principal.origin_index)

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


def grid_mask_loop_oracle(coords, ratio, grid, rng):
    """The per-cell scan ``_grid_mask`` replaced, kept as a test-only oracle."""
    n = coords.shape[0]
    target = int(round(ratio * n))
    mask = np.zeros(n, dtype=bool)
    if target == 0:
        return mask
    vox = voxelize(coords, grid)
    order = rng.permutation(vox.num_voxels)
    covered = 0
    for cell in order:
        members = np.flatnonzero(vox.assignments == cell)
        room = target - covered
        if members.size > room:
            members = rng.choice(members, size=room, replace=False)
        mask[members] = True
        covered += members.size
        if covered >= target:
            break
    return mask


class TestGridMask:
    @pytest.mark.parametrize("ratio,grid", [(0.3, 0.1), (0.7, 0.25), (1.0, 0.1), (0.01, 0.5)])
    def test_bit_equal_to_loop_oracle(self, cloud, ratio, grid):
        for seed in range(3):
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            mask = _grid_mask(cloud.coords, ratio, grid, rng)
            np.testing.assert_array_equal(mask, grid_mask_loop_oracle(cloud.coords, ratio,
                                                                      grid, rng_ref))
            assert mask.sum() == int(round(ratio * cloud.num_points))
            # the same draws were taken
            assert rng.integers(2 ** 62) == rng_ref.integers(2 ** 62)


class TestMatchViews:
    def test_identical_views_full_pairing(self, cloud):
        vs = make_viewset(cloud, AugmentConfig(), seed=7)
        ia, ib = match_views(vs.masked[0], vs.principal)
        assert ia.size == cloud.num_points
        np.testing.assert_array_equal(vs.masked[0].origin_index[ia],
                                      vs.principal.origin_index[ib])

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

