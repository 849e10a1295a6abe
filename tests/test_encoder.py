import numpy as np
import pytest

from concerto import tensor as T
from concerto.dataio import PointCloud, SyntheticSpec, generate_synthetic
from concerto.encoder import (CROSS_LEVEL, INTRA_LEVEL, EncoderConfig, EncodeResult, clone_params,
                              cross_head, ema_update, encode, init_params,
                              lora_weights, make_lora_adapters, proj_head,
                              proto_scores, upcast)
from concerto.geometry import voxelize
from concerto.views import AugmentConfig, View, make_viewset
from oracles import gradcheck


def tiny_cfg(**kw):
    base = dict(stage_dims=[8, 12, 16, 20, 24], cell_sizes=[0.1, 0.2, 0.4, 0.8],
                proto_count=16, proj_dim=12, cross_dim=8)
    base.update(kw)
    return EncoderConfig(**base)


def plain_view(cloud):
    return View(cloud=cloud, origin_index=np.arange(cloud.num_points))


@pytest.fixture(scope="module")
def cloud():
    samples, _ = generate_synthetic(SyntheticSpec(num_scenes=1, points_per_scene=600,
                                                  num_classes=4, image_size=32,
                                                  patch_size=8, feature_dim=8, seed=5))
    return samples[0].cloud


class TestEncode:
    def test_single_point_all_stages(self):
        pc = PointCloud(coords=np.array([[0.3, 0.4, 0.5]]), colors=np.array([[0.5, 0.5, 0.5]]))
        cfg = tiny_cfg()
        params = init_params(cfg, seed=0)
        res = encode(plain_view(pc), params, cfg)
        for s in range(cfg.num_stages):
            assert res.coords[s].shape[0] == 1
            assert res.feats[s].shape == (1, cfg.stage_dims[s])
        for p in res.parents:
            np.testing.assert_array_equal(p, [0])

    def test_stage_memberships_match_voxel_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 0.4, size=(40, 3))
        b = rng.uniform(0, 0.4, size=(40, 3)) + 10.0
        pc = PointCloud(coords=np.concatenate([a, b]), colors=np.full((80, 3), 0.5))
        cfg = tiny_cfg()
        params = init_params(cfg, seed=0)
        res = encode(plain_view(pc), params, cfg)
        for s, cell in enumerate(cfg.cell_sizes):
            grid = voxelize(res.coords[s], cell)
            np.testing.assert_array_equal(res.parents[s], grid.assignments)
        # two well-separated clusters survive to the coarsest stage
        assert res.coords[-1].shape[0] == 2

    def test_permutation_equivariance(self, cloud):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=1)
        res = encode(plain_view(cloud), params, cfg)
        rng = np.random.default_rng(1)
        perm = rng.permutation(cloud.num_points)
        pc2 = PointCloud(coords=cloud.coords[perm], colors=cloud.colors[perm])
        res2 = encode(plain_view(pc2), params, cfg)
        np.testing.assert_allclose(res2.feats[0].data, res.feats[0].data[perm], atol=1e-12)
        for s in range(1, cfg.num_stages):
            np.testing.assert_allclose(res2.feats[s].data, res.feats[s].data, atol=1e-12)

    def test_translation_by_cell_multiple_preserves_features(self, cloud):
        # binary-exact cells so the uniform key shift is exact in floats
        cfg = tiny_cfg(cell_sizes=[0.125, 0.25, 0.5, 1.0])
        params = init_params(cfg, seed=2)
        res = encode(plain_view(cloud), params, cfg)
        shift = 4.0  # multiple of every pooling and aggregation cell
        pc2 = PointCloud(coords=cloud.coords + shift, colors=cloud.colors)
        res2 = encode(plain_view(pc2), params, cfg)
        for s in range(cfg.num_stages):
            np.testing.assert_allclose(res2.feats[s].data, res.feats[s].data, atol=1e-9)

    def test_mask_token_changes_masked_rows_only_at_input(self, cloud):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=3)
        params["mask_token"].data[:] = 7.0
        mask = np.zeros(cloud.num_points, dtype=bool)
        mask[:50] = True
        v_plain = plain_view(cloud)
        v_masked = View(cloud=cloud, origin_index=np.arange(cloud.num_points), mask=mask)
        r_plain = encode(v_plain, params, cfg)
        r_masked = encode(v_masked, params, cfg)
        changed = np.abs(r_masked.feats[0].data - r_plain.feats[0].data).max(axis=1) > 0
        assert changed[:50].all()


def _concat_lastdim_oracle(tensors):
    """The former concat op: np.concatenate forward, np.split backward."""
    splits = np.cumsum([t.data.shape[1] for t in tensors])[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(p) if t.requires_grad else None
                     for t, p in zip(tensors, np.split(g, splits, axis=-1)))

    return T._record(np.concatenate([t.data for t in tensors], axis=-1),
                     "concat", list(tensors), vjp)


def upcast_chain_oracle(result, level):
    """The former upcast: per level, gather the running features to the finer
    rows, then concatenate them after that stage's own features."""
    top = result.num_stages - 1
    g = result.feats[top]
    for s in range(top - 1, top - 1 - level, -1):
        g = _concat_lastdim_oracle([result.feats[s], T.op_gather_rows(g, result.parents[s])])
    return g


class TestUpcast:
    def test_matches_gather_concat_chain_oracle(self, cloud):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=8)
        params["mask_token"].data[:] = 0.3
        mask = np.zeros(cloud.num_points, dtype=bool)
        mask[::3] = True
        view = View(cloud=cloud, origin_index=np.arange(cloud.num_points), mask=mask)
        res = encode(view, params, cfg)
        for level in range(5):
            np.testing.assert_array_equal(upcast(res, level).data,
                                          upcast_chain_oracle(res, level).data)
        for level in (2, 3):
            w = T.Tensor(np.random.default_rng(level).normal(
                size=(res.coords[4 - level].shape[0], cfg.upcast_dim(level))))
            grads = []
            for fn in (upcast, upcast_chain_oracle):
                T.backward(T.op_sum(T.op_mul(fn(res, level), w)))
                grads.append({k: p.grad for k, p in params.items()})
                for p in params.values():
                    p.zero_grad()
            new, ref = grads
            assert any(g is not None for g in ref.values())
            for k, g_ref in ref.items():
                if g_ref is None:
                    assert new[k] is None, k
                    continue
                assert np.abs(new[k] - g_ref).max() <= 1e-12 * np.abs(g_ref).max(), k

    def test_level_zero_is_coarsest(self, cloud):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=4)
        res = encode(plain_view(cloud), params, cfg)
        out = upcast(res, 0)
        np.testing.assert_array_equal(out.data, res.feats[-1].data)

    def test_dimension_arithmetic_default_config(self):
        cfg = EncoderConfig(cross_dim=8)
        assert cfg.upcast_dim(0) == 512
        assert cfg.upcast_dim(2) == 128 + 256 + 512
        assert cfg.upcast_dim(3) == 64 + 128 + 256 + 512
        assert cfg.upcast_dim(4) == 32 + 64 + 128 + 256 + 512 == 992

    def test_too_few_stages_for_the_cross_level_rejected(self):
        # three stages pool twice; the cross branch reads three pooling steps
        with pytest.raises(ValueError, match=f"cross upcast level {CROSS_LEVEL}"):
            EncoderConfig(stage_dims=[8, 12, 16], cell_sizes=[0.1, 0.2])
        EncoderConfig(stage_dims=[8, 12, 16, 20], cell_sizes=[0.1, 0.2, 0.4])

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    def test_output_dim_matches_formula(self, cloud, level):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=5)
        res = encode(plain_view(cloud), params, cfg)
        out = upcast(res, level)
        assert out.shape == (res.coords[4 - level].shape[0], cfg.upcast_dim(level))

    def test_level3_rows_equal_parent_chasing_oracle(self, cloud):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=6)
        res = encode(plain_view(cloud), params, cfg)
        out = upcast(res, 3).data
        f = [t.data for t in res.feats]
        for u in range(min(20, res.coords[1].shape[0])):
            p2 = res.parents[1][u]
            p3 = res.parents[2][p2]
            p4 = res.parents[3][p3]
            row = np.concatenate([f[1][u], f[2][p2], f[3][p3], f[4][p4]])
            np.testing.assert_allclose(out[u], row, atol=0)

    def test_level_out_of_range(self, cloud):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=7)
        res = encode(plain_view(cloud), params, cfg)
        with pytest.raises(ValueError):
            upcast(res, 5)


class TestEma:
    def test_m_one_keeps_teacher(self):
        cfg = tiny_cfg()
        s = init_params(cfg, seed=8)
        t = clone_params(s)
        before = {k: v.data.copy() for k, v in t.items()}
        ema_update(t, s, 1.0)
        for k in t:
            np.testing.assert_array_equal(t[k].data, before[k])

    def test_m_zero_copies_student(self):
        cfg = tiny_cfg()
        s = init_params(cfg, seed=9)
        t = clone_params(init_params(cfg, seed=10))
        ema_update(t, s, 0.0)
        for k in t:
            np.testing.assert_array_equal(t[k].data, s[k].data)

    def test_midpoint_arithmetic(self):
        cfg = tiny_cfg()
        s = init_params(cfg, seed=11)
        for v in s.values():
            v.data[:] = 2.0
        t = clone_params(s)
        for v in t.values():
            v.data[:] = 0.0
        ema_update(t, s, 0.5)
        for v in t.values():
            np.testing.assert_allclose(v.data, 1.0)

    def test_geometric_convergence(self):
        cfg = tiny_cfg()
        s = init_params(cfg, seed=12)
        t = clone_params(init_params(cfg, seed=13))
        m = 0.9

        def gap():
            return max(np.abs(t[k].data - s[k].data).max() for k in t)

        g0 = gap()
        for i in range(1, 6):
            ema_update(t, s, m)
            np.testing.assert_allclose(gap(), g0 * m ** i, rtol=1e-9)


class TestLora:
    def test_zero_init_identity(self):
        rng = np.random.default_rng(14)
        cfg = tiny_cfg()
        params = init_params(cfg, seed=14)
        adapters = make_lora_adapters(params, rank=4, alpha=16, seed=0)
        name = "stage1.lin0.w"
        x = T.Tensor(rng.normal(size=(10, params[name].data.shape[0])))
        base = T.op_matmul(x, params[name])
        adapted = T.op_matmul(x, lora_weights(params, adapters)[name])
        np.testing.assert_array_equal(adapted.data, base.data)

    def test_merged_weight_matches_unmerged_formula(self):
        # the adapter path as it ran before merging, with dropout off:
        # x @ W + scaling * (x @ A) @ B
        rng = np.random.default_rng(13)
        name = "stage2.lin0.w"
        w = rng.normal(size=(9, 7))
        x = rng.normal(size=(11, 9))
        a0, b0 = rng.normal(size=(9, 3)), rng.normal(size=(3, 7))
        results = []
        for merged in (True, False):
            adapter = make_lora_adapters({name: T.Tensor(w)}, rank=3, alpha=5.0,
                                         seed=0)[name]
            adapter.a, adapter.b = T.param(a0), T.param(b0)
            xt = T.Tensor(x)
            if merged:
                out = T.op_matmul(xt, lora_weights({name: T.Tensor(w)}, {name: adapter})[name])
            else:
                delta = T.op_matmul(T.op_matmul(xt, adapter.a), adapter.b)
                out = T.op_add(T.op_matmul(xt, T.Tensor(w)), T.op_mul(delta, adapter.scaling))
            T.backward(T.op_sum(T.op_mul(out, T.Tensor(np.cos(out.data)))))
            results.append((out.data, adapter.a.grad, adapter.b.grad))
        assert np.abs(results[0][0]).max() > 0 and np.abs(results[0][2]).max() > 0
        for merged, unmerged in zip(*results):
            assert np.abs(merged - unmerged).max() <= 1e-12 * np.abs(unmerged).max()

    def test_scaling_factor(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=15)
        adapters = make_lora_adapters(params, rank=8, alpha=16, seed=0)
        assert adapters  # narrow layers skipped, the rest adapted
        assert all(a.scaling == 2.0 for a in adapters.values())

    def test_rank_too_large_rejected(self):
        from concerto.encoder import make_adapter
        w = T.param(np.zeros((6, 5)))
        with pytest.raises(ValueError, match="rank"):
            make_adapter(w, rank=8, alpha=16, rng=np.random.default_rng(0))
        cfg = tiny_cfg()
        params = init_params(cfg, seed=16)
        with pytest.raises(ValueError, match="rank"):
            make_lora_adapters(params, rank=64, alpha=16.0, seed=0)

    def test_param_count_formula(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=17)
        adapters = make_lora_adapters(params, rank=4, alpha=16.0, seed=0)
        for name, a in adapters.items():
            d_in, d_out = params[name].data.shape
            assert a.param_count == 4 * (d_in + d_out)

    def test_grads_vs_finite_differences(self):
        rng = np.random.default_rng(18)
        w = rng.normal(size=(6, 5))
        x = rng.normal(size=(7, 6))

        def op(a, b):
            name = "stage0.lin0.w"
            adapter = make_lora_adapters({name: T.param(w)}, rank=3, alpha=6, seed=1)[name]
            adapter.a, adapter.b = a, b
            merged = lora_weights({name: T.Tensor(w)}, {name: adapter})
            return T.op_matmul(T.Tensor(x), merged[name])

        a0 = rng.normal(size=(6, 3))
        b0 = rng.normal(size=(3, 5))
        assert gradcheck(op, [a0, b0]) <= 1e-5

    def test_frozen_base_gets_no_grads(self):
        rng = np.random.default_rng(19)
        cfg = tiny_cfg()
        params = init_params(cfg, seed=20)
        frozen = clone_params(params)
        adapters = make_lora_adapters(frozen, rank=4, alpha=16.0, seed=2)
        name = "stage2.lin1.w"
        x = T.Tensor(rng.normal(size=(9, frozen[name].data.shape[0])))
        out = T.op_matmul(x, lora_weights(frozen, adapters)[name])
        T.backward(T.op_sum(out))
        assert frozen[name].grad is None
        assert adapters[name].a.grad is not None
        assert adapters[name].b.grad is not None


class TestHeads:
    def test_proj_head_rows_unit_norm(self, cloud):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=21)
        res = encode(plain_view(cloud), params, cfg)
        z = proj_head(params, upcast(res, INTRA_LEVEL))
        np.testing.assert_allclose(np.linalg.norm(z.data, axis=1), 1.0, atol=1e-9)

    def test_proto_scores_shape(self, cloud):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=22)
        res = encode(plain_view(cloud), params, cfg)
        z = proj_head(params, upcast(res, INTRA_LEVEL))
        assert proto_scores(params, z).shape == (z.shape[0], cfg.proto_count)

    def test_cross_head_maps_to_image_dim(self, cloud):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=23)
        res = encode(plain_view(cloud), params, cfg)
        out = cross_head(params, upcast(res, CROSS_LEVEL))
        assert out.shape[1] == cfg.cross_dim
