import weakref
from collections import Counter

import numpy as np
import pytest

from concerto import encoder as encoder_module
from concerto import tensor as T
from concerto.dataio import PointCloud, SyntheticSpec, generate_synthetic
from concerto.encoder import (CROSS_LEVEL, MLP_DEPTH, EncoderConfig, EncodeResult,
                              clone_params, cross_head, ema_update, encode, init_params,
                              lora_weights, make_lora_adapters, proj_head, upcast)
from concerto.geometry import voxelize
from concerto.trainer import compute_copies
from concerto.views import AugmentConfig, View, make_viewset
from oracles import gradcheck, proj_head_reference, refcounting_only, tape_nodes


def tiny_cfg(**kw):
    base = dict(stage_dims=[8, 12, 16, 20, 24], voxel_size=0.1,
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
        for s in range(cfg.num_pool_steps):
            grid = voxelize(res.coords[s], cfg.voxel_size * 2 ** s)
            np.testing.assert_array_equal(res.parents[s], grid.assignments)
        # two well-separated clusters survive to the coarsest stage
        assert res.coords[-1].shape[0] == 2

    @pytest.mark.parametrize("voxel_size", [0.05, 0.1, 0.125])
    def test_mix_groupings_match_voxel_oracle_on_augmented_views(self, cloud, voxel_size,
                                                                 monkeypatch):
        """Each stage mixes over the grid of cell voxel_size * 2**min(s + 1, P)
        on its own points, read from the hierarchy rather than voxelized."""
        cfg = tiny_cfg(voxel_size=voxel_size)
        params = init_params(cfg, seed=9)
        mixes = []
        real_mix = T.op_local_mix

        def spy(feats, assignments, num_segments):
            mixes.append((assignments, num_segments))
            return real_mix(feats, assignments, num_segments)

        monkeypatch.setattr(T, "op_local_mix", spy)
        vs = make_viewset(cloud, AugmentConfig(), seed=4)
        views = [plain_view(cloud)] + vs.globals_ + vs.masked + vs.locals_
        top = cfg.num_pool_steps
        for view in views:
            mixes.clear()
            res = encode(view, params, cfg)
            assert len(mixes) == cfg.num_stages
            for s, (assignments, num_segments) in enumerate(mixes):
                grid = voxelize(res.coords[s], voxel_size * 2 ** min(s + 1, top))
                np.testing.assert_array_equal(assignments, grid.assignments)
                assert num_segments == grid.num_voxels

    def test_tape_holds_one_node_per_linear_layer_and_mix(self, cloud):
        """Each stage's linear layers and its local mix are one tape node
        apiece."""
        cfg = tiny_cfg()
        res = encode(plain_view(cloud), init_params(cfg, seed=12), cfg)
        ops = Counter(t._op for t in tape_nodes(T.op_sum(res.feats[-1])))
        assert ops["matmul"] == MLP_DEPTH * cfg.num_stages
        assert ops["local_mix"] == cfg.num_stages
        assert not {"linear", "add_bias", "gather_rows", "mul_scalar"} & set(ops)

    def test_voxelizes_once_per_hierarchy_level(self, cloud, monkeypatch):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=10)
        calls = []

        def counting(points, cell_size):
            calls.append(cell_size)
            return voxelize(points, cell_size)

        monkeypatch.setattr(encoder_module, "voxelize", counting)
        res = encode(plain_view(cloud), params, cfg)
        assert calls == [cfg.voxel_size * 2 ** k for k in range(cfg.num_stages)]
        assert len(res.coords) == cfg.num_stages and len(res.parents) == cfg.num_pool_steps

    @pytest.mark.parametrize("voxel_size", [0.0, -0.05, float("nan")])
    def test_non_positive_voxel_size_rejected(self, voxel_size):
        with pytest.raises(ValueError, match="voxel_size must be positive"):
            tiny_cfg(voxel_size=voxel_size)

    @pytest.mark.parametrize("voxel_size", [float("inf"), -float("inf")])
    def test_infinite_voxel_size_rejected(self, voxel_size):
        with pytest.raises(ValueError, match="voxel_size must be positive and finite"):
            tiny_cfg(voxel_size=voxel_size)

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
        cfg = tiny_cfg(voxel_size=0.125)
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

    def test_mask_token_blend_is_exact_and_collects_the_input_grad(self, cloud, monkeypatch):
        """Masked rows' stage-0 input is the token itself, unmasked rows are
        [colors, offsets] untouched, and the token's gradient is the masked
        rows' summed input gradient."""
        cfg = tiny_cfg()
        params = init_params(cfg, seed=22)
        mask = np.zeros(cloud.num_points, dtype=bool)
        mask[::4] = True
        view = View(cloud=cloud, origin_index=np.arange(cloud.num_points), mask=mask)
        inputs = []
        real_block = encoder_module._stage_block

        def spy(as_leaf):
            """``_stage_block`` that keeps its stage-0 input; ``as_leaf``
            swaps that input for a leaf of equal values, which collects the
            input gradient."""
            def block(x, params_, s):
                if s == 0:
                    x = T.param(x.data.copy()) if as_leaf else x
                    inputs.append(x)
                return real_block(x, params_, s)
            return block

        w = np.random.default_rng(22).normal(size=(cloud.num_points, cfg.upcast_dim(4)))
        grads = []
        for as_leaf in (False, True):
            monkeypatch.setattr(encoder_module, "_stage_block", spy(as_leaf))
            T.backward(T.op_sum(T.op_mul(upcast(encode(view, params, cfg), 4, None), T.Tensor(w))))
            grads.append(params["mask_token"].grad)
            params["mask_token"].grad = None
        x, leaf = inputs
        grid = voxelize(cloud.coords, cfg.voxel_size)
        offsets = cloud.coords - grid.centroids[grid.assignments]
        np.testing.assert_array_equal(x.data[mask], np.tile(params["mask_token"].data,
                                                            (mask.sum(), 1)))
        np.testing.assert_array_equal(x.data[~mask],
                                      np.concatenate([cloud.colors, offsets], axis=1)[~mask])
        # the leaf pass cuts the token off, so its gradient stays unset
        assert grads[1] is None
        assert np.abs(grads[0]).max() > 0
        np.testing.assert_array_equal(grads[0], leaf.grad[mask].sum(axis=0))


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
        g = _concat_lastdim_oracle([result.feats[s], T.op_gather_concat([g], [result.parents[s]])])
    return g


def assert_param_grads_agree(out, ref_out, w, params):
    """The parameter gradients of sum(out * w) are those of sum(ref_out * w)
    within 1e-12 relative, and reach the same parameters."""
    grads = []
    for o in (out, ref_out):
        T.backward(T.op_sum(T.op_mul(o, w)))
        grads.append({k: p.grad for k, p in params.items()})
        for p in params.values():
            p.grad = None
    new, ref = grads
    assert any(g is not None for g in ref.values())
    for k, g_ref in ref.items():
        if g_ref is None:
            assert new[k] is None, k
            continue
        assert np.abs(new[k] - g_ref).max() <= 1e-12 * np.abs(g_ref).max(), k


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
            np.testing.assert_array_equal(upcast(res, level, None).data,
                                          upcast_chain_oracle(res, level).data)
        for level in (2, 3):
            w = T.Tensor(np.random.default_rng(level).normal(
                size=(res.coords[4 - level].shape[0], cfg.upcast_dim(level))))
            assert_param_grads_agree(upcast(res, level, None), upcast_chain_oracle(res, level),
                                     w, params)

    @staticmethod
    def some_rows(res, level, seed):
        """Unsorted rows of P_{top-level} with repeats, ending at the last point."""
        n = res.coords[4 - level].shape[0]
        picked = np.random.default_rng(seed).permutation(n)[: n // 3]
        return np.concatenate([picked, picked[:5], [0, 0, n - 1]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_are_the_full_upcast_rows(self, cloud, dtype):
        cfg = tiny_cfg()
        params = {k: T.Tensor(p.data.astype(dtype)) for k, p in init_params(cfg, seed=9).items()}
        res = encode(plain_view(cloud), params, cfg)
        for level in range(5):
            rows = self.some_rows(res, level, level)
            out = upcast(res, level, rows).data
            assert out.dtype == dtype
            np.testing.assert_array_equal(out, upcast(res, level, None).data[rows])

    def test_row_gradients_match_gather_after_full_upcast(self, cloud):
        """The former chain, a one-block gather of the full upcast, in float64."""
        cfg = tiny_cfg()
        params = init_params(cfg, seed=13)
        res = encode(plain_view(cloud), params, cfg)
        for level in range(5):
            rows = self.some_rows(res, level, 10 + level)
            w = T.Tensor(np.random.default_rng(level).normal(
                size=(rows.size, cfg.upcast_dim(level))))
            assert_param_grads_agree(upcast(res, level, rows),
                                     T.op_gather_concat([upcast(res, level, None)], [rows]),
                                     w, params)

    @pytest.mark.parametrize("level", [0, 3])
    def test_row_out_of_range(self, cloud, level):
        cfg = tiny_cfg()
        res = encode(plain_view(cloud), init_params(cfg, seed=14), cfg)
        n = res.coords[4 - level].shape[0]
        for bad in ([0, -1], [n, 0]):
            with pytest.raises(IndexError):
                upcast(res, level, np.array(bad))

    def test_level_zero_is_coarsest(self, cloud):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=4)
        res = encode(plain_view(cloud), params, cfg)
        out = upcast(res, 0, None)
        np.testing.assert_array_equal(out.data, res.feats[-1].data)

    def test_dimension_arithmetic_default_config(self):
        cfg = EncoderConfig(cross_dim=8)
        assert cfg.upcast_dim(0) == 512
        assert cfg.upcast_dim(2) == 128 + 256 + 512
        assert cfg.upcast_dim(3) == 64 + 128 + 256 + 512
        assert cfg.upcast_dim(4) == 32 + 64 + 128 + 256 + 512 == 992

    @pytest.mark.parametrize("field", ["proto_count", "proj_dim", "cross_dim"])
    def test_head_width_below_one_rejected(self, field):
        with pytest.raises(ValueError, match="must be at least 1"):
            tiny_cfg(**{field: 0})
        tiny_cfg(cross_dim=None)

    def test_too_few_stages_for_the_cross_level_rejected(self):
        # three stages pool twice; the cross branch reads three pooling steps
        with pytest.raises(ValueError, match=f"cross upcast level {CROSS_LEVEL}"):
            EncoderConfig(stage_dims=[8, 12, 16])
        EncoderConfig(stage_dims=[8, 12, 16, 20])

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    def test_output_dim_matches_formula(self, cloud, level):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=5)
        res = encode(plain_view(cloud), params, cfg)
        out = upcast(res, level, None)
        assert out.shape == (res.coords[4 - level].shape[0], cfg.upcast_dim(level))

    def test_level3_rows_equal_parent_chasing_oracle(self, cloud):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=6)
        res = encode(plain_view(cloud), params, cfg)
        out = upcast(res, 3, None).data
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
            upcast(res, 5, None)


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
        factors = make_lora_adapters(params, rank=4, seed=0)
        name = "stage1.lin0.w"
        x = T.Tensor(rng.normal(size=(10, params[name].data.shape[0])))
        base = T.op_matmul(x, params[name], None)
        adapted = T.op_matmul(x, lora_weights(params, factors, 4.0)[name], None)
        np.testing.assert_array_equal(adapted.data, base.data)

    def test_merged_weight_matches_unmerged_formula(self):
        # the adapter path as it ran before merging, with dropout off:
        # x @ W + scaling * (x @ A) @ B
        rng = np.random.default_rng(13)
        name = "stage2.lin0.w"
        w = rng.normal(size=(9, 7))
        x = rng.normal(size=(11, 9))
        a0, b0 = rng.normal(size=(9, 3)), rng.normal(size=(3, 7))
        scaling = 5.0 / 3
        results = []
        for merged in (True, False):
            a, b = T.param(a0), T.param(b0)
            xt = T.Tensor(x)
            if merged:
                factors = {f"lora.{name}.a": a, f"lora.{name}.b": b}
                out = T.op_matmul(xt, lora_weights({name: T.Tensor(w)}, factors, scaling)[name],
                                  None)
            else:
                delta = T.op_matmul(T.op_matmul(xt, a, None), b, None)
                out = T.op_add(T.op_matmul(xt, T.Tensor(w), None), T.op_mul(delta, scaling))
            T.backward(T.op_sum(T.op_mul(out, T.Tensor(np.cos(out.data)))))
            results.append((out.data, a.grad, b.grad))
        assert np.abs(results[0][0]).max() > 0 and np.abs(results[0][2]).max() > 0
        for merged, unmerged in zip(*results):
            assert np.abs(merged - unmerged).max() <= 1e-12 * np.abs(unmerged).max()

    def test_scaling_factor(self):
        # W + scaling * A B, with A B read back from the factors
        rng = np.random.default_rng(15)
        cfg = tiny_cfg()
        params = init_params(cfg, seed=15)
        factors = make_lora_adapters(params, rank=8, seed=0)
        assert factors  # narrow layers skipped, the rest adapted
        for t in factors.values():
            t.data[:] = rng.normal(size=t.data.shape)
        merged = lora_weights(params, factors, 2.0)
        for name, p in params.items():
            if f"lora.{name}.a" not in factors:
                assert merged[name] is p
                continue
            ab = factors[f"lora.{name}.a"].data @ factors[f"lora.{name}.b"].data
            np.testing.assert_allclose(merged[name].data, p.data + 2.0 * ab, rtol=1e-13)

    def test_factor_shapes_and_init(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=17)
        factors = make_lora_adapters(params, rank=4, seed=0)
        names = sorted({k[len("lora."):-len(".a")] for k in factors})
        assert list(factors) == [f"lora.{n}.{f}" for n in names for f in "ab"]
        for name in names:
            d_in, d_out = params[name].data.shape
            a, b = factors[f"lora.{name}.a"], factors[f"lora.{name}.b"]
            assert a.requires_grad and b.requires_grad
            assert a.shape == (d_in, 4) and b.shape == (4, d_out)
            assert np.abs(a.data).max() > 0 and not b.data.any()
        # the 6-wide input layer is narrower than rank 8, so it is left out
        assert "lora.stage0.lin0.w.a" not in make_lora_adapters(params, rank=8, seed=0)

    def test_rank_too_large_rejected(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=16)
        with pytest.raises(ValueError, match="rank"):
            make_lora_adapters(params, rank=64, seed=0)

    def test_grads_vs_finite_differences(self):
        rng = np.random.default_rng(18)
        w = rng.normal(size=(6, 5))
        x = rng.normal(size=(7, 6))

        def op(a, b):
            name = "stage0.lin0.w"
            merged = lora_weights({name: T.Tensor(w)},
                                  {f"lora.{name}.a": a, f"lora.{name}.b": b}, 2.0)
            return T.op_matmul(T.Tensor(x), merged[name], None)

        a0 = rng.normal(size=(6, 3))
        b0 = rng.normal(size=(3, 5))
        assert gradcheck(op, [a0, b0]) <= 1e-5

    def test_frozen_base_gets_no_grads(self):
        rng = np.random.default_rng(19)
        cfg = tiny_cfg()
        params = init_params(cfg, seed=20)
        frozen = clone_params(params)
        factors = make_lora_adapters(frozen, rank=4, seed=2)
        name = "stage2.lin1.w"
        x = T.Tensor(rng.normal(size=(9, frozen[name].data.shape[0])))
        out = T.op_matmul(x, lora_weights(frozen, factors, 4.0)[name], None)
        T.backward(T.op_sum(out))
        assert frozen[name].grad is None
        assert factors[f"lora.{name}.a"].grad is not None
        assert factors[f"lora.{name}.b"].grad is not None


class TestHeads:
    def test_proj_head_rows_unit_norm(self, cloud):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=21)
        res = encode(plain_view(cloud), params, cfg)
        z = proj_head(params, res)
        np.testing.assert_allclose(np.linalg.norm(z.data, axis=1), 1.0, atol=1e-9)

    def test_proj_head_matches_the_head_over_the_built_upcast(self, cloud):
        cfg = tiny_cfg()
        rng = np.random.default_rng(24)
        results = []
        for head in (proj_head, proj_head_reference):
            params = init_params(cfg, seed=24)
            out = head(params, encode(plain_view(cloud), params, cfg))
            g = rng.normal(size=out.shape) if not results else g
            T.backward(T.op_sum(T.op_mul(out, T.Tensor(g))))
            results.append([out.data] + [params[k].grad for k in sorted(params)])
        for got, want in zip(*results):
            if want is None:  # the prototypes and the cross head
                assert got is None
            else:
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_forward_frees_what_no_vjp_reads(self, cloud, monkeypatch):
        """After a float32 ``encode`` and ``proj_head``, every op output that
        no VJP reads is freed by reference counting: the linear layers'
        outputs (read by neither GELU, the local mix nor the L2 norm), the
        head's gathered layer, the pooled stage inputs of each layernorm and
        the mask token's product and sum in the masked stage-0 input.
        What a VJP reads (the GELU and layernorm outputs, which the next
        linear layer's weight gradient reads) and what the forward code
        holds (the stages, the head's output) stays. The gradients are the
        bits of the same pass with every output kept alive."""
        cfg = tiny_cfg()
        master = init_params(cfg, seed=26)
        view = make_viewset(cloud, AugmentConfig(), seed=26).masked[0]
        assert view.mask.any()
        real_record = T._record
        results = []
        for keep_all in (False, True):
            outputs = []  # (op, weakref to its value, or the tensor itself)

            def recording(data, op, parents, vjp):
                out = real_record(data, op, parents, vjp)
                outputs.append((op, out if keep_all else weakref.ref(out.data)))
                return out

            monkeypatch.setattr(T, "_record", recording)
            params = compute_copies(master, track=True)
            with refcounting_only():
                res = encode(view, params, cfg)
                z = proj_head(params, res)
                if not keep_all:
                    alive = Counter(op for op, ref in outputs if ref() is not None)
                    freed = Counter(op for op, ref in outputs if ref() is None)
            monkeypatch.setattr(T, "_record", real_record)
            g = np.random.default_rng(26).normal(size=z.shape).astype(np.float32)
            T.backward(T.op_sum(T.op_mul(z, T.Tensor(g))))
            results.append([params[k].grad for k in sorted(params)])
        stages = cfg.num_stages
        assert freed == {"matmul": MLP_DEPTH * stages + 1, "gather_linear": 1,
                         "segment_mean": stages - 1, "add": 1, "mul_row": 1}
        assert alive == {"gelu": stages + 1, "layernorm": stages, "local_mix": stages,
                         "l2norm": 1}
        for got, want in zip(*results):
            if want is None:  # the prototypes and the cross head
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)

    def test_proj_head_reads_the_stages(self, cloud):
        # one gather_linear node, and no upcast on the tape
        cfg = tiny_cfg()
        params = init_params(cfg, seed=25)
        ops = Counter(t._op for t in tape_nodes(
            proj_head(params, encode(plain_view(cloud), params, cfg))))
        assert ops["gather_linear"] == 1 and ops["gather_concat"] == 0

    def test_prototypes_are_columns(self, cloud):
        # z @ proto.w scores every projected row against every prototype
        cfg = tiny_cfg()
        params = init_params(cfg, seed=22)
        res = encode(plain_view(cloud), params, cfg)
        z = proj_head(params, res)
        assert params["proto.w"].shape == (cfg.proj_dim, cfg.proto_count)
        assert T.op_matmul(z, params["proto.w"], None).shape == (z.shape[0], cfg.proto_count)

    def test_cross_head_maps_to_image_dim(self, cloud):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=23)
        res = encode(plain_view(cloud), params, cfg)
        out = cross_head(params, upcast(res, CROSS_LEVEL, None))
        assert out.shape[1] == cfg.cross_dim
