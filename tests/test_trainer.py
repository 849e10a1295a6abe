import dataclasses
import json
import re
import weakref
from collections import Counter, defaultdict
from dataclasses import asdict

import numpy as np
import pytest

from concerto import tensor as T
from concerto.ctsr import load_ctsr, save_ctsr
from concerto.dataio import PointCloud, SceneSample, SyntheticSpec, generate_synthetic
from concerto.encoder import MLP_DEPTH, EncoderConfig, clone_params, init_params
from concerto.objectives import ClusterLossConfig, LossWeights
from concerto.trainer import (LOG_KEYS, AdamState, TrainConfig, TrainerError, adamw_step,
                              clip_gradients, ema_schedule, load_checkpoint,
                              lr_depth_factors, lr_schedule, save_checkpoint, train)
from concerto.geometry import lattice_keys
from concerto.views import AugmentConfig, make_viewset
from oracles import record_tape_dtypes, tape_nodes


def tiny_enc(**kw):
    base = dict(stage_dims=[8, 12, 16, 20, 24], voxel_size=0.125,
                proto_count=24, proj_dim=16, cross_dim=8)
    base.update(kw)
    return EncoderConfig(**base)


@pytest.fixture(scope="module")
def dataset():
    spec = SyntheticSpec(num_scenes=3, points_per_scene=900, num_classes=4,
                         image_size=32, patch_size=8, feature_dim=8,
                         noise_sigma=0.02, seed=1)
    samples, _ = generate_synthetic(spec)
    return samples


class TestAdamW:
    def flat_params(self):
        return {"w": T.param(np.array([[1.0, -2.0], [0.5, 3.0]])),
                "b": T.param(np.array([0.1, -0.1]))}

    def test_zero_grad_no_decay_is_identity(self):
        params = self.flat_params()
        before = {k: p.data.copy() for k, p in params.items()}
        grads = {k: np.zeros_like(p.data) for k, p in params.items()}
        adamw_step(params, grads, AdamState.init(params), lr=0.1, lr_factors={},
                   weight_decay=0.0)
        for k in params:
            np.testing.assert_array_equal(params[k].data, before[k])

    def test_first_step_closed_form(self):
        # single scalar weight: update is -lr * g / (|g| + eps) after bias correction
        p = {"w": T.param(np.array([[0.7]]))}
        g = 0.3
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        state = AdamState.init(p)
        adamw_step(p, {"w": np.array([[g]])}, state, lr, {}, 0.0)
        mhat = (1 - b1) * g / (1 - b1)
        vhat = (1 - b2) * g * g / (1 - b2)
        expect = 0.7 - lr * mhat / (np.sqrt(vhat) + eps)
        np.testing.assert_allclose(p["w"].data, [[expect]], atol=1e-15)

    def test_pure_decay_with_zero_grad(self):
        p = {"w": T.param(np.full((2, 2), 2.0))}
        adamw_step(p, {"w": np.zeros((2, 2))}, AdamState.init(p), lr=0.1, lr_factors={},
                   weight_decay=0.5)
        np.testing.assert_allclose(p["w"].data, 2.0 * (1 - 0.1 * 0.5))

    def test_decay_skips_non_matrices(self):
        p = self.flat_params()
        grads = {k: np.zeros_like(v.data) for k, v in p.items()}
        adamw_step(p, grads, AdamState.init(p), lr=0.1, lr_factors={}, weight_decay=0.5)
        np.testing.assert_allclose(p["b"].data, [0.1, -0.1])  # bias untouched

    def test_nonfinite_grad_aborts_with_name(self):
        p = self.flat_params()
        grads = {"w": np.array([[np.nan, 0.0], [0.0, 0.0]]), "b": np.zeros(2)}
        with pytest.raises(TrainerError, match="'w'"):
            adamw_step(p, grads, AdamState.init(p), lr=0.1, lr_factors={})

    def test_matches_reference_adamw_over_steps(self):
        # independent oracle: textbook loop over 10 steps on random grads
        rng = np.random.default_rng(2)
        w0 = rng.normal(size=(3, 2))
        grads = [rng.normal(size=(3, 2)) for _ in range(10)]
        p = {"w": T.param(w0.copy())}
        state = AdamState.init(p)
        lr, b1, b2, eps, wd = 0.01, 0.9, 0.999, 1e-8, 0.04
        for g in grads:
            adamw_step(p, {"w": g.copy()}, state, lr, {}, wd)
        w, m, v = w0.copy(), np.zeros_like(w0), np.zeros_like(w0)
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1 ** t)
            vh = v / (1 - b2 ** t)
            w = w - lr * wd * w - lr * mh / (np.sqrt(vh) + eps)
        np.testing.assert_allclose(p["w"].data, w, atol=1e-12)


class TestSchedules:
    def test_warmup_reaches_base(self):
        assert lr_schedule(100, 1000, 0.004, 100) == 0.004

    def test_final_lr_zero(self):
        assert lr_schedule(1000, 1000, 0.004, 100) == pytest.approx(0.0, abs=1e-18)

    def test_cosine_midpoint_half(self):
        assert lr_schedule(550, 1000, 0.004, 100) == pytest.approx(0.002)

    def test_ema_schedule_endpoints(self):
        assert ema_schedule(0, 100, 0.996) == pytest.approx(0.996)
        assert ema_schedule(100, 100, 0.996) == pytest.approx(1.0)

    def test_depth_factors(self):
        cfg = tiny_enc()
        params = init_params(cfg, seed=0)
        f = lr_depth_factors(params, cfg)
        assert f["stage4.lin0.w"] == pytest.approx(1.0)
        assert f["stage0.lin0.w"] == pytest.approx(0.9 ** 4)
        assert f["proto.w"] == 1.0
        assert f["mask_token"] == pytest.approx(0.9 ** 4)

    def test_clip_never_increases_norm(self):
        rng = np.random.default_rng(3)
        grads = {"a": rng.normal(size=(4, 4)) * 10, "b": rng.normal(size=3)}
        pre = np.sqrt(sum((g ** 2).sum() for g in grads.values()))
        clip_gradients(grads, 1.0)
        post = np.sqrt(sum((g ** 2).sum() for g in grads.values()))
        assert post <= min(pre, 1.0) + 1e-12

    @pytest.mark.parametrize("grad_clip", [0.0, -1.0, float("nan")])
    def test_non_positive_grad_clip_rejected(self, grad_clip):
        # a negative clip would scale every gradient by a negative factor
        with pytest.raises(ValueError, match="grad_clip must be positive"):
            TrainConfig(grad_clip=grad_clip)
        TrainConfig(grad_clip=None)

    @pytest.mark.parametrize("base_lr", [0.0, -1.0, float("nan")])
    def test_non_positive_base_lr_rejected(self, base_lr):
        with pytest.raises(ValueError, match="base_lr must be positive"):
            TrainConfig(base_lr=base_lr)

    @pytest.mark.parametrize("base_lr", [float("inf"), -float("inf")])
    def test_infinite_base_lr_rejected(self, base_lr):
        with pytest.raises(ValueError, match="base_lr must be positive and finite"):
            TrainConfig(base_lr=base_lr)

    @pytest.mark.parametrize("field", ["epochs", "total_steps", "checkpoint_every_epochs"])
    def test_negative_count_rejected(self, field):
        # a negative epoch or step count trains nothing, yet wrote ckpt_final
        with pytest.raises(ValueError, match=f"{field} must be non-negative"):
            TrainConfig(**{field: -1})
        TrainConfig(**{field: 0})


class TestTrainLoop:
    def run(self, dataset, steps, out=None, resume=None, enc_cfg=None, step_hook=None, **kw):
        cfg = TrainConfig(**{"seed": 4, "total_steps": steps, "epochs": 1,
                             "base_lr": 0.002, **kw})
        return train(dataset, cfg, enc_cfg or tiny_enc(), AugmentConfig(),
                     ClusterLossConfig(), out_dir=out, resume_from=resume,
                     step_hook=step_hook)

    def test_empty_dataset_rejected(self):
        with pytest.raises(TrainerError, match="empty"):
            self.run([], 1)

    def test_too_small_cloud_rejected_before_step_0(self, dataset):
        c = dataset[0].cloud
        tiny = SceneSample(cloud=PointCloud(coords=c.coords[:10], colors=c.colors[:10],
                                            labels=c.labels[:10]),
                           views=[], scene_id="tiny_scene")
        steps = []
        with pytest.raises(TrainerError, match="tiny_scene"):
            self.run([dataset[0], tiny], 2, seed=3,
                     step_hook=lambda step, *_rest: steps.append(step))
        assert steps == []

    def test_coordinate_beyond_key_range_rejected_before_step_0(self, dataset):
        c = dataset[0].cloud
        coords = c.coords.copy()
        coords[3, 1] = 1e30
        far = SceneSample(cloud=PointCloud(coords=coords, colors=c.colors, labels=c.labels),
                          views=[], scene_id="far_scene")
        steps = []
        with pytest.raises(TrainerError, match="far_scene.*key range"):
            self.run([dataset[0], far], 2, seed=3,
                     step_hook=lambda step, *_rest: steps.append(step))
        assert steps == []

    def test_scene_that_augmentation_carries_beyond_key_range_rejected(self, dataset):
        # keys are 21 bits per axis, so the finest lattice here (MASK_GRID,
        # 0.1) ends at cell 2^20 - 1; this scene's last point sits 0.25 below
        c = dataset[0].cloud
        edge = ((1 << 20) - 1) * 0.1
        coords = c.coords + np.array([edge - 0.25 - c.coords[:, 0].max(), 0.0, 0.0])
        lattice_keys(coords, 0.1)  # inside the bound as loaded
        near = SceneSample(cloud=PointCloud(coords=coords, colors=c.colors, labels=c.labels),
                           views=[], scene_id="edge_scene")
        # a real augmentation of it crosses the bound
        with pytest.raises(ValueError, match="key range"):
            for v in make_viewset(near.cloud, AugmentConfig(), seed=0).all_views:
                lattice_keys(v.cloud.coords, 0.1)
        steps = []
        with pytest.raises(TrainerError, match="edge_scene.*augmented.*key range"):
            self.run([dataset[0], near], 2, seed=3,
                     step_hook=lambda step, *_rest: steps.append(step))
        assert steps == []

    def test_image_feature_width_mismatch_rejected_before_step_0(self, dataset):
        steps = []
        with pytest.raises(TrainerError, match=r"scene_0000, view 0: image features are 8 "
                                               r"wide, enc_cfg\.cross_dim is 16"):
            self.run(dataset, 2, enc_cfg=tiny_enc(cross_dim=16),
                     step_hook=lambda step, *_rest: steps.append(step))
        assert steps == []
        # the width is not checked where the cross branch cannot run
        for kw in (dict(weights=LossWeights(cross=0.0)), dict(image_usage_ratio=0.0)):
            assert len(self.run(dataset, 1, enc_cfg=tiny_enc(cross_dim=16), **kw).log) == 1

    def test_view_without_depth_map_rejected_before_step_0(self, dataset):
        s = dataset[1]
        views = [dataclasses.replace(v, depth_map=None) for v in s.views]
        depthless = SceneSample(cloud=s.cloud, views=views, scene_id="depthless")
        steps = []
        with pytest.raises(TrainerError, match="scene depthless: view has no depth map"):
            self.run([dataset[0], depthless], 2,
                     step_hook=lambda step, *_rest: steps.append(step))
        assert steps == []
        # the views are not matched where the cross branch cannot run
        assert len(self.run([dataset[0], depthless], 2, image_usage_ratio=0.0).log) == 2

    def test_scenes_sharing_an_id_each_train_through_their_own_views(self, dataset):
        unique = self.run(dataset, 3).log
        shared = [dataclasses.replace(s, scene_id="same") for s in dataset]
        assert self.run(shared, 3).log == unique
        assert all(row["cross"] > 0 for row in unique)

    def test_loss_logged_and_finite(self, dataset):
        res = self.run(dataset, 6)
        assert len(res.log) == 6
        assert all(np.isfinite(row["total"]) for row in res.log)

    def test_step_zero_grad_norm_is_moderate(self, dataset):
        # a constant mask token gives masked rows zero variance, and the
        # stage-0 layernorm's backward scales them by 1/sqrt(eps): a zero
        # token made the step-0 norm ~1e23
        for seed in (0, 4):
            assert self.run(dataset, 1, seed=seed).log[0]["grad_norm"] < 1e3

    def test_image_usage_zero_cross_is_zero(self, dataset):
        res = self.run(dataset, 6, image_usage_ratio=0.0)
        assert all(row["cross"] == 0.0 for row in res.log)

    def test_cross_mean_baseline_logged(self, dataset):
        with_images = self.run(dataset, 3).log
        assert all(0.0 < row["cross_mean_baseline"] < 2.0 for row in with_images)
        assert all(row["cross_mean_baseline"] == 0.0
                   for row in self.run(dataset, 3, image_usage_ratio=0.0).log)

    def test_lambda_cross_zero_trajectory_independent_of_images(self, dataset):
        stripped = []
        from concerto.dataio import SceneSample
        from concerto.geometry import CameraView
        for s in dataset:
            views = [CameraView(intrinsics=v.intrinsics, rotation=v.rotation,
                                translation=v.translation, image_size=v.image_size,
                                patch_size=v.patch_size, depth_map=v.depth_map,
                                feature_grid=None) for v in s.views]
            stripped.append(SceneSample(cloud=s.cloud, views=views, scene_id=s.scene_id))
        w = LossWeights(cross=0.0, intra=2.0)
        res_img = self.run(dataset, 5, weights=w)
        res_none = self.run(stripped, 5, weights=w)
        for k in res_img.params:
            np.testing.assert_array_equal(res_img.params[k].data, res_none.params[k].data)

    def test_teacher_replay_matches_ema_recurrence(self, dataset):
        # record the student trajectory, then replay the EMA recurrence on it
        cfg = TrainConfig(seed=5, total_steps=4, epochs=1)
        enc_cfg = tiny_enc()
        trajectory = []

        def hook(step, params, teacher, m_ema):
            trajectory.append(({k: v.data.copy() for k, v in params.items()}, m_ema))

        res = train(dataset, cfg, enc_cfg, AugmentConfig(), ClusterLossConfig(),
                    step_hook=hook)
        replay = {k: v.data.copy() for k, v in init_params(enc_cfg, seed=cfg.seed).items()}
        for student, m in trajectory:
            for k in replay:
                replay[k] = m * replay[k] + (1 - m) * student[k]
        for k in replay:
            np.testing.assert_allclose(res.teacher[k].data, replay[k], atol=1e-12)

    def test_resume_bit_exact(self, dataset, tmp_path):
        full = self.run(dataset, 6, out=tmp_path / "full", checkpoint_every_epochs=1)
        # the last step's state is written once, as ckpt_final
        assert [p.name for p in full.checkpoints] == ["ckpt_step000003", "ckpt_final"]
        assert not (tmp_path / "full" / "ckpt_step000006").exists()

        # interrupt the same schedule during step 3, then resume to the end
        def crash(step, *_rest):
            if step == 3:
                raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            self.run(dataset, 6, out=tmp_path / "part", checkpoint_every_epochs=1,
                     step_hook=crash)
        assert not (tmp_path / "part" / "ckpt_final").exists()
        ck = tmp_path / "part" / "ckpt_step000003"
        resumed = self.run(dataset, 6, out=tmp_path / "resumed", resume=ck)
        assert resumed.checkpoints == [tmp_path / "resumed" / "ckpt_final"]
        assert load_checkpoint(resumed.checkpoints[0]).step == 6
        for k in full.params:
            np.testing.assert_array_equal(full.params[k].data, resumed.params[k].data)
            np.testing.assert_array_equal(full.teacher[k].data, resumed.teacher[k].data)
        np.testing.assert_array_equal(full.center, resumed.center)
        full_rows = {r["step"]: r for r in full.log}
        for row in resumed.log:
            assert row == full_rows[row["step"]]

    def test_resume_into_same_dir_logs_each_step_once(self, dataset, tmp_path):
        out = tmp_path / "run"
        log_path = out / "train_log.jsonl"
        self.run(dataset[:2], 4, out=out, checkpoint_every_epochs=1)
        uninterrupted = log_path.read_text().splitlines()
        self.run(dataset[:2], 4, out=out, resume=out / "ckpt_step000002",
                 checkpoint_every_epochs=1)
        resumed = log_path.read_text().splitlines()
        assert [json.loads(line)["step"] for line in resumed] == [0, 1, 2, 3]
        assert resumed == uninterrupted

    def test_resume_bit_exact_with_grad_clip(self, dataset, tmp_path):
        # the clip scale depends on the summed norm, so every bit of it counts
        full = self.run(dataset[:2], 4, out=tmp_path / "run", checkpoint_every_epochs=1,
                        grad_clip=0.05)
        resumed = self.run(dataset[:2], 4, resume=tmp_path / "run" / "ckpt_step000002",
                           grad_clip=0.05)
        for k in full.params:
            np.testing.assert_array_equal(full.params[k].data, resumed.params[k].data)
        assert resumed.log == full.log[2:]

    def test_grad_norm_logged_before_clipping(self, dataset):
        unclipped = self.run(dataset, 2)
        clipped = self.run(dataset, 2, grad_clip=1e-6)
        for row in unclipped.log:
            assert np.isfinite(row["grad_norm"]) and row["grad_norm"] > 0
        assert clipped.log[0]["grad_norm"] == unclipped.log[0]["grad_norm"]
        assert all(row["grad_norm"] > 1e-6 for row in clipped.log)

    def test_nonfinite_loss_dumps_state_and_raises(self, dataset, tmp_path, monkeypatch):
        import concerto.trainer as trainer_mod
        real_intra_loss = trainer_mod.intra_loss

        def nan_intra_loss(*args, **kwargs):
            loss, *rest = real_intra_loss(*args, **kwargs)
            return (T.op_mul(loss, float("nan")), *rest)

        monkeypatch.setattr(trainer_mod, "intra_loss", nan_intra_loss)
        out = tmp_path / "run"
        with pytest.raises(TrainerError, match="non-finite loss at step 0"):
            self.run(dataset[:2], 4, out=out)
        dump = load_checkpoint(out / "dump_nonfinite")
        assert dump.step == 0
        assert dump.meta["encoder"] == json.loads(json.dumps(asdict(tiny_enc())))
        assert not (out / "ckpt_final").exists()
        assert (out / "train_log.jsonl").read_text() == ""

    def test_log_jsonl_keys(self, dataset, tmp_path):
        self.run(dataset, 3, out=tmp_path / "log")
        lines = (tmp_path / "log" / "train_log.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            row = json.loads(line)
            assert tuple(row) == LOG_KEYS
            assert row["matched_pairs"] > 0 and row["nonempty_patches"] > 0

    def test_center_norm_is_norm_of_saved_center(self, dataset, tmp_path):
        res = self.run(dataset, 2, out=tmp_path / "run")
        center = load_checkpoint(tmp_path / "run" / "ckpt_final").center
        assert res.log[-1]["center_norm"] == np.linalg.norm(center) > 0
        assert all(0 < row["proto_used"] <= 1 for row in res.log)

    def test_resume_refuses_another_encoder_config(self, dataset, tmp_path):
        self.run(dataset[:2], 2, out=tmp_path / "run")
        ck = tmp_path / "run" / "ckpt_final"
        assert json.loads((ck / "meta.json").read_text())["encoder"]["stage_dims"] == \
            [8, 12, 16, 20, 24]
        for changed, field in ((tiny_enc(stage_dims=[8, 12, 16, 20, 32]), "stage_dims"),
                               (tiny_enc(voxel_size=0.25), "voxel_size")):
            with pytest.raises(TrainerError, match=field):
                self.run(dataset[:2], 4, resume=ck, enc_cfg=changed)

    def test_resume_refuses_checkpoint_without_encoder_entry(self, dataset, tmp_path):
        params = init_params(tiny_enc(), seed=4)
        save_checkpoint(tmp_path / "ck", params, clone_params(params), AdamState.init(params),
                        np.zeros(tiny_enc().proto_count), step=1)
        with pytest.raises(TrainerError, match="'encoder'"):
            self.run(dataset[:2], 4, resume=tmp_path / "ck")

    def test_resume_refuses_another_compute_dtype(self, dataset, tmp_path):
        self.run(dataset[:2], 2, out=tmp_path / "run")
        meta_path = tmp_path / "run" / "ckpt_final" / "meta.json"
        meta = json.loads(meta_path.read_text())
        assert meta["compute_dtype"] == "float32"
        for saved in ("float64", None):
            if saved is None:
                del meta["compute_dtype"]
            else:
                meta["compute_dtype"] = saved
            meta_path.write_text(json.dumps(meta))
            with pytest.raises(TrainerError, match="compute_dtype"):
                self.run(dataset[:2], 4, resume=meta_path.parent)

    def test_training_step_computes_in_float32(self, dataset, monkeypatch):
        """Every tape node and every cotangent of a step is float32; the
        state the run returns stays float64."""
        dtypes = record_tape_dtypes(monkeypatch)
        res = self.run(dataset, 2)
        assert dtypes == {"node": {np.dtype(np.float32)}, "cotangent": {np.dtype(np.float32)}}
        state = [p.data for p in (*res.params.values(), *res.teacher.values())]
        state += [*res.state.m.values(), *res.state.v.values(), res.center]
        assert {a.dtype for a in state} == {np.dtype(np.float64)}

    def test_one_step_tape_alive_at_a_time(self, dataset, monkeypatch):
        """When step k+1 draws its views, every encoding of step k, its
        stage-0 feature array and its voxel hierarchy are already freed (by
        reference counting, without a garbage-collector pass)."""
        import concerto.trainer as trainer_mod
        refs = []  # per step: weakrefs to its encodings, stage-0 features and hierarchies
        live = []  # per step: how many earlier referents are alive at its viewset
        real_encode, real_make_viewset = trainer_mod.encode, trainer_mod.make_viewset

        def encode(view, params, cfg, hierarchy):
            enc = real_encode(view, params, cfg, hierarchy)
            refs[-1] += [weakref.ref(enc), weakref.ref(enc.feats[0].data),
                         weakref.ref(hierarchy)]
            return enc

        def make_viewset(*args, **kwargs):
            live.append(sum(r() is not None for step in refs for r in step))
            refs.append([])
            return real_make_viewset(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "encode", encode)
        monkeypatch.setattr(trainer_mod, "make_viewset", make_viewset)
        self.run(dataset, 3)
        assert [len(step) for step in refs] == [24, 24, 24]  # 8 views, 3 referents each
        assert live == [0, 0, 0]

    def test_step_voxelizes_each_distinct_cloud_once(self, dataset, monkeypatch):
        """A step's 8 encodes read 6 hierarchies: the first global view and
        both masked views share one cloud, so the encoder voxelizes 6 clouds
        at level 0."""
        import concerto.encoder as encoder_mod
        import concerto.trainer as trainer_mod
        enc_cfg = tiny_enc()
        level0 = []  # per step: level-0 voxelize calls
        real_voxelize, real_make_viewset = encoder_mod.voxelize, trainer_mod.make_viewset

        def voxelize(points, cell_size):
            level0[-1] += cell_size == enc_cfg.voxel_size
            return real_voxelize(points, cell_size)

        def make_viewset(*args, **kwargs):
            level0.append(0)
            return real_make_viewset(*args, **kwargs)

        monkeypatch.setattr(encoder_mod, "voxelize", voxelize)
        monkeypatch.setattr(trainer_mod, "make_viewset", make_viewset)
        self.run(dataset, 2, enc_cfg=enc_cfg)
        assert level0 == [6, 6]

    def test_tape_keeps_no_value_its_consumers_do_not_read(self, dataset, monkeypatch):
        """At each step's backward, no node whose consumers' VJPs never read
        their input still holds its value: neither a matmul or gather_linear
        node read only by gelu, local_mix or l2norm, nor a segment_mean or
        gather_concat node read only by layernorm or segment_mean."""
        rules = {"matmul": {"gelu", "local_mix", "l2norm"},
                 "gather_linear": {"gelu", "local_mix", "l2norm"},
                 "segment_mean": {"layernorm", "segment_mean"},
                 "gather_concat": {"layernorm", "segment_mean"}}
        checked = set()
        real_backward = T.backward

        def guarded(loss):
            nodes = tape_nodes(loss)
            consumers = defaultdict(set)
            for t in nodes:
                for parent in t._parents:
                    consumers[id(parent)].add(t._op)
            for t in nodes:
                readers = consumers[id(t)]
                if t._op in rules and readers and readers <= rules[t._op]:
                    assert t.data.size == 0, f"a {t._op} node read by {readers} holds its value"
                    checked.add(t._op)
            real_backward(loss)

        monkeypatch.setattr(T, "backward", guarded)
        self.run(dataset, 2)
        assert checked == set(rules)

    def test_tape_records_one_matmul_per_layer_call(self, dataset, monkeypatch):
        """Each step's tape holds one ``matmul`` node per tracked call of a
        stage MLP, ``proj.lin1`` or ``cross`` layer, and no ``linear`` node:
        the benchmark times the encoder's products as the ``matmul`` family."""
        import concerto.encoder as encoder_mod
        calls = [[]]  # per step: the layer names of the tracked calls
        real_linear, real_backward = encoder_mod._linear, T.backward

        def linear(x, params, name):
            out = real_linear(x, params, name)
            if out.requires_grad:
                calls[-1].append(name)
            return out

        def counted(loss):
            ops = Counter(t._op for t in tape_nodes(loss))
            assert "linear" not in ops
            assert ops["matmul"] == len(calls[-1])
            calls.append([])
            real_backward(loss)

        monkeypatch.setattr(encoder_mod, "_linear", linear)
        monkeypatch.setattr(T, "backward", counted)
        self.run(dataset, 2)
        steps = calls[:-1]
        assert len(steps) == 2
        layers = {f"stage{s}.lin{i}" for s in range(5) for i in range(MLP_DEPTH)}
        for names in steps:
            assert set(names) == layers | {"proj.lin1", "cross"}

    def test_resume_refuses_transposed_prototypes(self, dataset, tmp_path):
        # prototypes are stored as (proj_dim, proto_count); a checkpoint
        # holding them the other way round is refused before any step
        self.run(dataset[:2], 2, out=tmp_path / "run")
        ck = tmp_path / "run" / "ckpt_final"
        save_ctsr(ck / "student" / "proto.w.ctsr",
                  load_ctsr(ck / "student" / "proto.w.ctsr").T.copy())
        steps = []
        with pytest.raises(TrainerError, match=r"'proto\.w' has shape \(24, 16\)"):
            self.run(dataset[:2], 4, resume=ck,
                     step_hook=lambda step, *_rest: steps.append(step))
        assert steps == []

    @pytest.mark.parametrize("part,shape,message", [
        ("adam_m/stage0.lin0.w.ctsr", (3, 3), r"adam_m 'stage0\.lin0\.w' has shape \(3, 3\)"),
        ("teacher/stage0.lin0.w.ctsr", (3, 3), r"teacher 'stage0\.lin0\.w' has shape \(3, 3\)"),
        ("center.ctsr", (5,), r"center has shape \(5,\), the encoder config gives \(24,\)"),
    ], ids=["adam_m", "teacher", "center"])
    def test_resume_refuses_misshapen_state(self, dataset, tmp_path, part, shape, message):
        # the teacher, the Adam moments and the center are checked as the
        # student is, before any step, with the checkpoint named
        self.run(dataset[:2], 2, out=tmp_path / "run")
        ck = tmp_path / "run" / "ckpt_final"
        save_ctsr(ck / part, np.zeros(shape))
        steps = []
        with pytest.raises(TrainerError, match=f"checkpoint {re.escape(str(ck))}: {message}"):
            self.run(dataset[:2], 4, resume=ck,
                     step_hook=lambda step, *_rest: steps.append(step))
        assert steps == []

    def test_interrupted_resave_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        import concerto.trainer as trainer_mod
        enc_cfg = tiny_enc()
        params = init_params(enc_cfg, seed=6)
        state = AdamState.init(params)
        center = np.arange(enc_cfg.proto_count, dtype=np.float64)
        save_checkpoint(tmp_path / "ck", params, clone_params(params), state, center, step=3)
        old = {k: v.data.copy() for k, v in params.items()}

        calls = []
        real_save = trainer_mod.save_ctsr

        def failing_save(path, array):
            calls.append(path)
            if len(calls) == 5:
                raise OSError("disk full")
            real_save(path, array)

        for v in params.values():
            v.data += 1.0
        monkeypatch.setattr(trainer_mod, "save_ctsr", failing_save)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(tmp_path / "ck", params, clone_params(params), state,
                            center + 1.0, step=4)
        monkeypatch.undo()
        ck = load_checkpoint(tmp_path / "ck")
        assert ck.step == 3
        np.testing.assert_array_equal(ck.center, center)
        for k in params:
            np.testing.assert_array_equal(ck.params[k].data, old[k])
            np.testing.assert_array_equal(ck.teacher[k].data, old[k])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]
        # a completed re-save replaces the checkpoint whole
        save_checkpoint(tmp_path / "ck", params, clone_params(params), state,
                        center + 1.0, step=4)
        ck = load_checkpoint(tmp_path / "ck")
        assert ck.step == 4
        for k in params:
            np.testing.assert_array_equal(ck.params[k].data, params[k].data)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]

    def test_checkpoint_round_trip(self, dataset, tmp_path):
        enc_cfg = tiny_enc()
        params = init_params(enc_cfg, seed=6)
        teacher = clone_params(params)
        state = AdamState.init(params)
        state.m["proto.w"][:] = 0.25
        center = np.random.default_rng(6).normal(size=enc_cfg.proto_count)
        save_checkpoint(tmp_path / "ck", params, teacher, state, center, step=17)
        ck = load_checkpoint(tmp_path / "ck")
        assert ck.step == 17
        np.testing.assert_array_equal(ck.center, center)
        np.testing.assert_array_equal(ck.state.m["proto.w"], state.m["proto.w"])
        for k in params:
            np.testing.assert_array_equal(ck.params[k].data, params[k].data)
            assert ck.params[k].requires_grad
            assert not ck.teacher[k].requires_grad

    @pytest.mark.parametrize("damage,error", [
        (lambda text: text[:len(text) // 2], r"JSONDecodeError"),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                  if k != "param_names"}), r"KeyError: 'param_names'"),
        (lambda text: json.dumps({**json.loads(text), "param_names": 5}),
         r"TypeError: param_names is not a JSON array of strings"),
        (lambda text: json.dumps({**json.loads(text), "param_names": "s"}),
         r"TypeError: param_names is not a JSON array of strings"),
        (lambda text: json.dumps({**json.loads(text), "step": 2.7}),
         r"TypeError: step 2.7 and adam_step 0 must be integers"),
        (lambda text: json.dumps({**json.loads(text), "step": True}),
         r"TypeError: step True and adam_step 0 must be integers"),
        (lambda text: json.dumps({**json.loads(text), "adam_step": "1"}),
         r"TypeError: step 2 and adam_step '1' must be integers"),
    ], ids=["not_json", "no_param_names", "param_names_int", "param_names_str", "step_float",
            "step_bool", "adam_step_str"])
    def test_malformed_meta_is_refused_naming_the_checkpoint(self, damage, error, tmp_path):
        params = init_params(tiny_enc(), seed=6)
        save_checkpoint(tmp_path / "ck", params, clone_params(params), AdamState.init(params),
                        np.zeros(tiny_enc().proto_count), step=2)
        meta_path = tmp_path / "ck" / "meta.json"
        meta_path.write_text(damage(meta_path.read_text()))
        with pytest.raises(TrainerError, match=rf"checkpoint .*ck: malformed meta.json \({error}"):
            load_checkpoint(tmp_path / "ck")
