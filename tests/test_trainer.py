import json
from dataclasses import asdict

import numpy as np
import pytest

from concerto import tensor as T
from concerto.ctsr import load_ctsr, save_ctsr
from concerto.dataio import PointCloud, SceneSample, SyntheticSpec, generate_synthetic
from concerto.encoder import EncoderConfig, clone_params, init_params
from concerto.objectives import ClusterLossConfig, LossWeights
from concerto.trainer import (LOG_KEYS, AdamState, TrainConfig, TrainerError, adamw_step,
                              clip_gradients, ema_schedule, load_checkpoint,
                              lr_depth_factors, lr_schedule, save_checkpoint, train)
from concerto.views import AugmentConfig
from oracles import record_tape_dtypes


def tiny_enc(**kw):
    base = dict(stage_dims=[8, 12, 16, 20, 24], cell_sizes=[0.12, 0.25, 0.5, 1.0],
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


class TestTrainLoop:
    def run(self, dataset, steps, out=None, resume=None, stop=None, enc_cfg=None,
            step_hook=None, **kw):
        cfg = TrainConfig(**{"seed": 4, "total_steps": steps, "epochs": 1,
                             "base_lr": 0.002, **kw})
        return train(dataset, cfg, enc_cfg or tiny_enc(), AugmentConfig(),
                     ClusterLossConfig(), out_dir=out, resume_from=resume,
                     stop_at_step=stop, step_hook=step_hook)

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
        # interrupt the same schedule after 3 steps, then resume to the end
        self.run(dataset, 6, out=tmp_path / "part", stop=3)
        ck = tmp_path / "part" / "ckpt_final"
        resumed = self.run(dataset, 6, out=tmp_path / "resumed", resume=ck)
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
        self.run(dataset[:2], 4, out=tmp_path / "run", stop=2)
        ck = tmp_path / "run" / "ckpt_final"
        assert json.loads((ck / "meta.json").read_text())["encoder"]["stage_dims"] == \
            [8, 12, 16, 20, 24]
        for changed, field in ((tiny_enc(stage_dims=[8, 12, 16, 20, 32]), "stage_dims"),
                               (tiny_enc(cell_sizes=[0.24, 0.5, 1.0, 2.0]), "cell_sizes")):
            with pytest.raises(TrainerError, match=field):
                self.run(dataset[:2], 4, resume=ck, enc_cfg=changed)

    def test_resume_refuses_checkpoint_without_encoder_entry(self, dataset, tmp_path):
        params = init_params(tiny_enc(), seed=4)
        save_checkpoint(tmp_path / "ck", params, clone_params(params), AdamState.init(params),
                        np.zeros(tiny_enc().proto_count), step=1)
        with pytest.raises(TrainerError, match="'encoder'"):
            self.run(dataset[:2], 4, resume=tmp_path / "ck")

    def test_resume_refuses_another_compute_dtype(self, dataset, tmp_path):
        self.run(dataset[:2], 4, out=tmp_path / "run", stop=2)
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

    def test_resume_refuses_transposed_prototypes(self, dataset, tmp_path):
        # prototypes are stored as (proj_dim, proto_count); a checkpoint
        # holding them the other way round is refused before any step
        self.run(dataset[:2], 4, out=tmp_path / "run", stop=2)
        ck = tmp_path / "run" / "ckpt_final"
        save_ctsr(ck / "student" / "proto.w.ctsr",
                  load_ctsr(ck / "student" / "proto.w.ctsr").T.copy())
        steps = []
        with pytest.raises(TrainerError, match=r"'proto\.w' has shape \(24, 16\)"):
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
