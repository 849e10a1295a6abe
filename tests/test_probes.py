import dataclasses
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from concerto import probes
from concerto import tensor as T
from concerto.dataio import PointCloud, SceneSample, SyntheticSpec, generate_synthetic
from concerto.encoder import EncoderConfig, encode, init_params, upcast
from concerto.geometry import build_correspondence, visible_mask
from concerto.objectives import cross_loss
from concerto.probes import (ProbeConfig, ProbeError, TextSpace, _evaluate, _moments, _one_hot,
                             _standardize_fit, compute_metrics, extract_features, label_budget_indices, language_probe,
                             lift_patch_features_to_points, linear_probe, lora_probe,
                             plain_view, zero_shot_segment)
from concerto.trainer import AdamState, adamw_step
from oracles import record_tape_dtypes


def tiny_enc(**kw):
    base = dict(stage_dims=[8, 12, 16, 20, 24], voxel_size=0.125,
                proto_count=24, proj_dim=16, cross_dim=8)
    base.update(kw)
    return EncoderConfig(**base)


@pytest.fixture(scope="module")
def dataset():
    spec = SyntheticSpec(num_scenes=3, points_per_scene=800, num_classes=4,
                         image_size=32, patch_size=8, feature_dim=8,
                         noise_sigma=0.0, seed=11)
    samples, _ = generate_synthetic(spec)
    return samples


class TestMetrics:
    def test_perfect_prediction(self):
        gt = np.array([0, 1, 2, 1, 0])
        m = compute_metrics(gt, gt, 3)
        assert m.miou == m.macc == m.allacc == 1.0

    def test_total_miss_binary(self):
        m = compute_metrics(np.zeros(4, dtype=int), np.ones(4, dtype=int), 2)
        assert m.miou == 0.0 and m.allacc == 0.0

    def test_ignored_labels_excluded(self):
        pred = np.array([0, 1, 1])
        gt = np.array([0, -1, 1])
        m = compute_metrics(pred, gt, 2)
        assert m.confusion.sum() == 2
        assert m.allacc == 1.0

    def test_hand_computed_confusion(self):
        pred = np.array([0, 0, 1, 1, 2, 0])
        gt = np.array([0, 1, 1, 2, 2, 0])
        m = compute_metrics(pred, gt, 3)
        np.testing.assert_array_equal(m.confusion,
                                      [[2, 0, 0], [1, 1, 0], [0, 1, 1]])
        # unions: 0: 2+3-2=3, 1: 2+2-1=3, 2: 2+1-1=2
        np.testing.assert_allclose(m.per_class_iou, [2 / 3, 1 / 3, 1 / 2])
        np.testing.assert_allclose(m.miou, (2 / 3 + 1 / 3 + 1 / 2) / 3)
        np.testing.assert_allclose(m.allacc, 4 / 6)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 4, size=200)
        gt = rng.integers(0, 4, size=200)
        base = compute_metrics(pred, gt, 4)
        perm = np.array([2, 3, 1, 0])
        m2 = compute_metrics(perm[pred], perm[gt], 4)
        np.testing.assert_allclose(np.sort(m2.per_class_iou), np.sort(base.per_class_iou))
        np.testing.assert_allclose(m2.miou, base.miou)
        np.testing.assert_allclose(m2.allacc, base.allacc)

    def test_bad_num_classes(self):
        with pytest.raises(ValueError):
            compute_metrics([0], [0], 0)

    def test_label_at_num_classes_rejected(self):
        with pytest.raises(ProbeError, match="label 3 is not below num_classes=3"):
            compute_metrics([0, 1], [0, 3], 3)

    @pytest.mark.parametrize("pred, gt, bad", [([0, 2, 0], [0, 0, 1], 2),
                                               ([0, 0, -1], [0, 0, 1], -1)])
    def test_prediction_outside_classes_rejected(self, pred, gt, bad):
        # counted unchecked, either one lands in another cell of the matrix
        with pytest.raises(ValueError, match=rf"prediction {bad} is outside \[0, 2\)"):
            compute_metrics(pred, gt, 2)


class TestLabelBudget:
    def test_nested_subsets(self):
        small = label_budget_indices(500, 20, seed=3, scene_idx=1)
        large = label_budget_indices(500, 80, seed=3, scene_idx=1)
        assert set(small.tolist()) <= set(large.tolist())
        assert small.size == 20 and large.size == 80

    def test_budget_above_n_keeps_all(self):
        idx = label_budget_indices(10, 50, seed=0, scene_idx=0)
        np.testing.assert_array_equal(idx, np.arange(10))

    def test_deterministic(self):
        a = label_budget_indices(300, 40, seed=9, scene_idx=2)
        b = label_budget_indices(300, 40, seed=9, scene_idx=2)
        np.testing.assert_array_equal(a, b)


class TestExtractFeatures:
    def test_param_leaves_without_adapters_record_no_tape(self, dataset, monkeypatch):
        enc_cfg = tiny_enc()
        params = init_params(enc_cfg, seed=0)  # T.param leaves
        recorded = []
        real_record = T._record

        def counting_record(*args):
            out = real_record(*args)
            if out._vjp is not None:
                recorded.append(out._op)
            return out

        monkeypatch.setattr(T, "_record", counting_record)
        # a tracked forward pass on float32 leaves of the same parameters
        leaves = {k: T.param(p.data.astype(np.float32)) for k, p in params.items()}
        reference = upcast(encode(plain_view(dataset[0]), leaves, enc_cfg), 4, None).data
        assert recorded
        recorded.clear()
        feats = extract_features(dataset[0], params, enc_cfg, 4)
        assert recorded == []
        assert feats.dtype == np.float32
        np.testing.assert_array_equal(feats, reference)


def softmax_head_epoch(head, feats, targets, state, cfg):
    """One full-batch AdamW step of a float64 softmax head on constant
    float32 ``feats``: forward and backward on float32 leaves of the head,
    the step on their gradients upcast to float64."""
    leaves = {k: T.param(p.data.astype(np.float32)) for k, p in head.items()}
    weights = (targets / targets.shape[0]).astype(np.float32)
    T.backward(T.op_linear_softmax_xent(feats, leaves["head.w"], leaves["head.b"],
                                        weights, 1.0))
    grads = {k: p.grad.astype(np.float64) for k, p in leaves.items()}
    adamw_step(head, grads, state, cfg.lr, {})


def linear_probe_oracle(train_scenes, num_classes, cfg):
    """The training half of ``linear_probe`` written out plainly:
    fancy-indexed copies of every scene cast to float32, out-of-place
    float32 standardization by float64 statistics, and a loop of
    ``softmax_head_epoch``. Returns (weight, bias, mu, sd)."""
    xs, ys = [], []
    for i, (feats, labels) in enumerate(train_scenes):
        keep = label_budget_indices(feats.shape[0], cfg.label_budget, cfg.seed, i)
        keep = keep[labels[keep] >= 0]
        xs.append(feats[keep])
        ys.append(labels[keep])
    x = np.concatenate(xs, axis=0).astype(np.float32)
    y = np.concatenate(ys, axis=0)
    x64 = x.astype(np.float64)
    mu, sd = x64.mean(axis=0), np.maximum(x64.std(axis=0), 1e-8)
    x = (x - mu.astype(np.float32)) * (1.0 / sd).astype(np.float32)
    head = {"head.w": T.param(np.zeros((x.shape[1], num_classes))),
            "head.b": T.param(np.zeros(num_classes))}
    state = AdamState.init(head)
    for _epoch in range(cfg.epochs):
        softmax_head_epoch(head, T.Tensor(x), _one_hot(y, num_classes), state, cfg)
    return head["head.w"].data, head["head.b"].data, mu, sd


def probe_scenes(seed, unlabeled):
    rng = np.random.default_rng(seed)
    scenes = []
    for n in (300, 200):
        y = rng.integers(0, 3, size=n)
        x = rng.normal(size=(n, 5)) * [1.0, 10.0, 0.01, 3.0, 1.0] + y[:, None] + 5.0
        if unlabeled:
            y[rng.random(n) < 0.2] = -1
        scenes.append((x, y))
    return scenes


class TestLinearProbe:
    @pytest.mark.parametrize("field", ["lr", "lora_lr"])
    def test_negative_rate_rejected(self, field):
        # AdamW at a negative rate climbs the loss
        with pytest.raises(ValueError, match=f"{field} must be non-negative"):
            ProbeConfig(**{field: -1e-3})
        ProbeConfig(**{field: 0.0})

    @pytest.mark.parametrize("field", ["lr", "lora_lr"])
    def test_nan_rate_rejected(self, field):
        # with a NaN rate the head's gradient turns non-finite at epoch 2
        with pytest.raises(ValueError, match=f"{field} must be non-negative"):
            ProbeConfig(**{field: float("nan")})

    @pytest.mark.parametrize("field", ["lr", "lora_lr"])
    def test_infinite_rate_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be non-negative and finite"):
            ProbeConfig(**{field: float("inf")})

    @pytest.mark.parametrize("budget,unlabeled,num_scenes", [
        (None, False, 2), (None, False, 1), (120, True, 2)],
        ids=["keep_all", "one_scene", "budget_and_unlabeled"])
    def test_bit_equal_to_old_formula_and_inputs_untouched(self, budget, unlabeled,
                                                           num_scenes):
        scenes = probe_scenes(9, unlabeled)[:num_scenes]
        before = [(x.copy(), y.copy()) for x, y in scenes]
        cfg = ProbeConfig(epochs=6, lr=0.05, label_budget=budget, seed=3)
        res = linear_probe(scenes, scenes[:1], 3, cfg)
        for (x, y), (x0, y0) in zip(scenes, before):
            np.testing.assert_array_equal(x, x0)
            np.testing.assert_array_equal(y, y0)
        weight, bias, mu, sd = linear_probe_oracle(before, 3, cfg)
        np.testing.assert_array_equal(res.weight, weight)
        np.testing.assert_array_equal(res.bias, bias)
        np.testing.assert_array_equal(res.train_mu, mu)
        np.testing.assert_array_equal(res.train_sd, sd)

    def test_statistics_accumulate_in_float64(self):
        # a large offset: float32 running sums of 30,000 rows miss by ~1e-4
        rng = np.random.default_rng(5)
        n = 30_000
        x = (1000.0 + rng.normal(size=(n, 3)) * [1.0, 0.05, 30.0]).astype(np.float32)
        y = rng.integers(0, 2, size=n)
        res = linear_probe([(x, y)], [(x[:10], y[:10])], 2, ProbeConfig(epochs=0))
        x64 = x.astype(np.float64)
        np.testing.assert_allclose(res.train_mu, x64.mean(axis=0), rtol=1e-12, atol=0)
        np.testing.assert_allclose(res.train_sd, x64.std(axis=0), rtol=1e-12, atol=0)

    def test_separable_features_high_accuracy(self):
        rng = np.random.default_rng(1)
        centers = np.eye(3) * 8
        scenes = []
        for _ in range(2):
            y = rng.integers(0, 3, size=400)
            x = centers[y] + rng.normal(size=(400, 3)) * 0.2
            scenes.append((x, y))
        res = linear_probe([scenes[0]], [scenes[1]], 3,
                           ProbeConfig(epochs=120, lr=0.05))
        assert res.metrics.allacc >= 0.99

    def test_constant_features_collapse_to_majority(self):
        rng = np.random.default_rng(2)
        y_tr = rng.choice([0, 1], size=1000, p=[0.7, 0.3])
        y_ev = rng.choice([0, 1], size=1000, p=[0.7, 0.3])
        x = np.ones((1000, 4))
        res = linear_probe([(x, y_tr)], [(x, y_ev)], 2,
                           ProbeConfig(epochs=40, lr=0.05))
        majority = max(np.mean(y_ev == 0), np.mean(y_ev == 1))
        assert abs(res.metrics.allacc - majority) <= 0.01

    def test_missing_train_class_flagged(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 4))
        y = rng.integers(0, 2, size=100)  # class 2 never seen
        res = linear_probe([(x, y)], [(x, np.full(100, 2))], 3,
                           ProbeConfig(epochs=5))
        assert res.missing_train_classes == [2]
        assert np.isfinite(res.metrics.allacc)

    def test_training_label_at_num_classes_names_the_scene(self):
        scenes = probe_scenes(4, False)
        scenes[1][1][7] = 3
        with pytest.raises(ProbeError, match="training scene 1: label 3 "):
            linear_probe(scenes, scenes[:1], 3, ProbeConfig(epochs=1))

    def test_eval_label_at_num_classes_names_the_scene(self):
        scenes = probe_scenes(4, False)
        scenes[1][1][5] = 9
        with pytest.raises(ProbeError, match="eval scene 1: label 9 "):
            linear_probe(scenes[:1], scenes, 3, ProbeConfig(epochs=1))

    @pytest.mark.parametrize("role", ["training", "evaluation"])
    def test_scene_without_labels_rejected(self, role):
        scenes = probe_scenes(4, False)
        bare = [scenes[0], (scenes[1][0], None)]
        train, evals = (bare, scenes) if role == "training" else (scenes, bare)
        with pytest.raises(ProbeError, match=f"{role} scene 1 has no labels"):
            linear_probe(train, evals, 3, ProbeConfig(epochs=1))

    def test_no_training_scene_rejected(self):
        with pytest.raises(ProbeError, match="at least one training scene"):
            linear_probe([], probe_scenes(1, False), 3, ProbeConfig(epochs=1))

    def test_no_evaluation_scene_rejected_before_fitting(self, monkeypatch):
        # an empty evaluation list once failed after the fit, in numpy's
        # concatenation of no predictions
        fits = []
        monkeypatch.setattr(probes, "_fit", lambda *a: fits.append(a))
        with pytest.raises(ProbeError, match="linear probe needs at least one evaluation scene"):
            linear_probe(probe_scenes(1, False), [], 3, ProbeConfig(epochs=1))
        assert not fits

    @pytest.mark.parametrize("role", ["training", "evaluation"])
    def test_scene_of_another_width_rejected_before_fitting(self, role, monkeypatch):
        scenes = probe_scenes(4, False)
        narrow = [scenes[0], (scenes[1][0][:, :3], scenes[1][1])]
        train, evals = (narrow, scenes) if role == "training" else (scenes, narrow)
        fits = []
        monkeypatch.setattr(probes, "_fit", lambda *a: fits.append(a))
        with pytest.raises(ProbeError, match=f"{role} scene 1: features are 3 wide, "
                                             "training scene 0's are 5"):
            linear_probe(train, evals, 3, ProbeConfig(epochs=1))
        assert not fits

    @pytest.mark.parametrize("role,rows", [("training", 150), ("training", 50),
                                           ("evaluation", 80)])
    def test_feature_rows_other_than_labels_rejected_before_fitting(self, role, rows,
                                                                   monkeypatch):
        # more training rows once fitted silently on misaligned rows, fewer
        # failed in the row selection and an evaluation mismatch in
        # compute_metrics, none naming the scene
        rng = np.random.default_rng(6)
        good = (rng.normal(size=(100, 5)), rng.integers(0, 3, size=100))
        bad = (rng.normal(size=(rows, 5)), rng.integers(0, 3, size=100))
        train, evals = ([good, bad], [good]) if role == "training" else ([good], [good, bad])
        fits = []
        monkeypatch.setattr(probes, "_fit", lambda *a: fits.append(a))
        with pytest.raises(ProbeError, match=f"{role} scene 1: {rows} feature rows for "
                                             "100 labels"):
            linear_probe(train, evals, 3, ProbeConfig(epochs=1))
        assert not fits

    def test_probe_does_not_touch_encoder(self, dataset):
        enc_cfg = tiny_enc()
        params = init_params(enc_cfg, seed=0)
        before = {k: v.data.copy() for k, v in params.items()}
        feats = [(extract_features(s, params, enc_cfg, 4), s.cloud.labels)
                 for s in dataset]
        linear_probe(feats[:2], feats[2:], 4, ProbeConfig(epochs=3))
        for k, v in params.items():
            np.testing.assert_array_equal(v.data, before[k])
            assert v.grad is None


class TestBlockedHelpers:
    """The probes' row-blocked statistics and evaluation against the
    whole-array arithmetic they replace, on inputs of several blocks."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_standardize_fit_matches_whole_array_statistics(self, dtype):
        rng = np.random.default_rng(8)
        d = 37
        n = 3 * T.block_rows(d, np.float64) + 5
        x = (50.0 + rng.normal(size=(n, d)) * rng.uniform(0.01, 20.0, size=d)).astype(dtype)
        x[:, 4] = 7.0  # a constant column takes the floor
        mu, sd = _standardize_fit(x)
        x64 = x.astype(np.float64)
        np.testing.assert_allclose(mu, x64.mean(axis=0), rtol=1e-12, atol=0)
        want = np.maximum(x64.std(axis=0), 1e-8)
        np.testing.assert_allclose(sd, want, rtol=1e-12, atol=0)
        assert sd[4] == 1e-8

    @pytest.mark.parametrize("n_blocks", [0, 1, 3])
    def test_evaluate_predicts_as_the_whole_array_arithmetic(self, n_blocks):
        # labels are the unblocked argmax, so every blocked prediction must
        # equal it for an accuracy of exactly 1
        rng = np.random.default_rng(n_blocks)
        d, k = 40, 7
        n = n_blocks * T.gemm_block_rows(d, k, np.float32) + 1
        feats = rng.normal(size=(n, d)).astype(np.float32)
        head = {"head.w": T.param(rng.normal(size=(d, k))),
                "head.b": T.param(rng.normal(size=k))}
        mu, sd = rng.normal(size=d), rng.uniform(0.5, 2.0, size=d)
        shift, scale = mu.astype(np.float32), (1.0 / sd).astype(np.float32)
        logits = ((feats - shift) * scale @ head["head.w"].data.astype(np.float32)
                  + head["head.b"].data.astype(np.float32))
        metrics = _evaluate(head, [(feats, logits.argmax(axis=1))], mu, sd, k)
        assert metrics.allacc == 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_pass_moments_match_a_two_pass_oracle_on_offset_data(self, dtype):
        # mean 1e4, sd 1e-2: a one-pass raw sum of squares would lose every
        # digit; merging centred block sums keeps 1e-12
        rng = np.random.default_rng(12)
        d = 9
        rows = T.block_rows(d, np.float64)
        x = (1e4 + rng.normal(size=(3 * rows + 17, d)) * 1e-2).astype(dtype)
        mu, sd = _moments(x.__getitem__, T.row_blocks(x.shape[0], rows))
        x64 = x.astype(np.float64)
        want_mu = x64.mean(axis=0)
        want_sd = np.sqrt(((x64 - want_mu) ** 2).mean(axis=0))
        np.testing.assert_allclose(mu, want_mu, rtol=1e-12, atol=0)
        np.testing.assert_allclose(sd, want_sd, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("budget", [None, 4000], ids=["keep_all", "budget"])
    def test_linear_probe_blocks_span_scenes(self, budget, monkeypatch):
        # three scenes whose kept rows straddle the statistics' row blocks:
        # offset-heavy statistics within 1e-12 of the two-pass oracle, and a
        # training copy bit-equal to standardizing the concatenation whole
        rng = np.random.default_rng(14)
        d = 200
        assert T.block_rows(d, np.float64) < 2000
        scenes = []
        for n in (3000, 4500, 5000):
            y = rng.integers(-1, 3, size=n)
            scenes.append(((1e4 + rng.normal(size=(n, d)) * 1e-2 + y[:, None] * 1e-3), y))
        seen = []
        real = probes._head_loss
        monkeypatch.setattr(probes, "_head_loss",
                            lambda h, feats, w: seen.append(feats.data) or real(h, feats, w))
        cfg = ProbeConfig(epochs=1, label_budget=budget, seed=2)
        res = linear_probe(scenes, scenes[:1], 3, cfg)
        keeps = [label_budget_indices(f.shape[0], budget, cfg.seed, i)
                 for i, (f, _y) in enumerate(scenes)]
        x = np.concatenate([f[k[y[k] >= 0]] for (f, y), k in zip(scenes, keeps)]
                           ).astype(np.float32)
        x64 = x.astype(np.float64)
        want_mu = x64.mean(axis=0)
        np.testing.assert_allclose(res.train_mu, want_mu, rtol=1e-12, atol=0)
        np.testing.assert_allclose(res.train_sd, np.sqrt(((x64 - want_mu) ** 2).mean(axis=0)),
                                   rtol=1e-12, atol=0)
        shift = res.train_mu.astype(np.float32)
        scale = (1.0 / res.train_sd).astype(np.float32)
        np.testing.assert_array_equal(seen[0], (x - shift) * scale)


class TestLoraProbe:
    @pytest.mark.parametrize("rank", [0, -1])
    def test_rank_below_one_rejected(self, rank):
        with pytest.raises(ValueError, match="lora_rank must be at least 1"):
            ProbeConfig(lora_rank=rank)

    @pytest.mark.parametrize("role", ["training", "evaluation"])
    def test_scene_without_labels_rejected(self, dataset, role):
        s = dataset[0]
        bare = SceneSample(cloud=PointCloud(coords=s.cloud.coords, colors=s.cloud.colors),
                           views=s.views, scene_id="bare_scene")
        train, evals = ([bare], dataset[1:2]) if role == "training" else (dataset[1:2], [bare])
        with pytest.raises(ProbeError, match=f"{role} scene bare_scene has no labels"):
            lora_probe(train, evals, init_params(tiny_enc(), seed=3), tiny_enc(), 4,
                       ProbeConfig(epochs=1))

    @pytest.mark.parametrize("role", ["training", "evaluation"])
    def test_empty_scene_list_rejected(self, dataset, role):
        train, evals = ([], dataset[:1]) if role == "training" else (dataset[:1], [])
        with pytest.raises(ProbeError, match=f"lora probe needs at least one {role} scene"):
            lora_probe(train, evals, init_params(tiny_enc(), seed=3), tiny_enc(), 4,
                       ProbeConfig(epochs=1))

    def test_zero_adapter_lr_equals_linear_probe(self, dataset):
        enc_cfg = tiny_enc()
        params = init_params(enc_cfg, seed=4)
        cfg = ProbeConfig(epochs=4, lr=0.01, lora_lr=0.0, seed=7)
        feats = [(extract_features(s, params, enc_cfg, enc_cfg.num_pool_steps), s.cloud.labels)
                 for s in dataset]
        lin = linear_probe(feats[:2], feats[2:], 4,
                           ProbeConfig(epochs=4, lr=0.01, seed=7))
        lora = lora_probe(dataset[:2], dataset[2:], params, enc_cfg, 4, cfg)
        assert lora.metrics.miou == lin.metrics.miou
        assert lora.metrics.allacc == lin.metrics.allacc
        np.testing.assert_array_equal(lora.weight, lin.weight)
        np.testing.assert_array_equal(lora.bias, lin.bias)
        np.testing.assert_array_equal(lora.train_mu, lin.train_mu)
        np.testing.assert_array_equal(lora.train_sd, lin.train_sd)

    def test_learnable_param_count_formula_and_budget(self, dataset):
        enc_cfg = tiny_enc()
        params = init_params(enc_cfg, seed=5)
        cfg = ProbeConfig(epochs=1, lora_rank=4)
        res = lora_probe(dataset[:1], dataset[1:2], params, enc_cfg, 4, cfg)
        expect = 0
        for name, p in params.items():
            if p.data.ndim == 2 and name.startswith("stage") and name.endswith(".w") \
                    and min(p.data.shape) >= 4:
                d_in, d_out = p.data.shape
                expect += 4 * (d_in + d_out)
        expect += enc_cfg.upcast_dim(4) * 4 + 4
        assert res.params_learnable == expect
        assert res.params_learnable < 0.35 * sum(p.size for p in params.values())

    def test_adapters_actually_train(self, dataset):
        enc_cfg = tiny_enc()
        params = init_params(enc_cfg, seed=6)
        cfg = ProbeConfig(epochs=2, lr=0.01)
        res = lora_probe(dataset[:1], dataset[1:2], params, enc_cfg, 4, cfg)
        moved = [np.abs(t.data).max() for k, t in res.adapters.items() if k.endswith(".b")]
        assert max(moved) > 0

    def test_adapters_train_at_their_rate_when_the_head_rate_is_zero(self, dataset,
                                                                       monkeypatch):
        # a zero head passes no gradient back to the adapters, so start the
        # head at random values; at head rate 0 it must keep them
        start = {"head.w": np.random.default_rng(24).normal(size=(tiny_enc().upcast_dim(4), 4)),
                 "head.b": np.random.default_rng(25).normal(size=4)}
        monkeypatch.setattr(probes, "_zero_head",
                            lambda dim, k: {n: T.param(a.copy()) for n, a in start.items()})
        res = lora_probe(dataset[:1], dataset[1:2], init_params(tiny_enc(), seed=6), tiny_enc(),
                         4, ProbeConfig(epochs=2, lr=0.0, lora_lr=0.01))
        moved = [np.abs(t.data).max() for k, t in res.adapters.items() if k.endswith(".b")]
        assert max(moved) > 0
        np.testing.assert_array_equal(res.weight, start["head.w"])
        np.testing.assert_array_equal(res.bias, start["head.b"])

    def test_merges_at_alpha_over_rank(self, dataset, monkeypatch):
        scalings = []
        real = probes.lora_weights

        def spy(params, factors, scaling):
            scalings.append(scaling)
            return real(params, factors, scaling)

        monkeypatch.setattr(probes, "lora_weights", spy)
        lora_probe(dataset[:1], dataset[1:2], init_params(tiny_enc(), seed=3), tiny_enc(), 4,
                   ProbeConfig(epochs=1, lora_rank=4))
        # one merge per epoch, one for the final features
        assert scalings == [probes.LORA_ALPHA / 4] * 2


def test_linear_and_lora_probes_compute_in_float32(dataset, monkeypatch):
    """Every tape node and cotangent of both probes is float32; the heads,
    the adapters and the standardization statistics they return are float64."""
    enc_cfg = tiny_enc()
    params = init_params(enc_cfg, seed=2)
    feats = [(extract_features(s, params, enc_cfg, enc_cfg.num_pool_steps).astype(np.float32),
              s.cloud.labels) for s in dataset]
    dtypes = record_tape_dtypes(monkeypatch)
    lin = linear_probe(feats[:2], feats[2:], 4, ProbeConfig(epochs=2, lr=0.01))
    lora = lora_probe(dataset[:2], dataset[2:], params, enc_cfg, 4,
                      ProbeConfig(epochs=2, lr=0.01, lora_rank=4))
    assert dtypes == {"node": {np.dtype(np.float32)}, "cotangent": {np.dtype(np.float32)}}
    state = [a for res in (lin, lora) for a in (res.weight, res.bias, res.train_mu, res.train_sd)]
    state += [t.data for t in lora.adapters.values()]
    assert {a.dtype for a in state} == {np.dtype(np.float64)}


def test_row_block_workers_call_no_traced_name(dataset, monkeypatch):
    """The probes' row blocks, the fused cross-entropy's narrow pass and the
    upcast's fill among them, run on ``T.map_blocks``' pool, while every
    ``T.op_*``, ``segment_sum_np`` and ``scatter_add_rows`` call of feature
    extraction, a tracked cross loss and its backward, and a linear, a lora
    and a language probe comes from the main thread: a tracer wraps those
    names and keeps one span stack."""
    enc_cfg = tiny_enc()
    d = enc_cfg.upcast_dim(enc_cfg.num_pool_steps)
    assert T.gemm_block_rows(d, 4, np.float32) * d * 4 <= T._SMALL_GEMM  # the narrow pass
    params = init_params(enc_cfg, seed=5)
    callers, workers = [], set()

    def on_main(name, fn):
        def wrapper(*args, **kwargs):
            callers.append((name, threading.current_thread() is threading.main_thread()))
            return fn(*args, **kwargs)
        return wrapper

    for name in [n for n in vars(T) if n.startswith("op_")] + ["segment_sum_np",
                                                               "scatter_add_rows"]:
        monkeypatch.setattr(T, name, on_main(name, getattr(T, name)))
    real_map = T.map_blocks

    def spy_map(fn, blocks):
        return real_map(lambda blk: workers.add(threading.current_thread()) or fn(blk), blocks)

    monkeypatch.setattr(T, "map_blocks", spy_map)
    feats = [(extract_features(s, params, enc_cfg, enc_cfg.num_pool_steps), s.cloud.labels)
             for s in dataset]
    scene = dataset[0]
    loss, _, _ = cross_loss(encode(plain_view(scene), params, enc_cfg),
                            build_correspondence(scene.cloud.coords, scene.views),
                            [v.flat_feature_grid() for v in scene.views], params)
    T.backward(loss)
    assert params["cross.w"].grad is not None
    linear_probe(feats[:2], feats[2:], 4, ProbeConfig(epochs=2))
    lora_probe(dataset[:2], dataset[2:], params, enc_cfg, 4, ProbeConfig(epochs=2, lora_rank=2))
    f = feats[0][0]
    language_probe([(f, f[:, :3] + 1.0, np.ones(len(f), dtype=bool))], ProbeConfig())
    assert workers and threading.main_thread() not in workers
    for name in ("op_linear_softmax_xent", "op_gather_concat", "scatter_add_rows"):
        assert (name, True) in callers
    assert all(on_main for _name, on_main in callers), [c for c in callers if not c[1]]


def _mean_cosine(x, w, t):
    """Mean row cosine of ``x @ w`` against ``t``, recomputed in numpy."""
    y = x @ w
    return np.mean((y * t).sum(axis=1)
                   / np.maximum(np.linalg.norm(y, axis=1) * np.linalg.norm(t, axis=1), 1e-12))


def _noisy_linear(seed=0):
    """Well-conditioned 400 x 8 normal features, linear targets plus noise
    of standard deviation 2."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(400, 8))
    return x, x @ rng.normal(size=(8, 4)) + 2.0 * rng.normal(size=(400, 4))


class TestLanguageProbe:
    def test_float32_inputs_fit_as_their_float64_upcast(self):
        rng = np.random.default_rng(13)
        # nearly collinear columns, so the least-squares map is ill-conditioned
        x = rng.normal(size=(120, 6)) @ np.diag([1.0, 1.0, 1.0, 1.0, 1e-3, 1e-5])
        x = (x @ rng.normal(size=(6, 10))).astype(np.float32)
        t = rng.normal(size=(120, 4)).astype(np.float32)
        valid = rng.random(120) < 0.9
        w32, cos32 = language_probe([(x, t, valid)], ProbeConfig())
        w64, cos64 = language_probe([(x.astype(np.float64), t.astype(np.float64), valid)],
                                    ProbeConfig())
        assert w32.dtype == np.float64
        np.testing.assert_array_equal(w32, w64)
        assert cos32 == cos64

    def test_returned_cosine_is_that_of_the_returned_map(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(120, 6)) @ np.diag([1.0, 1.0, 1.0, 1.0, 1e-3, 1e-5])
        x = x @ rng.normal(size=(6, 10))
        t = rng.normal(size=(120, 4))
        valid = rng.random(120) < 0.9
        w, cos = language_probe([(x, t, valid)], ProbeConfig())
        assert abs(cos - _mean_cosine(x[valid], w, t[valid])) <= 1e-12

    def test_returns_the_ridge_map_and_its_cosine_for_any_config(self):
        x, t = _noisy_linear()
        scenes = [(x, t, np.ones(400, dtype=bool))]
        w, cos = language_probe(scenes, ProbeConfig(epochs=0))
        ref = _ridge_oracle(x, t)
        assert np.linalg.norm(w - ref) <= 1e-12 * np.linalg.norm(ref)
        assert cos > 0.5
        assert abs(cos - _mean_cosine(x, w, t)) <= 1e-12
        w50, cos50 = language_probe(scenes, ProbeConfig(epochs=50, lr=0.05))
        np.testing.assert_array_equal(w50, w)
        assert cos50 == cos

    def test_records_no_tape_and_runs_no_optimizer(self, monkeypatch):
        x, t = _noisy_linear()

        def refuse(*_args, **_kw):
            raise AssertionError("the language probe is a solve, not a fit on the tape")

        monkeypatch.setattr(T, "param", refuse)
        monkeypatch.setattr(T, "backward", refuse)
        monkeypatch.setattr(probes, "adamw_step", refuse)
        _w, cos = language_probe([(x, t, np.ones(400, dtype=bool))], ProbeConfig())
        assert cos > 0.5

    def test_realizable_targets_fit_to_high_cosine(self, dataset):
        enc_cfg = tiny_enc()
        params = init_params(enc_cfg, seed=8)
        rng = np.random.default_rng(8)
        w_true = rng.normal(size=(enc_cfg.upcast_dim(4), 6))
        scenes = []
        for s in dataset:
            f = extract_features(s, params, enc_cfg, 4)
            scenes.append((f, f @ w_true, np.ones(f.shape[0], dtype=bool)))
        w, cos = language_probe(scenes, ProbeConfig())
        assert cos >= 0.999

    def test_empty_scene_list_rejected(self):
        with pytest.raises(ProbeError, match="language probe needs at least one training scene"):
            language_probe([], ProbeConfig())

    def test_zero_targets_rejected(self):
        x = np.random.default_rng(9).normal(size=(50, 8))
        with pytest.raises(ProbeError, match="degenerate"):
            language_probe([(x, np.zeros((50, 4)), np.ones(50, dtype=bool))],
                           ProbeConfig())

    def test_shuffled_pairs_destroy_fit(self, dataset):
        # centered features give direction-diverse targets, so a shuffled
        # pairing leaves no constant direction to exploit
        enc_cfg = tiny_enc()
        params = init_params(enc_cfg, seed=10)
        rng = np.random.default_rng(10)
        # plenty of points per feature dimension, or a linear map can
        # partially fit even a random pairing
        f = np.concatenate([extract_features(s, params, enc_cfg, 4)[:, :20]
                            for s in dataset])
        f = f - f.mean(axis=0)
        t = f @ rng.normal(size=(f.shape[1], 6))
        perm = rng.permutation(f.shape[0])
        ones = np.ones(f.shape[0], bool)
        _, cos_good = language_probe([(f, t, ones)], ProbeConfig())
        _, cos_bad = language_probe([(f, t[perm], ones)], ProbeConfig())
        assert cos_good >= 0.99
        assert cos_bad < 0.2

    def test_non_finite_feature_refused_naming_the_scene(self, capfd):
        x, t = _noisy_linear()
        bad = x.copy()
        bad[7, 2] = np.nan
        ones = np.ones(400, dtype=bool)
        with pytest.raises(ProbeError, match="language probe scene 1: non-finite features"):
            language_probe([(x, t, ones), (bad, t, ones)], ProbeConfig())
        assert capfd.readouterr().err == ""  # refused before LAPACK sees it

    def test_infinite_target_refused_naming_the_scene(self):
        x, t = _noisy_linear()
        bad = t.copy()
        bad[3, 0] = np.inf
        ones = np.ones(400, dtype=bool)
        with pytest.raises(ProbeError, match="language probe scene 1: non-finite targets"):
            language_probe([(x, t, ones), (x, bad, ones)], ProbeConfig())

    @pytest.mark.parametrize("kind, narrow, wide", [("features", 5, 8), ("targets", 3, 4)])
    def test_scene_of_another_width_refused_naming_it(self, kind, narrow, wide):
        x, t = _noisy_linear()
        short = (x[:, :narrow], t) if kind == "features" else (x, t[:, :narrow])
        ones = np.ones(400, dtype=bool)
        with pytest.raises(ProbeError, match=f"language probe scene 2: {kind} are {narrow} "
                                             f"wide, scene 0's are {wide}"):
            language_probe([(x, t, ones), (x, t, ones), (*short, ones)], ProbeConfig())

    @pytest.mark.parametrize("kind", ["targets", "mask"])
    def test_rows_of_another_length_refused_naming_the_scene(self, kind):
        # a mask or targets shorter than the features once failed in numpy's
        # boolean index, naming nothing
        x, t = _noisy_linear()
        ones = np.ones(400, dtype=bool)
        short = (x, t[:390], ones) if kind == "targets" else (x, t, ones[:390])
        with pytest.raises(ProbeError, match=f"language probe scene 1: {kind} have 390 rows, "
                                             "features 400"):
            language_probe([(x, t, ones), short], ProbeConfig())

    @pytest.mark.parametrize("later", ["short_mask", "wide_features", "bad_targets"])
    def test_first_offending_scene_is_refused_features_first(self, later):
        # scene 0's non-finite features come before any fault of scene 1,
        # and scene 1's own before its other faults
        x, t = _noisy_linear()
        ones = np.ones(400, dtype=bool)
        bad_x = x.copy()
        bad_x[5, 1] = np.inf
        bad_t = t.copy()
        bad_t[0, 0] = np.nan
        second = {"short_mask": (x, t, ones[:390]),
                  "wide_features": (np.hstack([bad_x, x[:, :1]]), t, ones),
                  "bad_targets": (bad_x, bad_t, ones)}[later]
        with pytest.raises(ProbeError, match="language probe scene 0: non-finite features"):
            language_probe([(bad_x, t, ones), second], ProbeConfig())
        if later != "short_mask":
            with pytest.raises(ProbeError, match="language probe scene 1: non-finite features"):
                language_probe([(x, t, ones), second], ProbeConfig())

    def test_excludes_invalid_points(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(60, 5))
        t = x @ rng.normal(size=(5, 3))
        valid = np.zeros(60, dtype=bool)
        valid[:30] = True
        t[30:] = 1e6  # junk that must not affect the fit
        x[30:, 0] = np.nan  # nor be refused
        _, cos = language_probe([(x, t, valid)], ProbeConfig())
        assert cos >= 0.99


def _graded_columns(m, n, smallest, seed):
    """An m x n matrix with singular values spaced evenly in log from 1 down
    to ``smallest``, and random singular vectors."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(m, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (u * np.logspace(0, np.log10(smallest), n)) @ v.T


def _ridge_oracle(x, t):
    """The ridge map from the SVD x = U diag(s) V^T: V diag(s / (s^2 + lam))
    U^T t, with lam = ``probes._RIDGE`` * sum(s^2) / d."""
    u, sv, vt = np.linalg.svd(x, full_matrices=False)
    lam = probes._RIDGE * (sv ** 2).sum() / x.shape[1]
    return vt.T @ ((sv / (sv ** 2 + lam))[:, None] * (u.T @ t))


class TestRidge:
    """The language probe's ridge map against its SVD oracle, and what the
    ridge buys: a cosine that does not amplify rounding."""

    @staticmethod
    def solve(x, t):
        """The map and cosine ``language_probe`` returns."""
        return language_probe([(x, t, np.ones(len(x), dtype=bool))], ProbeConfig())

    @pytest.mark.parametrize("case", ["graded_1e-6", "graded_1e-9", "wide", "duplicated_column"])
    def test_matches_the_svd_oracle(self, case):
        # wide and rank-deficient inputs take the same solve as the rest
        rng = np.random.default_rng(23)
        if case == "wide":
            x = rng.normal(size=(6, 10))
        elif case == "duplicated_column":
            x = rng.normal(size=(50, 6))
            x[:, 4] = x[:, 1]
        else:
            x = _graded_columns(300, 40, float(case.split("_")[1]), seed=21)
        t = x @ rng.normal(size=(x.shape[1], 5))
        t += 0.1 * np.abs(t).mean() * rng.normal(size=t.shape)
        ref = _ridge_oracle(x, t)
        w, cos = self.solve(x, t)
        assert np.linalg.norm(w - ref) <= 1e-10 * np.linalg.norm(ref)
        assert abs(cos - _mean_cosine(x, ref, t)) <= 1e-10 * abs(_mean_cosine(x, ref, t))

    @pytest.mark.parametrize("seed", range(5))
    def test_cosine_does_not_amplify_rounding(self, seed):
        # the minimum-norm least-squares map moved this cosine by 4.5e-4 to
        # 8.5e-4 (seeds 0-4); the ridge moves it by less than 1e-7
        x = _graded_columns(600, 60, 1e-7, seed)
        rng = np.random.default_rng(seed + 100)
        t = rng.normal(size=(600, 8))
        rounded = x * (1 + 1e-7 * rng.normal(size=x.shape))
        assert abs(self.solve(rounded, t)[1] - self.solve(x, t)[1]) < 1e-6

    def test_all_zero_features_refused(self):
        x = np.random.default_rng(24).normal(size=(50, 8))
        x[:40] = 0.0
        valid = np.zeros(50, dtype=bool)
        valid[:40] = True  # the non-zero rows are invalid
        t = np.random.default_rng(25).normal(size=(50, 4))
        with pytest.raises(ProbeError, match="degenerate language features: all zero vectors"):
            language_probe([(x, t, valid)], ProbeConfig())

    def test_cosine_does_not_depend_on_the_blas_thread_count(self):
        # each child fits the same float32 features, one with OpenBLAS's
        # default thread count and one with a single thread
        script = textwrap.dedent("""
            import numpy as np
            from concerto.probes import language_probe
            rng = np.random.default_rng(26)
            x = rng.normal(size=(3000, 40)) @ rng.normal(size=(40, 400))
            x = (x + 1e-3 * rng.normal(size=x.shape)).astype(np.float32)
            t = (x[:, :16] + rng.normal(size=(3000, 16))).astype(np.float32)
            print(repr(language_probe([(x, t, np.ones(3000, dtype=bool))], None)[1]))
        """)
        src = str(Path(probes.__file__).resolve().parents[1])
        cosines = []
        for threads in (None, "1"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, timeout=120, check=True)
            cosines.append(float(out.stdout))
        assert abs(cosines[0] - cosines[1]) <= 1e-12 * abs(cosines[0])


class TestZeroShot:
    def space(self, c=4, d=6, seed=0):
        rng = np.random.default_rng(seed)
        e = rng.normal(size=(c, d))
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        return TextSpace(class_embeddings=e)

    def test_exact_embedding_recovered(self):
        sp = self.space()
        labels, _ = zero_shot_segment(sp.class_embeddings[3][None, :], sp)
        assert labels.tolist() == [3]

    def test_tie_goes_to_lowest_index(self):
        e = np.array([[1.0, 0.0], [0.0, 1.0]])
        sp = TextSpace(class_embeddings=e)
        labels, _ = zero_shot_segment(np.array([[1.0, 1.0]]), sp)
        assert labels.tolist() == [0]

    def test_matches_brute_force_argmax(self):
        rng = np.random.default_rng(12)
        sp = self.space(c=5, d=7, seed=13)
        feats = rng.normal(size=(200, 7))
        labels, _ = zero_shot_segment(feats, sp)
        for i in range(200):
            best, best_c = -2.0, -1
            for c in range(5):
                v = feats[i] / np.linalg.norm(feats[i])
                cos = float(v @ sp.class_embeddings[c])
                if cos > best + 1e-15:
                    best, best_c = cos, c
            assert labels[i] == best_c

    def test_scale_invariance(self):
        rng = np.random.default_rng(14)
        sp = self.space(seed=15)
        feats = rng.normal(size=(50, 6))
        l1, _ = zero_shot_segment(feats, sp)
        l2, _ = zero_shot_segment(feats * 37.5, sp)
        np.testing.assert_array_equal(l1, l2)

    def test_metrics_with_gt(self):
        sp = self.space()
        feats = sp.class_embeddings[[0, 1, 2, 3, 0]]
        labels, m = zero_shot_segment(feats, sp, gt=np.array([0, 1, 2, 3, 0]))
        assert m.miou == 1.0

    def test_non_unit_embeddings_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            TextSpace(class_embeddings=np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_embedding_rejected(self, bad):
        rows = np.eye(3)
        rows[1, 2] = bad
        with pytest.raises(ValueError, match="finite unit rows"):
            TextSpace(class_embeddings=rows)


class TestLiftedFeatures:
    def test_visible_points_get_patch_means(self, dataset):
        s = dataset[0]
        lifted, valid = lift_patch_features_to_points(s)
        assert valid.any()
        assert lifted.shape == (s.cloud.num_points, 8)
        # invisible points are exactly zero
        assert np.abs(lifted[~valid]).max() == 0.0

    def test_matches_per_view_loop_oracle(self, dataset):
        s = dataset[2]
        n = s.cloud.num_points
        sums, counts = np.zeros((n, 8)), np.zeros(n)
        for cam in s.views:
            mask, ix, iy = visible_mask(s.cloud.coords, cam)
            for i in np.flatnonzero(mask):
                sums[i] += cam.feature_grid[iy[i] // cam.patch_size, ix[i] // cam.patch_size]
                counts[i] += 1
        lifted, valid = lift_patch_features_to_points(s)
        np.testing.assert_array_equal(valid, counts > 0)
        np.testing.assert_allclose(lifted, sums / np.maximum(counts, 1)[:, None], atol=1e-12)

    def test_scene_without_views_rejected_naming_it(self, dataset):
        bare = SceneSample(cloud=dataset[0].cloud, views=[], scene_id="bare")
        with pytest.raises(ProbeError, match="scene bare has no views"):
            lift_patch_features_to_points(bare)

    def test_view_without_feature_grid_rejected_naming_the_scene(self, dataset):
        s = dataset[0]
        views = [s.views[0], dataclasses.replace(s.views[1], feature_grid=None)]
        sample = SceneSample(cloud=s.cloud, views=views, scene_id="gridless")
        with pytest.raises(ProbeError, match="scene gridless: view 1 has no feature grid"):
            lift_patch_features_to_points(sample)

    def test_deterministic(self, dataset):
        a, va = lift_patch_features_to_points(dataset[1])
        b, vb = lift_patch_features_to_points(dataset[1])
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(va, vb)
