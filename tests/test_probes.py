import numpy as np
import pytest

from concerto import tensor as T
from concerto.dataio import SyntheticSpec, generate_synthetic
from concerto.encoder import EncoderConfig, encode, init_params, upcast
from concerto.probes import (ProbeConfig, ProbeError, TextSpace, _one_hot,
                             _standardize_fit, compute_metrics,
                             extract_features, label_budget_indices, language_probe,
                             lift_patch_features_to_points, linear_probe, lora_probe,
                             plain_view, zero_shot_segment)
from concerto.trainer import AdamState, adamw_step


def tiny_enc(**kw):
    base = dict(stage_dims=[8, 12, 16, 20, 24], cell_sizes=[0.12, 0.25, 0.5, 1.0],
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
        # the tracked forward pass the features used to come from
        reference = upcast(encode(plain_view(dataset[0]), params, enc_cfg), 4).data
        assert recorded
        recorded.clear()
        feats = extract_features(dataset[0], params, enc_cfg, 4)
        assert recorded == []
        np.testing.assert_array_equal(feats, reference)


def softmax_head_epoch(head, feats, targets, state, cfg):
    """The former per-epoch step of the linear probe: one full-batch AdamW
    step of a softmax head on constant ``feats``."""
    logits = T.op_add(T.op_matmul(feats, head["head.w"]), head["head.b"])
    T.backward(T.op_softmax_xent(logits, targets / targets.shape[0], 1.0))
    grads = {k: (p.grad if p.grad is not None else np.zeros_like(p.data))
             for k, p in head.items()}
    for p in head.values():
        p.zero_grad()
    adamw_step(head, grads, state, cfg.lr, {})


def linear_probe_oracle(train_scenes, num_classes, cfg):
    """The former training half of ``linear_probe``: fancy-indexed copies of
    every scene, then out-of-place standardization and a loop of
    ``softmax_head_epoch``. Returns (weight, bias, mu, sd)."""
    xs, ys = [], []
    for i, (feats, labels) in enumerate(train_scenes):
        keep = label_budget_indices(feats.shape[0], cfg.label_budget, cfg.seed, i)
        keep = keep[labels[keep] >= 0]
        xs.append(feats[keep])
        ys.append(labels[keep])
    x = np.concatenate(xs, axis=0)
    y = np.concatenate(ys, axis=0)
    mu, sd = _standardize_fit(x) if cfg.standardize else (0.0, 1.0)
    xn = (x - mu) * (1.0 / sd)
    head = {"head.w": T.param(np.zeros((x.shape[1], num_classes))),
            "head.b": T.param(np.zeros(num_classes))}
    state = AdamState.init(head)
    for _epoch in range(cfg.epochs):
        softmax_head_epoch(head, T.Tensor(xn), _one_hot(y, num_classes), state, cfg)
    return head["head.w"].data, head["head.b"].data, np.asarray(mu), np.asarray(sd)


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
    @pytest.mark.parametrize("budget,unlabeled,standardize,num_scenes", [
        (None, False, True, 2), (None, False, True, 1), (120, True, True, 2),
        (None, False, False, 2)],
        ids=["keep_all", "one_scene", "budget_and_unlabeled", "no_standardize"])
    def test_bit_equal_to_old_formula_and_inputs_untouched(self, budget, unlabeled,
                                                           standardize, num_scenes):
        scenes = probe_scenes(9, unlabeled)[:num_scenes]
        before = [(x.copy(), y.copy()) for x, y in scenes]
        cfg = ProbeConfig(epochs=6, lr=0.05, label_budget=budget, seed=3,
                          standardize=standardize)
        res = linear_probe(scenes, scenes[:1], 3, cfg)
        for (x, y), (x0, y0) in zip(scenes, before):
            np.testing.assert_array_equal(x, x0)
            np.testing.assert_array_equal(y, y0)
        weight, bias, mu, sd = linear_probe_oracle(before, 3, cfg)
        np.testing.assert_array_equal(res.weight, weight)
        np.testing.assert_array_equal(res.bias, bias)
        np.testing.assert_array_equal(res.train_mu, mu)
        np.testing.assert_array_equal(res.train_sd, sd)

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


class TestLoraProbe:
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
        moved = [np.abs(a.b.data).max() for a in res.adapters.values()]
        assert max(moved) > 0


class TestLanguageProbe:
    def test_realizable_targets_fit_to_high_cosine(self, dataset):
        enc_cfg = tiny_enc()
        params = init_params(enc_cfg, seed=8)
        rng = np.random.default_rng(8)
        w_true = rng.normal(size=(enc_cfg.upcast_dim(4), 6))
        scenes = []
        for s in dataset:
            f = extract_features(s, params, enc_cfg, 4)
            scenes.append((f, f @ w_true, np.ones(f.shape[0], dtype=bool)))
        w, cos = language_probe(scenes, ProbeConfig(epochs=300, lr=0.05))
        assert cos >= 0.999

    def test_zero_targets_rejected(self):
        x = np.random.default_rng(9).normal(size=(50, 8))
        with pytest.raises(ProbeError, match="degenerate"):
            language_probe([(x, np.zeros((50, 4)), np.ones(50, dtype=bool))],
                           ProbeConfig(epochs=1))

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
        _, cos_good = language_probe([(f, t, ones)], ProbeConfig(epochs=200, lr=0.05))
        _, cos_bad = language_probe([(f, t[perm], ones)], ProbeConfig(epochs=200, lr=0.05))
        assert cos_good >= 0.99
        assert cos_bad < 0.2

    def test_excludes_invalid_points(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(60, 5))
        t = x @ rng.normal(size=(5, 3))
        valid = np.zeros(60, dtype=bool)
        valid[:30] = True
        t[30:] = 1e6  # junk that must not affect the fit
        _, cos = language_probe([(x, t, valid)], ProbeConfig(epochs=200, lr=0.05))
        assert cos >= 0.99


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


class TestLiftedFeatures:
    def test_visible_points_get_patch_means(self, dataset):
        s = dataset[0]
        lifted, valid = lift_patch_features_to_points(s)
        assert valid.any()
        assert lifted.shape == (s.cloud.num_points, 8)
        # invisible points are exactly zero
        assert np.abs(lifted[~valid]).max() == 0.0

    def test_deterministic(self, dataset):
        a, va = lift_patch_features_to_points(dataset[1])
        b, vb = lift_patch_features_to_points(dataset[1])
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(va, vb)
