import numpy as np
import pytest

from concerto import tensor as T
from concerto.dataio import SyntheticSpec, generate_synthetic
from concerto.encoder import (EncoderConfig, clone_params, encode, init_params,
                              proj_head, proto_scores, upcast)
from concerto.geometry import build_correspondence
from concerto.objectives import (ClusterLossConfig, LossWeights, assign_patches,
                                 combine, cross_loss, intra_loss)
from concerto.views import AugmentConfig, make_viewset


def tiny_cfg(**kw):
    base = dict(stage_dims=[8, 12, 16, 20, 24], cell_sizes=[0.1, 0.2, 0.4, 0.8],
                proto_count=12, proj_dim=10, cross_dim=8)
    base.update(kw)
    return EncoderConfig(**base)


@pytest.fixture(scope="module")
def scene():
    samples, _ = generate_synthetic(SyntheticSpec(num_scenes=1, points_per_scene=700,
                                                  num_classes=4, image_size=32,
                                                  patch_size=8, feature_dim=8,
                                                  noise_sigma=0.0, seed=9))
    return samples[0]


@pytest.fixture(scope="module")
def encoded(scene):
    cfg = tiny_cfg()
    params = init_params(cfg, seed=1)
    teacher = clone_params(params)
    vs = make_viewset(scene.cloud, AugmentConfig(), seed=2)
    student = [(v, encode(v, params, cfg)) for v in vs.student_views]
    teach = [(v, encode(v, teacher, cfg)) for v in vs.teacher_views]
    return cfg, params, teacher, vs, student, teach


def intra_loss_loop_oracle(student, teacher, params_s, params_t, center, cfg, level):
    """Independent scalar-loop reference for the clustering loss."""
    from concerto.views import match_views
    stage = teacher[0][1].num_stages - 1 - level
    combos = []
    for s_view, s_enc in student:
        feats = upcast(s_enc, level)
        z = proj_head(params_s, feats)
        logits = proto_scores(params_s, z).data
        ls = logits / cfg.student_temp
        logq = ls - ls.max(axis=1, keepdims=True)
        logq = logq - np.log(np.exp(logq).sum(axis=1, keepdims=True))
        s_anc = s_enc.ancestors(stage)
        for t_view, t_enc in teacher:
            tz = proj_head(params_t, upcast(t_enc, level))
            tl = proto_scores(params_t, tz).data
            sh = (tl - center) / cfg.teacher_temp
            sh = sh - sh.max(axis=1, keepdims=True)
            p = np.exp(sh) / np.exp(sh).sum(axis=1, keepdims=True)
            t_anc = t_enc.ancestors(stage)
            ia, ib = match_views(s_view, t_view)
            if ia.size == 0:
                continue
            acc = 0.0
            for i, j in zip(ia, ib):
                acc += -(p[t_anc[j]] * logq[s_anc[i]]).sum()
            combos.append(acc / ia.size)
    return float(np.mean(combos))


def log_softmax_oracle(x, temperature):
    """The deleted ``op_log_softmax`` (forward and VJP), kept as a test-only
    oracle for the fused cross-entropy."""
    z = x.data / temperature
    z = z - z.max(axis=-1, keepdims=True)
    y = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

    def vjp(g):
        return ((g - np.exp(y) * g.sum(axis=-1, keepdims=True)) / temperature,)

    return T._record(y, "log_softmax", [x], vjp)


def intra_loss_per_pair_oracle(student, teacher, params_s, params_t, center, cfg, level):
    """Per-(student, teacher) pair form of the clustering loss: one weighted
    sum per matched view pair, with the pair-count aggregation of teacher
    rows onto student rows, averaged over pairs. Returns the loss tensor."""
    import scipy.sparse as sp
    from concerto.objectives import _teacher_probs
    from concerto.views import match_views
    stage = teacher[0][1].num_stages - 1 - level
    sides = [(v, enc, _teacher_probs(params_t, upcast(enc, level), center, cfg)[0])
             for v, enc in teacher]
    combos = []
    for s_view, s_enc in student:
        feats = upcast(s_enc, level)
        logq = log_softmax_oracle(proto_scores(params_s, proj_head(params_s, feats)),
                                  cfg.student_temp)
        s_anc = s_enc.ancestors(stage)
        for t_view, t_enc, t_probs in sides:
            ia, ib = match_views(s_view, t_view)
            if s_view is t_view or ia.size == 0:
                continue
            counts = sp.coo_matrix((np.ones(ia.size), (s_anc[ia], t_enc.ancestors(stage)[ib])),
                                   shape=(feats.data.shape[0], t_probs.shape[0])).tocsr()
            combos.append(T.op_mul(T.op_sum(T.op_mul(logq, T.Tensor(counts @ t_probs))),
                                   -1.0 / ia.size))
    acc = combos[0]
    for extra in combos[1:]:
        acc = T.op_add(acc, extra)
    return T.op_mul(acc, 1.0 / len(combos))


class TestIntraLoss:
    def test_matches_per_pair_oracle_loss_and_grads(self, encoded):
        cfg, params, teacher_p, vs, _student, _teach = encoded
        from concerto.views import match_views
        # a local crop as second teacher view: the masked views match all of
        # the global view's points but only the crop's
        teacher_views = [vs.globals_[0], vs.locals_[0]]
        counts = [[match_views(s, t)[0].size for t in teacher_views]
                  for s in vs.student_views]
        assert any(min(c) > 0 and c[0] != c[1] for c in counts)
        ccfg = ClusterLossConfig()
        center = np.random.default_rng(5).normal(size=cfg.proto_count) * 0.1
        results = []
        for fn in (lambda *args: intra_loss(*args)[0],
                   lambda *args: intra_loss_per_pair_oracle(*args, 2)):
            p = {k: T.param(v.data.copy()) for k, v in params.items()}
            student = [(v, encode(v, p, cfg)) for v in vs.student_views]
            teach = [(v, encode(v, teacher_p, cfg)) for v in teacher_views]
            loss = fn(student, teach, p, teacher_p, center, ccfg)
            T.backward(loss)
            results.append((loss.item(), p))
        (loss, p), (ref, p_ref) = results
        assert abs(loss - ref) <= 1e-12 * abs(ref)
        for k in p:
            if p_ref[k].grad is None:
                assert p[k].grad is None, k
                continue
            scale = np.abs(p_ref[k].grad).max()
            assert np.abs(p[k].grad - p_ref[k].grad).max() <= 1e-12 * scale, k

    def test_matches_scalar_loop_oracle(self, encoded):
        cfg, params, teacher_p, vs, student, teach = encoded
        ccfg = ClusterLossConfig()
        center = np.random.default_rng(3).normal(size=cfg.proto_count) * 0.1
        loss, _, pairs, _ = intra_loss(student, teach, params, teacher_p, center, ccfg)
        oracle = intra_loss_loop_oracle(student, teach, params, teacher_p, center, ccfg, 2)
        np.testing.assert_allclose(loss.item(), oracle, atol=1e-12)
        assert pairs > 0

    def test_identical_params_loss_is_teacher_entropy_and_grads_flow(self, scene):
        # student == teacher, same temperature, no centering: the per-pair CE
        # is the teacher entropy, which is positive, and gradients are nonzero
        cfg = tiny_cfg()
        params = init_params(cfg, seed=4)
        teacher = clone_params(params)
        ccfg = ClusterLossConfig(student_temp=0.1, teacher_temp=0.1)
        vs = make_viewset(scene.cloud, AugmentConfig(mask_ratio=0.0, jitter_sigma=0.0,
                                                     color_jitter=0.0,
                                                     rotation_range=(0.0, 0.0),
                                                     scale_range=(1.0, 1.0),
                                                     flip_prob=0.0), seed=5)
        sv = vs.masked[0]
        tv = vs.globals_[0]
        s_enc = encode(sv, params, cfg)
        t_enc = encode(tv, teacher, cfg)
        center = np.zeros(cfg.proto_count)
        loss, _, _, _ = intra_loss([(sv, s_enc)], [(tv, t_enc)], params, teacher,
                                   center, ccfg)
        # oracle: mean teacher row entropy (identical distributions both sides)
        z = proj_head(params, upcast(s_enc, 2))
        logits = proto_scores(params, z).data / 0.1
        logits = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        anc = s_enc.ancestors(2)
        rows = p[anc]
        entropy = -(rows * np.log(rows)).sum(axis=1).mean()
        np.testing.assert_allclose(loss.item(), entropy, atol=1e-10)
        assert loss.item() > 0
        T.backward(loss)
        assert any(v.grad is not None and np.abs(v.grad).max() > 0 for v in params.values())

    def test_no_matched_pairs_returns_zero_in_the_features_dtype(self, scene):
        # a view is never matched with itself, so one view on both sides
        # leaves no (student, teacher) combination
        cfg = tiny_cfg()
        view = make_viewset(scene.cloud, AugmentConfig(), seed=2).globals_[0]
        for dtype in (np.float64, np.float32):
            params = {k: T.Tensor(p.data.astype(dtype))
                      for k, p in init_params(cfg, seed=1).items()}
            side = [(view, encode(view, params, cfg))]
            loss, _, pairs, _ = intra_loss(side, side, params, params,
                                           np.zeros(cfg.proto_count), ClusterLossConfig())
            assert loss.item() == 0.0 and pairs == 0
            assert loss.data.dtype == dtype
            assert combine(loss, None, LossWeights()).data.dtype == dtype

    def test_one_hot_rows_give_zero_ce(self):
        # degenerate two-prototype check through the fused cross-entropy op;
        # exp(-1000 / 0.1) underflows to 0
        logits = T.Tensor([[0.0, -1000.0]])
        assert T.op_softmax_xent(logits, np.array([[1.0, 0.0]]), 0.1).item() == 0.0

    def test_center_update_momentum_zero(self, encoded):
        cfg, params, teacher_p, vs, student, teach = encoded
        ccfg = ClusterLossConfig(center_momentum=0.0)
        center = np.full(cfg.proto_count, 123.0)
        _, new_center, _, _ = intra_loss(student, teach, params, teacher_p, center, ccfg)
        logits = []
        for _v, enc in teach:
            z = proj_head(teacher_p, upcast(enc, 2))
            logits.append(proto_scores(teacher_p, z).data)
        np.testing.assert_allclose(new_center, np.concatenate(logits).mean(axis=0), atol=1e-12)

    def test_teacher_gets_zero_grad(self, encoded):
        cfg, params, teacher_p, vs, student, teach = encoded
        center = np.zeros(cfg.proto_count)
        loss, _, _, _ = intra_loss(student, teach, params, teacher_p, center,
                                   ClusterLossConfig())
        T.backward(loss)
        assert all(v.grad is None for v in teacher_p.values())
        for v in params.values():
            v.zero_grad()

    def test_proto_used_is_a_positive_fraction(self, encoded):
        cfg, params, teacher_p, vs, student, teach = encoded
        center = np.random.default_rng(6).normal(size=cfg.proto_count) * 0.1
        _, _, _, used = intra_loss(student, teach, params, teacher_p, center,
                                   ClusterLossConfig())
        assert 0 < used <= 1
        # a multiple of 1/K
        assert abs(used * cfg.proto_count - round(used * cfg.proto_count)) < 1e-9

    def test_proto_used_is_one_over_k_with_equal_prototypes(self, encoded):
        cfg, params, teacher_p, vs, student, _teach = encoded
        same = {k: T.Tensor(v.data.copy()) for k, v in teacher_p.items()}
        same["proto.w"].data[:] = same["proto.w"].data[:, :1]  # equal columns
        teach = [(v, encode(v, same, cfg)) for v in vs.teacher_views]
        center = np.random.default_rng(7).normal(size=cfg.proto_count) * 0.1
        _, _, _, used = intra_loss(student, teach, params, same, center,
                                   ClusterLossConfig())
        assert used == 1 / cfg.proto_count

    def test_center_stays_bounded(self, encoded):
        cfg, params, teacher_p, vs, student, teach = encoded
        ccfg = ClusterLossConfig(center_momentum=0.9)
        center = np.zeros(cfg.proto_count)
        bound = 0.0
        for _ in range(5):
            _, center, _, _ = intra_loss(student, teach, params, teacher_p, center, ccfg)
            logits = np.concatenate([
                proto_scores(teacher_p, proj_head(teacher_p, upcast(enc, 2))).data
                for _v, enc in teach])
            bound = max(bound, np.abs(logits.mean(axis=0)).max())
        assert np.abs(center).max() <= bound + 1e-12


def cross_loss_loop_oracle(enc, corr, grids, params, level):
    """Independent per-patch loop: majority patch per pooled point, explicit
    mean, explicit cosine."""
    stage = enc.num_stages - 1 - level
    anc = enc.ancestors(stage)
    feats = upcast(enc, level).data
    w = params["cross.w"].data
    b = params["cross.b"].data
    table = np.concatenate(grids)
    votes = {}
    for point, view, row in zip(corr.point_index, corr.view_index, corr.row):
        key = (view, anc[point])
        votes.setdefault(key, []).append(row)
    assigned = {}
    for (view, u), rows in votes.items():
        vals, counts = np.unique(rows, return_counts=True)
        assigned[(view, u)] = int(vals[counts == counts.max()].min())
    groups = {}
    for (view, u), row in assigned.items():
        groups.setdefault(row, []).append(u)
    sims = []
    for row, members in sorted(groups.items()):
        pooled = feats[sorted(members)].mean(axis=0)
        pred = pooled @ w + b
        target = table[row]
        denom = max(np.linalg.norm(pred) * np.linalg.norm(target), 1e-8)
        sims.append(1.0 - float(pred @ target) / denom)
    return float(np.mean(sims)), len(sims)


class TestCrossLoss:
    def make(self, scene, seed):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=seed)
        vs = make_viewset(scene.cloud, AugmentConfig(), seed=seed)
        enc = encode(vs.masked[0], params, cfg)
        corr = build_correspondence(scene.cloud.coords, scene.views)
        grids = [v.flat_feature_grid() for v in scene.views]
        return cfg, params, enc, corr, grids

    def test_matches_scalar_loop_oracle(self, scene):
        cfg, params, enc, corr, grids = self.make(scene, 6)
        loss, n = cross_loss(enc, corr, grids, params)
        oracle, n2 = cross_loss_loop_oracle(enc, corr, grids, params, 3)
        assert n == n2
        np.testing.assert_allclose(loss.item(), oracle, atol=1e-12)

    def test_perfect_prediction_gives_zero(self, scene):
        cfg, params, enc, corr, grids = self.make(scene, 7)
        member_rows, seg_ids, seg_rows, n_seg = assign_patches(enc, corr, 3)
        feats = upcast(enc, 3).data
        pooled = np.stack([feats[member_rows[seg_ids == s]].mean(axis=0)
                           for s in range(n_seg)])
        pred = pooled @ params["cross.w"].data + params["cross.b"].data
        table = np.concatenate(grids)
        for s in range(n_seg):
            table[seg_rows[s]] = pred[s]
        loss, _ = cross_loss(enc, corr, np.split(table, len(grids)), params)
        np.testing.assert_allclose(loss.item(), 0.0, atol=1e-9)

    def test_orthogonal_targets_give_one(self, scene):
        cfg, params, enc, corr, grids = self.make(scene, 8)
        member_rows, seg_ids, seg_rows, n_seg = assign_patches(enc, corr, 3)
        feats = upcast(enc, 3).data
        pooled = np.stack([feats[member_rows[seg_ids == s]].mean(axis=0)
                           for s in range(n_seg)])
        pred = pooled @ params["cross.w"].data + params["cross.b"].data
        table = np.concatenate(grids)
        for s in range(n_seg):
            t = np.zeros(cfg.cross_dim)
            # orthogonal completion: subtract the parallel component from a probe
            probe = np.ones(cfg.cross_dim)
            t = probe - (probe @ pred[s]) / (pred[s] @ pred[s]) * pred[s]
            table[seg_rows[s]] = t
        loss, _ = cross_loss(enc, corr, np.split(table, len(grids)), params)
        np.testing.assert_allclose(loss.item(), 1.0, atol=1e-9)

    def test_empty_correspondence_warns_and_returns_zero(self, scene):
        from concerto.geometry import Correspondence
        cfg = tiny_cfg()
        view = make_viewset(scene.cloud, AugmentConfig(), seed=10).masked[0]
        grids = [v.flat_feature_grid() for v in scene.views]
        empty = Correspondence(*[np.zeros(0, dtype=np.int64)] * 3)
        for dtype in (np.float64, np.float32):
            params = {k: T.param(p.data.astype(dtype))
                      for k, p in init_params(cfg, seed=10).items()}
            loss, n = cross_loss(encode(view, params, cfg), empty, grids, params)
            assert loss.item() == 0.0 and n == 0
            # a zero in the features' dtype keeps the total in it
            assert loss.data.dtype == dtype
            total = combine(T.Tensor(np.ones((), dtype)), loss, LossWeights())
            assert total.data.dtype == dtype

    def test_gradients_reach_encoder_inputs(self, scene):
        cfg, params, enc, corr, grids = self.make(scene, 11)
        loss, _ = cross_loss(enc, corr, grids, params)
        T.backward(loss)
        assert params["cross.w"].grad is not None
        assert params["stage0.lin0.w"].grad is not None
        for v in params.values():
            v.zero_grad()


class TestCombine:
    def test_weighted_sum_arithmetic(self):
        total = combine(T.Tensor(np.array(0.5)), T.Tensor(np.array(0.25)),
                        LossWeights(cross=2, intra=2))
        np.testing.assert_allclose(total.item(), 1.5)

    def test_image_absent_ignores_cross(self):
        total = combine(T.Tensor(np.array(0.5)), None, LossWeights(cross=2, intra=2))
        np.testing.assert_allclose(total.item(), 1.0)

    def test_table_ratio_presets(self):
        intra, cross = 0.5, 0.25
        for wc, wi in ((4, 1), (2, 2), (1, 4)):
            total = combine(T.Tensor(np.array(intra)), T.Tensor(np.array(cross)),
                            LossWeights(cross=wc, intra=wi))
            np.testing.assert_allclose(total.item(), wi * intra + wc * cross)

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            LossWeights(cross=0, intra=0)
        with pytest.raises(ValueError):
            LossWeights(cross=-1, intra=1)


class TestRigidInvariance:
    def test_cross_loss_invariant_to_global_rigid_motion(self):
        # rotate/translate the scene and all cameras together
        spec = SyntheticSpec(num_scenes=1, points_per_scene=500, num_classes=3,
                             image_size=32, patch_size=8, feature_dim=8,
                             noise_sigma=0.0, seed=12)
        samples, _ = generate_synthetic(spec)
        scene = samples[0]
        cfg = tiny_cfg()
        params = init_params(cfg, seed=12)
        corr = build_correspondence(scene.cloud.coords, scene.views)
        grids = [v.flat_feature_grid() for v in scene.views]

        theta = 0.7
        c, s = np.cos(theta), np.sin(theta)
        q = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        shift = np.array([4.0, -2.0, 1.0])

        from concerto.dataio import PointCloud, SceneSample
        from concerto.geometry import CameraView
        cloud2 = PointCloud(coords=scene.cloud.coords @ q.T + shift,
                            colors=scene.cloud.colors,
                            labels=scene.cloud.labels)
        views2 = []
        for cam in scene.views:
            R2 = cam.rotation @ q.T
            t2 = cam.translation - R2 @ shift
            views2.append(CameraView(intrinsics=cam.intrinsics, rotation=R2,
                                     translation=t2, image_size=cam.image_size,
                                     patch_size=cam.patch_size, depth_map=cam.depth_map,
                                     feature_grid=cam.feature_grid))
        corr2 = build_correspondence(cloud2.coords, views2)
        for name in ("point_index", "view_index", "row"):
            np.testing.assert_array_equal(getattr(corr, name), getattr(corr2, name))

        # features are an input to the loss; with the rigidly co-transformed
        # geometry producing the same correspondence, the loss is unchanged
        from concerto.views import View
        v1 = View(cloud=scene.cloud, origin_index=np.arange(scene.cloud.num_points))
        enc = encode(v1, params, cfg)
        l1, _ = cross_loss(enc, corr, grids, params)
        l2, _ = cross_loss(enc, corr2, grids, params)
        np.testing.assert_allclose(l1.item(), l2.item(), atol=1e-6)
