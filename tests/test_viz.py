import numpy as np
import pytest

from concerto.viz import PcaModel, colorize, export_ply, fit_pca
from oracles import load_ply


class TestFitPca:
    def test_line_in_5d(self):
        rng = np.random.default_rng(0)
        direction = np.array([1.0, 2.0, -1.0, 0.5, 3.0])
        direction /= np.linalg.norm(direction)
        t = rng.normal(size=(200, 1))
        model = fit_pca(t * direction)
        overlap = abs(model.components[0] @ direction)
        assert overlap > 1 - 1e-6
        assert model.explained_variance[1] < 1e-12
        assert model.explained_variance[2] < 1e-12

    def test_isotropic_gaussian_balanced_variances(self):
        rng = np.random.default_rng(1)
        model = fit_pca(rng.normal(size=(20000, 3)))
        v = model.explained_variance
        assert (v.max() - v.min()) / v.max() < 0.1

    def test_hand_set_matches_eig_oracle(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.1, 0.0], [2.0, -0.1, 0.05],
                        [3.0, 0.2, -0.05], [4.0, 0.0, 0.1], [5.0, -0.2, -0.1]])
        model = fit_pca(pts)
        # brute-force oracle on the covariance
        xc = pts - pts.mean(axis=0)
        cov = xc.T @ xc / (pts.shape[0] - 1)
        evals, evecs = np.linalg.eig(cov)
        order = np.argsort(-evals.real)
        for i in range(3):
            oracle = evecs[:, order[i]].real
            got = model.components[i]
            assert min(np.abs(got - oracle).max(), np.abs(got + oracle).max()) < 1e-9
            np.testing.assert_allclose(model.explained_variance[i],
                                       evals.real[order[i]], atol=1e-9)

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        model = fit_pca(rng.normal(size=(100, 4)))
        for comp in model.components:
            assert comp[np.abs(comp).argmax()] > 0

    def test_orthonormal_components(self):
        rng = np.random.default_rng(3)
        model = fit_pca(rng.normal(size=(50, 6)))
        np.testing.assert_allclose(model.components @ model.components.T,
                                   np.eye(3), atol=1e-9)

    def test_variances_non_increasing(self):
        rng = np.random.default_rng(4)
        model = fit_pca(rng.normal(size=(300, 8)) * np.array([5, 3, 2, 1, 1, 1, 0.5, 0.1]))
        assert (np.diff(model.explained_variance) <= 1e-12).all()

    def test_rank_deficient_padded_with_warning(self, caplog):
        rng = np.random.default_rng(5)
        t = rng.normal(size=(50, 1))
        with caplog.at_level("WARNING"):
            model = fit_pca(t * np.array([1.0, 1.0, 0.0, 0.0]))
        assert "rank" in caplog.text
        np.testing.assert_allclose(model.components @ model.components.T,
                                   np.eye(3), atol=1e-9)

    @pytest.mark.parametrize("width", [1, 2])
    def test_fewer_than_three_columns_rejected(self, width):
        with pytest.raises(ValueError, match=f"at least 3 feature columns, got {width}"):
            fit_pca(np.random.default_rng(6).normal(size=(20, width)))

    def test_identical_features_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            fit_pca(np.ones((10, 4)))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(120, 5))
        m1 = fit_pca(x)
        m2 = fit_pca(x[rng.permutation(120)])
        np.testing.assert_allclose(m1.components, m2.components, atol=1e-9)

    def test_orthogonal_rotation_equivariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(200, 4)) * np.array([4, 2, 1, 0.5])
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        m1 = fit_pca(x)
        m2 = fit_pca(x @ q.T)
        # projections agree up to per-component sign
        p1 = (x - x.mean(0)) @ m1.components.T
        p2 = (x @ q.T - (x @ q.T).mean(0)) @ m2.components.T
        for c in range(3):
            assert min(np.abs(p1[:, c] - p2[:, c]).max(),
                       np.abs(p1[:, c] + p2[:, c]).max()) < 1e-8


class TestColorize:
    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(100, 6))
        model = fit_pca(x)
        rgb = colorize(rng.normal(size=(40, 6)) * 10, model)  # out-of-range inputs
        assert rgb.min() >= 0 and rgb.max() <= 1

    def test_constant_channel_maps_to_half(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(50, 4))
        model = fit_pca(x)
        model.channel_min[2] = model.channel_max[2] = 1.23
        rgb = colorize(x, model)
        np.testing.assert_array_equal(rgb[:, 2], 0.5)

    def test_training_features_span_full_range(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(80, 5))
        model = fit_pca(x)
        rgb = colorize(x, model)
        np.testing.assert_allclose(rgb.min(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(rgb.max(axis=0), 1.0, atol=1e-12)


class TestPly:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        coords = rng.normal(size=(30, 3))
        rgb = rng.uniform(size=(30, 3))
        p = export_ply(coords, rgb, tmp_path / "pc.ply")
        back_c, back_rgb = load_ply(p)
        np.testing.assert_allclose(back_c, coords, atol=1e-6)
        np.testing.assert_array_equal(back_rgb,
                                      np.clip(np.round(rgb * 255), 0, 255).astype(np.uint8))

    def test_header_shape(self, tmp_path):
        p = export_ply(np.zeros((2, 3)), np.zeros((2, 3)), tmp_path / "h.ply")
        lines = p.read_text().splitlines()
        assert lines[0] == "ply"
        assert "element vertex 2" in lines
        assert lines[1] == "format ascii 1.0"

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            export_ply(np.zeros((3, 3)), np.zeros((2, 3)), tmp_path / "x.ply")
