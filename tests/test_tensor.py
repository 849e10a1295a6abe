import os
import subprocess
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

import oracles
from concerto import tensor as T


def rand(rng, *shape):
    return rng.normal(size=shape)


class TestForwardValues:
    def test_matmul_identity(self):
        a = T.Tensor(np.eye(2))
        b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.op_matmul(a, b, None)
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])

    def test_matmul_basis_selection(self):
        out = T.op_matmul(T.Tensor([[1.0, 0.0]]), T.Tensor([[5.0], [7.0]]), None)
        np.testing.assert_array_equal(out.data, [[5.0]])

    def test_matmul_shape_error(self):
        with pytest.raises(ValueError):
            T.op_matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))), None)

    def test_softmax_symmetry(self):
        out = T.softmax_np(np.array([[0.0, 0.0, 0.0]]), 1.0)
        np.testing.assert_allclose(out, [[1 / 3] * 3], atol=1e-15)

    def test_softmax_analytic(self):
        out = T.softmax_np(np.array([[np.log(2.0), 0.0]]), 1.0)
        np.testing.assert_allclose(out, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_softmax_sharpening(self):
        out = T.softmax_np(np.array([[10.0, 0.0, 0.0]]), 0.04)
        assert out[0, 0] > 1 - 1e-12

    def test_softmax_bad_temperature(self):
        with pytest.raises(ValueError):
            T.softmax_np(np.array([[1.0]]), 0.0)
        for temperature in (0.0, -1.0):
            with pytest.raises(ValueError):
                T.op_linear_softmax_xent(T.Tensor([[1.0]]), T.Tensor([[1.0]]), None,
                                         np.ones((1, 1)), temperature)

    def test_softmax_rows_sum_to_one_large_magnitudes(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1e4, 1e4, size=(40, 7))
        out = T.softmax_np(x, 0.07)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_cosine_identity_orthogonal_antiparallel(self):
        a = T.Tensor([[3.0, 4.0], [1.0, 0.0], [1.0, 1.0]])
        b = T.Tensor([[3.0, 4.0], [0.0, 1.0], [-1.0, -1.0]])
        out = T.op_cosine(a, b)
        np.testing.assert_allclose(out.data, [1.0, 0.0, -1.0], atol=1e-15)

    def test_segment_mean_two_elements(self):
        out = T.op_segment_mean(T.Tensor([[2.0], [4.0]]), [0, 0], 2)
        np.testing.assert_array_equal(out.data, [[3.0], [0.0]])

    def test_segment_mean_permutation_identity(self):
        vals = np.arange(12.0).reshape(4, 3)
        ids = [2, 0, 3, 1]
        out = T.op_segment_mean(T.Tensor(vals), ids, 4)
        np.testing.assert_array_equal(out.data[ids], vals)

    def test_segment_mean_empty_segment(self):
        out = T.op_segment_mean(T.Tensor([[1.0, 1.0]]), [2], 4)
        np.testing.assert_array_equal(out.data, [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])

    def test_segment_mean_id_out_of_range(self):
        with pytest.raises(IndexError):
            T.op_segment_mean(T.Tensor([[1.0]]), [5], 2)

    def test_segment_mean_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=(100, 5))
        ids = rng.integers(0, 7, size=100)
        out = T.op_segment_mean(T.Tensor(vals), ids, 7)
        expected = np.zeros((7, 5))
        for s in range(7):
            rows = vals[ids == s]
            if rows.size:
                expected[s] = rows.mean(axis=0)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_cross_entropy_one_hot_zero(self):
        # logits [[-1000, 0, -1000]] through a 1 x 1 input and a bias:
        # exp(-1000) underflows to 0, so the target class has probability 1
        w = np.array([[0.0, 1.0, 0.0]])
        loss = T.op_linear_softmax_xent(T.Tensor([[2.0]]), T.Tensor([[-500.0, 0.0, -500.0]]),
                                        T.Tensor([0.0, 0.0, 0.0]), w, 1.0)
        assert loss.item() == 0.0

    def test_cross_entropy_uniform_analytic(self):
        w = np.array([[0.5, 0.5]])
        loss = T.op_linear_softmax_xent(T.Tensor([[1.0]]), T.Tensor(np.log([[0.5, 0.5]])),
                                        None, w, 1.0)
        np.testing.assert_allclose(loss.item(), np.log(2), atol=1e-12)

    def test_cross_entropy_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        p = rng.dirichlet(np.ones(16), size=8)
        x, w, b = rng.normal(size=(8, 5)), rng.normal(size=(5, 16)), rng.normal(size=16)
        got = T.op_linear_softmax_xent(T.Tensor(x), T.Tensor(w), T.Tensor(b), p / 8, 0.7).item()
        acc = 0.0
        for i in range(8):
            logits = [sum(x[i, j] * w[j, k] for j in range(5)) + b[k] for k in range(16)]
            lse = np.log(sum(np.exp(v / 0.7) for v in logits))
            for k in range(16):
                acc -= p[i, k] * (logits[k] / 0.7 - lse)
        np.testing.assert_allclose(got, acc / 8, atol=1e-12)

    def test_cross_entropy_shape_mismatch(self):
        x, w = T.Tensor(np.zeros((2, 4))), T.Tensor(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="weights shape"):
            T.op_linear_softmax_xent(x, w, None, np.zeros((3, 2)), 1.0)
        with pytest.raises(ValueError, match="inner dims"):
            T.op_linear_softmax_xent(x, T.Tensor(np.zeros((3, 4))), None, np.zeros((2, 4)), 1.0)
        with pytest.raises(ValueError, match="bias shape"):
            T.op_linear_softmax_xent(x, w, T.Tensor(np.zeros(4)), np.zeros((2, 3)), 1.0)

    def test_pool_gather_is_projection(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(30, 4))
        ids = rng.integers(0, 6, size=30)

        def pool_gather(x):
            m = T.op_segment_mean(T.Tensor(x), ids, 6)
            return T.op_gather_concat([m], [ids]).data

        once = pool_gather(vals)
        np.testing.assert_allclose(pool_gather(once), once, atol=1e-12)


def add_at_oracle(values, ids, num_segments):
    out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, ids, values)
    return out


SEGMENT_CASES = {
    # duplicate and unsorted ids; segments 1 and 6 (trailing) stay empty
    "unsorted_duplicates": (np.array([3, 0, 5, 3, 2, 0, 0, 4, 5, 3]), 7, (10, 4)),
    "all_one_segment": (np.full(6, 2), 3, (6, 3)),
    "zero_rows": (np.zeros(0, dtype=np.int64), 4, (0, 3)),
    "one_d_values": (np.array([1, 1, 0, 4, 1]), 6, (5,)),
}


class TestSegmentSum:
    @pytest.mark.parametrize("case", sorted(SEGMENT_CASES))
    def test_sum_and_scatter_match_add_at(self, case):
        ids, num_segments, shape = SEGMENT_CASES[case]
        values = np.random.default_rng(31).normal(size=shape)
        expected = add_at_oracle(values, ids, num_segments)
        for got in (T.segment_sum_np(values, ids, num_segments),
                    T.scatter_add_rows(values, ids, num_segments)):
            assert got.shape == expected.shape and got.dtype == values.dtype
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("case", sorted(SEGMENT_CASES))
    def test_mean_matches_add_at(self, case):
        ids, num_segments, shape = SEGMENT_CASES[case]
        values = np.random.default_rng(32).normal(size=shape)
        counts = np.zeros(num_segments, dtype=np.int64)
        np.add.at(counts, ids, 1)
        denom = np.maximum(counts, 1).reshape((-1,) + (1,) * (values.ndim - 1))
        means, got_counts = T.segment_mean_np(values, ids, num_segments)
        np.testing.assert_array_equal(got_counts, counts)
        np.testing.assert_allclose(means, add_at_oracle(values, ids, num_segments) / denom,
                                   rtol=1e-12, atol=1e-12)

    def test_keeps_value_dtype(self):
        ids = np.array([1, 0, 1])
        for dtype in (np.float32, np.int64):
            values = np.arange(6, dtype=dtype).reshape(3, 2)
            got = T.segment_sum_np(values, ids, 2)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, add_at_oracle(values, ids, 2))

    @pytest.mark.parametrize("bad", [[0, 3], [0, 7], [-1, 0]], ids=["end", "past_end", "negative"])
    def test_out_of_range_ids_rejected(self, bad):
        values = np.ones((2, 3))
        for fn in (T.segment_sum_np, T.scatter_add_rows, T.segment_mean_np):
            with pytest.raises(IndexError):
                fn(values, np.array(bad), 3)


class TestBackward:
    def test_constant_loss_leaves_grads_zero(self):
        w = T.param(np.ones((3, 3)))
        loss = T.Tensor(np.array(5.0))
        T.backward(loss)
        assert w.grad is None

    def test_grad_accumulates_across_backward_calls(self):
        w = T.param(np.array([[2.0]]))
        for _ in range(2):
            T.backward(T.op_sum(T.op_mul(w, 3.0)))
        np.testing.assert_array_equal(w.grad, [[6.0]])

    def test_constant_input_gets_no_grad(self):
        c = T.Tensor(np.ones((2, 2)))
        w = T.param(np.ones((2, 2)))
        T.backward(T.op_sum(T.op_mul(c, w)))
        assert c.grad is None and w.grad is not None

    def test_diamond_graph_accumulation(self):
        # y = x*x reused twice: d(sum(x*x + x*x))/dx = 4x
        x = T.param(np.array([[1.0, 2.0]]))
        y = T.op_mul(x, x)
        T.backward(T.op_sum(T.op_add(y, y)))
        np.testing.assert_allclose(x.grad, [[4.0, 8.0]])

    def test_matmul_grad_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        err = oracles.gradcheck(lambda a, b: T.op_matmul(a, b, None),
                                [rand(rng, 4, 5), rand(rng, 5, 3)])
        assert err <= 1e-6

    def test_cross_entropy_blocks_target_grad(self):
        # the weights are a plain array: the tape records only x, w and b;
        # with x = [[1]] the weight's gradient is the logits' gradient
        targets = np.array([[0.3, 0.7]])
        x, w, b = T.param([[1.0]]), T.param(np.log([[0.5, 0.5]])), T.param([0.0, 0.0])
        loss = T.op_linear_softmax_xent(x, w, b, targets, 1.0)
        assert loss._parents == (x, w, b)
        T.backward(loss)
        np.testing.assert_allclose(w.grad, [[0.2, -0.2]], atol=1e-15)
        np.testing.assert_allclose(b.grad, [0.2, -0.2], atol=1e-15)
        np.testing.assert_array_equal(targets, [[0.3, 0.7]])

    def test_softmax_xent_matches_log_softmax_composition(self):
        # the unfused matmul + bias + log-softmax composition with -sum(W * .),
        # in plain numpy: rows of unequal weight, a zero row and a heavy row
        rng = np.random.default_rng(12)
        x = rng.normal(size=(60, 9))
        w, b = rng.normal(size=(9, 40)) * 3.0, rng.normal(size=40)
        targets = rng.random((60, 40))
        targets[7] = 0.0
        targets[3] *= 5.0
        t = 0.1
        ref_loss, ref_dx, ref_dw, ref_db = oracles.linear_softmax_xent_reference(
            x, w, b, targets, t)
        xs, ws, bs = T.param(x), T.param(w), T.param(b)
        loss = T.op_linear_softmax_xent(xs, ws, bs, targets, t)
        T.backward(loss)
        assert abs(loss.item() - ref_loss) <= 1e-12 * abs(ref_loss)
        for got, ref in ((xs.grad, ref_dx), (ws.grad, ref_dw), (bs.grad, ref_db)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        np.testing.assert_array_equal(xs.grad[7], 0.0)


class TestLinearSoftmaxXentBlocks:
    """The fused op against the unfused composition around its row blocks:
    one row, a row below one block, whole blocks and whole blocks plus one,
    for a probe head (d > k) and a prototype head (k > d), with and without
    a bias."""

    @staticmethod
    def case(n, d, k, bias):
        rng = np.random.default_rng([n, d, k])
        targets = rng.dirichlet(np.ones(k), size=n) * rng.uniform(0.0, 2.0, size=(n, 1)) / n
        return (rng.normal(size=(n, d)), rng.normal(size=(d, k)) * 0.5,
                rng.normal(size=k) if bias else None, targets)

    @classmethod
    def check_against_oracle(cls, n, d, k, bias):
        x, w, b, targets = cls.case(n, d, k, bias)
        ref = oracles.linear_softmax_xent_reference(x, w, b, targets, 0.1)
        tensors = [T.param(a) for a in (x, w, b) if a is not None]
        loss = T.op_linear_softmax_xent(*tensors[:2], tensors[2] if bias else None,
                                        targets, 0.1)
        T.backward(loss)
        assert abs(loss.item() - ref[0]) <= 1e-12 * abs(ref[0])
        for t, want in zip(tensors, ref[1:]):
            assert np.abs(t.grad - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    @pytest.mark.parametrize("d,k", [(40, 7), (8, 64)], ids=["probe", "prototype"])
    @pytest.mark.parametrize("blocks", ["one_row", "below_one", "two", "two_plus_one"])
    def test_matches_unfused_composition(self, blocks, d, k, bias):
        rows = T.gemm_block_rows(d, k, np.float64)
        n = {"one_row": 1, "below_one": rows - 1, "two": 2 * rows,
             "two_plus_one": 2 * rows + 1}[blocks]
        self.check_against_oracle(n, d, k, bias)

    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    def test_narrow_pass_over_several_tasks_matches_unfused_composition(self, bias):
        # 2 * _BLOCKS_PER_TASK + 1 whole narrow blocks and a remainder block:
        # three tasks of the pool, the last one short
        d, k = 40, 7
        rows = T.gemm_block_rows(d, k, np.float64)
        assert rows * d * k <= T._SMALL_GEMM
        self.check_against_oracle((2 * T._BLOCKS_PER_TASK + 1) * rows + rows // 3, d, k, bias)

    @pytest.mark.parametrize("track_x", [False, True], ids=["constant_x", "tracked_x"])
    def test_narrow_pass_has_the_same_bits_on_any_pool(self, track_x, monkeypatch):
        # one worker, two, and more workers than CPUs with the interpreter
        # switching threads every microsecond: a block lost, written twice
        # or summed out of order would change some bit
        d, k = 40, 7
        n = (2 * T._BLOCKS_PER_TASK + 1) * T.gemm_block_rows(d, k, np.float32) + 5
        x, w, b, targets = self.case(n, d, k, True)
        x, w, b = (a.astype(np.float32) for a in (x, w, b))
        runs = []
        switch = sys.getswitchinterval()
        for workers in (1, 2, len(os.sched_getaffinity(0)) + 2):
            with ThreadPoolExecutor(workers) as pool:
                monkeypatch.setattr(T, "_pool", pool)
                sys.setswitchinterval(1e-6)
                try:
                    xs = T.param(x) if track_x else T.Tensor(x)
                    ws, bs = T.param(w), T.param(b)
                    loss = T.op_linear_softmax_xent(xs, ws, bs, targets, 1.0)
                finally:
                    sys.setswitchinterval(switch)
                T.backward(loss)
            runs.append([loss.data, ws.grad, bs.grad] + ([xs.grad] if track_x else []))
        for run in runs[1:]:
            for first, later in zip(runs[0], run):
                np.testing.assert_array_equal(first, later)

    @pytest.mark.parametrize("d,k", [(40, 7), (8, 64)], ids=["probe", "prototype"])
    def test_untracked_input_gives_the_same_head_gradient(self, d, k):
        # the probe's constant features and the lora probe's tracked ones
        # accumulate the head's gradient in the same blocks: equal bits
        x, w, b, targets = self.case(2 * T.gemm_block_rows(d, k, np.float32) + 1, d, k, True)
        x, w, b = (a.astype(np.float32) for a in (x, w, b))
        grads = []
        for track_x in (False, True):
            ws, bs = T.param(w), T.param(b)
            xs = T.param(x) if track_x else T.Tensor(x)
            T.backward(T.op_linear_softmax_xent(xs, ws, bs, targets, 1.0))
            assert ws.grad.dtype == bs.grad.dtype == np.float32
            grads.append((ws.grad, bs.grad))
        for untracked, tracked in zip(*grads):
            np.testing.assert_array_equal(untracked, tracked)


class TestGemmBlockRows:
    """The fused cross-entropy's rows per block: ``block_rows``' bound on the
    widest of d and k, or 2^19 bytes of input where that keeps a narrow
    head's GEMMs within OpenBLAS's small-matrix kernel (M * N * K <= 10^6)."""

    def test_pretrain_prototype_head_keeps_its_rows(self):
        assert T.gemm_block_rows(256, 1024, np.float32) == 512 == T.block_rows(1024, np.float32)

    @pytest.mark.parametrize("d,rows", [(992, 132), (184, 712)])
    def test_six_class_probe_head_stays_small(self, d, rows):
        got = T.gemm_block_rows(d, 6, np.float32)
        assert got == rows
        assert got * d * 6 <= 10 ** 6 < T.block_rows(d, np.float32) * d * 6

    @pytest.mark.parametrize("d,k", [(992, 13), (32, 64)])
    def test_heads_the_input_bound_cannot_make_small_keep_their_rows(self, d, k):
        # 2^19 bytes of input is still above 10^6 multiply-adds per GEMM
        # here: fewer rows would only add blocks
        assert T.gemm_block_rows(d, k, np.float32) == T.block_rows(max(d, k), np.float32)

    @pytest.mark.parametrize("d,k", [(10 ** 6, 6), (6, 10 ** 6), (0, 0)])
    def test_at_least_one_row(self, d, k):
        assert T.gemm_block_rows(d, k, np.float64) >= 1


class TestTapeKeepsWhatBackwardReads:
    """A node keeps no forward value: an op output that no VJP reads is
    freed by reference counting once the forward code drops its tensor,
    while a value a VJP reads stays alive until backward."""

    SHAPES = [(7, 4), (4, 5), (5,), (5, 3), (3,)]
    IDS = [0, 2, 1, 0, 2, 2, 1]

    @classmethod
    def chain(cls, x, w0, b0, w1, b1):
        """matmul -> gelu -> matmul -> local_mix, each matmul with a bias,
        dropping each step's input."""
        h = T.op_gelu(T.op_matmul(x, w0, b0))
        return T.op_local_mix(T.op_matmul(h, w1, b1), cls.IDS, 3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chain_frees_what_no_vjp_reads(self, dtype):
        rng = np.random.default_rng(41)
        arrays = [rand(rng, *shape).astype(dtype) for shape in self.SHAPES]
        x, w0, b0, w1, b1 = tensors = [T.param(a) for a in arrays]
        with oracles.refcounting_only():
            h = T.op_matmul(x, w0, b0)
            pre_gelu = weakref.ref(h.data)
            h = T.op_gelu(h)
            gelu_out = weakref.ref(h.data)
            h = T.op_matmul(h, w1, b1)
            pre_mix = weakref.ref(h.data)
            out = T.op_local_mix(h, self.IDS, 3)
            del h
            # float32 GELU keeps only its derivative; float64 GELU reads its input
            assert (pre_gelu() is None) == (dtype == np.float32)
            assert gelu_out() is not None  # the second linear's VJP reads it for w1
            assert pre_mix() is None
            pre_mix_node = out._parents[0]
            gelu_node = pre_mix_node._parents[0]
            assert pre_mix_node._op == "matmul" and pre_mix_node.data.size == 0
            assert gelu_node._op == "gelu" and gelu_node.data is gelu_out()
            del pre_mix_node, gelu_node
            g = rand(rng, *out.shape).astype(dtype)
            T.backward(T.op_sum(T.op_mul(out, T.Tensor(g))))
        # the same gradients as the chain with every value kept alive
        kept = [T.param(a) for a in arrays]
        h0 = T.op_matmul(kept[0], kept[1], kept[2])
        h1 = T.op_gelu(h0)
        h2 = T.op_matmul(h1, kept[3], kept[4])
        T.backward(T.op_sum(T.op_mul(T.op_local_mix(h2, self.IDS, 3), T.Tensor(g))))
        for t, want in zip(tensors, kept):
            np.testing.assert_array_equal(t.grad, want.grad)

    def test_chain_gradcheck(self):
        rng = np.random.default_rng(42)
        assert oracles.gradcheck(self.chain, [rand(rng, *s) for s in self.SHAPES]) <= 1e-6

    def test_graph_has_no_reference_cycle(self):
        # a dropped loss frees its whole graph by reference counting: the
        # GELU output, which only the second linear's closure holds, goes too
        rng = np.random.default_rng(43)
        x, w0, b0, w1, b1 = [T.param(rand(rng, *s).astype(np.float32)) for s in self.SHAPES]
        with oracles.refcounting_only():
            h = T.op_gelu(T.op_matmul(x, w0, b0))
            gelu_out = weakref.ref(h.data)
            loss = T.op_sum(T.op_local_mix(T.op_matmul(h, w1, b1), self.IDS, 3))
            del h
            assert gelu_out() is not None
            del loss
            assert gelu_out() is None


class TestXentKeptGradient:
    """A tracked x keeps the narrower of its (n, d) gradient and the (n, k)
    logits gradient G until backward, and both give the keep-G arithmetic
    of the unfused composition."""

    @staticmethod
    def closure_shapes(out):
        shapes = set()
        for cell in out._vjp.__closure__:
            value = cell.cell_contents
            value = value.data if isinstance(value, T.Tensor) else value
            if isinstance(value, np.ndarray):
                shapes.add(value.shape)
        return shapes

    @pytest.mark.parametrize("d,k", [(8, 64), (40, 7)], ids=["prototype", "probe"])
    def test_vjp_holds_the_narrower_gradient(self, d, k):
        n = 2 * T.gemm_block_rows(d, k, np.float64) + 1
        x, w, b, targets = TestLinearSoftmaxXentBlocks.case(n, d, k, True)
        ref = oracles.linear_softmax_xent_reference(x, w, b, targets, 0.1)
        tensors = [T.param(a) for a in (x, w, b)]
        loss = T.op_linear_softmax_xent(*tensors, targets, 0.1)
        shapes = self.closure_shapes(loss)
        assert ((n, k) not in shapes) if d < k else ((n, d) not in shapes)
        assert ((n, d) if d < k else (n, k)) in shapes
        T.backward(loss)
        assert abs(loss.item() - ref[0]) <= 1e-12 * abs(ref[0])
        for t, want in zip(tensors, ref[1:]):
            assert np.abs(t.grad - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("d,k", [(8, 64), (40, 7)], ids=["prototype", "probe"])
    def test_untracked_input_keeps_neither(self, d, k):
        n = 11
        x, w, _b, targets = TestLinearSoftmaxXentBlocks.case(n, d, k, False)
        loss = T.op_linear_softmax_xent(T.Tensor(x), T.param(w), None, targets, 0.1)
        assert not self.closure_shapes(loss) & {(n, d), (n, k)}


class TestGatherLinear:
    """``op_gather_linear`` against ``op_matmul`` of ``op_gather_concat``,
    the composition it replaces, in float64."""

    INDICES = [None, [3, 0, 3, 1, 2, 0], [1, 1, 0, 2, 0, 1]]  # unsorted, repeated

    @staticmethod
    def arrays(rng):
        return [rng.normal(size=s) for s in ((6, 4), (4, 3), (3, 5), (12, 7), (7,))]

    @pytest.mark.parametrize("tracked", ["all", "weights", "inputs"])
    def test_matches_linear_of_gather_concat(self, tracked):
        rng = np.random.default_rng(53)
        arrays = self.arrays(rng)
        g = rng.normal(size=(6, 7))
        results = []
        for fused in (True, False):
            track = [tracked != "weights"] * 3 + [tracked != "inputs"] * 2
            ts = [T.param(a) if t else T.Tensor(a) for a, t in zip(arrays, track)]
            out = (T.op_gather_linear(ts[:3], self.INDICES, *ts[3:]) if fused
                   else T.op_matmul(T.op_gather_concat(ts[:3], self.INDICES), *ts[3:]))
            T.backward(T.op_sum(T.op_mul(out, T.Tensor(g))))
            results.append([out.data] + [t.grad for t in ts])
        for got, want in zip(*results):
            if want is None:
                assert got is None
            else:
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_index_out_of_range(self, bad):
        ts = [T.Tensor(a) for a in self.arrays(np.random.default_rng(54))]
        with pytest.raises(IndexError):
            T.op_gather_linear(ts[:3], [None, [0, 1, 2, 3, 0, bad], [0] * 6], *ts[3:])

    def test_shape_mismatch(self):
        ts = [T.Tensor(a) for a in self.arrays(np.random.default_rng(55))]
        with pytest.raises(ValueError, match="different row counts"):
            T.op_gather_linear(ts[:3], [None, [0, 1], [0] * 6], *ts[3:])
        with pytest.raises(ValueError, match="do not match w"):
            T.op_gather_linear(ts[:2], self.INDICES[:2], *ts[3:])
        with pytest.raises(ValueError, match="bias shape"):
            T.op_gather_linear(ts[:3], self.INDICES, ts[3], T.Tensor(np.zeros(6)))


class TestFusedEncoderOps:
    """``op_matmul`` with a bias and ``op_local_mix`` against the unfused
    chains they replace in the encoder: the same float operations in the
    same order, so the forward and every gradient are equal bit for bit."""

    MIX_IDS = np.array([0, 2, 2, 1, 0, 2, 1, 0, 2])  # segment 3, the last, is empty

    @staticmethod
    def grads_of(out, leaves, g):
        T.backward(T.op_sum(T.op_mul(out, T.Tensor(g))))
        return [t.grad for t in leaves]

    @pytest.mark.parametrize("track_x", [True, False], ids=["tracked", "stage0_input"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_linear_matches_matmul_then_bias(self, dtype, track_x):
        rng = np.random.default_rng(51)
        x, w, b = (rng.normal(size=s).astype(dtype) for s in ((37, 11), (11, 19), (19,)))
        g = rng.normal(size=(37, 19)).astype(dtype)
        results = []
        for fused in (True, False):
            xs = T.param(x) if track_x else T.Tensor(x)
            ws, bs = T.param(w), T.param(b)
            out = (T.op_matmul(xs, ws, bs) if fused
                   else T.op_add(T.op_matmul(xs, ws, None), bs))
            assert out.data.dtype == dtype
            results.append([out.data] + self.grads_of(out, [xs, ws, bs], g))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)
        assert (results[0][1] is None) == (not track_x)

    @pytest.mark.parametrize("track_x", [True, False], ids=["tracked", "stage0_input"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_local_mix_matches_mean_gather_add_halve(self, dtype, track_x):
        rng = np.random.default_rng(52)
        ids, n = self.MIX_IDS, 4
        x = rng.normal(size=(ids.size, 6)).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        results = []
        for fused in (True, False):
            xs = T.param(x) if track_x else T.Tensor(x)
            if fused:
                out = T.op_local_mix(xs, ids, n)
            else:
                spread = T.op_gather_concat([T.op_segment_mean(xs, ids, n)], [ids])
                out = T.op_mul(T.op_add(xs, spread), 0.5)
            assert out.data.dtype == dtype and out.requires_grad == track_x
            results.append([out.data] + (self.grads_of(out, [xs], g) if track_x else []))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", [[0, 4], [-1, 0]], ids=["past_end", "negative"])
    def test_local_mix_id_out_of_range(self, bad):
        with pytest.raises(IndexError):
            T.op_local_mix(T.Tensor(np.ones((2, 3))), np.array(bad), 4)

    @pytest.mark.parametrize("shape,ids", [((3, 2), [0, 1]), ((3,), [0, 1, 1]),
                                           ((3, 2), [[0], [1], [1]])],
                             ids=["short_ids", "one_d_values", "two_d_ids"])
    def test_local_mix_shape_mismatch(self, shape, ids):
        with pytest.raises(ValueError, match="op_local_mix expects"):
            T.op_local_mix(T.Tensor(np.ones(shape)), ids, 2)

    @pytest.mark.parametrize("shapes", [[(4, 5), (4, 3), (3,)], [(4, 5), (5, 3), (4,)],
                                        [(4, 5), (5, 3), (1, 3)], [(5,), (5, 3), (3,)]],
                             ids=["inner_dims", "bias_width", "bias_2d", "one_d_input"])
    def test_linear_shape_mismatch(self, shapes):
        with pytest.raises(ValueError, match="op_matmul"):
            T.op_matmul(*[T.Tensor(np.ones(s)) for s in shapes])


# ops with two or more operands, each with operand shapes
MULTI_OPERAND_OPS = [
    ("matmul", lambda a, b: T.op_matmul(a, b, None), [(4, 5), (5, 3)]),
    ("linear", T.op_matmul, [(4, 5), (5, 3), (3,)]),  # the product with a bias
    ("linear_softmax_xent", lambda x, w, b: T.op_linear_softmax_xent(
        x, w, b, np.random.default_rng(9).dirichlet(np.ones(3), size=4), 0.5),
     [(4, 5), (5, 3), (3,)]),
    ("mul", T.op_mul, [(3, 4), (3, 4)]),
    ("mul_row", T.op_mul, [(3, 4), (4,)]),
    ("add_bias", T.op_add, [(3, 4), (4,)]),
    ("cosine", T.op_cosine, [(4, 5), (4, 5)]),
    ("gather_concat", lambda *ts: T.op_gather_concat(ts, [[4, 0, 4, 2], None, [2, 2, 0, 1]]),
     [(5, 2), (4, 3), (3, 1)]),
    ("gather_linear", lambda a, c, e, w, b: T.op_gather_linear(
        [a, c, e], [[4, 0, 4, 2], None, [2, 2, 0, 1]], w, b),
     [(5, 2), (4, 3), (3, 1), (6, 3), (3,)]),
    ("concat_rows", lambda *ts: T.op_concat_rows(ts), [(2, 3), (4, 3), (1, 3)]),
]


@pytest.mark.parametrize("name,op,shapes", MULTI_OPERAND_OPS,
                         ids=[row[0] for row in MULTI_OPERAND_OPS])
def test_constant_operands_get_no_cotangent(name, op, shapes):
    """With one operand tracked and the rest constant, the VJP returns None
    for every constant operand, and the tracked operand's gradient is the
    bits it gets when every operand is tracked."""
    rng = np.random.default_rng(31)
    arrays = [rand(rng, *shape) for shape in shapes]
    all_tracked = op(*[T.param(a) for a in arrays])
    g = rand(rng, *all_tracked.shape)
    full = all_tracked._vjp(g)
    for i in range(len(arrays)):
        tensors = [T.param(a) if j == i else T.Tensor(a) for j, a in enumerate(arrays)]
        out = op(*tensors)
        cotangents = out._vjp(g)
        assert all(c is None for j, c in enumerate(cotangents) if j != i)
        np.testing.assert_array_equal(cotangents[i], full[i])
        T.backward(T.op_sum(T.op_mul(out, T.Tensor(g))))
        np.testing.assert_array_equal(tensors[i].grad, full[i])


OPS_FOR_GRADCHECK = [
    ("add", lambda a, b: T.op_add(a, b), 2, (3, 4)),
    ("add_bias", None, None, None),  # checked separately below
    ("gather_linear", None, None, None),  # checked separately below
    ("mul", lambda a, b: T.op_mul(a, b), 2, (3, 4)),
    ("gelu", lambda a: T.op_gelu(a), 1, (3, 4)),
    ("layernorm", lambda a: T.op_layernorm(a), 1, (3, 6)),
    ("l2norm", lambda a: T.op_l2norm(a), 1, (3, 6)),
    ("cosine", lambda a, b: T.op_cosine(a, b), 2, (4, 5)),
    ("mean", lambda a: T.op_mean(a), 1, (3, 4)),
    ("sum", lambda a: T.op_sum(a), 1, (3, 4)),
]


@pytest.mark.parametrize("name,op,arity,shape",
                         [row for row in OPS_FOR_GRADCHECK if row[1] is not None],
                         ids=[row[0] for row in OPS_FOR_GRADCHECK if row[1] is not None])
def test_gradcheck_random_instances(name, op, arity, shape):
    rng = np.random.default_rng(hash(name) % (2 ** 32))
    for trial in range(5):
        arrays = [rand(rng, *shape) for _ in range(arity)]
        assert oracles.gradcheck(op, arrays) <= 1e-5, f"{name} trial {trial}"


def test_gradcheck_add_bias():
    rng = np.random.default_rng(22)
    for _ in range(5):
        assert oracles.gradcheck(lambda a, b: T.op_add(a, b), [rand(rng, 4, 3), rand(rng, 3)]) <= 1e-5


def test_gradcheck_mul_row():
    rng = np.random.default_rng(26)
    for _ in range(5):
        assert oracles.gradcheck(lambda a, b: T.op_mul(a, b), [rand(rng, 4, 3), rand(rng, 3)]) <= 1e-5


def test_gradcheck_concat_and_gather():
    rng = np.random.default_rng(23)
    idx = np.array([2, 0, 1, 2, 2])
    # rows 1 and 3 of the first block are unused, row 2 and row 0 repeat
    blocks = [np.array([2, 0, 2, 4, 0]), None, idx]
    for _ in range(5):
        err = oracles.gradcheck(lambda a, b: T.op_gather_concat([a, b], [None, None]),
                          [rand(rng, 4, 2), rand(rng, 4, 3)])
        assert err <= 1e-5
        err = oracles.gradcheck(lambda a, b, c: T.op_gather_concat([a, b, c], blocks),
                          [rand(rng, 5, 2), rand(rng, 5, 3), rand(rng, 3, 4)])
        assert err <= 1e-5
        err = oracles.gradcheck(lambda a, b: T.op_concat_rows([a, b]),
                          [rand(rng, 2, 3), rand(rng, 4, 3)])
        assert err <= 1e-5


@pytest.mark.parametrize("bad", [-1, 3])
def test_gather_concat_index_out_of_range(bad):
    a, b = T.Tensor(np.ones((3, 2))), T.Tensor(np.ones((2, 1)))
    with pytest.raises(IndexError):
        T.op_gather_concat([a, b], [[0, bad], None])


def test_gather_concat_unequal_row_counts():
    a, b = T.Tensor(np.ones((3, 2))), T.Tensor(np.ones((2, 1)))
    with pytest.raises(ValueError):
        T.op_gather_concat([a, b], [None, None])
    with pytest.raises(ValueError):
        T.op_gather_concat([a, b], [[0, 1, 2], [0, 1]])


def test_gradcheck_gather_linear():
    # unsorted and repeated rows, unused rows, and a None index
    rng = np.random.default_rng(29)
    idxs = [[2, 0, 2, 4, 0], None, [2, 0, 1, 2, 2]]
    for _ in range(5):
        err = oracles.gradcheck(lambda a, c, e, w, b: T.op_gather_linear([a, c, e], idxs, w, b),
                                [rand(rng, 5, 2), rand(rng, 5, 3), rand(rng, 3, 4),
                                 rand(rng, 9, 4), rand(rng, 4)])
        assert err <= 1e-5


def test_gradcheck_segment_mean():
    rng = np.random.default_rng(24)
    ids = np.array([0, 2, 2, 1, 0, 2])
    for _ in range(5):
        err = oracles.gradcheck(lambda a: T.op_segment_mean(a, ids, 4), [rand(rng, 6, 3)])
        assert err <= 1e-5


def test_gradcheck_linear():
    rng = np.random.default_rng(27)
    for _ in range(5):
        err = oracles.gradcheck(T.op_matmul, [rand(rng, 4, 3), rand(rng, 3, 5), rand(rng, 5)])
        assert err <= 1e-5


def test_gradcheck_local_mix():
    # unsorted ids, a segment of one row, and an empty last segment
    rng = np.random.default_rng(28)
    ids = np.array([0, 2, 2, 1, 0, 2])
    for _ in range(5):
        err = oracles.gradcheck(lambda a: T.op_local_mix(a, ids, 4), [rand(rng, 6, 3)])
        assert err <= 1e-5


def test_gradcheck_softmax_xent():
    # op_linear_softmax_xent in x, w and b, and in x and w without a bias;
    # rows of unequal total weight, and a row whose weights sum to 0
    rng = np.random.default_rng(25)
    targets = rng.dirichlet(np.ones(5), size=4) * np.array([[1.0], [0.3], [0.0], [2.5]])
    for _ in range(5):
        x, w, b = rand(rng, 4, 3), rand(rng, 3, 5), rand(rng, 5)
        err = oracles.gradcheck(
            lambda x, w, b: T.op_linear_softmax_xent(x, w, b, targets, 0.7), [x, w, b])
        assert err <= 1e-5
        err = oracles.gradcheck(
            lambda x, w: T.op_linear_softmax_xent(x, w, None, targets, 0.7), [x, w])
        assert err <= 1e-5


def test_every_op_has_a_gradcheck(monkeypatch):
    """The ``op_*`` functions the gradcheck tests call are exactly the ones
    ``concerto.tensor`` defines: a new op needs a gradcheck, and a deleted op
    leaves no row behind."""
    ops = {name: fn for name, fn in vars(T).items() if name.startswith("op_")}
    exercised = set()
    real_gradcheck = oracles.gradcheck

    def recorder(name, fn):
        def wrapper(*args, **kwargs):
            exercised.add(name)
            return fn(*args, **kwargs)
        return wrapper

    def recording_gradcheck(op, arrays, **kw):
        # an op passed directly, not looked up inside a lambda
        exercised.update(name for name, fn in ops.items() if fn is op)
        with monkeypatch.context() as m:
            for name, fn in ops.items():
                m.setattr(T, name, recorder(name, fn))
            op(*[T.param(a) for a in arrays])
        return real_gradcheck(op, arrays, **kw)

    monkeypatch.setattr(oracles, "gradcheck", recording_gradcheck)
    for name, op, arity, shape in OPS_FOR_GRADCHECK:
        if op is not None:
            test_gradcheck_random_instances(name, op, arity, shape)
    for name, test in list(globals().items()):
        if name.startswith("test_gradcheck_") and name != "test_gradcheck_random_instances":
            test()
    TestBackward().test_matmul_grad_vs_finite_differences()
    assert exercised == set(ops)


# Every op with float32 operands: one row per op_* (and per branch of the
# ops that have several), each a function of tensors and their shapes.
XENT_ROWS = T.gemm_block_rows(6, 300, np.float32) + 7  # past one block of the fused cross-entropy
FLOAT32_CASES = [
    ("add", lambda a, b: T.op_add(a, b), [(3, 4), (3, 4)]),
    ("add_scalar", lambda a: T.op_add(a, 0.3), [(3, 4)]),
    ("add_bias", lambda a, b: T.op_add(a, b), [(3, 4), (4,)]),
    ("mul", lambda a, b: T.op_mul(a, b), [(3, 4), (3, 4)]),
    ("mul_scalar", lambda a: T.op_mul(a, -1.7), [(3, 4)]),
    ("mul_row", lambda a, b: T.op_mul(a, b), [(3, 4), (4,)]),
    ("gelu", lambda a: T.op_gelu(a), [(3, 4)]),
    ("gelu_blocks", lambda a: T.op_gelu(a), [(300, 257)]),  # past one kernel block
    ("mean", lambda a: T.op_mean(a), [(3, 4)]),
    ("sum", lambda a: T.op_sum(a), [(3, 4)]),
    ("gather_concat", lambda *ts: T.op_gather_concat(ts, [[4, 0, 4, 2], None, [2, 2, 0, 1]]),
     [(5, 2), (4, 3), (3, 1)]),
    ("concat_rows", lambda *ts: T.op_concat_rows(ts), [(2, 3), (4, 3)]),
    ("matmul", lambda a, b: T.op_matmul(a, b, None), [(4, 5), (5, 3)]),
    ("linear", lambda x, w, b: T.op_matmul(x, w, b), [(4, 5), (5, 3), (3,)]),  # with a bias
    ("gather_linear", lambda a, c, e, w, b: T.op_gather_linear(
        [a, c, e], [[4, 0, 4, 2], None, [2, 2, 0, 1]], w, b),
     [(5, 2), (4, 3), (3, 1), (6, 3), (3,)]),
    ("softmax_xent", lambda x, w, b: T.op_linear_softmax_xent(
        x, w, b, np.random.default_rng(8).dirichlet(np.ones(5), size=4), 0.1),
     [(4, 3), (3, 5), (5,)]),
    ("softmax_xent_no_bias", lambda x, w: T.op_linear_softmax_xent(
        x, w, None, np.random.default_rng(8).dirichlet(np.ones(5), size=4), 0.1),
     [(4, 3), (3, 5)]),
    ("softmax_xent_blocks", lambda x, w: T.op_linear_softmax_xent(
        x, w, None, np.random.default_rng(8).dirichlet(np.ones(300), size=XENT_ROWS) / XENT_ROWS,
        0.5), [(XENT_ROWS, 6), (6, 300)]),
    ("softmax_xent_keeps_g", lambda x, w, b: T.op_linear_softmax_xent(  # d > k
        x, w, b, np.random.default_rng(8).dirichlet(np.ones(3), size=4), 0.1),
     [(4, 5), (5, 3), (3,)]),
    ("layernorm", lambda a: T.op_layernorm(a), [(3, 6)]),
    ("l2norm", lambda a: T.op_l2norm(a), [(3, 6)]),
    ("cosine", lambda a, b: T.op_cosine(a, b), [(4, 5), (4, 5)]),
    ("segment_mean", lambda a: T.op_segment_mean(a, [0, 2, 2, 1, 0, 2], 4), [(6, 3)]),
    ("local_mix", lambda a: T.op_local_mix(a, [0, 2, 2, 1, 0, 2], 4), [(6, 3)]),
]
# float32's unit roundoff is 2^-24 (6e-8); each case stays within ~16 of it
F32_TOL = 1e-6


def _max_rel_err(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-30))


@pytest.mark.parametrize("name,op,shapes", FLOAT32_CASES, ids=[row[0] for row in FLOAT32_CASES])
def test_float32_operands_compute_in_float32(name, op, shapes):
    """With float32 operands an op's output and every cotangent of its VJP
    are float32, and both agree with the float64 computation within F32_TOL
    of their largest magnitude."""
    rng = np.random.default_rng(41)
    arrays = [rand(rng, *shape) for shape in shapes]
    out64 = op(*[T.param(a) for a in arrays])
    out32 = op(*[T.param(a.astype(np.float32)) for a in arrays])
    assert out32.data.dtype == np.float32
    assert _max_rel_err(out32.data, out64.data) <= F32_TOL
    g = rand(rng, *out64.shape)
    for c32, c64 in zip(out32._vjp(g.astype(np.float32)), out64._vjp(g), strict=True):
        assert c32.dtype == np.float32
        assert _max_rel_err(c32, c64) <= F32_TOL


def test_every_op_has_a_float32_case(monkeypatch):
    """The float32 cases call exactly the ``op_*`` functions that
    ``concerto.tensor`` defines."""
    ops = {name: fn for name, fn in vars(T).items() if name.startswith("op_")}
    exercised = set()

    def recorder(name, fn):
        def wrapper(*args, **kwargs):
            exercised.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in ops.items():
        monkeypatch.setattr(T, name, recorder(name, fn))
    rng = np.random.default_rng(42)
    for _name, op, shapes in FLOAT32_CASES:
        op(*[T.Tensor(rand(rng, *shape).astype(np.float32)) for shape in shapes])
    assert exercised == set(ops)


class TestGeluFloat32:
    """The float32 GELU kernel against float64 x * Phi(x), with Phi from
    scipy's ``ndtr``: within TOL * max(1, |x|) in value and derivative."""

    TOL = 5e-7

    @staticmethod
    def oracle(x):
        x = np.asarray(x, dtype=np.float64)
        pdf = np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
        return x * ndtr(x), ndtr(x) + x * pdf

    def check(self, x):
        x = np.asarray(x, dtype=np.float32)
        out = T.op_gelu(T.param(x))
        g = np.random.default_rng(5).uniform(0.5, 2.0, size=x.shape).astype(np.float32)
        (cot,) = out._vjp(g)
        want, deriv = self.oracle(x)
        scale = self.TOL * np.maximum(1.0, np.abs(x.astype(np.float64)))
        assert out.data.dtype == cot.dtype == np.float32
        assert out.data.shape == cot.shape == x.shape
        assert np.all(np.abs(out.data - want) <= scale)
        assert np.all(np.abs(cot - g * deriv) <= scale * g)
        # an untracked input takes the same forward pass without the derivative
        np.testing.assert_array_equal(T.op_gelu(T.Tensor(x)).data, out.data)

    def test_dense_grid(self):
        self.check(np.linspace(-12.0, 12.0, 1_000_001))

    @pytest.mark.parametrize("value", [-12.0, -5.7, -1.0, 0.0, 0.3, 4.0, 12.0])
    def test_zero_dimensional(self, value):
        self.check(np.array(value))

    @pytest.mark.parametrize("size", [1, 7, T._GELU_BLOCK - 1, T._GELU_BLOCK + 1,
                                      3 * T._GELU_BLOCK + 129])
    def test_sizes_that_are_not_a_multiple_of_the_block(self, size):
        self.check(np.random.default_rng(size).normal(scale=4.0, size=size))

    def test_two_dimensional_across_blocks(self):
        self.check(np.random.default_rng(3).normal(scale=3.0, size=(517, 300)))

    def test_cdf_stays_in_unit_interval(self):
        # with Phi in [0, 1], x * Phi lies between 0 and x
        x = np.concatenate([np.linspace(-40.0, 40.0, 200_001), [-1e30, -3e4, 3e4, 1e30],
                            np.float32(np.sqrt(2.0) * 4.0) * np.array([-1.0, 1.0])])
        x = x.astype(np.float32)
        y = T.op_gelu(T.Tensor(x)).data
        assert np.all(np.minimum(x, 0) <= y) and np.all(y <= np.maximum(x, 0))

    def test_infinities_and_nan(self):
        # as scipy's erf gives them: inf * 1 = inf, -inf * 0 = nan, nan
        with np.errstate(invalid="ignore"):
            y = T.op_gelu(T.Tensor(np.array([np.inf, -np.inf, np.nan], dtype=np.float32)))
        assert y.data.dtype == np.float32
        assert y.data[0] == np.inf and np.isnan(y.data[1]) and np.isnan(y.data[2])

    def test_float64_keeps_float64_accuracy(self):
        x = np.linspace(-12.0, 12.0, 10_001)
        want, _deriv = self.oracle(x)
        err = np.abs(T.op_gelu(T.Tensor(x)).data - want)
        assert np.all(err <= 1e-15 * np.maximum(1.0, np.abs(x)))


def test_importing_the_pipeline_leaves_scipy_special_unloaded():
    # only float64 GELU reads scipy.special's erf, and no pipeline code
    # computes GELU in float64; loading it cost 0.06-0.09 s of every import
    src = str(Path(T.__file__).resolve().parents[1])
    code = ("import sys; import concerto.dataio, concerto.encoder, concerto.objectives, "
            "concerto.trainer, concerto.probes; print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert out.stdout.strip() == "False"
