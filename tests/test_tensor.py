import numpy as np
import pytest

import oracles
from concerto import tensor as T


def rand(rng, *shape):
    return rng.normal(size=shape)


class TestForwardValues:
    def test_matmul_identity(self):
        a = T.Tensor(np.eye(2))
        b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.op_matmul(a, b)
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])

    def test_matmul_basis_selection(self):
        out = T.op_matmul(T.Tensor([[1.0, 0.0]]), T.Tensor([[5.0], [7.0]]))
        np.testing.assert_array_equal(out.data, [[5.0]])

    def test_matmul_shape_error(self):
        with pytest.raises(ValueError):
            T.op_matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))

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
        with pytest.raises(ValueError):
            T.op_softmax_xent(T.Tensor([[1.0]]), np.ones((1, 1)), 0.0)

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
        # exp(-1000) underflows to 0, so the target class has probability 1
        w = np.array([[0.0, 1.0, 0.0]])
        logits = T.Tensor([[-1000.0, 0.0, -1000.0]])
        assert T.op_softmax_xent(logits, w, 1.0).item() == 0.0

    def test_cross_entropy_uniform_analytic(self):
        w = np.array([[0.5, 0.5]])
        logits = T.Tensor(np.log([[0.5, 0.5]]))
        np.testing.assert_allclose(T.op_softmax_xent(logits, w, 1.0).item(), np.log(2),
                                   atol=1e-12)

    def test_cross_entropy_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        p = rng.dirichlet(np.ones(16), size=8)
        x = rng.normal(size=(8, 16))
        got = T.op_softmax_xent(T.Tensor(x), p / 8, 0.7).item()
        acc = 0.0
        for i in range(8):
            lse = np.log(sum(np.exp(x[i, k] / 0.7) for k in range(16)))
            for k in range(16):
                acc -= p[i, k] * (x[i, k] / 0.7 - lse)
        np.testing.assert_allclose(got, acc / 8, atol=1e-12)

    def test_cross_entropy_shape_mismatch(self):
        with pytest.raises(ValueError):
            T.op_softmax_xent(T.Tensor(np.zeros((2, 3))), np.zeros((3, 2)), 1.0)

    def test_pool_gather_is_projection(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(30, 4))
        ids = rng.integers(0, 6, size=30)

        def pool_gather(x):
            m = T.op_segment_mean(T.Tensor(x), ids, 6)
            return T.op_gather_rows(m, ids).data

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
        err = oracles.gradcheck(T.op_matmul, [rand(rng, 4, 5), rand(rng, 5, 3)])
        assert err <= 1e-6

    def test_cross_entropy_blocks_target_grad(self):
        # the weights are a plain array: the tape records only the logits
        w = np.array([[0.3, 0.7]])
        logits = T.param(np.log([[0.5, 0.5]]))
        loss = T.op_softmax_xent(logits, w, 1.0)
        assert loss._parents == (logits,)
        T.backward(loss)
        np.testing.assert_allclose(logits.grad, [[0.2, -0.2]], atol=1e-15)
        np.testing.assert_array_equal(w, [[0.3, 0.7]])

    def test_softmax_xent_matches_log_softmax_composition(self):
        # the deleted op_log_softmax's forward and VJP, composed with
        # -sum(W * .), in plain numpy
        rng = np.random.default_rng(12)
        x = rng.normal(size=(60, 40)) * 3.0
        w = rng.random((60, 40))
        w[7] = 0.0
        w[3] *= 5.0
        t = 0.1
        z = x / t
        z = z - z.max(axis=-1, keepdims=True)
        logq = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        ref_loss = -(logq * w).sum()
        ref_grad = (-w + np.exp(logq) * w.sum(axis=-1, keepdims=True)) / t
        logits = T.param(x)
        loss = T.op_softmax_xent(logits, w, t)
        T.backward(loss)
        assert abs(loss.item() - ref_loss) <= 1e-12 * abs(ref_loss)
        assert np.abs(logits.grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
        np.testing.assert_array_equal(logits.grad[7], 0.0)


# ops with two or more operands, each with operand shapes
MULTI_OPERAND_OPS = [
    ("matmul", T.op_matmul, [(4, 5), (5, 3)]),
    ("mul", T.op_mul, [(3, 4), (3, 4)]),
    ("mul_row", T.op_mul, [(3, 4), (4,)]),
    ("add_bias", T.op_add, [(3, 4), (4,)]),
    ("cosine", T.op_cosine, [(4, 5), (4, 5)]),
    ("gather_concat", lambda *ts: T.op_gather_concat(ts, [[4, 0, 4, 2], None, [2, 2, 0, 1]]),
     [(5, 2), (4, 3), (3, 1)]),
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
        err = oracles.gradcheck(lambda a: T.op_gather_rows(a, idx), [rand(rng, 3, 4)])
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


def test_gradcheck_segment_mean():
    rng = np.random.default_rng(24)
    ids = np.array([0, 2, 2, 1, 0, 2])
    for _ in range(5):
        err = oracles.gradcheck(lambda a: T.op_segment_mean(a, ids, 4), [rand(rng, 6, 3)])
        assert err <= 1e-5


def test_gradcheck_softmax_xent():
    rng = np.random.default_rng(25)
    # rows of unequal total weight, and a row whose weights sum to 0
    w = rng.dirichlet(np.ones(5), size=4) * np.array([[1.0], [0.3], [0.0], [2.5]])
    for _ in range(5):
        logits = rng.normal(size=(4, 5))
        err = oracles.gradcheck(lambda x: T.op_softmax_xent(x, w, 0.7), [logits])
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
