"""Dense float32 or float64 tensors with reverse-mode automatic
differentiation.

The engine is an eager tape: every differentiable operation records its
inputs and a vector-Jacobian closure on the output tensor at forward time.
``backward`` replays the reachable part of the tape in reverse creation
order (creation order is a topological order under eager execution) and
accumulates gradients into leaf tensors created with ``requires_grad=True``.

Only the operations the rest of the system needs are provided; there is no
general broadcasting beyond a 1-D row operand on the right of a 2-D one,
and concat. The one cross-entropy, ``op_linear_softmax_xent``, is fused
with the linear layer before it and with its log-softmax: it walks its rows
in blocks of ``gemm_block_rows`` rows, so the logits never exist whole, and
it accumulates the weight gradient in the same pass; a tracked input keeps,
until backward, the narrower of its own gradient and the logits gradient.
A block holds at most 2^21 bytes of its widest array; a narrow head's
block holds 2^19 bytes of input, which keeps its GEMMs on OpenBLAS's
small-matrix kernel.
The encoder's two fused ops, ``op_linear`` (matmul plus bias) and
``op_local_mix`` (segment mean, gather, add and halving), record one node
each where the unfused chains recorded two and four, so the tape keeps one
array per layer and per mix, with the same arithmetic. ``op_gather_linear``
is ``op_linear`` of ``op_gather_concat`` without the concatenation: each
operand meets its block of the weight on its own rows, so a layer over
several gathered feature stages keeps only its output on the tape. The
plain-array helpers ``softmax_np`` and ``segment_sum_np`` record nothing.
The tests check every op's VJP against central finite differences.

Precision follows the data: a tensor keeps a float32 array as float32 and
holds anything else as float64, and every op's output and cotangents take
their operands' dtype. The trainer and the linear and lora probes compute
in float32; the language probe and the gradchecks stay float64.

Float32 GELU has its own kernel, because ``scipy.special.erf`` is scalar
code (13-30 ns per float32 element on a 2-vCPU x86-64 machine, where a numpy
pass takes about 1 ns) and made GELU the costliest op outside BLAS. The
kernel, 3-4x faster there, evaluates Eigen's and XLA's float32 erf, an odd
rational function on [-4, 4], in blocks of 2^16 elements so that its
temporaries stay in cache; ``op_gelu`` gives the details. Float64 GELU keeps
scipy's erf: its callers (the gradchecks) want float64 accuracy, which the
float32 coefficients do not have. It imports ``scipy.special`` on first
use, so importing this module does not.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

_CREATION_COUNTER = itertools.count()

_SQRT1_2 = 0.70710678118654752440
_INV_SQRT_2PI = 0.39894228040143267794
# Eigen's and XLA's float32 erf: erf(z) ~ z * P(z^2) / Q(z^2) for z clamped
# to [-4, 4], where float32 erf has rounded to +-1; coefficients from the
# highest power down
_ERF_P = np.array([-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
                   -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
                   -1.60960333262415e-02], dtype=np.float32)
_ERF_Q = np.array([-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                   -7.37332916720468e-03, -1.42647390514189e-02], dtype=np.float32)
_GELU_BLOCK = 1 << 16  # elements per pass of the float32 GELU kernel
_BLOCK_BYTES = 1 << 21  # the widest array of one block of a blocked row pass
_GEMM_BYTES = 1 << 19  # the input of one block of a narrow head's blocked pass
_SMALL_GEMM = 10 ** 6  # OpenBLAS takes its small-matrix sgemm kernel at M * N * K <= this
_EPS = 1e-8  # floor of the normalizing ops' variances and norms


class Tensor:
    """N-dimensional float32 or float64 array, optionally tracked for
    gradients. A float32 input stays float32; any other input becomes
    float64.

    A tensor created directly (a constant or a parameter) is a leaf.
    Tensors returned by ops carry the recorded operation; constants with
    ``requires_grad=False`` never accumulate gradient.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_op", "_order")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._vjp = None
        self._op = "leaf"
        self._order = next(_CREATION_COUNTER)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"


def param(data) -> Tensor:
    """Leaf tensor that accumulates gradient."""
    return Tensor(data, requires_grad=True)


def _record(data, op: str, parents: Sequence[Tensor], vjp) -> Tensor:
    """Wrap a forward result; record the node only if a parent needs grad."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
        out._op = op
    return out


def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``.grad``.

    ``loss`` must be a scalar. A loss with no recorded graph (a constant)
    leaves every gradient untouched, i.e. zero.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    # Gather the reachable subgraph, then replay in reverse creation order.
    nodes = []
    seen = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
    nodes.sort(key=lambda t: t._order)

    grads = {id(loss): np.ones_like(loss.data)}
    for t in reversed(nodes):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        if t._vjp is None:
            if t.requires_grad:
                t.grad = g.copy() if t.grad is None else t.grad + g
            continue
        for parent, pg in zip(t._parents, t._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            k = id(parent)
            if k in grads:
                grads[k] = grads[k] + pg
            else:
                grads[k] = pg


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# elementwise and shape ops
# ---------------------------------------------------------------------------

def op_add(a: Tensor, b) -> Tensor:
    """a + b. Supports equal shapes, a python scalar, or a 1-D bias added
    row-wise to the last dimension of a 2-D tensor."""
    if not isinstance(b, Tensor) and np.isscalar(b):
        bval = float(b)
        return _record(a.data + bval, "add_scalar", [a], lambda g: (g,))
    b = _as_tensor(b)
    if a.data.shape == b.data.shape:
        return _record(a.data + b.data, "add", [a, b], lambda g: (g, g))
    if a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]:
        return _record(a.data + b.data, "add_bias", [a, b],
                       lambda g: (g if a.requires_grad else None,
                                  g.sum(axis=0) if b.requires_grad else None))
    raise ValueError(f"op_add shape mismatch: {a.data.shape} vs {b.data.shape}")


def op_mul(a: Tensor, b) -> Tensor:
    """Elementwise product; ``b`` may be a python scalar, a same-shape tensor,
    or a 1-D row factor applied across the last dimension of a 2-D tensor."""
    if not isinstance(b, Tensor) and np.isscalar(b):
        bval = float(b)
        return _record(a.data * bval, "mul_scalar", [a], lambda g: (g * bval,))
    b = _as_tensor(b)
    if a.data.shape == b.data.shape:
        return _record(a.data * b.data, "mul", [a, b],
                       lambda g: (g * b.data if a.requires_grad else None,
                                  g * a.data if b.requires_grad else None))
    if a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]:
        return _record(a.data * b.data, "mul_row", [a, b],
                       lambda g: (g * b.data if a.requires_grad else None,
                                  (g * a.data).sum(axis=0) if b.requires_grad else None))
    raise ValueError(f"op_mul shape mismatch: {a.data.shape} vs {b.data.shape}")


def _horner(coeffs: np.ndarray, t: np.ndarray, out: np.ndarray) -> None:
    """out = the polynomial with ``coeffs`` (highest power first) at t."""
    np.multiply(t, coeffs[0], out=out)
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= t
        out += c


def _gelu_f32(x: np.ndarray, with_grad: bool):
    """x * Phi(x) of a float32 array and, when ``with_grad``, its derivative
    Phi(x) + x * phi(x) (else None), both in one pass over blocks of
    ``_GELU_BLOCK`` elements."""
    flat = np.ascontiguousarray(x).reshape(-1)
    out = np.empty_like(flat)
    deriv = np.empty_like(flat) if with_grad else None
    z, z2, cdf, tmp = np.empty((4, min(flat.size, _GELU_BLOCK)), dtype=np.float32)
    for a in range(0, flat.size, _GELU_BLOCK):
        xb = flat[a:a + _GELU_BLOCK]
        k = xb.size
        zb, z2b, cb, tb = z[:k], z2[:k], cdf[:k], tmp[:k]
        np.multiply(xb, np.float32(_SQRT1_2), out=zb)
        np.clip(zb, -4.0, 4.0, out=zb)
        np.multiply(zb, zb, out=z2b)
        _horner(_ERF_P, z2b, cb)
        _horner(_ERF_Q, z2b, tb)
        cb *= zb
        cb /= tb  # erf(x / sqrt 2)
        cb *= 0.5
        cb += 0.5
        np.clip(cb, 0.0, 1.0, out=cb)  # Phi(x)
        np.multiply(xb, cb, out=out[a:a + k])
        if with_grad:
            np.multiply(xb, xb, out=tb)
            tb *= -0.5
            np.exp(tb, out=tb)
            tb *= np.float32(_INV_SQRT_2PI)  # phi(x)
            db = deriv[a:a + k]
            np.multiply(xb, tb, out=db)
            db += cb
    return out.reshape(x.shape), None if deriv is None else deriv.reshape(x.shape)


def op_gelu(x: Tensor) -> Tensor:
    """Exact GELU, x * Phi(x) with Phi the standard normal CDF (Hendrycks
    and Gimpel, arXiv 1606.08415).

    Float32 input runs ``_gelu_f32``: Phi(x) = (1 + erf(x / sqrt 2)) / 2,
    with erf from Eigen's and XLA's float32 rational approximation
    (``_ERF_P``, ``_ERF_Q``) and Phi clipped into [0, 1], in blocks of 2^16
    elements. Against float64 x * Phi(x), its error is at most
    5e-7 * max(1, |x|) (Phi itself is within 2.3e-7); +inf, -inf and NaN
    give inf, nan and nan. For a tracked input the same pass stores the
    derivative Phi(x) + x * phi(x), so the VJP is one multiply. Float64
    input keeps ``scipy.special.erf``, whose float64 accuracy the
    gradchecks need; it is imported on first use (0.06-0.09 s), so that no
    float32 run loads ``scipy.special``.
    """
    if x.data.dtype == np.float32:
        y, deriv = _gelu_f32(x.data, x.requires_grad)
        return _record(y, "gelu", [x], lambda g: (g * deriv,))
    from scipy.special import erf  # only the gradchecks get here; importing tensor skips it

    cdf = 0.5 * (1.0 + erf(x.data * _SQRT1_2))

    def vjp(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
        return (g * (cdf + x.data * pdf),)

    return _record(x.data * cdf, "gelu", [x], vjp)


def op_mean(x: Tensor) -> Tensor:
    n = x.data.size

    def vjp(g):
        return (np.full_like(x.data, float(g) / n),)

    return _record(np.array(x.data.mean()), "mean", [x], vjp)


def op_sum(x: Tensor) -> Tensor:
    def vjp(g):
        return (np.full_like(x.data, float(g)),)

    return _record(np.array(x.data.sum()), "sum", [x], vjp)


def _gather_indices(tensors: Sequence[Tensor], indices: Sequence, op: str):
    """The int64 row indices (None kept) of a row-gathering op over 2-D
    ``tensors`` and the common row count of the gathered blocks. Unequal
    row counts raise ``ValueError``, an index out of range ``IndexError``."""
    if not tensors or len(tensors) != len(indices):
        raise ValueError(f"{op} needs one index (or None) per tensor")
    if any(t.data.ndim != 2 for t in tensors):
        raise ValueError(f"{op} expects 2-D tensors")
    idxs = [None if i is None else np.asarray(i, dtype=np.int64) for i in indices]
    rows = [t.data.shape[0] if i is None else i.shape[0] for t, i in zip(tensors, idxs)]
    if len(set(rows)) != 1:
        raise ValueError(f"{op}: blocks have different row counts {rows}")
    for t, i in zip(tensors, idxs):
        if i is not None and i.size and (i.min() < 0 or i.max() >= t.data.shape[0]):
            raise IndexError(f"{op} index out of range")
    return idxs, rows[0]


def _gather_grad(g: np.ndarray, t: Tensor, i) -> np.ndarray:
    """The cotangent of ``t`` for a gathered block's cotangent ``g``."""
    return np.ascontiguousarray(g) if i is None else scatter_add_rows(g, i, t.data.shape[0])


def op_gather_concat(tensors: Sequence[Tensor], indices: Sequence) -> Tensor:
    """Column blocks of gathered rows: block i is ``tensors[i].data[indices[i]]``,
    and an index of None takes every row in order. The output is allocated
    once and each block written once; backward scatter-adds each block's
    gradient straight to its operand's rows."""
    idxs, n = _gather_indices(tensors, indices, "op_gather_concat")
    bounds = np.cumsum([0] + [t.data.shape[1] for t in tensors])
    out = np.empty((n, bounds[-1]), dtype=np.result_type(*(t.data for t in tensors)))
    for t, i, a, b in zip(tensors, idxs, bounds[:-1], bounds[1:]):
        out[:, a:b] = t.data if i is None else t.data[i]

    def vjp(g):
        return tuple(_gather_grad(g[:, a:b], t, i) if t.requires_grad else None
                     for t, i, a, b in zip(tensors, idxs, bounds[:-1], bounds[1:]))

    return _record(out, "gather_concat", list(tensors), vjp)


def op_concat_rows(tensors: Sequence[Tensor]) -> Tensor:
    """Stack (n_i, d) tensors along the row axis."""
    if not tensors:
        raise ValueError("op_concat_rows needs at least one tensor")
    width = tensors[0].data.shape[1:]
    for t in tensors:
        if t.data.shape[1:] != width:
            raise ValueError("op_concat_rows: trailing dimensions differ")
    splits = np.cumsum([t.data.shape[0] for t in tensors])[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(p) if t.requires_grad else None
                     for t, p in zip(tensors, np.split(g, splits, axis=0)))

    return _record(np.concatenate([t.data for t in tensors], axis=0),
                   "concat_rows", list(tensors), vjp)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def op_matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("op_matmul expects 2-D tensors")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"op_matmul inner dims disagree: {a.data.shape} x {b.data.shape}")

    def vjp(g):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _record(a.data @ b.data, "matmul", [a, b], vjp)


def op_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for an (n, d) x, a (d, k) w and a (k,) b, as one node: the
    bias is added into the product's buffer, so the tape keeps one (n, k)
    array where ``op_matmul`` then ``op_add`` kept two. The VJP is
    (g @ w.T, x.T @ g, sum(g)), None for an untracked operand."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"op_linear inner dims disagree: {x.data.shape} x {w.data.shape}")
    if b.data.shape != w.data.shape[1:]:
        raise ValueError(f"op_linear bias shape {b.data.shape} is not ({w.data.shape[1]},)")
    out = x.data @ w.data
    out += b.data

    def vjp(g):
        return (g @ w.data.T if x.requires_grad else None,
                x.data.T @ g if w.requires_grad else None,
                g.sum(axis=0) if b.requires_grad else None)

    return _record(out, "linear", [x, w, b], vjp)


def op_gather_linear(tensors: Sequence[Tensor], indices: Sequence, w: Tensor, b: Tensor) -> Tensor:
    """``op_linear(op_gather_concat(tensors, indices), w, b)`` as one node
    without the concatenation: block i's rows w_i of w multiply x_i =
    ``tensors[i]`` on its own rows, then each product is gathered by
    ``indices[i]`` and summed. With gs = g scatter-added to x_i's rows (g
    for a None index), the VJP is gs @ w_i.T for x_i, x_i.T @ gs for w_i
    and sum(g) for b."""
    idxs, n = _gather_indices(tensors, indices, "op_gather_linear")
    bounds = np.cumsum([0] + [t.data.shape[1] for t in tensors])
    if w.data.ndim != 2 or w.data.shape[0] != bounds[-1]:
        raise ValueError(f"op_gather_linear: blocks {bounds[-1]} wide do not match w "
                         f"{w.data.shape}")
    if b.data.shape != w.data.shape[1:]:
        raise ValueError(f"op_gather_linear bias shape {b.data.shape} is not ({w.data.shape[1]},)")
    blocks = list(zip(tensors, idxs, bounds[:-1], bounds[1:]))
    out = None
    for t, i, lo, hi in blocks:
        p = t.data @ w.data[lo:hi]
        p = p if i is None else p[i]
        out = p if out is None else np.add(out, p, out=out)
    out += b.data

    def vjp(g):
        gw = np.empty_like(w.data) if w.requires_grad else None
        gts = []
        for t, i, lo, hi in blocks:
            gs = _gather_grad(g, t, i) if t.requires_grad or w.requires_grad else None
            if w.requires_grad:
                np.matmul(t.data.T, gs, out=gw[lo:hi])
            gts.append(gs @ w.data[lo:hi].T if t.requires_grad else None)
        return (*gts, gw, g.sum(axis=0) if b.requires_grad else None)

    return _record(out, "gather_linear", [*tensors, w, b], vjp)


# ---------------------------------------------------------------------------
# normalization and similarity
# ---------------------------------------------------------------------------

def softmax_np(x: np.ndarray, temperature: float) -> np.ndarray:
    """Row softmax of x/temperature over the last dimension (no graph)."""
    if temperature <= 0:
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    z = x / temperature
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def block_rows(width: int, dtype) -> int:
    """Rows per block of a blocked row pass: as many rows of ``width``
    columns of ``dtype`` as fit in ``_BLOCK_BYTES``, and at least one."""
    return max(1, _BLOCK_BYTES // (max(width, 1) * np.dtype(dtype).itemsize))


def gemm_block_rows(d: int, k: int, dtype) -> int:
    """Rows per block of a blocked pass of an (n, d) input through a (d, k)
    matrix: ``block_rows(max(d, k))``, or the fewer rows of d columns that
    fit in ``_GEMM_BYTES`` where that puts the block's GEMMs (rows x d x k)
    within OpenBLAS's small-matrix kernel (``_SMALL_GEMM``). A 6-class head
    at d = 992 gets 132 rows (786k) instead of 528 (3.1M); a 13-class head
    keeps 528, as 132 rows (1.7M) would miss the kernel and only add blocks.
    """
    rows = block_rows(max(d, k), dtype)
    small = max(1, _GEMM_BYTES // (max(d, 1) * np.dtype(dtype).itemsize))
    return small if small < rows and small * d * k <= _SMALL_GEMM else rows


def op_linear_softmax_xent(x: Tensor, w: Tensor, b: Optional[Tensor], weights: np.ndarray,
                           temperature: float) -> Tensor:
    """-sum(W * log_softmax((x @ w + b) / temperature)) for a constant (n, k)
    array W: a linear layer fused with its softmax cross-entropy, so the
    (n, k) logits never exist whole (Wijmans et al., arXiv 2411.09009).
    ``b`` may be None.

    One pass walks the rows of x in blocks of ``gemm_block_rows(d, k)``
    rows. At the linear probe's shape (32,768 x 992 -> 6 classes, float32)
    an epoch took 41-45 ms at 132-168 rows, where each GEMM is within
    OpenBLAS's small-matrix kernel (M * N * K <= 10^6), and 51-57 ms from
    180 rows (1.07M) up to 528 (medians of 9 interleaved runs, 2 vCPUs).
    Each block's logits, divided by temperature and shifted to a row max of
    0 (z), give its loss terms sum(rowsum(W) * log(s)) - sum(W * z), with s
    the row sums of exp(z), and its logits gradient G = (rowsum(W) *
    exp(z) / s - W) / temperature, from which the same pass accumulates
    dw += x_b.T @ G and db += sum(G). The block terms are summed in float64
    and the loss takes the operands' dtype. A tracked x keeps whichever of
    its gradients is narrower until backward: for d < k (a prototype head)
    the same pass writes G @ w.T, the (n, d) input gradient, otherwise the
    (n, k) G is kept and G @ w.T is taken in the VJP. Either way the VJP is
    g * (G @ w.T, dw, db); an untracked x keeps neither.
    """
    if temperature <= 0:
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"op_linear_softmax_xent inner dims disagree: "
                         f"{x.data.shape} x {w.data.shape}")
    (n, d), k = x.data.shape, w.data.shape[1]
    if b is not None and b.data.shape != (k,):
        raise ValueError(f"op_linear_softmax_xent bias shape {b.data.shape} is not ({k},)")
    dtype = np.result_type(*(t.data for t in (x, w, b) if t is not None))
    wts = np.asarray(weights, dtype=dtype)
    if wts.shape != (n, k):
        raise ValueError(f"op_linear_softmax_xent weights shape {wts.shape} is not {(n, k)}")
    track_x, track_w = x.requires_grad, w.requires_grad
    track_b = b is not None and b.requires_grad
    keep_gx = track_x and d < k
    keep_g = track_x and not keep_gx
    kept = np.empty((n, d if keep_gx else k), dtype) if track_x else None
    dw = np.zeros((d, k), dtype) if track_w else None
    db = np.zeros(k, dtype) if track_b else None
    rows = gemm_block_rows(d, k, dtype)
    logits = np.empty((min(rows, n), k), dtype)  # one block's, reused
    row_weight = wts.sum(axis=1, keepdims=True)
    val = 0.0
    for a in range(0, n, rows):
        xb, wb, rw = x.data[a:a + rows], wts[a:a + rows], row_weight[a:a + rows]
        z = np.matmul(xb, w.data, out=logits[:xb.shape[0]])
        if b is not None:
            z += b.data
        z /= temperature
        z -= z.max(axis=1, keepdims=True)
        val -= float((wb * z).sum())
        e = np.exp(z, out=z)
        s = e.sum(axis=1, keepdims=True)
        val += float((rw * np.log(s)).sum())
        gb = np.multiply(e, rw / s, out=kept[a:a + rows] if keep_g else e)
        gb -= wb
        gb /= temperature
        if keep_gx:
            np.matmul(gb, w.data.T, out=kept[a:a + rows])
        if track_w:
            dw += xb.T @ gb
        if track_b:
            db += gb.sum(axis=0)

    def vjp(g):
        scale = float(g)
        gx = None
        if keep_g:
            gx = kept @ w.data.T
            gx *= scale
        elif keep_gx:
            gx = kept * scale
        grads = (gx, dw * scale if track_w else None, db * scale if track_b else None)
        return grads if b is not None else grads[:2]

    parents = [x, w] if b is None else [x, w, b]
    return _record(np.array(val, dtype=dtype), "linear_softmax_xent", parents, vjp)


def op_layernorm(x: Tensor) -> Tensor:
    """Zero-mean unit-variance normalization over the last dimension."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _EPS)
    y = xc * inv

    def vjp(g):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - y * gym),)

    return _record(y, "layernorm", [x], vjp)


def op_l2norm(x: Tensor) -> Tensor:
    """Row-wise L2 normalization x / max(||x||, _EPS)."""
    n = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    den = np.maximum(n, _EPS)
    clamped = n <= _EPS
    y = x.data / den

    def vjp(g):
        free = (g - y * (g * y).sum(axis=-1, keepdims=True)) / den
        return (np.where(clamped, g / _EPS, free),)

    return _record(y, "l2norm", [x], vjp)


def op_cosine(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise cosine similarity of two (n, d) tensors -> (n,)."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"op_cosine shape mismatch: {a.data.shape} vs {b.data.shape}")
    dot = (a.data * b.data).sum(axis=-1)
    na = np.sqrt((a.data * a.data).sum(axis=-1))
    nb = np.sqrt((b.data * b.data).sum(axis=-1))
    den = np.maximum(na * nb, _EPS)
    clamped = na * nb <= _EPS
    cos = dot / den

    def vjp(g):
        g = g[..., None]
        c = cos[..., None]
        d = den[..., None]
        m = clamped[..., None]

        def side(x, y, nx):  # d cos / d x, given the other operand y
            # where the denominator is clamped it is a constant
            nx = np.where(clamped, 1.0, nx)[..., None]
            free = g * (y.data / d - c * x.data / (nx * nx))
            return np.where(m, g * y.data / _EPS, free)

        return (side(a, b, na) if a.requires_grad else None,
                side(b, a, nb) if b.requires_grad else None)

    return _record(cos, "cosine", [a, b], vjp)


# ---------------------------------------------------------------------------
# segment pooling
# ---------------------------------------------------------------------------

def segment_sum_np(values: np.ndarray, ids: np.ndarray, num_segments: int) -> np.ndarray:
    """Per-segment row sum: the (num_segments, n) 0/1 incidence matrix times
    ``values`` (no graph). Column j of the matrix holds its single 1 at row
    ``ids[j]``, so it is built in CSC form without sorting. Ids outside
    ``[0, num_segments)`` raise ``IndexError``; the output keeps the dtype
    of ``values``."""
    ids = np.asarray(ids, dtype=np.int64)
    # unchecked ids would make scipy write outside its output buffer
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise IndexError("segment id out of range")
    n = ids.shape[0]
    incidence = sp.csc_matrix((np.ones(n, dtype=values.dtype), ids, np.arange(n + 1)),
                              shape=(num_segments, n))
    return incidence @ values


def segment_mean_np(values: np.ndarray, ids: np.ndarray, num_segments: int):
    """Per-segment row mean; returns (means, counts). Empty segments are zero."""
    sums = segment_sum_np(values, ids, num_segments)  # rejects bad ids before bincount
    counts = np.bincount(np.asarray(ids, dtype=np.int64), minlength=num_segments)
    denom = np.maximum(counts, 1).astype(sums.dtype)
    return sums / denom.reshape((-1,) + (1,) * (values.ndim - 1)), counts


def scatter_add_rows(rows: np.ndarray, index: np.ndarray, num_rows: int) -> np.ndarray:
    """Sum rows into an output of ``num_rows`` rows at positions ``index``."""
    return segment_sum_np(rows, index, num_rows)


def op_segment_mean(values: Tensor, segment_ids, num_segments: int):
    """Mean of value rows per segment id: a (num_segments, d) tensor with
    zero rows for empty segments. Backward scatters dOut/|segment| to each
    member row.
    """
    ids = np.asarray(segment_ids, dtype=np.int64)
    if values.data.ndim != 2 or ids.shape != (values.data.shape[0],):
        raise ValueError("op_segment_mean expects (n, d) values and (n,) ids")
    means, counts = segment_mean_np(values.data, ids, num_segments)
    inv = 1.0 / np.maximum(counts, 1).astype(means.dtype)

    def vjp(g):
        return ((g * inv[:, None])[ids],)

    return _record(means, "segment_mean", [values], vjp)


def op_local_mix(x: Tensor, segment_ids, num_segments: int) -> Tensor:
    """(x + m[ids]) * 0.5, each row blended half and half with the mean m
    of its segment's rows, as one node where ``op_segment_mean``, a row
    gather, ``op_add`` and ``op_mul`` kept four. The VJP, with
    g2 = g * 0.5, is g2 + (segment_sum(g2) * inv)[ids], inv the reciprocal
    segment sizes of ``op_segment_mean``, whose arithmetic and errors it
    keeps."""
    ids = np.asarray(segment_ids, dtype=np.int64)
    if x.data.ndim != 2 or ids.shape != (x.data.shape[0],):
        raise ValueError("op_local_mix expects (n, d) values and (n,) ids")
    means, counts = segment_mean_np(x.data, ids, num_segments)
    inv = 1.0 / np.maximum(counts, 1).astype(means.dtype)
    out = x.data + means[ids]
    out *= 0.5

    def vjp(g):
        g2 = g * 0.5
        return (g2 + (segment_sum_np(g2, ids, num_segments) * inv[:, None])[ids],)

    return _record(out, "local_mix", [x], vjp)
