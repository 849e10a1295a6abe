"""Dense float32 or float64 tensors with reverse-mode automatic
differentiation.

The engine is an eager tape of graph nodes. An op whose operand needs a
gradient gives its output a ``_Node``: the op name, the creation order,
the vector-Jacobian closure and the operands' nodes, where a leaf tensor is
its own node. A node holds no strong reference to its output's value and
none to its output tensor, so the graph has no reference cycle, and each
closure captures only the arrays and flags its VJP reads. A forward value
that no VJP reads is therefore freed, by reference counting, as soon as the
forward code drops its tensor, as PyTorch's ``grad_fn`` nodes keep only what
their backward saved (Paszke et al., arXiv 1912.01703). ``backward`` replays
the reachable part of the tape in reverse creation order (creation order is
a topological order under eager execution) and accumulates gradients into
leaf tensors created with ``requires_grad=True``.

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
That kernel runs on one thread, so a head whose blocks stay within it
(rows * d * k <= 10^6; every 6-class probe head) takes a class-major pass,
whose (k, rows) block logits reduce over classes along axis 0, with its
blocks on ``map_blocks``' thread pool, one worker per usable CPU; the
blocks' results are summed in block order, so the bits do not depend on
the worker count (timings in ``BENCH_class_major_probe_head.json``). The
workers call only numpy and BLAS, never an ``op_*``. Wider heads (the
prototype heads) keep the row-major pass, whose GEMMs OpenBLAS runs on all
its threads.
The one product op, ``op_matmul``, takes a bias that may be None and adds
it into the product's buffer. It and ``op_local_mix`` (segment mean,
gather, add and halving) write into one output buffer what the unfused
chains wrote into two and four arrays, with the same arithmetic, and record
one node where those recorded two and four. ``op_gather_linear`` is
``op_matmul`` of ``op_gather_concat`` without the concatenation: each
operand meets its block of the weight on its own rows, so the wide gathered
input is never allocated or written. ``op_gather_concat`` itself, the
encoder's upcast, fills its output in row blocks on the same pool: the
copies are exact, so its bits do not depend on the worker count either, and
each block's gathered temporary stays in cache (timings in
``BENCH_pooled_upcast.json``). Row and segment indices must be 1-D integer
arrays. The plain-array helpers ``softmax_np`` and ``segment_sum_np``
record nothing.
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
import os
import weakref
from concurrent.futures import ThreadPoolExecutor
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
_BLOCKS_PER_TASK = 8  # row blocks per task of ``map_blocks``' pool
_pool: Optional[ThreadPoolExecutor] = None  # ``map_blocks``' workers, made on first use


class Tensor:
    """N-dimensional float32 or float64 array, optionally tracked for
    gradients. A float32 input stays float32; any other input becomes
    float64.

    A tensor created directly (a constant or a parameter) is a leaf and its
    own graph node. A tensor returned by an op with a tracked operand holds
    its ``_Node``, whose op name, closure and parents ``_op``, ``_vjp`` and
    ``_parents`` read; constants with ``requires_grad=False`` never
    accumulate gradient.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node", "_order")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[_Node] = None
        self._order = next(_CREATION_COUNTER)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def _op(self) -> str:
        return "leaf" if self._node is None else self._node._op

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _vjp(self):
        return None if self._node is None else self._node._vjp

    @_vjp.setter
    def _vjp(self, vjp):
        self._node._vjp = vjp

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"


class _Node:
    """The tape's record of one op output: its op name, creation order, VJP
    closure and parents (the operands' nodes, a leaf tensor standing for
    itself). ``data`` is the output's value while something else keeps it
    alive, and an empty array once it is freed; the node never keeps it."""

    __slots__ = ("_op", "_order", "_vjp", "_parents", "_value")
    requires_grad = True  # a node exists only for an output that needs its gradient

    def __init__(self, out: Tensor, op: str, parents: Sequence[Tensor], vjp):
        self._op = op
        self._order = out._order
        self._vjp = vjp
        self._parents = tuple(p if p._node is None else p._node for p in parents)
        self._value = weakref.ref(out.data)

    @property
    def data(self) -> np.ndarray:
        value = self._value()
        return np.empty(0) if value is None else value


def param(data) -> Tensor:
    """Leaf tensor that accumulates gradient."""
    return Tensor(data, requires_grad=True)


def _record(data, op: str, parents: Sequence[Tensor], vjp) -> Tensor:
    """Wrap a forward result; record its node only if a parent needs grad."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(out, op, parents, vjp)
    return out


def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``.grad``.

    ``loss`` must be a scalar. A loss with no recorded graph (a constant)
    leaves every gradient untouched, i.e. zero.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    # Gather the reachable subgraph, then replay in reverse creation order.
    root = loss if loss._node is None else loss._node
    nodes = []
    seen = set()
    stack = [root]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
    nodes.sort(key=lambda t: t._order)

    grads = {id(root): np.ones_like(loss.data)}
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
        track_a, track_b = a.requires_grad, b.requires_grad
        return _record(a.data + b.data, "add_bias", [a, b],
                       lambda g: (g if track_a else None,
                                  g.sum(axis=0) if track_b else None))
    raise ValueError(f"op_add shape mismatch: {a.data.shape} vs {b.data.shape}")


def op_mul(a: Tensor, b) -> Tensor:
    """Elementwise product; ``b`` may be a python scalar, a same-shape tensor,
    or a 1-D row factor applied across the last dimension of a 2-D tensor."""
    if not isinstance(b, Tensor) and np.isscalar(b):
        bval = float(b)
        return _record(a.data * bval, "mul_scalar", [a], lambda g: (g * bval,))
    b = _as_tensor(b)
    # each operand's cotangent reads the other operand's value
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None
    if a.data.shape == b.data.shape:
        return _record(a.data * b.data, "mul", [a, b],
                       lambda g: (None if bd is None else g * bd,
                                  None if ad is None else g * ad))
    if a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]:
        return _record(a.data * b.data, "mul_row", [a, b],
                       lambda g: (None if bd is None else g * bd,
                                  None if ad is None else (g * ad).sum(axis=0)))
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

    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd * _SQRT1_2))

    def vjp(g):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT_2PI
        return (g * (cdf + xd * pdf),)

    return _record(xd * cdf, "gelu", [x], vjp)


def op_mean(x: Tensor) -> Tensor:
    shape, dtype, n = x.data.shape, x.data.dtype, x.data.size

    def vjp(g):
        return (np.full(shape, float(g) / n, dtype),)

    return _record(np.array(x.data.mean()), "mean", [x], vjp)


def op_sum(x: Tensor) -> Tensor:
    shape, dtype = x.data.shape, x.data.dtype

    def vjp(g):
        return (np.full(shape, float(g), dtype),)

    return _record(np.array(x.data.sum()), "sum", [x], vjp)


def _int_index(i, what: str) -> np.ndarray:
    """``i`` as a 1-D int64 array. An index that is not 1-D, or a non-empty
    one of bools or floats, raises ``ValueError`` naming ``what``: a cast
    would read a mask as rows 0 and 1 and truncate floats."""
    a = np.asarray(i)
    if a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
        raise ValueError(f"{what} must be a 1-D integer array, got {a.dtype} of shape {a.shape}")
    return a.astype(np.int64, copy=False)


def _gather_indices(tensors: Sequence[Tensor], indices: Sequence, op: str):
    """The int64 row indices (None kept) of a row-gathering op over 2-D
    ``tensors`` and the common row count of the gathered blocks. An index
    that is not a 1-D integer array and unequal row counts raise
    ``ValueError``, an index out of range ``IndexError``."""
    if not tensors or len(tensors) != len(indices):
        raise ValueError(f"{op} needs one index (or None) per tensor")
    if any(t.data.ndim != 2 for t in tensors):
        raise ValueError(f"{op} expects 2-D tensors")
    idxs = [None if i is None else _int_index(i, f"{op} index") for i in indices]
    rows = [t.data.shape[0] if i is None else i.shape[0] for t, i in zip(tensors, idxs)]
    if len(set(rows)) != 1:
        raise ValueError(f"{op}: blocks have different row counts {rows}")
    for t, i in zip(tensors, idxs):
        if i is not None and i.size and (i.min() < 0 or i.max() >= t.data.shape[0]):
            raise IndexError(f"{op} index out of range")
    return idxs, rows[0]


def _gather_grad(g: np.ndarray, rows: int, i) -> np.ndarray:
    """The cotangent of a ``rows``-row operand for the cotangent ``g`` of its
    block gathered by ``i``."""
    return np.ascontiguousarray(g) if i is None else scatter_add_rows(g, i, rows)


def op_gather_concat(tensors: Sequence[Tensor], indices: Sequence) -> Tensor:
    """Column blocks of gathered rows: block i is ``tensors[i].data[indices[i]]``,
    and an index of None takes every row in order. The output is allocated
    once and filled in row blocks of ``block_rows`` rows (528 at 992 float32
    columns) on ``map_blocks``' pool: each row block s writes ``t[s]``, or
    ``t[i[s]]``, into its rows of every column block, so a gathered
    temporary holds one row block of one operand (at most 2^21 bytes) and
    stays in cache, where a whole-array gather wrote every row twice. The
    copies are exact, so the output has the same bits for any number of
    workers. The indices are checked on the calling thread before any
    block runs. Backward scatter-adds each block's gradient straight to its
    operand's rows."""
    idxs, n = _gather_indices(tensors, indices, "op_gather_concat")
    bounds = np.cumsum([0] + [t.data.shape[1] for t in tensors])
    dtype = np.result_type(*(t.data for t in tensors))
    out = np.empty((n, bounds[-1]), dtype)
    parts = [(t.data, i, a, b) for t, i, a, b in zip(tensors, idxs, bounds[:-1], bounds[1:])]

    def fill(s):
        for x, i, a, b in parts:
            out[s, a:b] = x[s] if i is None else x[i[s]]

    map_blocks(fill, row_blocks(n, block_rows(bounds[-1], dtype)))
    blocks = [(t.data.shape[0], t.requires_grad, i, a, b)
              for t, i, a, b in zip(tensors, idxs, bounds[:-1], bounds[1:])]

    def vjp(g):
        return tuple(_gather_grad(g[:, a:b], rows, i) if tracked else None
                     for rows, tracked, i, a, b in blocks)

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
    tracked = [t.requires_grad for t in tensors]

    def vjp(g):
        return tuple(np.ascontiguousarray(p) if track else None
                     for track, p in zip(tracked, np.split(g, splits, axis=0)))

    return _record(np.concatenate([t.data for t in tensors], axis=0),
                   "concat_rows", list(tensors), vjp)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def op_matmul(x: Tensor, w: Tensor, b: Optional[Tensor]) -> Tensor:
    """x @ w, plus b when b is not None, for an (n, d) x, a (d, k) w and a
    (k,) b, as one node: the bias is added into the product's buffer, one
    (n, k) allocation where a product then ``op_add`` made two. The VJP is
    (g @ w.T, x.T @ g, sum(g)), None for an untracked operand and no third
    entry without b; it keeps x only for a tracked w and w only for a
    tracked x."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"op_matmul inner dims disagree: {x.data.shape} x {w.data.shape}")
    has_b = b is not None
    if has_b and b.data.shape != w.data.shape[1:]:
        raise ValueError(f"op_matmul bias shape {b.data.shape} is not ({w.data.shape[1]},)")
    out = x.data @ w.data
    if has_b:
        out += b.data
    xd = x.data if w.requires_grad else None
    wd = w.data if x.requires_grad else None
    track_b = has_b and b.requires_grad

    def vjp(g):
        grads = (None if wd is None else g @ wd.T, None if xd is None else xd.T @ g)
        return (*grads, g.sum(axis=0) if track_b else None) if has_b else grads

    return _record(out, "matmul", [x, w, b] if has_b else [x, w], vjp)


def op_gather_linear(tensors: Sequence[Tensor], indices: Sequence, w: Tensor, b: Tensor) -> Tensor:
    """``op_matmul(op_gather_concat(tensors, indices), w, b)`` as one node
    without the concatenation: block i's rows w_i of w multiply x_i =
    ``tensors[i]`` on its own rows, then each product is gathered by
    ``indices[i]`` and summed, so the wide gathered input is never
    allocated or written. With gs = g scatter-added to x_i's rows (g for a
    None index), the VJP is gs @ w_i.T for x_i, x_i.T @ gs for w_i and
    sum(g) for b; it keeps the x_i only for a tracked w and w only for a
    tracked x_i."""
    idxs, n = _gather_indices(tensors, indices, "op_gather_linear")
    bounds = np.cumsum([0] + [t.data.shape[1] for t in tensors])
    if w.data.ndim != 2 or w.data.shape[0] != bounds[-1]:
        raise ValueError(f"op_gather_linear: blocks {bounds[-1]} wide do not match w "
                         f"{w.data.shape}")
    if b.data.shape != w.data.shape[1:]:
        raise ValueError(f"op_gather_linear bias shape {b.data.shape} is not ({w.data.shape[1]},)")
    out = None
    for t, i, lo, hi in zip(tensors, idxs, bounds[:-1], bounds[1:]):
        p = t.data @ w.data[lo:hi]
        p = p if i is None else p[i]
        out = p if out is None else np.add(out, p, out=out)
    out += b.data
    track_w, track_b = w.requires_grad, b.requires_grad
    w_shape, dtype = w.data.shape, w.data.dtype
    wd = w.data if any(t.requires_grad for t in tensors) else None
    blocks = [(t.data.shape[0], t.data if track_w else None, t.requires_grad, i, lo, hi)
              for t, i, lo, hi in zip(tensors, idxs, bounds[:-1], bounds[1:])]

    def vjp(g):
        gw = np.empty(w_shape, dtype) if track_w else None
        gts = []
        for rows, xd, track, i, lo, hi in blocks:
            gs = _gather_grad(g, rows, i) if track or track_w else None
            if track_w:
                np.matmul(xd.T, gs, out=gw[lo:hi])
            gts.append(gs @ wd[lo:hi].T if track else None)
        return (*gts, gw, g.sum(axis=0) if track_b else None)

    return _record(out, "gather_linear", [*tensors, w, b], vjp)


# ---------------------------------------------------------------------------
# normalization and similarity
# ---------------------------------------------------------------------------

def softmax_np(x: np.ndarray, temperature: float) -> np.ndarray:
    """Row softmax of x/temperature over the last dimension (no graph),
    computed in the buffer of the float array ``x``, which it returns."""
    if temperature <= 0:
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    x /= temperature
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def block_rows(width: int, dtype) -> int:
    """Rows per block of a blocked row pass: as many rows of ``width``
    columns of ``dtype`` as fit in ``_BLOCK_BYTES``, and at least one."""
    return max(1, _BLOCK_BYTES // (max(width, 1) * np.dtype(dtype).itemsize))


def row_blocks(n: int, rows: int) -> list:
    """Slices that cover ``n`` rows in blocks of ``rows``."""
    return [slice(a, a + rows) for a in range(0, n, rows)]


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


def map_blocks(fn, blocks: Sequence) -> list:
    """``[fn(b) for b in blocks]``, computed on one thread pool with a worker
    per usable CPU (``os.sched_getaffinity``), created on first use. Tasks
    of ``_BLOCKS_PER_TASK`` consecutive blocks go to whichever worker is
    free, and the results come back in block order. ``fn`` must call only
    numpy and BLAS, which release the interpreter lock in their loops, and
    must write only its own block's outputs; it must not call ``op_*`` or
    the other functions a tracer may wrap, whose span stack belongs to the
    calling thread. Its callers run on one thread, as the tape does, so the
    pool is made without a lock. They are ``op_gather_concat``'s fill,
    ``op_linear_softmax_xent``'s class-major pass (``_xent_classes``), and
    in ``probes`` the standardization statistics (``_moments``), the
    standardized copy of ``linear_probe`` and ``_evaluate``'s
    predictions."""
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(len(os.sched_getaffinity(0)),
                                   thread_name_prefix="concerto-blocks")
    tasks = [blocks[a:a + _BLOCKS_PER_TASK] for a in range(0, len(blocks), _BLOCKS_PER_TASK)]
    return [r for task in _pool.map(lambda bs: [fn(b) for b in bs], tasks) for r in task]


def _xent_rows(xd, wd, bd, wts, temperature, rows, kept, keep_g, dw, db):
    """``op_linear_softmax_xent``'s row-major pass: writes the kept gradient
    into ``kept`` and adds the head's gradient into ``dw`` and ``db`` (each
    None when not wanted); returns the loss."""
    n, k = xd.shape[0], wd.shape[1]
    logits = np.empty((min(rows, n), k), xd.dtype)  # one block's, reused
    row_weight = wts.sum(axis=1, keepdims=True)
    val = 0.0
    for a in range(0, n, rows):
        xb, wb, rw = xd[a:a + rows], wts[a:a + rows], row_weight[a:a + rows]
        z = np.matmul(xb, wd, out=logits[:xb.shape[0]])
        if bd is not None:
            z += bd
        z /= temperature
        z -= z.max(axis=1, keepdims=True)
        val -= float((wb * z).sum())
        e = np.exp(z, out=z)
        s = e.sum(axis=1, keepdims=True)
        val += float((rw * np.log(s)).sum())
        gb = np.multiply(e, rw / s, out=kept[a:a + rows] if keep_g else e)
        gb -= wb
        gb /= temperature
        if kept is not None and not keep_g:
            np.matmul(gb, wd.T, out=kept[a:a + rows])
        if dw is not None:
            dw += xb.T @ gb
        if db is not None:
            db += gb.sum(axis=0)
    return val


def _xent_classes(xd, wd, bd, wts, temperature, rows, kept, keep_g, dw, db):
    """``op_linear_softmax_xent``'s class-major pass, its blocks on
    ``map_blocks``' pool: as ``_xent_rows``, except that a kept G is
    written into ``kept`` as a (k, n) array."""
    n, d, k = xd.shape[0], xd.shape[1], wd.shape[1]
    wt = np.ascontiguousarray(wd.T)  # a transposed view halves the forward GEMM's speed
    wts_t = np.ascontiguousarray(wts.T)
    row_weight = wts_t.sum(axis=0)
    bcol = None if bd is None else bd[:, None]
    scaled = temperature != 1.0  # a division by 1 changes no bit but costs two passes a block
    count = -(-n // rows)
    terms = np.empty((count, 2))
    dws = None if dw is None else np.empty((count, d, k), xd.dtype)
    dbs = None if db is None else np.empty((count, k), xd.dtype)

    def block(i):
        blk = slice(i * rows, (i + 1) * rows)
        xb, wb, rw = xd[blk], wts_t[:, blk], row_weight[blk]
        z = wt @ xb.T
        if bcol is not None:
            z += bcol
        if scaled:
            z /= temperature
        z -= z.max(axis=0)
        terms[i, 0] = (wb * z).sum()
        e = np.exp(z, out=z)
        s = e.sum(axis=0)
        terms[i, 1] = (rw * np.log(s)).sum()
        e *= rw / s
        e -= wb
        if scaled:
            e /= temperature
        if keep_g:
            kept[:, blk] = e
        elif kept is not None:
            np.matmul(e.T, wt, out=kept[blk])
        if dws is not None:
            np.matmul(xb.T, e.T, out=dws[i])
        if dbs is not None:
            dbs[i] = e.sum(axis=1)

    map_blocks(block, range(count))
    # the slots are summed in one fixed order, whatever thread filled each
    if dw is not None:
        dw += dws.sum(axis=0)
    if db is not None:
        db += dbs.sum(axis=0)
    lin, lse = terms.sum(axis=0)
    return float(lse - lin)


def op_linear_softmax_xent(x: Tensor, w: Tensor, b: Optional[Tensor], weights: np.ndarray,
                           temperature: float) -> Tensor:
    """-sum(W * log_softmax((x @ w + b) / temperature)) for a constant (n, k)
    array W: a linear layer fused with its softmax cross-entropy, so the
    (n, k) logits never exist whole (Wijmans et al., arXiv 2411.09009).
    ``b`` may be None.

    The op walks the rows of x in blocks of ``gemm_block_rows(d, k)`` rows.
    Each block's logits, divided by temperature and shifted to a row max of
    0 (z), give its loss terms sum(rowsum(W) * log(s)) - sum(W * z), with s
    the row sums of exp(z), and its logits gradient G = (rowsum(W) *
    exp(z) / s - W) / temperature, from which the same pass accumulates
    dw += x_b.T @ G and db += sum(G). The block terms are summed in float64
    and the loss takes the operands' dtype.

    Two passes do this. A narrow head, whose blocks keep rows * d * k <=
    ``_SMALL_GEMM`` (every 6-class probe head), takes ``_xent_classes``:
    OpenBLAS runs such GEMMs on one thread, so the blocks are spread over
    ``map_blocks``' pool, one worker per usable CPU, and the logits are
    class-major, (k, rows), which makes the max and sum over classes
    vectorized reductions along axis 0 where a row-major block reduced
    rows of k elements. Each block's loss terms, dw and db are kept and
    summed in block order after the map, so the results have the same bits
    for any number of workers; at the linear probe's shape it is faster
    than the row-major pass (``BENCH_class_major_probe_head.json``). A wider
    head (a prototype head: rows x d x k = 512 x 256 x 1024 or 8,192 x 32 x
    64) takes ``_xent_rows``, whose GEMMs OpenBLAS already runs on all its
    threads.

    A tracked x keeps whichever of its gradients is narrower until
    backward: for d < k (a prototype head) the same pass writes G @ w.T,
    the (n, d) input gradient, otherwise the (n, k) G is kept (class-major
    on the narrow pass) and G @ w.T is taken in the VJP. Either way the VJP
    is g * (G @ w.T, dw, db); an untracked x keeps neither, and the head's
    gradient has the same bits either way.
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
    rows = gemm_block_rows(d, k, dtype)
    narrow = rows * d * k <= _SMALL_GEMM
    kept = None
    if keep_gx:
        kept = np.empty((n, d), dtype)
    elif keep_g:
        kept = np.empty((k, n) if narrow else (n, k), dtype)
    dw = np.zeros((d, k), dtype) if track_w else None
    db = np.zeros(k, dtype) if track_b else None
    xent_pass = _xent_classes if narrow else _xent_rows
    val = xent_pass(x.data, w.data, None if b is None else b.data, wts, temperature, rows,
                    kept, keep_g, dw, db)
    if keep_g and narrow:
        kept = kept.T  # (n, k), Fortran order: the VJP's GEMM reads it transposed
    wd = w.data if keep_g else None
    has_b = b is not None

    def vjp(g):
        scale = float(g)
        gx = None
        if keep_g:
            gx = kept @ wd.T
            gx *= scale
        elif keep_gx:
            gx = kept * scale
        grads = (gx, dw * scale if track_w else None, db * scale if track_b else None)
        return grads if has_b else grads[:2]

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
    ad, bd = a.data, b.data
    track_a, track_b = a.requires_grad, b.requires_grad

    def vjp(g):
        g = g[..., None]
        c = cos[..., None]
        d = den[..., None]
        m = clamped[..., None]

        def side(x, y, nx):  # d cos / d x, given the other operand y
            # where the denominator is clamped it is a constant
            nx = np.where(clamped, 1.0, nx)[..., None]
            free = g * (y / d - c * x / (nx * nx))
            return np.where(m, g * y / _EPS, free)

        return (side(ad, bd, na) if track_a else None,
                side(bd, ad, nb) if track_b else None)

    return _record(cos, "cosine", [a, b], vjp)


# ---------------------------------------------------------------------------
# segment pooling
# ---------------------------------------------------------------------------

def segment_sum_np(values: np.ndarray, ids: np.ndarray, num_segments: int) -> np.ndarray:
    """Per-segment row sum: the (num_segments, n) 0/1 incidence matrix times
    ``values`` (no graph). Column j of the matrix holds its single 1 at row
    ``ids[j]``, so it is built in CSC form without sorting. Ids outside
    ``[0, num_segments)`` raise ``IndexError``, ids that are not a 1-D
    integer array ``ValueError``; the output keeps the dtype of
    ``values``."""
    ids = _int_index(ids, "segment_sum_np ids")
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
    ids = np.asarray(segment_ids)
    if values.data.ndim != 2 or ids.shape != (values.data.shape[0],):
        raise ValueError("op_segment_mean expects (n, d) values and (n,) ids")
    ids = _int_index(ids, "op_segment_mean ids")
    means, counts = segment_mean_np(values.data, ids, num_segments)
    inv = 1.0 / np.maximum(counts, 1).astype(means.dtype)

    def vjp(g):
        return ((g * inv[:, None])[ids],)

    return _record(means, "segment_mean", [values], vjp)


def op_local_mix(x: Tensor, segment_ids, num_segments: int) -> Tensor:
    """(x + m[ids]) * 0.5, each row blended half and half with the mean m
    of its segment's rows, as one node that halves the sum in its own
    buffer: three arrays and one node where ``op_segment_mean``, a row
    gather, ``op_add`` and ``op_mul`` made four of each. The VJP, with
    g2 = g * 0.5, is g2 + (segment_sum(g2) * inv)[ids], inv the reciprocal
    segment sizes of ``op_segment_mean``, whose arithmetic and errors it
    keeps; it reads neither x nor the output."""
    ids = np.asarray(segment_ids)
    if x.data.ndim != 2 or ids.shape != (x.data.shape[0],):
        raise ValueError("op_local_mix expects (n, d) values and (n,) ids")
    ids = _int_index(ids, "op_local_mix ids")
    means, counts = segment_mean_np(x.data, ids, num_segments)
    inv = 1.0 / np.maximum(counts, 1).astype(means.dtype)
    out = x.data + means[ids]
    out *= 0.5

    def vjp(g):
        g2 = g * 0.5
        return (g2 + (segment_sum_np(g2, ids, num_segments) * inv[:, None])[ids],)

    return _record(out, "local_mix", [x], vjp)
