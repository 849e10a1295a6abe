"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is an eager tape: every differentiable operation records its
inputs and a vector-Jacobian closure on the output tensor at forward time.
``backward`` replays the reachable part of the tape in reverse creation
order (creation order is a topological order under eager execution) and
accumulates gradients into leaf tensors created with ``requires_grad=True``.

Only the operations the rest of the system needs are provided; there is no
general broadcasting beyond a 1-D row operand on the right of a 2-D one,
and concat. The one cross-entropy, ``op_softmax_xent``, is fused with its
log-softmax; the plain-array helpers ``softmax_np`` and ``segment_sum_np``
record nothing. The tests check every op's VJP against central finite
differences.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.special import erf

_CREATION_COUNTER = itertools.count()

_SQRT1_2 = 0.70710678118654752440
_INV_SQRT_2PI = 0.39894228040143267794
_EPS = 1e-8  # floor of the normalizing ops' variances and norms


class Tensor:
    """N-dimensional float64 array, optionally tracked for gradients.

    A tensor created directly (a constant or a parameter) is a leaf.
    Tensors returned by ops carry the recorded operation; constants with
    ``requires_grad=False`` never accumulate gradient.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_op", "_order")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
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

    def zero_grad(self):
        self.grad = None

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


def op_gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
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


def op_gather_concat(tensors: Sequence[Tensor], indices: Sequence) -> Tensor:
    """Column blocks of gathered rows: block i is ``tensors[i].data[indices[i]]``,
    and an index of None takes every row in order. The output is allocated
    once and each block written once; backward scatter-adds each block's
    gradient straight to its operand's rows."""
    if not tensors or len(tensors) != len(indices):
        raise ValueError("op_gather_concat needs one index (or None) per tensor")
    if any(t.data.ndim != 2 for t in tensors):
        raise ValueError("op_gather_concat expects 2-D tensors")
    idxs = [None if i is None else np.asarray(i, dtype=np.int64) for i in indices]
    rows = [t.data.shape[0] if i is None else i.shape[0] for t, i in zip(tensors, idxs)]
    if len(set(rows)) != 1:
        raise ValueError(f"op_gather_concat: blocks have different row counts {rows}")
    for t, i in zip(tensors, idxs):
        if i is not None and i.size and (i.min() < 0 or i.max() >= t.data.shape[0]):
            raise IndexError("op_gather_concat index out of range")
    bounds = np.cumsum([0] + [t.data.shape[1] for t in tensors])
    out = np.empty((rows[0], bounds[-1]))
    for t, i, a, b in zip(tensors, idxs, bounds[:-1], bounds[1:]):
        out[:, a:b] = t.data if i is None else t.data[i]

    def vjp(g):
        return tuple(None if not t.requires_grad
                     else np.ascontiguousarray(g[:, a:b]) if i is None
                     else segment_sum_np(g[:, a:b], i, t.data.shape[0])
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


def op_gather_rows(x: Tensor, index) -> Tensor:
    """Rows of a 2-D tensor selected by an integer array; backward scatter-adds."""
    idx = np.asarray(index, dtype=np.int64)
    if x.data.ndim != 2:
        raise ValueError("op_gather_rows expects a 2-D tensor")
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise IndexError("op_gather_rows index out of range")

    def vjp(g):
        return (scatter_add_rows(g, idx, x.data.shape[0]),)

    return _record(x.data[idx], "gather_rows", [x], vjp)


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


# ---------------------------------------------------------------------------
# normalization and similarity
# ---------------------------------------------------------------------------

def _shifted_exp(x: np.ndarray, temperature: float):
    """z = x / temperature shifted to a row max of 0, e = exp(z), e's row sums s."""
    if temperature <= 0:
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    z = x / temperature
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return z, e, e.sum(axis=-1, keepdims=True)


def softmax_np(x: np.ndarray, temperature: float) -> np.ndarray:
    """Row softmax of x/temperature over the last dimension (no graph)."""
    _z, e, s = _shifted_exp(x, temperature)
    e /= s
    return e


def op_softmax_xent(logits: Tensor, weights: np.ndarray, temperature: float) -> Tensor:
    """-sum(W * log_softmax(logits / temperature)) for a constant (n, k) array
    W, as sum(rowsum(W) * log(s)) - sum(W * z); the VJP, (rowsum(W) * e / s
    - W) / temperature, reuses the forward's exp e and row sums s."""
    w = np.asarray(weights, dtype=np.float64)
    if logits.data.ndim != 2 or w.shape != logits.data.shape:
        raise ValueError(f"op_softmax_xent shape mismatch: {logits.data.shape} vs {w.shape}")
    z, e, s = _shifted_exp(logits.data, temperature)
    rw = w.sum(axis=1, keepdims=True)
    val = (rw * np.log(s)).sum() - (w * z).sum()

    def vjp(g):
        d = e * (rw / s)
        d -= w
        d *= float(g) / temperature
        return (d,)

    return _record(np.array(val), "softmax_xent", [logits], vjp)


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
    denom = np.maximum(counts, 1).astype(np.float64)
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
    inv = 1.0 / np.maximum(counts, 1).astype(np.float64)

    def vjp(g):
        return ((g * inv[:, None])[ids],)

    return _record(means, "segment_mean", [values], vjp)
