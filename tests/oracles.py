"""Reference implementations the tests compare the package against: central
finite-difference gradients for the tape's ops, the unfused linear softmax
cross-entropy, the projection head over a built upcast, a tape walker, a
recorder of the dtypes that reach the tape, an encode over a hierarchy of
its own, a block in which only reference counting frees objects, a reader
for the ASCII PLY files
``concerto.viz.export_ply`` writes, and a launcher of child interpreters
with a set OpenBLAS thread count."""

import gc
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from concerto import tensor as T
from concerto.encoder import INTRA_LEVEL, Hierarchy, encode, upcast


def encode_alone(view, params, cfg):
    """``encode`` of one view over a hierarchy built for it alone."""
    return encode(view, params, cfg, Hierarchy(view.cloud.coords, cfg))


def finite_difference_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def gradcheck(op, arrays, h: float = 1e-5) -> float:
    """Compare analytic gradients of a weighted sum of ``op(*tensors)``
    against central finite differences; returns the worst relative error.

    The probe loss uses fixed random weights so that ops with constant row
    sums (layernorm) still exercise a nonzero gradient.
    """
    tensors = [T.param(a.copy()) for a in arrays]
    out = op(*tensors)
    w = np.random.default_rng(1234).normal(size=out.data.shape)
    T.backward(T.op_sum(T.op_mul(out, T.Tensor(w))))
    worst = 0.0
    for i in range(len(arrays)):
        def f(x, i=i):
            args = [T.Tensor(t.data) for t in tensors]
            args[i] = T.Tensor(x)
            return float((op(*args).data * w).sum())

        num = finite_difference_grad(f, tensors[i].data.copy(), h=h)
        ana = tensors[i].grad if tensors[i].grad is not None else np.zeros_like(num)
        scale = max(np.abs(num).max(), np.abs(ana).max(), 1e-8)
        worst = max(worst, float(np.abs(num - ana).max() / scale))
    return worst


def linear_softmax_xent_reference(x, w, b, weights, temperature):
    """The unfused composition that ``T.op_linear_softmax_xent`` replaces,
    in float64 numpy: logits = x @ w (+ b), then -sum(W * log_softmax(logits
    / temperature)). Returns (loss, dx, dw, db); db is None when b is."""
    x, w, weights = (np.asarray(a, dtype=np.float64) for a in (x, w, weights))
    logits = x @ w
    if b is not None:
        logits = logits + np.asarray(b, dtype=np.float64)
    z = logits / temperature
    z = z - z.max(axis=-1, keepdims=True)
    logq = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    loss = -(weights * logq).sum()
    dlogits = (np.exp(logq) * weights.sum(axis=-1, keepdims=True) - weights) / temperature
    return (loss, dlogits @ w.T, x.T @ dlogits,
            None if b is None else dlogits.sum(axis=0))


def proj_head_reference(params, result):
    """``encoder.proj_head`` with its first layer an ``op_matmul`` of the
    built ``INTRA_LEVEL`` upcast, the composition ``op_gather_linear``
    replaces."""
    h = T.op_matmul(upcast(result, INTRA_LEVEL, None), params["proj.lin0.w"],
                    params["proj.lin0.b"])
    h = T.op_matmul(T.op_gelu(h), params["proj.lin1.w"], params["proj.lin1.b"])
    return T.op_l2norm(h)


def tape_nodes(out) -> list:
    """``out`` and every graph node the tape reaches from it, each once: an
    op output's node, or a leaf tensor, which is its own node."""
    nodes, seen, stack = [], set(), [out]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
    return nodes


@contextmanager
def refcounting_only():
    """Suspend the cyclic garbage collector for the block, so that an object
    freed inside it was freed by reference counting."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def record_tape_dtypes(monkeypatch) -> dict:
    """Patch ``T._record`` so that the returned dict collects the dtype of
    every op output ("node") and of every cotangent a backward pass passes
    through or returns ("cotangent")."""
    real_record = T._record
    dtypes = {"node": set(), "cotangent": set()}

    def recording(data, op, parents, vjp):
        dtypes["node"].add(np.asarray(data).dtype)

        def checked_vjp(g):
            cotangents = vjp(g)
            dtypes["cotangent"].update(np.asarray(c).dtype for c in (g, *cotangents)
                                       if c is not None)
            return cotangents
        return real_record(data, op, parents, checked_vjp)

    monkeypatch.setattr(T, "_record", recording)
    return dtypes


def load_ply(path):
    """Parse the ASCII PLY files ``export_ply`` writes; returns (coords, rgb u8)."""
    lines = Path(path).read_text().splitlines()
    if lines[0] != "ply" or lines[1] != "format ascii 1.0":
        raise ValueError(f"not an ascii PLY file: {path}")
    n = None
    body_at = None
    for i, line in enumerate(lines):
        if line.startswith("element vertex"):
            n = int(line.split()[-1])
        if line == "end_header":
            body_at = i + 1
            break
    if n is None or body_at is None:
        raise ValueError(f"malformed PLY header in {path}")
    rows = [line.split() for line in lines[body_at:body_at + n]]
    coords = np.array([[float(v) for v in r[:3]] for r in rows])
    colors = np.array([[int(v) for v in r[3:6]] for r in rows], dtype=np.uint8)
    return coords, colors


def child_env(threads) -> dict:
    """This process's environment for a fresh interpreter that imports this
    checkout's package, with OpenBLAS held to ``threads`` threads (None: its
    default)."""
    src = str(Path(T.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if threads:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def run_child(script, threads, *args):
    """The stdout of ``script`` run with ``args`` in a fresh interpreter
    under ``child_env(threads)``."""
    return subprocess.run([sys.executable, "-c", script, *args], env=child_env(threads),
                          capture_output=True, text=True, timeout=120, check=True).stdout
