"""Span tracing of concerto from outside: wrappers installed on the public
functions each layer exposes, at the names its callers look them up by.

A span is ``[name, start, end, parent]``. Spans are kept in memory and
written once, when the run ends. A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import concerto.dataio
import concerto.encoder
import concerto.objectives
import concerto.probes
import concerto.tensor
import concerto.trainer
import concerto.views


class Tracer:
    def __init__(self):
        self.spans = []                      # [name, start, end, parent index]
        self.counts = defaultdict(float)      # (root span name, key) -> total
        self.maxima = defaultdict(float)
        self._stack = []
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {self.spans[sid][0]} closed out of order")

    def top(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, key: str, n=1) -> None:
        """Add ``n`` to a counter of the outermost open span."""
        root = self.spans[self._stack[0]][0] if self._stack else None
        self.counts[(root, key)] += n

    def call(self, name, fn, *args, **kwargs):
        sid = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(sid)

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    # -- patching ------------------------------------------------------------

    def patch(self, module, attr: str, make_wrapper) -> None:
        orig = getattr(module, attr)
        setattr(module, attr, make_wrapper(orig))
        self._undo.append((module, attr, orig))

    def unpatch(self) -> None:
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    def spanned(self, name, on_return=None):
        """Wrapper factory: a span named ``name`` around each call, then
        ``on_return(args, result)`` outside the span."""
        def make(fn):
            def wrapper(*args, **kwargs):
                result = self.call(name, fn, *args, **kwargs)
                if on_return is not None:
                    on_return(args, result)
                return result
            return wrapper
        return make


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

def op_family(op: str) -> str:
    """``Tensor._op`` name to its reported family (add_bias -> add)."""
    base = op.split("_")[0]
    return base if base in ("add", "mul") else op


def _fn_family(fn_name: str) -> str:
    name = fn_name[len("op_"):]
    return "concat" if name == "concat_lastdim" else name


def _tape_size(loss):
    seen = set()
    stack = [loss]
    nbytes = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nbytes += t.data.nbytes
        stack.extend(t._parents)
    return len(seen), nbytes


def instrument(tr: Tracer) -> None:
    """Install every wrapper; ``tr.unpatch()`` removes them."""
    T = concerto.tensor

    def wrap_op(fn):
        fam = _fn_family(fn.__name__)
        fwd, calls = f"tensor.{fam}.fwd", f"tensor.{fam}.calls"

        def wrapper(*args, **kwargs):
            result = tr.call(fwd, fn, *args, **kwargs)
            tr.count(calls)
            out = result[0] if isinstance(result, tuple) else result
            if out._vjp is not None:
                vjp, bwd = out._vjp, f"tensor.{op_family(out._op)}.bwd"
                out._vjp = lambda g: tr.call(bwd, vjp, g)
            return result
        return wrapper

    for attr in sorted(vars(T)):
        if attr.startswith("op_") and callable(getattr(T, attr)):
            tr.patch(T, attr, wrap_op)
    tr.patch(T, "scatter_add_rows", tr.spanned("tensor.scatter_add_rows"))
    tr.patch(T, "segment_sum_np", tr.spanned("tensor.segment_sum_np"))

    def wrap_backward(fn):
        def wrapper(loss):
            phase = tr.begin("trainer.backward") if tr.top() == "trainer.step" else None
            try:
                walk = tr.begin("trace.tape_walk")
                nodes, nbytes = _tape_size(loss)
                tr.end(walk)
                tr.maxima["tensor.tape_nodes"] = max(tr.maxima["tensor.tape_nodes"], nodes)
                tr.maxima["tensor.tape_mb"] = max(tr.maxima["tensor.tape_mb"], nbytes / 2 ** 20)
                return tr.call("tensor.backward", fn, loss)
            finally:
                if phase is not None:
                    tr.end(phase)
        return wrapper

    tr.patch(T, "backward", wrap_backward)

    def phase(name, inner):
        """A trainer-phase span around an already layer-wrapped callee."""
        return lambda fn: tr.spanned(name)(inner(fn))

    def role_of(params):
        return "student" if next(iter(params.values())).requires_grad else "teacher"

    encode_span = tr.spanned("encoder.encode")

    def wrap_trainer_encode(fn):
        inner = encode_span(fn)

        def wrapper(view, params, *args, **kwargs):
            return tr.call(f"trainer.encode_{role_of(params)}", inner, view, params,
                           *args, **kwargs)
        return wrapper

    tr.patch(concerto.trainer, "encode", wrap_trainer_encode)
    tr.patch(concerto.probes, "encode", encode_span)
    for mod in (concerto.objectives, concerto.probes):
        tr.patch(mod, "upcast", tr.spanned("encoder.upcast"))

    def count_voxel_points(args, _grid):
        tr.count("geometry.voxelize.points", len(args[0]))

    for mod in (concerto.encoder, concerto.views):
        tr.patch(mod, "voxelize", tr.spanned("geometry.voxelize", count_voxel_points))

    def count_trainer_corr(_args, _corr):
        tr.count("trainer.build_correspondence.calls")

    for mod in (concerto.trainer, concerto.probes, concerto.dataio):
        on_return = count_trainer_corr if mod is concerto.trainer else None
        tr.patch(mod, "build_correspondence",
                 tr.spanned("geometry.build_correspondence", on_return))

    def count_view_points(_args, vs):
        tr.count("views.points", sum(v.cloud.num_points for v in vs.all_views))

    tr.patch(concerto.trainer, "make_viewset",
             phase("trainer.make_viewset", tr.spanned("views.make_viewset", count_view_points)))
    tr.patch(concerto.objectives, "match_views", tr.spanned("views.match_views"))

    def count_pairs(_args, result):
        tr.count("objectives.matched_pairs", result[2])

    def count_patches(args, result):
        tr.count("objectives.patches", sum(g.shape[0] for g in args[2]))
        tr.count("objectives.nonempty_patches", result[1])

    tr.patch(concerto.trainer, "intra_loss",
             phase("trainer.intra_loss", tr.spanned("objectives.intra_loss", count_pairs)))
    tr.patch(concerto.trainer, "cross_loss",
             phase("trainer.cross_loss", tr.spanned("objectives.cross_loss", count_patches)))
    tr.patch(concerto.objectives, "assign_patches", tr.spanned("objectives.assign_patches"))
    for name in ("adamw_step", "ema_update", "save_checkpoint"):
        tr.patch(concerto.trainer, name, tr.spanned(f"trainer.{name}"))

    for name in ("extract_features", "linear_probe", "language_probe"):
        tr.patch(concerto.probes, name, tr.spanned(f"probes.{name}"))
    tr.patch(concerto.probes, "lift_patch_features_to_points",
             tr.spanned("probes.lift_patch_features"))
    for name in ("generate_synthetic", "save_dataset", "load_all_samples"):
        tr.patch(concerto.dataio, name, tr.spanned(f"dataio.{name}"))

    def count_bytes(key):
        return lambda args, _result: tr.count(key, os.path.getsize(args[0]))

    for mod in (concerto.trainer, concerto.dataio):
        tr.patch(mod, "save_ctsr", tr.spanned("ctsr.save", count_bytes("ctsr.bytes_written")))
        tr.patch(mod, "load_ctsr", tr.spanned("ctsr.load", count_bytes("ctsr.bytes_read")))


# ---------------------------------------------------------------------------
# reduction to per-layer metrics
# ---------------------------------------------------------------------------

def span_times(spans):
    """Per span: (root index, inclusive seconds, self seconds)."""
    child = [0.0] * len(spans)
    root = [0] * len(spans)
    for sid, (_name, start, end, parent) in enumerate(spans):
        root[sid] = sid if parent < 0 else root[parent]
        if parent >= 0:
            child[parent] += end - start
    return [(root[sid], end - start, end - start - child[sid])
            for sid, (_name, start, end, _parent) in enumerate(spans)]


TRAINER_PHASES = ("make_viewset", "encode_student", "encode_teacher", "intra_loss",
                  "cross_loss", "backward", "adamw_step", "ema_update")

SETUP, ROUND = "bench.setup", "bench.round"


def layer_metrics(tr: Tracer, ops) -> dict:
    """Per-layer values from the traced part of a run.

    Trainer phases are inclusive seconds per traced step; they and
    ``trainer.other_s`` add up to ``trainer.step_s``. Every other ``_s``
    value is self time, except ``trainer.save_checkpoint_s`` which is
    inclusive. Values not per step are per set-up plus per round: the
    traced set-up total over the traced set-ups plus the traced round
    total over the traced rounds.
    """
    spans = tr.spans
    times = span_times(spans)
    units = {SETUP: 0, ROUND: 0}
    for name, _s, _e, parent in spans:
        if parent < 0 and name in units:
            units[name] += 1

    seconds = defaultdict(float)       # span name -> seconds per set-up plus round
    steps = 0
    step_total = 0.0
    phase_total = defaultdict(float)
    for sid, (name, _s, _e, parent) in enumerate(spans):
        root, inclusive, own = times[sid]
        unit = spans[root][0]
        if unit not in units:
            continue
        seconds[name] += (inclusive if name.startswith("trainer.") else own) / units[unit]
        if name == "trainer.step":
            steps += 1
            step_total += inclusive
        elif parent >= 0 and spans[parent][0] == "trainer.step":
            phase_total[name] += inclusive

    def per_unit(key):
        return sum(tr.counts[(unit, key)] / n for unit, n in units.items() if n)

    def per_step(x):
        return x / steps if steps else 0.0

    out = {}
    for ph in TRAINER_PHASES:
        out[f"trainer.{ph}_s"] = per_step(phase_total[f"trainer.{ph}"])
    named = sum(phase_total[f"trainer.{ph}"] for ph in TRAINER_PHASES)
    out["trainer.other_s"] = per_step(step_total - named)
    out["trainer.step_s"] = per_step(step_total)
    out["trainer.save_checkpoint_s"] = seconds["trainer.save_checkpoint"]
    out["trainer.build_correspondence.calls"] = per_unit("trainer.build_correspondence.calls")
    for op in ops:
        out[f"tensor.{op}.fwd_s"] = seconds[f"tensor.{op}.fwd"]
        out[f"tensor.{op}.bwd_s"] = seconds[f"tensor.{op}.bwd"]
        out[f"tensor.{op}.calls"] = per_unit(f"tensor.{op}.calls")
    for name in ("tensor.backward", "tensor.scatter_add_rows", "tensor.segment_sum_np",
                 "encoder.encode", "encoder.upcast", "geometry.voxelize",
                 "geometry.build_correspondence", "views.make_viewset",
                 "views.match_views", "objectives.intra_loss", "objectives.cross_loss",
                 "objectives.assign_patches", "probes.extract_features",
                 "probes.linear_probe", "probes.language_probe",
                 "probes.lift_patch_features", "dataio.generate_synthetic",
                 "dataio.save_dataset", "dataio.load_all_samples", "ctsr.save", "ctsr.load"):
        out[f"{name}_s"] = seconds[name]
    out["tensor.tape_nodes"] = tr.maxima["tensor.tape_nodes"]
    out["tensor.tape_mb"] = tr.maxima["tensor.tape_mb"]
    out["geometry.voxelize.points"] = per_unit("geometry.voxelize.points")
    out["views.points_per_step"] = per_step(tr.counts[(ROUND, "views.points")])
    out["objectives.matched_pairs"] = per_step(tr.counts[(ROUND, "objectives.matched_pairs")])
    patches = tr.counts[(ROUND, "objectives.patches")]
    out["objectives.patch_hit_ratio"] = (
        tr.counts[(ROUND, "objectives.nonempty_patches")] / patches if patches else 0.0)
    out["ctsr.bytes_written"] = per_unit("ctsr.bytes_written")
    out["ctsr.bytes_read"] = per_unit("ctsr.bytes_read")
    return out
