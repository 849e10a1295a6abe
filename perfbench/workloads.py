"""The three workloads, driven through concerto's public API.

Every workload has a set-up (inputs made from the seed) and a round (the
unit of measured work, repeated to fill the run's seconds):

* ``pretrain`` / ``pretrain_points``: one ``trainer.train`` call over one
  epoch with a checkpoint at its end, then the checkpoint is reloaded and
  probed (feature extraction, linear probe, language probe).
* ``eval``: the same probe pass over a restored checkpoint of seeded
  initial parameters; its training loop is the linear-probe head.

Rounds are deterministic, so every round must reproduce the first one
exactly; a traced round doubles as the check that the tracing wrappers only
observe.
"""

from __future__ import annotations

import math
import resource
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from concerto import dataio, encoder, probes, trainer
from concerto.objectives import ClusterLossConfig
from concerto.views import AugmentConfig

import catalog
import tracing

SETUP_REPEATS = 5
# The workload seed draws the data; training and initial parameters use a
# fixed seed, so that on every seed a round does the same amount of work.
TRAIN_SEED = 0
# Seconds per round at full size on 2 CPUs at the commit that added the
# benchmark. A run does round(seconds / this) rounds, so the same code
# always does the same work, whatever the machine's load.
NOMINAL_ROUND_S = {"pretrain": 12.0, "pretrain_points": 9.0, "eval": 11.5}
# Linear-probe epochs (the library default is 50). Fewer keep an eval round
# short, so that each run has several timed rounds. The language probe keeps
# the default: after 20 epochs its cosine still varied by a sixth by seed.
LINEAR_PROBE_EPOCHS = 20


@dataclass(frozen=True)
class Size:
    scenes: int
    points: int


SIZES = {
    "full": {catalog.PRETRAIN: Size(2, 4096), catalog.POINTS: Size(2, 32768),
             catalog.EVAL: Size(4, 16384)},
    "small": {catalog.PRETRAIN: Size(2, 600), catalog.POINTS: Size(2, 1500),
              catalog.EVAL: Size(4, 600)},
}


def encoder_config(workload: str) -> encoder.EncoderConfig:
    if workload == catalog.POINTS:
        return encoder.EncoderConfig(stage_dims=[16, 24, 32, 48, 64], proto_count=64,
                                     proj_dim=32, cross_dim=16)
    return encoder.EncoderConfig(cross_dim=16)


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------

class Checks:
    """Named correctness checks; every attempt is one operation."""

    def __init__(self):
        self.attempted: Dict[str, int] = {}
        self.failed: Dict[str, int] = {}

    def record(self, name: str, ok: bool) -> None:
        self.attempted[name] = self.attempted.get(name, 0) + 1
        if not ok:
            self.failed[name] = self.failed.get(name, 0) + 1
            print(f"CHECK FAILED: {name}", flush=True)

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


class StepClock:
    """Times each training step from the trainer's ``make_viewset`` call to
    its step hook, which runs after the optimizer and EMA updates. With a
    tracer, each step is also a ``trainer.step`` span."""

    def __init__(self, tracer: Optional[tracing.Tracer] = None):
        self.tracer = tracer
        self.times: List[float] = []
        self._start = 0.0
        self._sid = -1

    def _begin(self):
        self._start = time.perf_counter()
        if self.tracer is not None:
            self._sid = self.tracer.begin("trainer.step")

    def hook(self, step, params, teacher, m_ema):
        self.times.append(time.perf_counter() - self._start)
        if self.tracer is not None:
            self.tracer.end(self._sid)

    @contextmanager
    def installed(self):
        orig = trainer.make_viewset

        def make_viewset(*args, **kwargs):
            self._begin()
            return orig(*args, **kwargs)

        trainer.make_viewset = make_viewset
        try:
            yield self
        finally:
            trainer.make_viewset = orig


@dataclass
class RoundResult:
    traced: bool
    step_times: List[float]
    train_s: float
    extract_s: float
    probe_s: float
    loss_final: float
    probe_miou: float
    language_cos: float
    signature: tuple        # every value a repeated round must reproduce


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _same_arrays(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


def samples_equal(a: List[dataio.SceneSample], b: List[dataio.SceneSample]) -> bool:
    if len(a) != len(b):
        return False
    for sa, sb in zip(a, b):
        ca, cb = sa.cloud, sb.cloud
        if sa.scene_id != sb.scene_id or len(sa.views) != len(sb.views):
            return False
        if not all(_same_arrays(getattr(ca, k), getattr(cb, k))
                   for k in ("coords", "colors", "normals", "labels")):
            return False
        for va, vb in zip(sa.views, sb.views):
            if not all(_same_arrays(getattr(va, k), getattr(vb, k))
                       for k in ("intrinsics", "rotation", "translation", "depth_map",
                                 "feature_grid")):
                return False
            if tuple(va.image_size) != tuple(vb.image_size) or va.patch_size != vb.patch_size:
                return False
    return True


def params_equal(a, b) -> bool:
    return a.keys() == b.keys() and all(_same_arrays(a[k].data, b[k].data) for k in a)


@dataclass
class Inputs:
    samples: List[dataio.SceneSample]
    params: Optional[Dict] = None        # eval: restored checkpoint parameters


def setup(workload: str, size: Size, seed: int, work: Path, checks: Checks) -> Inputs:
    spec = dataio.SyntheticSpec(num_scenes=size.scenes, points_per_scene=size.points,
                                seed=seed)
    samples, synthetic_a = dataio.generate_synthetic(spec)
    if workload != catalog.EVAL:
        return Inputs(samples=samples)
    enc_cfg = encoder_config(workload)
    half = size.scenes // 2
    splits = ["train"] * half + ["val"] * (size.scenes - half)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        path = dataio.save_dataset(samples, Path(tmp) / "data", spec.feature_dim,
                                   spec.patch_size, splits=splits, synthetic_a=synthetic_a)
        loaded = dataio.load_all_samples(dataio.load_manifest(path))
        checks.record("dataset_round_trip", samples_equal(samples, loaded))
        params = encoder.init_params(enc_cfg, seed=TRAIN_SEED)
        teacher = encoder.clone_params(params)
        ck_path = trainer.save_checkpoint(Path(tmp) / "init", params, teacher,
                                          trainer.AdamState.init(params),
                                          np.zeros(enc_cfg.proto_count), 0)
        ck = trainer.load_checkpoint(ck_path)
    checks.record("params_checkpoint_round_trip",
                  params_equal(params, ck.params) and params_equal(teacher, ck.teacher))
    return Inputs(samples=loaded, params=ck.params)


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def _probe_cross_entropy(result: probes.ProbeResult, train_scenes) -> float:
    """Mean training cross-entropy of the fitted linear-probe head."""
    x = np.concatenate([f for f, _ in train_scenes])
    y = np.concatenate([lab for _, lab in train_scenes])
    logits = (x - result.train_mu) * (1.0 / result.train_sd) @ result.weight + result.bias
    top = logits.max(axis=1, keepdims=True)
    lse = top[:, 0] + np.log(np.exp(logits - top).sum(axis=1))
    return float(np.mean(lse - logits[np.arange(y.size), y]))


def probe_pass(samples, params, enc_cfg, fit, held_out, language, checks: Checks) -> dict:
    """Frozen-feature evaluation: extract every scene, fit a linear probe on
    ``fit`` and score it on ``held_out`` (lists of (scene, point indices)),
    then lift patch features to points and fit the language probe on the
    ``language`` scenes."""
    cfg = probes.ProbeConfig(epochs=LINEAR_PROBE_EPOCHS)
    t0 = time.perf_counter()
    feats = [probes.extract_features(s, params, enc_cfg, level=enc_cfg.num_pool_steps)
             for s in samples]
    t1 = time.perf_counter()

    def pick(parts):
        return [(feats[i][idx], samples[i].cloud.labels[idx]) for i, idx in parts]

    train_scenes = pick(fit)
    num_classes = int(max(s.cloud.labels.max() for s in samples)) + 1
    result = probes.linear_probe(train_scenes, pick(held_out), num_classes, cfg)
    t2 = time.perf_counter()
    lifted = [probes.lift_patch_features_to_points(samples[i]) for i in language]
    _w, cos = probes.language_probe([(feats[i], target, valid) for i, (target, valid)
                                     in zip(language, lifted)], probes.ProbeConfig())
    t3 = time.perf_counter()
    miou = result.metrics.miou
    checks.record("features_finite", all(np.isfinite(f).all() for f in feats))
    checks.record("linear_probe_fit", math.isfinite(miou) and 0.0 < miou <= 1.0)
    checks.record("language_probe_fit", math.isfinite(cos) and -1.0 <= cos <= 1.0)
    return {"extract_s": t1 - t0, "linear_s": t2 - t1, "probe_s": t3 - t1,
            "miou": float(miou), "cos": float(cos), "epochs": cfg.epochs,
            "probe_loss": _probe_cross_entropy(result, train_scenes)}


def _checkpoint_matches(ck: trainer.Checkpoint, res: trainer.TrainResult, steps: int) -> bool:
    return (ck.step == steps and ck.state.step == res.state.step
            and params_equal(ck.params, res.params) and params_equal(ck.teacher, res.teacher)
            and all(_same_arrays(ck.state.m[k], res.state.m[k])
                    and _same_arrays(ck.state.v[k], res.state.v[k]) for k in res.params)
            and _same_arrays(ck.center, res.center))


def _point_split(samples):
    """Every other point of each scene to fit the probe, the rest held out:
    scored on all scenes, the probe's mIoU varies little from seed to seed."""
    points = [np.arange(s.cloud.num_points) for s in samples]
    return ([(i, p[0::2]) for i, p in enumerate(points)],
            [(i, p[1::2]) for i, p in enumerate(points)])


def pretrain_round(workload, inputs, work, checks, tracer) -> RoundResult:
    enc_cfg = encoder_config(workload)
    cfg = trainer.TrainConfig(epochs=1, checkpoint_every_epochs=1, seed=TRAIN_SEED,
                              image_usage_ratio=1.0)
    steps = len(inputs.samples)
    clock = StepClock(tracer)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        with clock.installed():
            t0 = time.perf_counter()
            res = trainer.train(inputs.samples, cfg, enc_cfg, AugmentConfig(),
                                ClusterLossConfig(), out_dir=tmp, step_hook=clock.hook)
            train_s = time.perf_counter() - t0
        losses = [row["total"] for row in res.log]
        for loss in losses:
            checks.record("step_loss_finite", math.isfinite(loss))
        checks.record("log_one_row_per_step",
                      [row["step"] for row in res.log] == list(range(steps))
                      and len(clock.times) == steps)
        ck = trainer.load_checkpoint(res.checkpoints[-1])
        checks.record("checkpoint_bit_exact", _checkpoint_matches(ck, res, steps))
    probe = probe_pass(inputs.samples, ck.params, enc_cfg, *_point_split(inputs.samples),
                       list(range(len(inputs.samples))), checks)
    return RoundResult(traced=tracer is not None, step_times=clock.times, train_s=train_s,
                       extract_s=probe["extract_s"], probe_s=probe["probe_s"],
                       loss_final=losses[-1], probe_miou=probe["miou"],
                       language_cos=probe["cos"],
                       signature=(tuple(losses), probe["miou"], probe["cos"]))


def eval_round(workload, inputs, work, checks, tracer) -> RoundResult:
    probe = probe_pass(inputs.samples, inputs.params, encoder_config(workload),
                       *_point_split(inputs.samples), [0], checks)
    return RoundResult(traced=tracer is not None,
                       step_times=[probe["linear_s"] / probe["epochs"]],
                       train_s=probe["linear_s"], extract_s=probe["extract_s"],
                       probe_s=probe["probe_s"], loss_final=probe["probe_loss"],
                       probe_miou=probe["miou"], language_cos=probe["cos"],
                       signature=(probe["probe_loss"], probe["miou"], probe["cos"]))


# ---------------------------------------------------------------------------
# a whole run
# ---------------------------------------------------------------------------

@dataclass
class Measurement:
    value: float
    unit: str
    n: int


def _median(xs) -> float:
    return float(statistics.median(xs))


def run(workload: str, seed: int, seconds: float, traced: bool, size_name: str,
        import_s: float, work: Path):
    """Set up, then do rounds for about ``seconds``. Returns (metrics, checks,
    info); metrics are the end-to-end ones untraced, the per-layer ones traced."""
    size = SIZES[size_name][workload]
    checks = Checks()
    tracer = tracing.Tracer() if traced else None
    one_round = eval_round if workload == catalog.EVAL else pretrain_round

    def maybe_traced(root, fn, *args):
        if tracer is None:
            return fn(*args)
        tracing.instrument(tracer)
        try:
            return tracer.call(root, fn, *args)
        finally:
            tracer.unpatch()

    # Set-up: repeated for setup_s; traced once for the per-layer view.
    setup_times = []
    for _ in range(1 if traced else SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = maybe_traced(tracing.SETUP, setup, workload, size, seed, work, checks)
        setup_times.append(time.perf_counter() - t0)

    # Rounds: a traced run alternates untraced and traced rounds, untraced
    # first. The first round is warm-up for every timing: it pays for
    # first-touch memory and caches. A program much slower than the nominal
    # cost stops early.
    planned = max(3 if traced else 2, round(seconds / NOMINAL_ROUND_S[workload]))
    rounds: List[RoundResult] = []
    start = time.perf_counter()
    for k in range(planned):
        t0 = time.perf_counter()
        if traced and k % 2 == 1:
            r = maybe_traced(tracing.ROUND, one_round, workload, inputs, work, checks,
                             tracer)
        else:
            r = one_round(workload, inputs, work, checks, None)
        if rounds:
            name = "trace_observes_only" if r.traced else "round_reproducible"
            checks.record(name, r.signature == rounds[0].signature)
        rounds.append(r)
        now = time.perf_counter()
        if k >= 2 and now - start + (now - t0) > 2 * seconds:
            break

    timed = [r for r in rounds[1:] if not r.traced]
    timed_steps = [t for r in timed for t in r.step_times]
    info = {"workload": workload, "seed": seed, "size": size_name, "rounds": len(rounds),
            "traced_rounds": sum(r.traced for r in rounds),
            "step_times": [t for r in rounds for t in r.step_times]}
    if not traced:
        info["import_s"] = import_s
        info["setup_times"] = setup_times
        first = rounds[0]
        metrics = {
            "setup_s": Measurement(import_s + _median(setup_times), "s", len(setup_times)),
            "step_s": Measurement(statistics.fmean(timed_steps), "s", len(timed_steps)),
            "train_s": Measurement(_median([r.train_s for r in timed]), "s", len(timed)),
            "loss_final": Measurement(first.loss_final, "nat", 1),
            "probe_miou": Measurement(first.probe_miou, "ratio", 1),
            "extract_s": Measurement(_median([r.extract_s for r in timed]), "s", len(timed)),
            "probe_s": Measurement(_median([r.probe_s for r in timed]), "s", len(timed)),
            "language_cos": Measurement(first.language_cos, "cos", 1),
            "peak_rss_mb": Measurement(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        }
        return metrics, checks, info

    traced_rounds = [r for r in rounds if r.traced]
    traced_steps = [t for r in traced_rounds for t in r.step_times]
    values = tracing.layer_metrics(tracer, catalog.OPS)
    values["trace.overhead"] = statistics.fmean(traced_steps) / statistics.fmean(timed_steps)
    units = {m["name"]: m["unit"] for m in catalog.PER_LAYER}
    metrics = {name: Measurement(float(values[name]), units[name], len(traced_rounds))
               for name in units}
    info["traced_loss_final"] = traced_rounds[0].loss_final
    info["untraced_step_s"] = statistics.fmean(timed_steps)
    info["traced_step_s"] = statistics.fmean(traced_steps)
    trace_file = work / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write(trace_file)
    info["spans"] = len(tracer.spans)
    info["trace_file"] = trace_file.name
    return metrics, checks, info
