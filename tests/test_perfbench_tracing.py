"""The traced benchmark wraps concerto's functions by name. Installing and
removing its wrappers here makes a rename or deletion of a wrapped name fail
the unit tests, not only the benchmark's own self-tests."""

import importlib.util
from pathlib import Path

import concerto.dataio
import concerto.encoder
import concerto.objectives
import concerto.probes
import concerto.tensor
import concerto.trainer
import concerto.views

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MODULES = (concerto.dataio, concerto.encoder, concerto.objectives, concerto.probes,
           concerto.tensor, concerto.trainer, concerto.views)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_then_unpatch_restores_every_attribute():
    tracing = load_tracing()
    before = {mod: dict(vars(mod)) for mod in MODULES}
    tr = tracing.Tracer()
    try:
        tracing.instrument(tr)
        wrapped = {(mod, name) for mod in MODULES for name, value in vars(mod).items()
                   if value is not before[mod].get(name)}
        assert (concerto.trainer, "make_viewset") in wrapped
        assert (concerto.tensor, "segment_sum_np") in wrapped
    finally:
        tr.unpatch()
    for mod in MODULES:
        after = vars(mod)
        assert after.keys() == before[mod].keys(), mod.__name__
        changed = [name for name in after if after[name] is not before[mod][name]]
        assert changed == [], (mod.__name__, changed)
