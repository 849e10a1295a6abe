"""Benchmark entry point.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 35 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). ``--workload all`` runs every workload, one after the
other, each in a fresh process. Run it from the repository root; it builds
nothing and imports ``concerto`` from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"


def _git(*args) -> str:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = _git("rev-parse", "HEAD")
    return {
        "commit": commit or "unknown",
        "dirty": bool(_git("status", "--porcelain")) if commit else None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
    }


def run_all(args) -> int:
    """Every workload, serially, each in its own process."""
    status = 0
    for name in catalog.ALL:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        print(f"== {name}", flush=True)
        status = subprocess.run(cmd).returncode or status
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=catalog.ALL + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measurement time; sets how many rounds the run does")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small runs every code path on tiny inputs (self-tests)")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "concerto" / "__init__.py").is_file():
        print(f"no concerto sources under {SRC.name}/ beside {HERE.name}/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed as part of set-up)
    import concerto
    import workloads
    import_s = time.perf_counter() - t0
    if Path(concerto.__file__).resolve().parent != SRC / "concerto":
        print(f"concerto imported from {concerto.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    metrics, checks, info = workloads.run(args.workload, args.seed, args.seconds,
                                          bool(args.trace), args.size, import_s, WORK)
    attempted, failed = checks.total_attempted, checks.total_failed
    for name, m in metrics.items():
        print(f"{name:40s} {m.value:14.6g} {m.unit:6s} n={m.n}")
    print(f"{'error_rate':40s} {failed / attempted:14.6g} {'ratio':6s} "
          f"({failed} failed of {attempted} operations)")
    report = {"provenance": provenance(args.seed), "info": info,
              "checks": {name: {"attempted": n, "failed": checks.failed.get(name, 0)}
                         for name, n in sorted(checks.attempted.items())},
              "error_rate": failed / attempted,
              "metrics": {k: {"value": m.value, "unit": m.unit, "n": m.n}
                          for k, m in metrics.items()},
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    print("report " + json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": m.value, "unit": m.unit}
                                  for k, m in metrics.items()}}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
