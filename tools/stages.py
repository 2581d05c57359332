"""Wall time of each stage of the forward build and the reconstruction.

    python tools/stages.py LABEL [--ns 1000 10000 100000]

For each n it builds the sample of seed 5 and times every stage on it a few
times, in turn, then writes ``BENCH_<LABEL>.json`` in the current directory: per
stage and n, the minimum and median wall ms, with the Python and numpy
versions, ``nproc``, the git commit, the OpenBLAS core type and the peak RSS.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from vorogen import delaunay, forward, pipeline, tessellation  # noqa: E402

REPEATS = {1000: 21, 10_000: 7}  # and 3 above 10^4
SEED = 5
# the core-type query of numpy's bundled OpenBLAS, by numpy release
CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename")


def stage_calls(n: int) -> dict:
    """Each stage as a call on the sample of ``n`` sites: the ``arrays``
    stage is what ``Tessellation.arrays`` runs on first use."""
    sites, t, gt = forward.sample_and_build(n, SEED)
    tri = delaunay.Triangulation(sites.points)
    text = tessellation.dumps(t, gt)
    return {
        "Triangulation": lambda: delaunay.Triangulation(sites.points),
        "_dualize": lambda: forward._dualize(sites.points, tri),
        "sample_and_build": lambda: forward.sample_and_build(n, SEED),
        "dumps": lambda: tessellation.dumps(t, gt),
        "loads": lambda: tessellation.loads(text),
        "arrays": lambda: tessellation._ridge_arrays(t),
        "validate": lambda: tessellation.validate(t),
        "reconstruct": lambda: pipeline.reconstruct(t, "anchor", gt),
    }


def openblas_core() -> str:
    """The core type OpenBLAS picked for numpy's BLAS, or "unknown"."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        for name in CORENAME_SYMBOLS:
            fn = getattr(ctypes.CDLL(lib), name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label")
    parser.add_argument("--ns", type=int, nargs="+", default=[1000, 10_000, 100_000])
    args = parser.parse_args(argv)
    stages = {}
    for n in args.ns:
        calls = stage_calls(n)
        ms = {stage: [] for stage in calls}
        # round-robin over the stages, so that each stage's calls spread
        # over the whole run and not over one stretch of a shared host's load
        for _ in range(REPEATS.get(n, 3)):
            for stage, call in calls.items():
                start = time.perf_counter()
                call()
                ms[stage].append(1e3 * (time.perf_counter() - start))
        for stage, t in ms.items():
            row = {"min_ms": round(min(t), 2), "median_ms": round(statistics.median(t), 2)}
            stages.setdefault(stage, {})[str(n)] = row
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    out = {
        "label": args.label,
        "seed": SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git.stdout.strip() or "unknown",
        "openblas_core": openblas_core(),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "stages": stages,
    }
    Path(f"BENCH_{args.label}.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
