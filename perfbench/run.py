"""vorogen benchmark: one workload per run, every output checked.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload montecarlo_1e4 --seed 0 --seconds 20 --trace 0

The run sets up the workload's inputs (several times, to time set-up), then
runs whole rounds of operations for about ``--seconds``, checks every output,
and prints one JSON object as its last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` every other operation is traced, the
metrics are the per-module ones (medians over the traced operations) and
the spans are written to ``.perfbench/``. ``--n`` changes the diagram size,
for tests and for measuring other sizes.

Every time is reported in reference seconds (see ``speed.py``): the wall
time rescaled by a fixed kernel timed beside it, so that the shared host's
changes of speed do not read as changes of the program.

The operations run in this one process; no worker pool is started. Set-up
times the program's imports in fresh interpreters, one after another.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
PROGRAM_MODULES = (
    "anchor", "baselines", "bench", "cli", "delaunay", "errors", "forward",
    "geom", "pipeline", "propagate", "solver", "tessellation",
)
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "cells_per_s": "cells/s",
    "peak_rss_mb": "MB",
    "rmse_digits": "digits",
    "worst_digits": "digits",
}

PER_LAYER_UNITS = {
    "forward.sample_s": "s",
    "forward.build_self_s": "s",
    "delaunay.triangulate_s": "s",
    "tessellation.load_s": "s",
    "tessellation.save_s": "s",
    "tessellation.validate_s": "s",
    "tessellation.file_bytes": "bytes",
    "tessellation.ridge_line_calls": "count",
    "tessellation.ridge_lines_per_ridge": "calls/ridge",
    "anchor.select_s": "s",
    "anchor.eligible_s": "s",
    "anchor.cells_scored": "count",
    "anchor.scores_per_patch": "calls/patch",
    "solver.assemble_s": "s",
    "solver.solve_s": "s",
    "solver.patches": "count",
    "propagate.sweep_s": "s",
    "propagate.refine_s": "s",
    "propagate.refine_iters": "count",
    "propagate.reflections": "count",
    "propagate.depth": "count",
    "baselines.brute_s": "s",
    "baselines.cprime_s": "s",
    "baselines.cprime_cell_s": "s",
    "baselines.cprime_cells": "count",
    "baselines.self_s": "s",
    "pipeline.reconstruct_s": "s",
    "pipeline.self_s": "s",
    "cli.self_s": "s",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
    "speed.kernel_s": "s",
}


def digits(x: float) -> float:
    """-log10 of an error; an exact zero reads as the smallest double's 324."""
    return -math.log10(x) if x > 0.0 else 324.0


def layer_values(tracer, op: int, wall_s: float, op_s: float, ridges: int) -> dict[str, float]:
    """The per-module metrics of one traced operation, times in reference seconds."""
    total, own = tracer.times(op)
    c = tracer.counts
    scored = c["anchor.cells_scored"]
    values = {
        "forward.sample_s": total["forward.sample"],
        "forward.build_self_s": own["forward.build"],
        "delaunay.triangulate_s": total["delaunay.triangulate"],
        "tessellation.load_s": total["tessellation.load"],
        "tessellation.save_s": total["tessellation.save"],
        "tessellation.validate_s": total["tessellation.validate"],
        "tessellation.file_bytes": c["tessellation.file_bytes"],
        "tessellation.ridge_line_calls": c["tessellation.ridge_line_calls"],
        "tessellation.ridge_lines_per_ridge": c["tessellation.ridge_line_calls"] / ridges,
        "anchor.select_s": total["anchor.select"],
        "anchor.eligible_s": total["anchor.eligible"],
        "anchor.cells_scored": scored,
        "anchor.scores_per_patch": scored / c["solver.patches"] if c["solver.patches"] else 0.0,
        "solver.assemble_s": total["solver.assemble"],
        "solver.solve_s": total["solver.solve"],
        "solver.patches": c["solver.patches"],
        "propagate.sweep_s": total["propagate.sweep"],
        "propagate.refine_s": total["propagate.refine"],
        "propagate.refine_iters": c["propagate.refine_iters"],
        "propagate.reflections": c["propagate.reflections"],
        "propagate.depth": c["propagate.depth"],
        "baselines.brute_s": total["baselines.brute"],
        "baselines.cprime_s": total["baselines.cprime"],
        "baselines.cprime_cell_s": total["baselines.cprime_cell"],
        "baselines.cprime_cells": c["baselines.cprime_cells"],
        "baselines.self_s": own["baselines.brute"] + own["baselines.cprime"],
        "pipeline.reconstruct_s": total["pipeline.reconstruct"],
        "pipeline.self_s": own["pipeline.reconstruct"],
        "cli.self_s": own["cli.main"],
    }
    scale = op_s / wall_s
    values = {k: v * scale if PER_LAYER_UNITS[k] == "s" else v for k, v in values.items()}
    values["trace.op_s"] = op_s
    return values


def run(workload, seed: int, seconds: float, trace: bool, n: int, clock, import_s: float) -> dict:
    """Set up, run whole rounds for ``seconds``, check every output; the result."""
    import checks
    from spans import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{workload.name}-") as tmp:
        plan = workload.prepare(seed, n)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            state = None  # drop the last set-up's inputs, so that two are never held at once
            clock.start()
            state = workload.setup(plan, n, Path(tmp))
            setup_times.append(clock.stop()[1])

        tracer = Tracer()
        op_times: dict[bool, list[float]] = {False: [], True: []}
        layer_rows: list[dict[str, float]] = []
        first_errors = {}  # operation index in the round -> per-diagram errors
        attempted = failed = 0
        correct = True
        start = time.perf_counter()
        rnd = 0
        round_s = 0.0
        # Rounds go on while another would end nearer to ``seconds`` than
        # stopping now does. A traced run traces every other operation, so
        # that drift in the machine's speed reaches traced and untraced
        # operations alike, and runs rounds in pairs, so that each input is
        # traced as often as every other.
        while (
            rnd < (2 if trace else 1)
            or (trace and rnd % 2 == 1)
            or time.perf_counter() - start + round_s / 2 < seconds
        ):
            round_start = time.perf_counter()
            for i in range(workload.ops_per_round):
                traced = trace and (rnd + i) % 2 == 1
                op_id = attempted
                attempted += 1
                if traced:
                    tracer.begin(op_id)
                    tracer.install()
                clock.start()
                try:
                    out = workload.op(state, i)
                except Exception:
                    failed += 1
                    print(f"operation {op_id} failed:\n{traceback.format_exc()}", file=sys.stderr)
                    continue
                finally:
                    wall_s, op_s = clock.stop()
                    tracer.uninstall()
                try:
                    checked = workload.check(state, i, out)
                except Exception:
                    checked = None
                    print(f"checking operation {op_id} raised:\n{traceback.format_exc()}", file=sys.stderr)
                if checked is None or checked.problems:
                    failed += 1
                    correct = False
                    if checked is not None:
                        print(f"operation {op_id} is wrong: {checked.problems}", file=sys.stderr)
                    continue
                op_times[traced].append(op_s)
                first_errors.setdefault(i, checked.errors)
                if traced:
                    layer_rows.append(layer_values(tracer, op_id, wall_s, op_s, checked.ridges))
            rnd += 1
            round_s = time.perf_counter() - round_start

    if trace:
        metrics = {
            name: statistics.median(row[name] for row in layer_rows) if layer_rows else 0.0
            for name in PER_LAYER_UNITS
            if name not in ("trace.overhead_s", "speed.kernel_s")
        }
        untraced = statistics.median(op_times[False]) if op_times[False] else 0.0
        metrics["trace.overhead_s"] = metrics["trace.op_s"] - untraced
        metrics["speed.kernel_s"] = statistics.median(clock.kernel_times)
        units = PER_LAYER_UNITS
        write_trace(workload.name, seed, tracer, layer_rows)
    else:
        times = op_times[False]
        per_diagram = [e for i in sorted(first_errors) for e in first_errors[i]]
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "op_s": statistics.median(times) if times else 0.0,
            "cells_per_s": workload.cells_per_op(n) * len(times) / sum(times) if times else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # the mean of per-diagram digits: a mean of the RMSEs themselves
            # is set by the pool's single worst diagram, and swings with it
            "rmse_digits": statistics.fmean(digits(checks.rmse(e)) for e in per_diagram)
            if per_diagram else 0.0,
            "worst_digits": digits(max(float(e.max()) for e in per_diagram)) if per_diagram else 0.0,
        }
        units = END_TO_END_UNITS
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def write_trace(name: str, seed: int, tracer, layer_rows) -> None:
    """Spans (name, start, end, parent span index, operation) and per-op metrics."""
    path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "spans": tracer.spans, "ops": layer_rows}, fh)


def import_seconds(src: Path, clock) -> float:
    """Median time, in reference seconds, of a fresh interpreter that imports
    every program module.

    Imports are part of set-up, and a process imports a module once, so each
    repeat runs in a new interpreter (one at a time; each is waited for).
    """
    probe = "".join(f"import vorogen.{mod}\n" for mod in PROGRAM_MODULES)
    env = {**os.environ, "PYTHONPATH": str(src)}
    times = []
    for _ in range(SETUP_REPEATS):
        clock.start()
        subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, check=True, timeout=120)
        times.append(clock.stop()[1])
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, help="diagram size (default: the workload's)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    src = ROOT / "src"
    if not (src / "vorogen").is_dir():
        print(f"error: no vorogen sources under {src}", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from speed import Clock

    clock = Clock()
    import_s = import_seconds(src, clock)

    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    n = args.n or workload.n
    result = run(workload, args.seed, args.seconds, bool(args.trace), n, clock, import_s)
    line = json.dumps(result)
    (OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
