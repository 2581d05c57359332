"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces the public functions of each vorogen module by
timing wrappers, both where they are defined and under every name another
module imported them as (``cli.load``, ``solver.score_cell``, ...), so the
calls the program makes between its own modules are seen too. ``uninstall``
puts the originals back. Spans (name, start, end, parent, operation) stay in
memory until the run writes them out.

``geom`` is reached only through the modules below; spanning its per-point
calls would swamp the trace, so it has no span of its own.
"""

from __future__ import annotations

import os
import time
from collections import Counter

from vorogen import anchor, baselines, cli, delaunay, forward, pipeline, propagate, solver, tessellation

# (span name, [(module, attribute), ...]); the first pair is the definition.
# ``loads`` and ``dumps`` share the span name of ``load`` and ``save``, which
# call them, so the file I/O time is one figure whichever entry point is used.
SPANS = [
    ("forward.sample", [(forward, "sample_sites")]),
    ("forward.build", [(forward, "build_voronoi")]),
    ("delaunay.triangulate", [(delaunay, "Triangulation")]),
    ("tessellation.load", [(tessellation, "load"), (cli, "load")]),
    ("tessellation.load", [(tessellation, "loads")]),
    ("tessellation.save", [(tessellation, "save"), (cli, "save")]),
    ("tessellation.save", [(tessellation, "dumps")]),
    ("tessellation.validate", [(tessellation, "validate"), (cli, "validate")]),
    ("anchor.select", [(anchor, "select_anchor"), (pipeline, "select_anchor")]),
    ("anchor.eligible", [(anchor, "eligible_cells"), (baselines, "eligible_cells")]),
    ("solver.assemble", [
        (solver, "assemble_patch"), (pipeline, "assemble_patch"), (baselines, "assemble_patch"),
    ]),
    ("solver.solve", [(solver, "solve_patch"), (pipeline, "solve_patch"), (baselines, "solve_patch")]),
    ("propagate.sweep", [(propagate, "reconstruct_all"), (pipeline, "reconstruct_all")]),
    ("propagate.refine", [(propagate, "refine_all"), (pipeline, "refine_all")]),
    ("baselines.brute", [(baselines, "brute_force_all"), (pipeline, "brute_force_all")]),
    ("baselines.cprime", [(baselines, "c_prime_all"), (pipeline, "c_prime_all")]),
    ("baselines.cprime_cell", [(baselines, "c_prime_cell")]),
    ("pipeline.reconstruct", [(pipeline, "reconstruct"), (cli, "reconstruct")]),
    ("cli.main", [(cli, "main")]),
]

# (counter name, [(owner, attribute), ...]): calls are counted, not spanned
COUNTS = [
    ("tessellation.ridge_line_calls", [(tessellation.Tessellation, "ridge_line")]),
    ("anchor.cells_scored", [(anchor, "score_cell"), (solver, "score_cell")]),
]


class Tracer:
    """In-memory span recorder for one benchmark run (one thread)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def span(self, name: str, fn, attr: str):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent, tracer.op))
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op)
            tracer._observe(attr, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, attr: str, args, result) -> None:
        """Counts taken from a call's arguments or its returned value."""
        c = self.counts
        if attr == "load":
            c["tessellation.file_bytes"] += os.path.getsize(args[0])
        elif attr == "save":
            c["tessellation.file_bytes"] += os.path.getsize(args[1])
        elif attr == "solve_patch":
            c["solver.patches"] += 1
        elif attr == "c_prime_cell":
            c["baselines.cprime_cells"] += 1
        elif attr == "reconstruct_all":
            c["propagate.reflections"] += result[1].reflect_calls
            c["propagate.depth"] = max(c["propagate.depth"], result[1].max_depth)
        elif attr == "refine_all":
            c["propagate.refine_iters"] += result[1]

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = [(sites, self.span(name, getattr(*sites[0]), sites[0][1])) for name, sites in SPANS]
        wrappers += [(sites, self.counter(name, getattr(*sites[0]))) for name, sites in COUNTS]
        for sites, wrapped in wrappers:
            for owner, attr in sites:
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- per-operation summaries ----------------------------------------------

    def begin(self, op: int) -> None:
        """Start operation ``op``: later spans carry its id and counts restart."""
        self.op = op
        self.counts.clear()

    def times(self, op: int) -> tuple[Counter, Counter]:
        """Total and self time per span name over the spans of operation ``op``.

        A span nested in one of the same name adds to the self time only, so
        ``load`` calling ``loads`` is not counted twice in the total.
        """
        own = [i for i, s in enumerate(self.spans) if s[4] == op]
        child: Counter = Counter()
        for i in own:
            name, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child[parent] += end - start
        total: Counter = Counter()
        self_time: Counter = Counter()
        for i in own:
            name, start, end, parent, _ = self.spans[i]
            self_time[name] += end - start - child[i]
            if parent < 0 or self.spans[parent][0] != name:
                total[name] += end - start
        return total, self_time
