"""One-call reconstruction wiring anchor selection, the patch solve and
propagation together, with the two baselines selectable by name."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import geom
from .anchor import select_anchor
from .baselines import brute_force_all, c_prime_all
from .propagate import reconstruct_all, refine_all
from .solver import assemble_patch, solve_patch
from .tessellation import CellId, GroundTruth, Tessellation, point_array

METHODS = ("anchor", "brute", "cprime")


STAGES = ("select", "solve", "sweep", "refine")


@dataclass(frozen=True, eq=False)
class ReconstructionReport:
    """Recovered generators (indexed by cell id, as
    ``tessellation.point_array`` stores them) plus solve diagnostics.

    ``rmse``/``max_rse`` are present only when ground truth was supplied.
    ``timings`` holds wall-clock seconds per stage of ``STAGES`` and is the
    only non-deterministic field. The anchor method fills every stage:
    anchor selection (which builds the tessellation's ridge arrays), the
    patch solve, the reflection sweep and the global refinement, which took
    ``refine_iterations`` CGLS steps. The two baselines run as one stage,
    ``solve``.
    """

    method: str
    generators: np.ndarray
    anchor: Optional[CellId] = None
    depth: int = 0
    residual: Optional[float] = None
    condition: Optional[float] = None
    rmse: Optional[float] = None
    max_rse: Optional[float] = None
    refine_iterations: int = 0
    timings: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "generators", point_array(self.generators))

    def summary(self) -> dict:
        """The run's deterministic facts as plain Python values: the one
        list that ``--report``, the printed lines and the benchmark read.

        ``method``, ``cells`` and ``depth`` always; ``anchor``,
        ``refine_iterations`` and ``condition`` for the anchor method;
        ``residual`` when known (``brute``'s is its largest patch residual);
        ``rmse`` and ``max_rse`` with ground truth. ``depth`` is 0 for
        ``brute`` and ``cprime``: their fill sweep is not reported.
        """
        facts = {"method": self.method, "cells": len(self.generators), "depth": self.depth}
        if self.anchor is not None:
            facts.update(anchor=self.anchor, refine_iterations=self.refine_iterations,
                         condition=self.condition)
        if self.residual is not None:
            facts["residual"] = self.residual
        if self.rmse is not None:
            facts.update(rmse=self.rmse, max_rse=self.max_rse)
        return facts


def _errors(generators: np.ndarray, gt: GroundTruth) -> tuple[float, float]:
    """Root-mean-square and largest distance from the true generators.

    Each distance is ``geom.hypot``'s and the squares are added left to
    right, as a loop adds them (``np.sum`` adds pairwise); a NaN distance
    does not count as the largest.
    """
    d = generators - gt.generators
    e = geom.hypot(d[:, 0], d[:, 1])
    sq = np.add.accumulate(e * e)[-1]
    return math.sqrt(sq / len(e)), float(np.fmax.reduce(e, initial=0.0))


def reconstruct(
    t: Tessellation,
    method: str = "anchor",
    gt: Optional[GroundTruth] = None,
) -> ReconstructionReport:
    """Recover every generator of ``t`` with the chosen method.

    ``anchor`` solves one patch, propagates by reflection and then refines
    all generators together over every ridge (``refine_all``); its anchor
    is the eligible cell of largest edge ratio (``select_anchor``).
    ``brute`` solves every eligible cell independently; ``cprime`` is the
    angle-rotation construction. Error statistics are filled in when ``gt``
    is given. Raises, before any work, ValueError when ``gt`` does not hold
    one generator per cell, OutOfRangeIdError when a ridge or cell refers
    to an id that does not exist, and InconsistentSystemError for a non-finite
    vertex, a ray without a unit direction or broken incidence
    (``Tessellation.arrays``).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if gt is not None and len(gt.generators) != t.n_cells:
        raise ValueError("ground truth length does not match cell count")
    timings = dict.fromkeys(STAGES, 0.0)
    anchor_cell: Optional[CellId] = None
    depth = 0
    residual: Optional[float] = None
    condition: Optional[float] = None
    iterations = 0
    t0 = time.perf_counter()
    t.arrays  # checks every id, vertex and ray direction
    if method == "anchor":
        anchor_cell = select_anchor(t)
        t1 = time.perf_counter()
        patch = solve_patch(assemble_patch(t, anchor_cell))
        t2 = time.perf_counter()
        generators, trace = reconstruct_all(t, patch)
        t3 = time.perf_counter()
        generators, iterations = refine_all(t, generators)
        timings.update(
            select=t1 - t0, solve=t2 - t1, sweep=t3 - t2, refine=time.perf_counter() - t3
        )
        depth = trace.max_depth
        residual = patch.residual
        condition = patch.condition
    elif method == "brute":
        generators, residuals = brute_force_all(t)
        residual = float(residuals.max())
        timings["solve"] = time.perf_counter() - t0
    else:
        generators = c_prime_all(t)
        timings["solve"] = time.perf_counter() - t0
    rmse = max_rse = None
    if gt is not None:
        rmse, max_rse = _errors(generators, gt)
    return ReconstructionReport(
        method=method,
        generators=generators,
        anchor=anchor_cell,
        depth=depth,
        residual=residual,
        condition=condition,
        rmse=rmse,
        max_rse=max_rse,
        refine_iterations=iterations,
        timings=timings,
    )
