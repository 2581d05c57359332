"""Anchor-cell scoring and selection.

The anchor is the one cell whose surrounding patch gets solved directly;
everything else is reached by reflections. Eligibility is hard (bounded,
two non-parallel ridges, a ring ridge between consecutive neighbors, as
``RidgeArrays.ring`` lists them); among the eligible cells the anchor is
the one of largest edge ratio, the shortest usable ridge over the longest.
``build_score_table`` scores every cell in one pass over the cell degrees,
and the tessellation keeps that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geom
from .errors import NoEligibleAnchorError
from .tessellation import CellId, Tessellation, check_id


@dataclass(frozen=True)
class AnchorScore:
    """Eligibility plus the edge ratio that ranks the eligible cells:
    ``min_edge_ratio`` is the shortest finite non-degenerate ridge over the
    longest, 0 with none."""

    cell: CellId
    eligible: bool
    degree: int
    min_edge_ratio: float


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Every field of ``AnchorScore``, one array entry per cell."""

    eligible: np.ndarray
    degree: np.ndarray
    min_edge_ratio: np.ndarray


def build_score_table(t: Tessellation) -> ScoreTable:
    """Score every cell at once from the tessellation's ridge arrays.

    One pass over the cell degrees k: the cells of degree k are the rows of
    a (cells, k) matrix of boundary entries, reduced along the rows with the
    floating-point operations of a per-cell loop over the cell's ridges, in
    its order, so every score is reproducible bit for bit whatever the cell
    count. A cell without ridges keeps the loop's defaults: ineligible, edge
    ratio 0.
    """
    a = t.arrays
    n = t.n_cells
    degree = np.diff(a.cell_start)
    eligible = np.zeros(n, bool)
    min_edge_ratio = np.zeros(n)
    for k in np.unique(degree[degree > 0]).tolist():
        cs = np.flatnonzero(degree == k)
        entries = a.cell_start[cs, None] + np.arange(k)
        rids = a.cell_ridges[entries]
        bad = a.degenerate[rids]
        # max |sin| of the direction pairs (i, j > i), skipping a degenerate ridge's NaN
        dx, dy = np.moveaxis(a.dirs[rids], 2, 0)
        hi = np.zeros(len(cs))
        for i in range(k - 1):
            s = np.abs(dx[:, i, None] * dy[:, i + 1 :] - dy[:, i, None] * dx[:, i + 1 :])
            np.fmax(hi, np.fmax.reduce(s, axis=1), out=hi)
        has_ring = (a.ring[entries] >= 0).any(axis=1)
        eligible[cs] = a.bounded[cs] & ~bad.any(axis=1) & (hi > geom.PARALLEL_TOL) & has_ring
        # shortest over longest finite non-degenerate ridge, 0 with none
        lens = a.lengths[rids]
        usable = ~bad & np.isfinite(lens)
        shortest = np.min(lens, axis=1, where=usable, initial=math.inf)
        longest = np.max(lens, axis=1, where=usable, initial=0.0)
        any_usable = usable.any(axis=1)
        min_edge_ratio[cs] = np.divide(shortest, longest, out=np.zeros(len(cs)), where=any_usable)
    return ScoreTable(eligible=eligible, degree=degree, min_edge_ratio=min_edge_ratio)


def score_cell(t: Tessellation, c: CellId) -> AnchorScore:
    """Score one cell; never raises on degenerate geometry, just marks
    ineligible. Raises OutOfRangeIdError for a cell id that does not exist."""
    check_id(c, t.n_cells, "cell")
    s = t.anchor_scores
    return AnchorScore(
        cell=c,
        eligible=bool(s.eligible[c]),
        degree=int(s.degree[c]),
        min_edge_ratio=float(s.min_edge_ratio[c]),
    )


def eligible_cells(t: Tessellation) -> list[CellId]:
    """Cell ids passing the hard criteria, ascending."""
    return np.flatnonzero(t.anchor_scores.eligible).tolist()


def select_anchor(t: Tessellation, seed: Optional[int] = None) -> CellId:
    """Pick the anchor cell: the eligible cell of largest edge ratio, or
    with ``seed`` an eligible cell drawn by that seed. Raises
    NoEligibleAnchorError when nothing qualifies."""
    s = t.anchor_scores
    elig = np.flatnonzero(s.eligible)
    if not len(elig):
        raise NoEligibleAnchorError(
            f"none of the {t.n_cells} cells is a usable anchor"
        )
    if seed is None:
        # argmax keeps the first maximum: ties break toward the lowest cell id
        return int(elig[np.argmax(s.min_edge_ratio[elig])])
    rng = np.random.default_rng(seed)
    return int(elig[int(rng.integers(len(elig)))])
