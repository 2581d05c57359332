"""Anchor-cell scoring and selection.

The anchor is the one cell whose surrounding patch gets solved directly;
everything else is reached by reflections. A cell is eligible when the
paper's patch around it exists: it is bounded, its ridges are not
degenerate and not all parallel to the first, its k neighbours are
distinct cells other than itself, and each consecutive pair of them is
joined by a non-degenerate ring ridge (``RidgeArrays.ring``), so that the
patch is 4k scalar equations in 2(k + 1) unknowns. Among the eligible
cells the anchor is the one of largest edge ratio, the shortest usable
ridge over the longest. ``build_score_table`` scores every cell in one
flat pass over the boundary entries, and the tessellation keeps that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Every cell's eligibility and edge ratio, one array entry per cell."""

    eligible: np.ndarray
    min_edge_ratio: np.ndarray


def build_score_table(t: Tessellation) -> ScoreTable:
    """Score every cell at once from the tessellation's ridge arrays.

    One flat pass over the boundary entries: each entry's faults are
    counted per cell with ``bincount`` over ``entry_cell``, and the shortest
    and longest usable ridge are taken with ``minimum.at`` / ``maximum.at``.
    Each |sin| is the per-cell loop's expression, and counts, comparisons
    and a min or max round nothing, so every score is the one that loop
    gives, whatever the cell count. A cell without ridges is ineligible, of
    edge ratio 0.
    """
    a = t.arrays
    n = t.n_cells
    cell, nbrs, ring, rids = a.entry_cell, a.cell_nbrs, a.ring, a.cell_ridges
    bad = a.degenerate[rids]
    # |sin| of each ridge against its cell's first ridge (NaN for a degenerate one)
    dx, dy = a.dirs[rids].T
    x0, y0 = dx[a.cell_start[cell]], dy[a.cell_start[cell]]
    turns = np.abs(x0 * dy - y0 * dx) > geom.PARALLEL_TOL
    # an entry's faults (ring -1 reads the last ridge's flag, but is a fault anyway)
    fault = bad | (ring < 0) | a.degenerate[ring] | (nbrs == cell)
    # and once per repeat, the cell of a (cell, neighbour) key listed twice
    key = np.sort(cell.astype(np.int64) * n + nbrs)
    twice = key[1:][key[1:] == key[:-1]] // n
    faults = np.bincount(cell, fault, n) + np.bincount(twice, minlength=n)
    eligible = a.bounded & (faults == 0) & (np.bincount(cell, turns, n) > 0)
    # shortest over longest finite non-degenerate ridge, 0 with none
    lens = a.lengths[rids]
    usable = ~bad & a.finite[rids]
    shortest, longest = np.full(n, math.inf), np.zeros(n)
    np.minimum.at(shortest, cell[usable], lens[usable])
    np.maximum.at(longest, cell[usable], lens[usable])
    min_edge_ratio = np.divide(shortest, longest, out=np.zeros(n), where=longest > 0.0)
    return ScoreTable(eligible=eligible, min_edge_ratio=min_edge_ratio)


def score_cell(t: Tessellation, c: CellId) -> AnchorScore:
    """Score one cell; never raises on degenerate geometry, just marks
    ineligible. Raises OutOfRangeIdError for a cell id that does not exist."""
    check_id(c, t.n_cells, "cell")
    s = t.anchor_scores
    start = t.arrays.cell_start
    return AnchorScore(
        cell=c,
        eligible=bool(s.eligible[c]),
        degree=int(start[c + 1] - start[c]),
        min_edge_ratio=float(s.min_edge_ratio[c]),
    )


def eligible_cells(t: Tessellation) -> list[CellId]:
    """Cell ids passing the hard criteria, ascending."""
    return np.flatnonzero(t.anchor_scores.eligible).tolist()


def select_anchor(t: Tessellation) -> CellId:
    """Pick the anchor cell: the eligible cell of largest edge ratio. Raises
    NoEligibleAnchorError when nothing qualifies."""
    s = t.anchor_scores
    elig = np.flatnonzero(s.eligible)
    if not len(elig):
        raise NoEligibleAnchorError(
            f"none of the {t.n_cells} cells is a usable anchor"
        )
    # argmax keeps the first maximum: ties break toward the lowest cell id
    return int(elig[np.argmax(s.min_edge_ratio[elig])])
