"""Anchor-cell scoring and selection.

The anchor is the one cell whose surrounding patch gets solved directly;
everything else is reached by reflections. Eligibility is hard (bounded,
two non-parallel ridges, a ring ridge between consecutive neighbors, as
``RidgeArrays.ring`` lists them); a soft composite prefers compact, central,
well-conditioned cells. ``build_score_table`` scores every cell in one pass
over the cell degrees, and the tessellation keeps that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geom
from .errors import NoEligibleAnchorError
from .tessellation import CellId, Tessellation, check_id

DEGREE_BAND = (4, 7)


@dataclass(frozen=True)
class AnchorScore:
    """Eligibility plus the soft criteria entering the composite score.

    ``max_pairwise_parallelism`` is ``1 - min |sin|`` over ridge-direction
    pairs (1 means some pair is parallel); its complement is the angle
    spread used by the composite.
    """

    cell: CellId
    eligible: bool
    degree: int
    min_edge_ratio: float
    max_pairwise_parallelism: float
    centrality: float
    composite: float


def composite_score(
    min_edge_ratio: float, centrality: float, degree: int, angle_spread: float
) -> float:
    """Fixed-weight blend; improving any single criterion never lowers it.
    Takes one cell's figures, or arrays of them with one entry per cell."""
    band = np.where((DEGREE_BAND[0] <= degree) & (degree <= DEGREE_BAND[1]), 1.0, 0.5)
    return 0.4 * min_edge_ratio + 0.3 * (1.0 - centrality) + 0.2 * band + 0.1 * angle_spread


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Every field of ``AnchorScore``, one array entry per cell."""

    eligible: np.ndarray
    degree: np.ndarray
    min_edge_ratio: np.ndarray
    max_pairwise_parallelism: np.ndarray
    centrality: np.ndarray
    composite: np.ndarray


def build_score_table(t: Tessellation) -> ScoreTable:
    """Score every cell at once from the tessellation's ridge arrays.

    One pass over the cell degrees k: the cells of degree k are the rows of
    a (cells, k) matrix of boundary entries, reduced along the rows with the
    floating-point operations of a per-cell loop over the cell's ridges, in
    its order, so every composite is reproducible bit for bit whatever the
    cell count. A cell without ridges keeps the loop's defaults: ineligible,
    spread and edge ratio 0, centrality 1.
    """
    a = t.arrays
    n = t.n_cells
    x0, y0, x1, y1 = t.bbox()
    center = (0.5 * (x0 + x1), 0.5 * (y0 + y1))
    half_diag = 0.5 * t.diameter()
    degree = np.diff(a.cell_start)
    eligible = np.zeros(n, bool)
    spread = np.zeros(n)
    min_edge_ratio = np.zeros(n)
    centrality = np.ones(n)
    for k in np.unique(degree[degree > 0]).tolist():
        cs = np.flatnonzero(degree == k)
        entries = a.cell_start[cs, None] + np.arange(k)
        rids = a.cell_ridges[entries]
        bad = a.degenerate[rids]
        # min and max |sin| of the direction pairs (i, j > i), skipping a degenerate
        # ridge's NaN; the min starts at 1, so a |sin| rounded above 1 reads 1
        dx, dy = np.moveaxis(a.dirs[rids], 2, 0)
        lo = np.ones(len(cs))
        hi = np.zeros(len(cs))
        for i in range(k - 1):
            s = np.abs(dx[:, i, None] * dy[:, i + 1 :] - dy[:, i, None] * dx[:, i + 1 :])
            np.fmin(lo, np.fmin.reduce(s, axis=1), out=lo)
            np.fmax(hi, np.fmax.reduce(s, axis=1), out=hi)
        spread[cs] = np.where(k - bad.sum(axis=1) >= 2, lo, 0.0)
        has_ring = (a.ring[entries] >= 0).any(axis=1)
        eligible[cs] = a.bounded[cs] & ~bad.any(axis=1) & (hi > geom.PARALLEL_TOL) & has_ring
        # shortest over longest finite non-degenerate ridge, 0 with none
        lens = a.lengths[rids]
        usable = ~bad & np.isfinite(lens)
        shortest = np.min(lens, axis=1, where=usable, initial=math.inf)
        longest = np.max(lens, axis=1, where=usable, initial=0.0)
        any_usable = usable.any(axis=1)
        min_edge_ratio[cs] = np.divide(shortest, longest, out=np.zeros(len(cs)), where=any_usable)
        # centrality: the distinct vertices' centroid (ids ascending) from the center, in [0, 1]
        vids = np.sort(a.ends[rids].reshape(len(cs), 2 * k), axis=1)
        keep = vids >= 0  # -1 marks a ray's missing end
        keep[:, 1:] &= vids[:, 1:] != vids[:, :-1]
        total = np.zeros((len(cs), 2))
        for col in range(2 * k):
            np.add(total, a.vertices[vids[:, col]], out=total, where=keep[:, col, None])
        d = map(math.hypot, *(total / keep.sum(axis=1)[:, None] - center).T.tolist())
        centrality[cs] = np.fmin(1.0, np.fromiter(d, float, len(cs)) / half_diag)
    return ScoreTable(
        eligible=eligible,
        degree=degree,
        min_edge_ratio=min_edge_ratio,
        max_pairwise_parallelism=1.0 - spread,
        centrality=centrality,
        composite=composite_score(min_edge_ratio, centrality, degree, spread),
    )


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
        max_pairwise_parallelism=float(s.max_pairwise_parallelism[c]),
        centrality=float(s.centrality[c]),
        composite=float(s.composite[c]),
    )


def eligible_cells(t: Tessellation) -> list[CellId]:
    """Cell ids passing the hard criteria, ascending."""
    return np.flatnonzero(t.anchor_scores.eligible).tolist()


def select_anchor(t: Tessellation, seed: Optional[int] = None) -> CellId:
    """Pick the anchor cell: the top composite score, or with ``seed`` an
    eligible cell drawn by that seed. Raises NoEligibleAnchorError when
    nothing qualifies."""
    s = t.anchor_scores
    elig = np.flatnonzero(s.eligible)
    if not len(elig):
        raise NoEligibleAnchorError(
            f"none of the {t.n_cells} cells is a usable anchor"
        )
    if seed is None:
        # argmax keeps the first maximum: ties break toward the lowest cell id
        return int(elig[np.argmax(s.composite[elig])])
    rng = np.random.default_rng(seed)
    return int(elig[int(rng.integers(len(elig)))])
