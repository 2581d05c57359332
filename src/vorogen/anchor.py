"""Anchor-cell scoring and selection.

The anchor is the one cell whose surrounding patch gets solved directly;
everything else is reached by reflections. Eligibility is hard (bounded,
two non-parallel ridges, at least one ring ridge between consecutive
neighbors); everything on top is a soft composite used to prefer compact,
central, well-conditioned cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geom
from .errors import NoEligibleAnchorError
from .tessellation import CellId, Tessellation

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
    """Fixed-weight blend; improving any single criterion never lowers it."""
    band = 1.0 if DEGREE_BAND[0] <= degree <= DEGREE_BAND[1] else 0.5
    return _composite(min_edge_ratio, centrality, band, angle_spread)


def _composite(min_edge_ratio, centrality, band, angle_spread):
    # one expression for scalars and arrays, so both round alike
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

    Each figure is computed with the same floating-point operations, in the
    same order, as a per-cell loop over the cell's ridges would use, so
    every composite is reproducible bit for bit whatever the cell count.
    Each part runs in its own function, so that its temporaries are freed
    before the next part starts.
    """
    a = t.arrays
    n = t.n_cells
    degree = np.diff(a.cell_start)
    owner = np.repeat(np.arange(n), degree)
    bad = a.degenerate[a.cell_ridges]
    min_sin, max_sin = _sin_range(a, owner, bad, n)
    angle_spread = np.fmax(0.0, np.fmin(1.0, min_sin))
    min_edge_ratio = _edge_ratio(a, owner, bad, n)
    centrality = _centrality(t, degree)
    band = np.where((DEGREE_BAND[0] <= degree) & (degree <= DEGREE_BAND[1]), 1.0, 0.5)
    return ScoreTable(
        eligible=(
            a.bounded
            & (np.bincount(owner[bad], minlength=n) == 0)
            & (max_sin > geom.PARALLEL_TOL)
            & _has_ring_pair(a, owner, degree, n)
        ),
        degree=degree,
        min_edge_ratio=min_edge_ratio,
        max_pairwise_parallelism=1.0 - angle_spread,
        centrality=centrality,
        composite=_composite(min_edge_ratio, centrality, band, angle_spread),
    )


def _per_cell(ufunc, values: np.ndarray, owner: np.ndarray, n: int, empty: float) -> np.ndarray:
    """``ufunc`` reduced over each cell's run of ``values`` (``owner`` ascending);
    ``empty`` for a cell with none. fmin and fmax skip NaN as Python's min and
    max of a running value do."""
    count = np.bincount(owner, minlength=n)
    out = np.full(n, empty)
    has = count > 0
    out[has] = ufunc.reduceat(values, (np.cumsum(count) - count)[has])
    return out


def _sin_range(a, owner: np.ndarray, bad: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Min and max |sin| over the direction pairs (i < j) of each cell's
    non-degenerate ridges, taken pair offset by pair offset; the min is 0
    for a cell with fewer than two such ridges."""
    use = np.flatnonzero(~bad)
    ucell = owner[use]
    ucount = np.bincount(ucell, minlength=n)
    later = (np.cumsum(ucount) - 1)[ucell] - np.arange(len(use))  # entries after this one
    dx, dy = a.dirs[a.cell_ridges[use]].T
    emin = np.ones(len(use))
    emax = np.zeros(len(use))
    for off in range(1, int(later.max(initial=0)) + 1):
        s = np.abs(dx[:-off] * dy[off:] - dy[:-off] * dx[off:])
        s[later[:-off] < off] = math.nan  # pairs that cross into the next cell
        np.fmin(emin[:-off], s, out=emin[:-off])
        np.fmax(emax[:-off], s, out=emax[:-off])
    min_sin = _per_cell(np.fmin, emin, ucell, n, 0.0)
    min_sin[ucount < 2] = 0.0
    return min_sin, _per_cell(np.fmax, emax, ucell, n, 0.0)


def _edge_ratio(a, owner: np.ndarray, bad: np.ndarray, n: int) -> np.ndarray:
    """Shortest over longest finite non-degenerate ridge; 0 for a cell with none."""
    fin = np.flatnonzero(~bad & np.isfinite(a.lengths[a.cell_ridges]))
    lens, fcell = a.lengths[a.cell_ridges[fin]], owner[fin]
    return _per_cell(np.fmin, lens, fcell, n, 0.0) / _per_cell(np.fmax, lens, fcell, n, math.inf)


def _has_ring_pair(a, owner: np.ndarray, degree: np.ndarray, n: int) -> np.ndarray:
    """Bounded cells with a ridge between some two consecutive neighbours."""
    start = a.cell_start
    nxt = np.arange(1, len(owner) + 1)
    wrap = np.flatnonzero(degree)
    nxt[start[wrap + 1] - 1] = start[wrap]
    ring = a.pair_ridge(a.cell_nbrs, a.cell_nbrs[nxt])
    return a.bounded & (np.bincount(owner, ring >= 0, n) > 0)


def _centrality(t: Tessellation, degree: np.ndarray) -> np.ndarray:
    """Distance from each cell's vertex centroid to the diagram center, in [0, 1].

    The centroid adds the cell's distinct vertices in ascending id order,
    one column at a time, cells grouped by degree.
    """
    a = t.arrays
    n = t.n_cells
    x0, y0, x1, y1 = t.bbox()
    cx = np.zeros(n)
    cy = np.zeros(n)
    for k in np.unique(degree[degree > 0]).tolist():
        cs = np.flatnonzero(degree == k)
        entries = a.cell_start[cs, None] + np.arange(k)
        vids = np.sort(a.ends[a.cell_ridges[entries]].reshape(len(cs), 2 * k), axis=1)
        keep = vids >= 0  # -1 marks a ray's missing end
        keep[:, 1:] &= vids[:, 1:] != vids[:, :-1]
        xy = a.vertices[vids]
        sx = np.zeros(len(cs))
        sy = np.zeros(len(cs))
        for col in range(2 * k):
            np.add(sx, xy[:, col, 0], out=sx, where=keep[:, col])
            np.add(sy, xy[:, col, 1], out=sy, where=keep[:, col])
        m = keep.sum(axis=1)
        cx[cs] = sx / m - 0.5 * (x0 + x1)
        cy[cs] = sy / m - 0.5 * (y0 + y1)
    half_diag = 0.5 * t.diameter()
    d = np.fromiter(map(math.hypot, cx, cy), float, n)
    return np.where(degree > 0, np.fmin(1.0, d / half_diag), 1.0)


def score_cell(t: Tessellation, c: CellId) -> AnchorScore:
    """Score one cell; never raises on degenerate geometry, just marks ineligible."""
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
