"""Reference reconstructions used for benchmarking.

Two methods live here. The per-cell brute force repeats the full patch
solve with every eligible cell as its own anchor, keeping only that cell's
generator from each solve. The angle-rotation method recovers a generator
from cell geometry alone: at each vertex the extension of the outer ridge
into the cell, reflected across the bisector of the cell's wedge at that
vertex, is a ray through the generator; pairwise ray intersections are
averaged with sensitivity weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geom
from .anchor import eligible_cells
from .errors import (
    DegenerateRidgeError,
    NoEligibleAnchorError,
    NoIntersectionError,
    UnderdeterminedError,
)
from .geom import Point2, RidgeLine, UnitVec2
from .propagate import sweep
from .solver import assemble_patch, solve_patch
from .tessellation import CellId, Tessellation

# a zero-displacement (insensitive) pair gets at most this multiple of the
# mean inverse-displacement weight
ZERO_DELTA_WEIGHT_CAP = 10.0


@dataclass(frozen=True)
class CPrimeEstimate:
    """One cell's angle-rotation estimate with its audit trail.

    ``weights`` are nonnegative and sum to 1; ``estimate`` is the weighted
    mean of ``raw_intersections``.
    """

    cell: CellId
    ray_pairs_used: int
    raw_intersections: list[Point2]
    weights: list[float]
    estimate: Point2


def brute_force_all(t: Tessellation) -> list[tuple[CellId, Point2, float]]:
    """Per-cell independent reconstruction: one full patch solve per cell.

    Every eligible cell anchors its own solve and contributes only its own
    generator. Ineligible (hull) cells are then filled by the reflection
    sweep from the solved cells so the result covers all cells; filled cells
    inherit the residual of their source. Returns (cell, point, residual)
    triples for every cell, in cell order.
    """
    known: dict[CellId, Point2] = {}
    resid: dict[CellId, float] = {}
    for c in eligible_cells(t):
        sol = solve_patch(assemble_patch(t, c))
        known[c] = sol.generators[c]
        resid[c] = sol.residual
    if not known:
        raise NoEligibleAnchorError(
            "no anchor-eligible cell; the per-cell brute force cannot start"
        )
    known, trace = sweep(t, known, origin="any solved cell")
    for nc, src, _ in trace.order:
        resid[nc] = resid[src]
    return [(c, known[c], resid[c]) for c in range(t.n_cells)]


def _generator_rays(t: Tessellation, c: CellId) -> list[RidgeLine]:
    """One generator-passing ray per usable cell vertex.

    At a vertex A the two cell sides span a wedge (< pi, the cell is convex)
    containing the extension of the outer ridge into the cell. As seen from
    A the sides bisect the angles (generator, neighbor generator) and the
    outer ridge bisects the two neighbors', so the generator direction is
    the outer extension reflected across the wedge bisector. With points as
    complex numbers and side directions s_a and s_b, the bisector's direction
    squared is s_a s_b, so that reflection is z -> s_a s_b conj(z).
    """
    arr = t.arrays
    rids = arr.cell_ridges[arr.cell_start[c] : arr.cell_start[c + 1]]
    ends = dict(zip(rids.tolist(), arr.ends[rids].tolist()))
    vids = sorted({v for pair in ends.values() for v in pair if v >= 0})
    xy = dict(zip(vids, map(Point2._make, arr.vertices[vids].tolist())))
    rays: list[RidgeLine] = []
    for v in vids:
        incident = t.vertex_ridges(v)
        sides = [rid for rid in incident if rid in ends]
        outers = [rid for rid in incident if rid not in ends]
        if len(sides) != 2 or not outers:
            continue
        a = xy[v]
        side_dirs = []
        ok = True
        for rid in sides:
            v0, v1 = ends[rid]
            w = xy[v1 if v0 == v else v0]
            try:
                side_dirs.append(geom.unit_vec(w.x - a.x, w.y - a.y))
            except DegenerateRidgeError:
                ok = False
                break
        if not ok:
            continue
        sa, sb = side_dirs
        cross = sa.x * sb.y - sa.y * sb.x
        if abs(cross) <= geom.PARALLEL_TOL:
            continue
        if cross < 0.0:
            sa, sb = sb, sa
        # e = s_a s_b, each real product rounded on its own
        ex = sa.x * sb.x - sa.y * sb.y
        ey = sa.x * sb.y + sa.y * sb.x
        for rid in outers:
            try:
                d0 = t.ridge_line(rid).dir
            except DegenerateRidgeError:
                continue
            into = None
            for dz in (d0, UnitVec2(-d0.x, -d0.y)):
                if sa.x * dz.y - sa.y * dz.x > 0.0 and dz.x * sb.y - dz.y * sb.x > 0.0:
                    into = dz
                    break
            if into is None:
                continue
            g = geom.unit_vec(ex * into.x + ey * into.y, ey * into.x - ex * into.y)
            rays.append(RidgeLine(a, g))
    return rays


def c_prime_cell(t: Tessellation, c: CellId) -> CPrimeEstimate:
    """Angle-rotation estimate of one bounded cell's generator.

    Generator rays from every usable vertex are intersected pairwise; each
    pair is weighted by the inverse of its sensitivity to the ray directions,
    |sin theta| / (l1 + l2) (``_pair_delta``). Insensitive pairs (zero
    displacement) are capped at 10x the mean weight; when every pair is
    insensitive the weights are uniform. A cell with a ray side is unbounded
    whatever its flag says.
    """
    a = t.arrays
    rids = a.cell_ridges[a.cell_start[c] : a.cell_start[c + 1]]
    if not a.bounded[c] or (a.ends[rids, 1] < 0).any():
        raise UnderdeterminedError(
            f"cell {c} is unbounded; the angle construction needs a closed polygon"
        )
    rays = _generator_rays(t, c)
    if len(rays) < 2:
        raise UnderdeterminedError(
            f"cell {c} yields {len(rays)} generator rays; need at least 2"
        )
    points: list[Point2] = []
    deltas: list[float] = []
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            try:
                p = geom.intersect_lines(rays[i], rays[j])
            except NoIntersectionError:
                continue
            points.append(p)
            deltas.append(_pair_delta(rays[i], rays[j], p))
    if not points:
        raise UnderdeterminedError(
            f"cell {c} has no two non-parallel generator rays"
        )
    weights = _delta_weights(deltas)
    ex = _sum(w * p.x for w, p in zip(weights, points))
    ey = _sum(w * p.y for w, p in zip(weights, points))
    return CPrimeEstimate(
        cell=c,
        ray_pairs_used=len(points),
        raw_intersections=points,
        weights=weights,
        estimate=Point2(ex, ey),
    )


def _sum(xs) -> float:
    """Left-to-right float sum. The builtin ``sum`` is compensated from
    Python 3.12 on, so it would give different bits on different versions."""
    total = 0.0
    for x in xs:
        total += x
    return total


def _pair_delta(r1: RidgeLine, r2: RidgeLine, p: Point2) -> float:
    """(l1 + l2) / |sin theta| for rays meeting at ``p`` at angle theta, l_i
    being p's distance from ray i's anchor: turning ray i by a small angle
    eps moves p by eps * l_i / |sin theta|."""
    sine = r1.dir.x * r2.dir.y - r1.dir.y * r2.dir.x
    l1 = math.hypot(p.x - r1.anchor.x, p.y - r1.anchor.y)
    l2 = math.hypot(p.x - r2.anchor.x, p.y - r2.anchor.y)
    return (l1 + l2) / abs(sine)


def _delta_weights(deltas: list[float]) -> list[float]:
    raw: list[float] = []
    capped: list[int] = []
    for i, d in enumerate(deltas):
        if d == 0.0:
            raw.append(0.0)
            capped.append(i)
        else:
            raw.append(1.0 / d)
    if capped:
        others = [raw[i] for i in range(len(raw)) if i not in capped]
        cap = ZERO_DELTA_WEIGHT_CAP * (_sum(others) / len(others)) if others else 0.0
        for i in capped:
            raw[i] = cap
    total = _sum(raw)
    if total <= 0.0:
        return [1.0 / len(raw)] * len(raw)
    return [w / total for w in raw]


def c_prime_all(t: Tessellation) -> list[tuple[CellId, Point2]]:
    """Angle-rotation estimates for every cell.

    Bounded cells get their own construction; unbounded ones (and any cell
    where the construction is underdetermined) are filled by the reflection
    sweep from the estimated cells, as in the brute force.
    """
    known: dict[CellId, Point2] = {}
    for c in np.flatnonzero(t.arrays.bounded).tolist():
        try:
            known[c] = c_prime_cell(t, c).estimate
        except (UnderdeterminedError, DegenerateRidgeError):
            continue
    if not known:
        raise UnderdeterminedError("no cell admits the angle construction")
    known, _ = sweep(t, known, origin="any estimated cell")
    return [(c, known[c]) for c in range(t.n_cells)]
