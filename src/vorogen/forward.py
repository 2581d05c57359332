"""Ground-truth generation: site sampling and exact Voronoi construction.

``build_voronoi`` dualizes the Delaunay triangulation of ``delaunay``:
circumcenters of finite triangles become tessellation vertices, numbered
in the triangulation's canonical order (so a vertex id depends on the
triangle set alone, not on how it was built), interior Delaunay edges
become finite ridges, and hull edges become outward rays.
A cell's boundary is read off the fan of triangles round its site, with no
sort (the quad-edge view of Guibas and Stolfi, ACM TOG 4(2), 1985): after
half-edge c -> u of triangle (c, u, w) comes c -> w. A bounded cell starts
at the neighbour of least ``math.atan2``, the first in (-pi, 0] after one
that is not; an unbounded cell just after its half-edge to INF, so its
chain runs from the ray coming in to the ray going out.
Collinear inputs (including the 2-site case) shortcut to an explicit
construction where each bisector line is a pair of opposite rays through a
synthetic vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import delaunay, geom
from .errors import ConstructionError
from .tessellation import GroundTruth, Tessellation, point_array, ranges

# Smallest jitter of sample_and_build's retry, relative to the window side;
# the retry uses the threshold that rejected the build when that is larger.
DEFAULT_JITTER_REL = 1e-9


@dataclass(frozen=True, eq=False)
class SiteSample:
    """Generator points, as ``tessellation.point_array`` stores them, plus
    the side length of the sampling window."""

    points: np.ndarray
    window: float
    seed: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "points", point_array(self.points))


def sample_sites(n: int, seed: Optional[int]) -> SiteSample:
    """``n`` points uniform on the open square (0, sqrt(n))^2, unit intensity.

    The window side sqrt(n) keeps the expected point density at one per unit
    area for every n, so error statistics are comparable across sizes. Sites
    closer than the degeneracy tolerance are left to ``build_voronoi``, which
    rejects them, and to ``sample_and_build``'s retry, which moves them.
    """
    if n < 2:
        raise ValueError(f"need at least 2 sites, got {n}")
    window = math.sqrt(n)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, window, size=(n, 2))
    for _ in range(100):
        on_edge = ~((pts > 0.0).all(axis=1) & (pts < window).all(axis=1))
        if not on_edge.any():
            break
        pts[on_edge] = rng.uniform(0.0, window, size=(int(on_edge.sum()), 2))
    pts.flags.writeable = False
    return SiteSample(pts, window, seed)


def _too_close(pts, sep: float) -> set[int]:
    """Indices of points within ``sep`` of an earlier point.

    The candidates are the pairs in one cell, or in neighbouring cells, of a
    grid of side 2 sep, found by sorting the cells' keys; ``geom.hypot``
    decides each candidate.
    """
    if sep <= 0.0:
        sep = 1e-300
    p = np.asarray(pts, float).reshape(-1, 2)
    g = np.floor(p / (sep * 2.0))
    # each axis's cells ranked; rank r + 1 is the next cell when the two
    # floors differ by exactly 1
    (ux, rx), (uy, ry) = (np.unique(g[:, k], return_inverse=True) for k in range(2))
    step_x = np.append(np.diff(ux) == 1.0, False)[rx]
    step_y = np.diff(uy) == 1.0
    up, down = np.append(step_y, False)[ry], np.insert(step_y, 0, False)[ry]
    key = rx * len(uy) + ry
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    at = np.empty_like(order)
    at[order] = np.arange(len(order))
    ends = np.searchsorted(sorted_key, key, "right")
    # the later points of one's own cell, then the cells above, right-below,
    # right and right-above
    spans = [(np.arange(len(p)), at + 1, ends)]
    for ok, shift in ((up, 1), (step_x & down, len(uy) - 1), (step_x, len(uy)),
                      (step_x & up, len(uy) + 1)):
        rows = np.flatnonzero(ok)
        lo, hi = (np.searchsorted(sorted_key, key[rows] + shift, side) for side in ("left", "right"))
        spans.append((rows, lo, hi))
    i = np.concatenate([np.repeat(rows, hi - lo) for rows, lo, hi in spans])
    j = order[np.concatenate([ranges(lo, hi) for _, lo, hi in spans])]
    d = p[i] - p[j]
    return set(np.maximum(i, j)[geom.hypot(d[:, 0], d[:, 1]) <= sep].tolist())


def build_voronoi(sites: SiteSample) -> tuple[Tessellation, GroundTruth]:
    """Exact Voronoi tessellation of the sample, plus its ground truth.

    Raises ConstructionError when a site is not finite, the sites' extent
    overflows the float range, sites are duplicated,
    a 4+-cocircular degeneracy would produce a zero-length ridge, or sites
    are so nearly collinear or coincident that float cannot place their
    circumcenters well enough for ``validate``; see ``sample_and_build``.
    The error's ``threshold`` is the tolerance that rejected the build: the
    site separation for duplicates, ``Tessellation.degeneracy_threshold()``
    of the built diagram for a degenerate ridge, 0 for the rounding case.
    """
    p = sites.points
    n = len(p)
    if n < 2:
        raise ConstructionError(f"need at least 2 sites, got {n}")
    if not np.isfinite(p).all():
        raise ConstructionError("site coordinates must be finite")
    with np.errstate(over="ignore"):
        extent = float(geom.hypot(*(p.max(axis=0) - p.min(axis=0))))
    if not math.isfinite(extent):
        # no site is a duplicate, and no jitter could repair this
        raise ConstructionError("sites spread beyond the float range: their extent overflows")
    sep = geom.DEGENERACY_REL * (extent or 1.0)
    dup = _too_close(p, sep)
    if dup:
        raise ConstructionError(
            f"duplicate sites within degeneracy tolerance: {sorted(dup)}",
            site_groups=(tuple(sorted(dup)),),
            threshold=sep,
        )
    gt = GroundTruth(p)
    if n == 2 or delaunay.all_collinear(p):
        return _collinear_voronoi(p.tolist()), gt
    tri = delaunay.Triangulation(p)
    return _dualize(p, tri), gt


def _dualize(p: np.ndarray, tri: "delaunay.Triangulation") -> Tessellation:
    tv = tri.V
    corners = tv[: tri.finite]
    abc = [(p[c, 0], p[c, 1]) for c in corners.T]
    cx, cy = delaunay.circumcenter(*abc)
    vertices = np.column_stack((cx, cy))
    # half-edge 3t + k of triangle t runs head -> tail; its twin, in the one across, back
    head, tail, across = tv.ravel(), tv[:, [1, 2, 0]].ravel(), tri.N.ravel()
    twin = 3 * across + (tv[across, 1] == tail) + 2 * (tv[across, 2] == tail)
    # every half-edge (i, j) with 0 <= i < j is one ridge, by (i, j), a unique
    # key; its triangle and the one across, ascending, give its vertex ids
    # (finite triangles come first, and are the vertices in their order)
    e = np.flatnonzero((head >= 0) & (head < tail))
    e = e[np.argsort(head[e] * len(p) + tail[e])]
    ridge_cells = np.column_stack((head[e], tail[e]))
    ends = np.column_stack((np.minimum(e // 3, across[e]), np.maximum(e // 3, across[e])))
    finite = ends[:, 1] < tri.finite
    ends[~finite, 1] = -1  # (real triangle, -1)
    ray_dirs = np.full((len(ends), 2), math.nan)
    # hull edge (i, j): ray from the circumcenter of its only real triangle,
    # perpendicular to the site pair and away from that triangle, which lies
    # left of half-edge e = i -> j when e is its own (CCW), else right of it
    ray = np.flatnonzero(~finite)
    gi, gj = p[ridge_cells[ray].T]
    dx, dy = -(gj[:, 1] - gi[:, 1]), gj[:, 0] - gi[:, 0]  # the left normal
    real = e[ray] // 3 < tri.finite
    ux, uy, _ = geom.unit_vecs(np.where(real, -dx, dx), np.where(real, -dy, dy))
    ray_dirs[ray] = np.column_stack((ux, uy))
    bounded = np.bincount(ridge_cells[~finite].ravel(), minlength=len(p)) == 0
    cell_start, cell_ridges = _fan_chains(p, head, tail, twin, e, bounded)
    t = Tessellation.from_arrays(
        vertices, ridge_cells, ends, finite, ray_dirs, cell_start, cell_ridges, bounded
    )
    placed = (np.abs(vertices) <= geom.COORD_MAX).all()  # else _unresolved refuses them
    bad = np.flatnonzero(t.arrays.degenerate).tolist() if placed else []
    if bad:
        groups = [tuple(sorted(set(corners[ends[r]].ravel().tolist()))) for r in bad]
        raise ConstructionError(
            f"cocircular degeneracy: coincident circumcenters for site groups {groups}",
            site_groups=tuple(groups),
            threshold=t.degeneracy_threshold(),
        )
    bad = _unresolved(corners, cx, cy, tri.N[: tri.finite], abc)
    if len(bad):
        groups = sorted({tuple(sorted(c)) for c in corners[bad].tolist()})
        raise ConstructionError(
            f"rounding degeneracy: circumcenters too inexact for site groups {groups}",
            site_groups=tuple(groups),
        )
    return t


def _fan_chains(p, head, tail, twin, e, bounded) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's chain of the module docstring, as CSR offsets and ridge
    ids; ridge r is half-edge ``e[r]`` and its twin."""
    h = np.arange(len(head))
    nxt = twin[h - 1 + 3 * (h % 3 == 0)]  # c -> w after c -> u in (c, u, w)
    rid = np.empty_like(h)
    rid[e] = rid[twin[e]] = np.arange(len(e))
    dy = p[tail, 1] - p[head, 1]  # garbage where an end is INF, and unread
    lower = (dy < 0.0) | ((dy == 0.0) & (p[tail, 0] > p[head, 0]))
    # each half-edge's distance to the last of its chain, by pointer doubling
    last = (tail == delaunay.INF) | (bounded[head] & ~lower & lower[nxt])
    succ, dist = np.where(last, h, nxt), (~last).astype(np.int64)
    fan = np.bincount(head[head >= 0], minlength=len(p))
    for _ in range(int(fan.max()).bit_length()):
        dist += dist[succ]
        succ = succ[succ]
    out = np.flatnonzero((head >= 0) & (tail >= 0))
    owner = head[out]
    start = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=len(p)))))
    ridges = np.empty(len(out), np.int64)
    ridges[start[owner] + fan[owner] - 1 - dist[out]] = rid[out]
    return start, ridges


def _unresolved(corners, cx, cy, nbrs, abc) -> np.ndarray:
    """The finite triangles whose circumcenter rounding could make a cell
    polygon turn the wrong way at it, by more than ``validate`` allows.

    At the circumcenter of triangle (a, b, c), the polygon of cell a turns by
    the triangle's angle at a. The ridge across edge (a, b) joins it to the
    circumcenter across that edge; rounding both by ``circumcenter_error``
    can turn the ridge by their sum over its length (a ray's direction is
    exact). Nearly collinear or nearly coincident sites, whose circumcenters
    float cannot place, end up here; so does a circumcenter (cx, cy) that is
    not finite or lies beyond ``geom.COORD_MAX``, which loading would refuse.
    """
    err = delaunay.circumcenter_error(*abc)
    real = nbrs < len(corners)
    other = np.where(real, nbrs, 0)
    # the turn of each ridge, across edge k (from corner k to k + 1)
    with np.errstate(all="ignore"):
        gap = np.hypot(cx[other] - cx[:, None], cy[other] - cy[:, None])
        turn = np.where(real, (err[:, None] + err[other]) / gap, err[:, None] * 0.0)
        x, y = (np.column_stack(col) for col in zip(*abc))
        ex, ey = x[:, [1, 2, 0]] - x, y[:, [1, 2, 0]] - y
        side = np.hypot(ex, ey)
        # corner k sits between edge k - 1 and edge k
        sine = (ex[:, [2, 0, 1]] * ey - ey[:, [2, 0, 1]] * ex) / (side * side[:, [2, 0, 1]])
    ok = sine >= turn + turn[:, [2, 0, 1]] - 0.5e-9
    return np.flatnonzero(~ok.all(axis=1) | ~(np.maximum(np.abs(cx), np.abs(cy)) <= geom.COORD_MAX))


def _collinear_voronoi(pts) -> Tessellation:
    """Voronoi diagram of collinear sites: parallel bisector lines, each
    encoded as two opposite rays through a synthetic vertex at the midpoint."""
    p0 = pts[0]
    p1 = next(p for p in pts[1:] if p != p0)
    u = geom.unit_vec(p1[0] - p0[0], p1[1] - p0[1])
    w = u.perp()
    order = sorted(range(len(pts)), key=lambda i: (pts[i][0] - p0[0]) * u.x + (pts[i][1] - p0[1]) * u.y)
    steps = list(zip(order, order[1:]))
    vertices = [(0.5 * (pts[a][0] + pts[b][0]), 0.5 * (pts[a][1] + pts[b][1])) for a, b in steps]
    ridge_cells = np.repeat(np.sort(steps, axis=1), 2, axis=0)
    nr = len(ridge_cells)
    owner = ridge_cells.ravel()  # each cell's ridges in id order
    return Tessellation.from_arrays(
        vertices,
        ridge_cells,
        np.column_stack((np.arange(nr) // 2, np.full(nr, -1))),
        np.zeros(nr, bool),
        np.tile([[w.x, w.y], [-w.x, -w.y]], (len(steps), 1)),
        np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=len(pts))))),
        np.argsort(owner, kind="stable") // 2,
        np.zeros(len(pts), bool),
    )


# -- degeneracy handling --------------------------------------------------------


def _repair(
    sites: SiteSample, exc: ConstructionError, epsilon: float
) -> tuple[SiteSample, Tessellation, GroundTruth]:
    """Move the degenerate points that ``exc.site_groups`` names, duplicated
    within tolerance or in a 4+-cocircular group whose dual ridge would have
    zero length, by at most ``epsilon`` each and build again, at most eight
    rounds.

    Returns the first moved sample that builds, with its diagram; raises the
    eighth round's ConstructionError when none does.
    """
    rng = np.random.default_rng(0 if sites.seed is None else sites.seed)
    pts = sites.points.copy()
    for attempt in range(8):
        for i in sorted(set().union(*exc.site_groups)):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            rad = epsilon * math.sqrt(rng.uniform(0.0, 1.0))
            x, y = pts[i].tolist()
            pts[i] = (x + rad * math.cos(ang), y + rad * math.sin(ang))
        moved = SiteSample(pts, sites.window, sites.seed)
        try:
            return (moved, *build_voronoi(moved))
        except ConstructionError as err:
            if attempt == 7:
                raise  # ``err`` is unbound as the error leaves: no cycle
            # without its traceback: that holds this frame, which holds the
            # error, a cycle that would keep the failed build's arrays alive
            # until the cyclic garbage collector runs
            exc = err.with_traceback(None)


def sample_and_build(n: int, seed: Optional[int]) -> tuple[SiteSample, Tessellation, GroundTruth]:
    """Sample, build, and jitter-retry once if the draw happened to be degenerate.

    The retry moves the degenerate points by up to the larger of
    ``DEFAULT_JITTER_REL`` times the window and the ridge-length threshold
    that rejected the build. That threshold is relative to the spread of all
    Voronoi vertices, and far-out hull circumcenters can make it exceed the
    window-relative jitter many times over.
    """
    sites = sample_sites(n, seed)
    try:
        return (sites, *build_voronoi(sites))
    except ConstructionError as exc:
        if not exc.site_groups:
            raise
        return _repair(sites, exc, max(DEFAULT_JITTER_REL * sites.window, exc.threshold))
