"""Ground-truth generation: site sampling and exact Voronoi construction.

``build_voronoi`` dualizes the Delaunay triangulation of ``delaunay``:
circumcenters of finite triangles become tessellation vertices, numbered
in the triangulation's canonical order (so a vertex id depends on the
triangle set alone, not on how it was built), interior Delaunay edges
become finite ridges, and hull edges become outward rays.
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
from .tessellation import GroundTruth, Tessellation, point_array, ranges, shared_corners

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
    grid of side 2 sep, found by sorting the cells' keys; ``math.hypot``
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
    close = [math.hypot(dx, dy) <= sep for dx, dy in zip(d[:, 0].tolist(), d[:, 1].tolist())]
    return set(np.maximum(i, j)[np.array(close, bool)].tolist())


def build_voronoi(sites: SiteSample) -> tuple[Tessellation, GroundTruth]:
    """Exact Voronoi tessellation of the sample, plus its ground truth.

    Raises ConstructionError when a site is not finite, the sites' extent
    overflows the float range, sites are duplicated,
    a 4+-cocircular degeneracy would produce a zero-length ridge, or sites
    are so nearly collinear or coincident that float cannot place their
    circumcenters well enough for ``validate``; see ``jitter_degenerate``.
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
        extent = math.hypot(*(p.max(axis=0) - p.min(axis=0)).tolist())
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
    abc = [p[corners[:, k]].T for k in range(3)]
    vertices = np.column_stack(delaunay.circumcenter(*abc))
    # every directed edge (i, j) with 0 <= i < j is one ridge; its triangle
    # and the one across it, ascending, give the ridge's vertex ids (finite
    # triangles come first, and are the vertices in their order)
    head = tv.ravel()
    tail = tv[:, [1, 2, 0]].ravel()
    e = np.flatnonzero((head >= 0) & (head < tail))
    e = e[np.lexsort((tail[e], head[e]))]
    ridge_cells = np.column_stack((head[e], tail[e]))
    ends = np.sort(np.column_stack((e // 3, tri.N.ravel()[e])), axis=1)
    finite = ends[:, 1] < tri.finite
    ends[~finite, 1] = -1  # (real triangle, -1)
    ray_dirs = np.full((len(ends), 2), math.nan)
    for k in np.flatnonzero(~finite).tolist():
        # hull edge: ray from the circumcenter of its only real triangle,
        # perpendicular to the site pair and away from the third site
        i, j = ridge_cells[k].tolist()
        gi, gj = p[i].tolist(), p[j].tolist()
        mx, my = 0.5 * (gi[0] + gj[0]), 0.5 * (gi[1] + gj[1])
        dx, dy = -(gj[1] - gi[1]), gj[0] - gi[0]
        w = p[next(w for w in corners[ends[k, 0]].tolist() if w != i and w != j)].tolist()
        if dx * (w[0] - mx) + dy * (w[1] - my) > 0.0:
            dx, dy = -dx, -dy
        ray_dirs[k] = geom.unit_vec(dx, dy)
    # a cell's ridges go by the angle of the neighbour across them, as
    # math.atan2 gives it (np.arctan2 rounds differently)
    d = p[ridge_cells[:, ::-1].ravel()] - p[ridge_cells.ravel()]
    angle = np.fromiter(map(math.atan2, d[:, 1].tolist(), d[:, 0].tolist()), float, len(d))
    cell_start, cell_ridges = _boundaries(ridge_cells, len(p), angle)
    bounded = np.bincount(ridge_cells[~finite].ravel(), minlength=len(p)) == 0
    # an unbounded cell's chain starts just after its gap, the first entry
    # that shares no vertex with the next
    _, closes = shared_corners(ends, finite, cell_start, cell_ridges)
    for c in np.flatnonzero(~bounded & (np.diff(cell_start) > 2)).tolist():
        lo, hi = cell_start[c], cell_start[c + 1]
        gaps = np.flatnonzero(~closes[lo:hi])
        if len(gaps):
            cell_ridges[lo:hi] = np.roll(cell_ridges[lo:hi], -(gaps[0] + 1))
    t = Tessellation.from_arrays(
        vertices, ridge_cells, ends, finite, ray_dirs, cell_start, cell_ridges, bounded
    )
    bad = np.flatnonzero(t.arrays.degenerate).tolist() if np.isfinite(vertices).all() else []
    if bad:
        groups = [tuple(sorted(set(corners[ends[r]].ravel().tolist()))) for r in bad]
        raise ConstructionError(
            f"cocircular degeneracy: coincident circumcenters for site groups {groups}",
            site_groups=tuple(groups),
            threshold=t.degeneracy_threshold(),
        )
    bad = _unresolved(p, corners, vertices, tri.N[: tri.finite], abc)
    if len(bad):
        groups = sorted({tuple(sorted(c)) for c in corners[bad].tolist()})
        raise ConstructionError(
            f"rounding degeneracy: circumcenters too inexact for site groups {groups}",
            site_groups=tuple(groups),
        )
    return t


def _unresolved(p, corners, vertices, nbrs, abc) -> np.ndarray:
    """The finite triangles whose circumcenter rounding could make a cell
    polygon turn the wrong way at it, by more than ``validate`` allows.

    At the circumcenter of triangle (a, b, c), the polygon of cell a turns by
    the triangle's angle at a. The ridge across edge (a, b) joins it to the
    circumcenter across that edge; rounding both by ``circumcenter_error``
    can turn the ridge by their sum over its length (a ray's direction is
    exact). Nearly collinear or nearly coincident sites, whose circumcenters
    float cannot place, end up here; so does a circumcenter that is not finite.
    """
    err = delaunay.circumcenter_error(*abc)
    real = nbrs < len(corners)
    other = np.where(real, nbrs, 0)
    # the turn of each ridge, across edge k (from corner k to k + 1)
    with np.errstate(all="ignore"):
        gap = np.hypot(*(vertices[other] - vertices[:, None, :]).transpose(2, 0, 1))
        turn = np.where(real, (err[:, None] + err[other]) / gap, err[:, None] * 0.0)
        a = p[corners]
        u, w = a[:, [1, 2, 0]] - a, a[:, [2, 0, 1]] - a
        cross = u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]
        sine = cross / (np.hypot(*u.transpose(2, 0, 1)) * np.hypot(*w.transpose(2, 0, 1)))
    # corner k sits between edge k - 1 and edge k
    ok = sine >= turn + turn[:, [2, 0, 1]] - 0.5e-9
    return np.flatnonzero(~ok.all(axis=1))


def _boundaries(ridge_cells: np.ndarray, n: int, angle: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's ridges, as CSR offsets and ridge ids, ordered by ``angle``
    (one per ridge end, as ``ridge_cells.ravel()``), ties in ridge order."""
    owner = ridge_cells.ravel()
    rids = np.repeat(np.arange(len(ridge_cells)), 2)
    start = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=n))))
    return start, rids[np.lexsort((rids, angle, owner))]


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
    cell_start, cell_ridges = _boundaries(ridge_cells, len(pts), np.zeros(2 * nr))
    return Tessellation.from_arrays(
        vertices,
        ridge_cells,
        np.column_stack((np.arange(nr) // 2, np.full(nr, -1))),
        np.zeros(nr, bool),
        np.tile([[w.x, w.y], [-w.x, -w.y]], (len(steps), 1)),
        cell_start,
        cell_ridges,
        np.zeros(len(pts), bool),
    )


# -- degeneracy handling --------------------------------------------------------


def jitter_degenerate(sites: SiteSample, epsilon: float) -> SiteSample:
    """Displace only degenerate-configuration points, each by at most ``epsilon``.

    Degenerate means duplicated within tolerance or part of a 4+-cocircular
    group whose dual ridge would have zero length. Returns the input object
    unchanged when it builds or ``epsilon`` is 0, and otherwise the moved
    sites, even when eight rounds of moving did not make them build.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    if epsilon == 0.0:
        return sites
    try:
        build_voronoi(sites)
    except ConstructionError as exc:
        if exc.site_groups:
            return _repair(sites, exc, epsilon)[0]
    return sites


def _repair(
    sites: SiteSample, exc: ConstructionError, epsilon: float
) -> tuple[SiteSample, tuple[Tessellation, GroundTruth] | ConstructionError]:
    """Move the points named in ``exc.site_groups`` by at most ``epsilon`` and
    build again, at most eight rounds.

    Returns the last moved sample with its diagram, or with the error of its
    build when the eighth round still fails.
    """
    rng = np.random.default_rng(0 if sites.seed is None else sites.seed)
    pts = sites.points.copy()
    for _ in range(8):
        for i in sorted(set().union(*exc.site_groups)):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            rad = epsilon * math.sqrt(rng.uniform(0.0, 1.0))
            x, y = pts[i].tolist()
            pts[i] = (x + rad * math.cos(ang), y + rad * math.sin(ang))
        moved = SiteSample(pts, sites.window, sites.seed)
        try:
            return moved, build_voronoi(moved)
        except ConstructionError as err:
            exc = err
    return moved, exc


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
        t, gt = build_voronoi(sites)
    except ConstructionError as exc:
        if not exc.site_groups:
            raise
        sites, built = _repair(sites, exc, max(DEFAULT_JITTER_REL * sites.window, exc.threshold))
        if isinstance(built, ConstructionError):
            raise built
        t, gt = built
    return sites, t, gt
