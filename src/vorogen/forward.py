"""Ground-truth generation: site sampling and exact Voronoi construction.

``build_voronoi`` dualizes an incremental Delaunay triangulation:
circumcenters of finite triangles become tessellation vertices, interior
Delaunay edges become finite ridges, and hull edges become outward rays.
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
from .geom import Point2
from .tessellation import GroundTruth, Tessellation, shared_corners

# Smallest jitter of sample_and_build's retry, relative to the window side;
# the retry uses the threshold that rejected the build when that is larger.
DEFAULT_JITTER_REL = 1e-9


@dataclass(frozen=True)
class SiteSample:
    """Generator points plus the side length of the sampling window."""

    points: tuple[Point2, ...]
    window: float
    seed: Optional[int] = None


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
    return SiteSample(tuple(Point2(float(x), float(y)) for x, y in pts), window, seed)


def _too_close(pts: list, sep: float) -> set[int]:
    """Indices of points closer than ``sep`` to an earlier point (grid hash)."""
    if sep <= 0.0:
        sep = 1e-300
    h = sep * 2.0
    grid: dict[tuple[int, int], list[int]] = {}
    bad: set[int] = set()
    for i, (x, y) in enumerate(pts):
        gx, gy = int(math.floor(x / h)), int(math.floor(y / h))
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for j in grid.get((gx + dx, gy + dy), ()):
                    if math.hypot(x - pts[j][0], y - pts[j][1]) <= sep:
                        bad.add(i)
        grid.setdefault((gx, gy), []).append(i)
    return bad


def build_voronoi(sites: SiteSample) -> tuple[Tessellation, GroundTruth]:
    """Exact Voronoi tessellation of the sample, plus its ground truth.

    Raises ConstructionError when sites are duplicated or a 4+-cocircular
    degeneracy would produce a zero-length ridge; see ``jitter_degenerate``.
    The error's ``threshold`` is the tolerance that rejected the build: the
    site separation for duplicates, ``Tessellation.degeneracy_threshold()``
    of the built diagram for a degenerate ridge.
    """
    pts = [(p[0], p[1]) for p in sites.points]
    n = len(pts)
    if n < 2:
        raise ConstructionError(f"need at least 2 sites, got {n}")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    sep = geom.DEGENERACY_REL * (math.hypot(max(xs) - min(xs), max(ys) - min(ys)) or 1.0)
    dup = _too_close(pts, sep)
    if dup:
        raise ConstructionError(
            f"duplicate sites within degeneracy tolerance: {sorted(dup)}",
            site_groups=(tuple(sorted(dup)),),
            threshold=sep,
        )
    gt = GroundTruth(tuple(Point2(*p) for p in pts))
    if n == 2 or delaunay.all_collinear(pts):
        return _collinear_voronoi(pts), gt
    tri = delaunay.Triangulation(pts)
    return _dualize(pts, tri), gt


def _dualize(pts, tri: "delaunay.Triangulation") -> Tessellation:
    real = tri.real_items()
    p = np.array(pts, float)
    corners = np.array([abc for _, abc in real]).reshape(-1, 3)
    vertices = np.column_stack(delaunay.circumcenter(*(p[corners[:, k]].T for k in range(3))))
    keys = sorted(key for key in tri.edge if 0 <= key[0] < key[1])
    # each ridge's two triangles, ascending, and their vertex ids; an
    # infinite triangle's id can be lower than a real one's
    tids = np.sort([(tri.edge[(i, j)], tri.edge[(j, i)]) for i, j in keys], axis=1)
    real_tids = np.array([tid for tid, _ in real])
    ends = np.minimum(np.searchsorted(real_tids, tids), len(real_tids) - 1)
    is_real = real_tids[ends] == tids
    finite = is_real.all(axis=1)
    ray_dirs = np.full((len(keys), 2), math.nan)
    for k in np.flatnonzero(~finite).tolist():
        # hull edge: ray from the circumcenter of its only real triangle,
        # perpendicular to the site pair and away from the third site
        own = int(is_real[k, 1])
        ends[k] = (ends[k, own], -1)
        i, j = keys[k]
        gi, gj = pts[i], pts[j]
        mx, my = 0.5 * (gi[0] + gj[0]), 0.5 * (gi[1] + gj[1])
        dx, dy = -(gj[1] - gi[1]), gj[0] - gi[0]
        w = pts[next(w for w in tri.tris[int(tids[k, own])] if w != i and w != j)]
        if dx * (w[0] - mx) + dy * (w[1] - my) > 0.0:
            dx, dy = -dx, -dy
        ray_dirs[k] = geom.unit_vec(dx, dy)
    # a cell's ridges go by the angle of the neighbour across them, as
    # math.atan2 gives it (np.arctan2 rounds differently)
    ridge_cells = np.array(keys).reshape(-1, 2)
    d = p[ridge_cells[:, ::-1].ravel()] - p[ridge_cells.ravel()]
    angle = np.fromiter(map(math.atan2, d[:, 1].tolist(), d[:, 0].tolist()), float, len(d))
    cell_start, cell_ridges = _boundaries(ridge_cells, len(pts), angle)
    bounded = np.bincount(ridge_cells[~finite].ravel(), minlength=len(pts)) == 0
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
    bad = np.flatnonzero(t.arrays.degenerate).tolist()
    if bad:
        groups = [tuple(sorted(set(corners[ends[r]].ravel().tolist()))) for r in bad]
        raise ConstructionError(
            f"cocircular degeneracy: coincident circumcenters for site groups {groups}",
            site_groups=tuple(groups),
            threshold=t.degeneracy_threshold(),
        )
    return t


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
    pts = [(p[0], p[1]) for p in sites.points]
    for _ in range(8):
        for i in sorted(set().union(*exc.site_groups)):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            rad = epsilon * math.sqrt(rng.uniform(0.0, 1.0))
            pts[i] = (pts[i][0] + rad * math.cos(ang), pts[i][1] + rad * math.sin(ang))
        moved = SiteSample(tuple(Point2(*p) for p in pts), sites.window, sites.seed)
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
