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
from typing import Optional, Sequence

import numpy as np

from . import delaunay, geom
from .errors import ConstructionError
from .geom import Point2, UnitVec2
from .tessellation import Cell, GroundTruth, Ridge, Tessellation

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
    area for every n, so error statistics are comparable across sizes.
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
    sep = geom.DEGENERACY_REL * window * math.sqrt(2.0)
    for _ in range(100):
        clash = _too_close(pts.tolist(), sep)
        if not clash:
            break
        for i in sorted(clash):
            pts[i] = rng.uniform(0.0, window, size=2)
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
    """
    pts = [(p[0], p[1]) for p in sites.points]
    n = len(pts)
    if n < 2:
        raise ConstructionError(f"need at least 2 sites, got {n}")
    scale = _site_scale(pts)
    dup = _too_close(pts, geom.DEGENERACY_REL * scale)
    if dup:
        raise ConstructionError(
            f"duplicate sites within degeneracy tolerance: {sorted(dup)}",
            site_groups=(tuple(sorted(dup)),),
        )
    gt = GroundTruth(tuple(Point2(*p) for p in pts))
    if n == 2 or delaunay.all_collinear(pts):
        return _collinear_voronoi(pts), gt
    tri = delaunay.Triangulation(pts)
    return _dualize(pts, tri), gt


def _site_scale(pts) -> float:
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return math.hypot(max(xs) - min(xs), max(ys) - min(ys)) or 1.0


def _dualize(pts, tri: "delaunay.Triangulation") -> Tessellation:
    real = tri.real_items()
    vertices: list[tuple[float, float]] = []
    tv: dict[int, int] = {}
    for tid, (a, b, c) in real:
        tv[tid] = len(vertices)
        vertices.append(delaunay.circumcenter(pts[a], pts[b], pts[c]))
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    diam = math.hypot(max(xs) - min(xs), max(ys) - min(ys)) or 1.0
    thresh = geom.DEGENERACY_REL * diam

    owners: dict[tuple[int, int], list[int]] = {}
    third: dict[tuple[int, int], int] = {}
    for tid, (a, b, c) in real:
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            key = (u, v) if u < v else (v, u)
            owners.setdefault(key, []).append(tid)
            third.setdefault(key, w)

    ridges: list[Ridge] = []
    bad_groups: list[tuple[int, ...]] = []
    for key in sorted(owners):
        i, j = key
        own = owners[key]
        if len(own) == 2:
            v0, v1 = tv[own[0]], tv[own[1]]
            p0, p1 = vertices[v0], vertices[v1]
            if math.hypot(p1[0] - p0[0], p1[1] - p0[1]) <= thresh:
                group = set(tri.tris.get(own[0], ())) | set(tri.tris.get(own[1], ()))
                bad_groups.append(tuple(sorted(group)))
            ridges.append(Ridge(cells=(i, j), v0=v0, v1=v1))
        else:
            # hull edge: ray from the circumcenter of its only triangle,
            # perpendicular to the site pair and away from the third site
            v0 = tv[own[0]]
            gi, gj = pts[i], pts[j]
            mx, my = 0.5 * (gi[0] + gj[0]), 0.5 * (gi[1] + gj[1])
            dx, dy = -(gj[1] - gi[1]), gj[0] - gi[0]
            k = pts[third[key]]
            if dx * (k[0] - mx) + dy * (k[1] - my) > 0.0:
                dx, dy = -dx, -dy
            ridges.append(Ridge(cells=(i, j), v0=v0, ray_dir=geom.unit_vec(dx, dy)))
    if bad_groups:
        raise ConstructionError(
            f"cocircular degeneracy: coincident circumcenters for site groups {bad_groups}",
            site_groups=tuple(bad_groups),
        )
    cells = _assemble_cells(pts, ridges)
    return Tessellation(vertices, ridges, cells)


def _assemble_cells(pts, ridges: list[Ridge]) -> list[Cell]:
    n = len(pts)
    per_cell: list[list[int]] = [[] for _ in range(n)]
    for rid, r in enumerate(ridges):
        per_cell[r.cells[0]].append(rid)
        per_cell[r.cells[1]].append(rid)
    cells = []
    for i in range(n):
        rids = per_cell[i]
        gx, gy = pts[i]

        def nb_angle(rid: int, _gx=gx, _gy=gy, _i=i) -> float:
            j = ridges[rid].other_cell(_i)
            return math.atan2(pts[j][1] - _gy, pts[j][0] - _gx)

        rids.sort(key=nb_angle)
        has_ray = any(ridges[rid].v1 is None for rid in rids)
        if has_ray and len(rids) > 2:
            rids = _rotate_to_chain_start(ridges, rids)
        cells.append(Cell(tuple(rids), bounded=not has_ray))
    return cells


def _rotate_to_chain_start(ridges: list[Ridge], rids: list[int]) -> list[int]:
    """Rotate an angularly sorted ridge list so its open boundary chain starts
    just after the gap (the one cyclic pair that shares no vertex)."""
    m = len(rids)
    for t in range(m):
        r1 = ridges[rids[t]]
        r2 = ridges[rids[(t + 1) % m]]
        if not set(r1.vertex_ids()) & set(r2.vertex_ids()):
            return rids[t + 1 :] + rids[: t + 1]
    return rids


def _collinear_voronoi(pts) -> Tessellation:
    """Voronoi diagram of collinear sites: parallel bisector lines, each
    encoded as two opposite rays through a synthetic vertex at the midpoint."""
    p0 = pts[0]
    p1 = next(p for p in pts[1:] if p != p0)
    u = geom.unit_vec(p1[0] - p0[0], p1[1] - p0[1])
    w = u.perp()
    order = sorted(range(len(pts)), key=lambda i: (pts[i][0] - p0[0]) * u.x + (pts[i][1] - p0[1]) * u.y)
    vertices: list[tuple[float, float]] = []
    ridges: list[Ridge] = []
    for a, b in zip(order, order[1:]):
        mx = 0.5 * (pts[a][0] + pts[b][0])
        my = 0.5 * (pts[a][1] + pts[b][1])
        vid = len(vertices)
        vertices.append((mx, my))
        pair = (a, b) if a < b else (b, a)
        ridges.append(Ridge(cells=pair, v0=vid, ray_dir=w))
        ridges.append(Ridge(cells=pair, v0=vid, ray_dir=UnitVec2(-w.x, -w.y)))
    per_cell: list[list[int]] = [[] for _ in range(len(pts))]
    for rid, r in enumerate(ridges):
        per_cell[r.cells[0]].append(rid)
        per_cell[r.cells[1]].append(rid)
    cells = [Cell(tuple(rids), bounded=False) for rids in per_cell]
    return Tessellation(vertices, ridges, cells)


# -- degeneracy handling --------------------------------------------------------


def jitter_degenerate(sites: SiteSample, epsilon: float) -> SiteSample:
    """Displace only degenerate-configuration points, each by at most ``epsilon``.

    Degenerate means duplicated within tolerance or part of a 4+-cocircular
    group whose dual ridge would have zero length. Returns the input object
    unchanged when nothing is degenerate or ``epsilon`` is 0.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    pts = [(p[0], p[1]) for p in sites.points]
    bad, _ = _degenerate_points(pts)
    if not bad or epsilon == 0.0:
        return sites
    return _displace(sites, pts, bad, epsilon)


def _displace(sites: SiteSample, pts: list, bad: set[int], epsilon: float) -> SiteSample:
    """Move the ``bad`` points of ``pts`` by at most ``epsilon`` until none is
    degenerate, at most eight rounds."""
    rng = np.random.default_rng(0 if sites.seed is None else sites.seed)
    for _ in range(8):
        for i in sorted(bad):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            rad = epsilon * math.sqrt(rng.uniform(0.0, 1.0))
            pts[i] = (pts[i][0] + rad * math.cos(ang), pts[i][1] + rad * math.sin(ang))
        bad, _ = _degenerate_points(pts)
        if not bad:
            break
    return SiteSample(tuple(Point2(*p) for p in pts), sites.window, sites.seed)


def _degenerate_points(pts) -> tuple[set[int], float]:
    """The degenerate points, and the ridge-length threshold they were
    judged by (0 when duplicates were found before any triangulation)."""
    scale = _site_scale(pts)
    bad = _too_close(pts, geom.DEGENERACY_REL * scale)
    if bad:
        return bad, 0.0
    if len(pts) < 4 or delaunay.all_collinear(pts):
        return set(), 0.0
    try:
        tri = delaunay.Triangulation(pts)
    except (ValueError, ZeroDivisionError):
        return set(), 0.0
    real = tri.real_items()
    centers = {tid: delaunay.circumcenter(pts[a], pts[b], pts[c]) for tid, (a, b, c) in real}
    if not centers:
        return set(), 0.0
    xs = [v[0] for v in centers.values()]
    ys = [v[1] for v in centers.values()]
    diam = math.hypot(max(xs) - min(xs), max(ys) - min(ys)) or 1.0
    thresh = geom.DEGENERACY_REL * diam
    owners: dict[tuple[int, int], list[int]] = {}
    for tid, (a, b, c) in real:
        for u, v in ((a, b), (b, c), (c, a)):
            owners.setdefault((u, v) if u < v else (v, u), []).append(tid)
    out: set[int] = set()
    for key, own in owners.items():
        if len(own) == 2:
            c0, c1 = centers[own[0]], centers[own[1]]
            if math.hypot(c1[0] - c0[0], c1[1] - c0[1]) <= thresh:
                out.update(tri.tris[own[0]])
                out.update(tri.tris[own[1]])
    return out, thresh


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
    except ConstructionError:
        pts = [(p[0], p[1]) for p in sites.points]
        bad, thresh = _degenerate_points(pts)
        sites = _displace(sites, pts, bad, max(DEFAULT_JITTER_REL * sites.window, thresh))
        t, gt = build_voronoi(sites)
    return sites, t, gt
