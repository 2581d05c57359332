"""Shared test utilities: independent oracles and fixture transforms.

The half-plane clipper here is a from-scratch O(n^2) Voronoi cell
construction used to cross-check the Delaunay-based builder, and the
normal-equations solve is an independent oracle for the QR path. The line
primitives and the per-cell loops of the two reference methods are the
scalar references the array code is held to.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from vorogen.anchor import eligible_cells
from vorogen.baselines import ZERO_DELTA_WEIGHT_CAP, CPrimeEstimate
from vorogen.delaunay import all_collinear
from vorogen.errors import (
    DegenerateRidgeError,
    NoEligibleAnchorError,
    UnderdeterminedError,
    VorogenError,
)
from vorogen.geom import PARALLEL_TOL, Point2, RidgeLine, UnitVec2, unit_vec
from vorogen.propagate import sweep
from vorogen.solver import PatchSystem, assemble_patch, solve_patch
from vorogen.tessellation import Cell, GroundTruth, Ridge, Tessellation


# -- line primitives ------------------------------------------------------------


class NoIntersectionError(VorogenError):
    """Two lines are parallel within tolerance; carries the offending sine."""

    def __init__(self, message: str, sine: float = 0.0):
        super().__init__(message)
        self.sine = sine


def reflect_point(p, line: RidgeLine) -> Point2:
    """Mirror image of ``p`` across ``line``; points on the line are fixed.

    ``2 (a + ((p - a) . d) d) - p`` is evaluated in exact rational arithmetic
    and rounded once per coordinate, so reflecting twice returns ``p`` up to
    those roundings and the direction's own. The reference for the mirror
    map z -> e conj(z) + b of ``RidgeArrays.mirrors``.
    """
    (ax, ay), (dx, dy), (px, py) = (map(Fraction, v) for v in (line.anchor, line.dir, p))
    t = (px - ax) * dx + (py - ay) * dy
    return Point2(float(2 * (ax + t * dx) - px), float(2 * (ay + t * dy) - py))


def line_from_two_points(a, b, min_length: float = 0.0) -> RidgeLine:
    """Line through ``a`` and ``b`` anchored at ``a``.

    Raises DegenerateRidgeError when the two points are closer than
    ``min_length`` (or coincide exactly).
    """
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    n = math.hypot(dx, dy)
    if n <= min_length or n == 0.0:
        raise DegenerateRidgeError(
            f"points ({a[0]}, {a[1]}) and ({b[0]}, {b[1]}) are {n:.3e} apart"
            f" (minimum {min_length:.3e})"
        )
    return RidgeLine(Point2(float(a[0]), float(a[1])), UnitVec2(dx / n, dy / n))


def intersect_lines(l1: RidgeLine, l2: RidgeLine) -> Point2:
    """Unique intersection point; near-parallel lines raise NoIntersectionError."""
    d1 = l1.dir
    d2 = l2.dir
    sine = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(sine) <= PARALLEL_TOL:
        raise NoIntersectionError(
            f"lines are parallel within tolerance (|sin| = {abs(sine):.3e})", sine=sine
        )
    wx = l2.anchor[0] - l1.anchor[0]
    wy = l2.anchor[1] - l1.anchor[1]
    t = (wx * d2[1] - wy * d2[0]) / sine
    return Point2(l1.anchor[0] + t * d1[0], l1.anchor[1] + t * d1[1])


def distance_to_line(p, line: RidgeLine) -> float:
    """Perpendicular distance from ``p`` to ``line``."""
    wx = p[0] - line.anchor[0]
    wy = p[1] - line.anchor[1]
    return abs(wx * line.dir[1] - wy * line.dir[0])


def same_line(l1: RidgeLine, l2: RidgeLine, tol: float = 1e-9) -> bool:
    """True when the two lines coincide (direction up to sign, shared points)."""
    cross = l1.dir[0] * l2.dir[1] - l1.dir[1] * l2.dir[0]
    return abs(cross) <= tol and distance_to_line(l2.anchor, l1) <= tol


def vertex_ridges(t: Tessellation, v: int) -> tuple[int, ...]:
    """Ridges ending at vertex ``v``, ascending, by a scan of the ridge ends;
    a finite ridge from ``v`` to ``v`` is listed twice."""
    a = t.arrays
    if not 0 <= v < t.n_vertices:
        return ()
    hit = a.ends == v
    hit[:, 1] &= a.finite
    return tuple((np.flatnonzero(hit) // 2).tolist())


def halfplane_cell(sites, i: int, pad: float) -> list[tuple[float, float]]:
    """Voronoi cell of site ``i`` clipped to a large frame, CCW.

    Clips the frame polygon successively against the half-plane closer to
    site i than to site j, for every other j (Sutherland-Hodgman). For a
    bounded cell the frame never participates as long as ``pad`` exceeds
    the cell radius.
    """
    xs = [p[0] for p in sites]
    ys = [p[1] for p in sites]
    lo_x, hi_x = min(xs) - pad, max(xs) + pad
    lo_y, hi_y = min(ys) - pad, max(ys) + pad
    poly = [(lo_x, lo_y), (hi_x, lo_y), (hi_x, hi_y), (lo_x, hi_y)]
    px, py = sites[i]
    for j, (qx, qy) in enumerate(sites):
        if j == i:
            continue
        # inside(p) <=> |p - site_i|^2 <= |p - site_j|^2 <=> a.x + b.y <= c
        a = 2.0 * (qx - px)
        b = 2.0 * (qy - py)
        c = qx * qx + qy * qy - px * px - py * py
        clipped: list[tuple[float, float]] = []
        m = len(poly)
        for k in range(m):
            x0, y0 = poly[k]
            x1, y1 = poly[(k + 1) % m]
            in0 = a * x0 + b * y0 <= c
            in1 = a * x1 + b * y1 <= c
            if in0:
                clipped.append((x0, y0))
            if in0 != in1:
                t = (c - a * x0 - b * y0) / (a * (x1 - x0) + b * (y1 - y0))
                clipped.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
        poly = clipped
        if not poly:
            break
    return poly


def polygon_vertices(t: Tessellation, c: int) -> list[Point2]:
    """Boundary polygon of a bounded cell, read off the ridge chain."""
    rids = t.cells[c].ridges
    m = len(rids)
    out = []
    for k in range(m):
        s = set(t.ridges[rids[k]].vertex_ids()) & set(t.ridges[rids[(k + 1) % m]].vertex_ids())
        assert len(s) == 1, f"cell {c} ridges {rids[k]},{rids[(k + 1) % m]} share {len(s)} vertices"
        out.append(t.vertices[s.pop()])
    return out


def cyclic_match(poly_a, poly_b, tol: float) -> bool:
    """True when the two polygons are equal up to rotation of the vertex list."""
    if len(poly_a) != len(poly_b):
        return False
    m = len(poly_a)
    for shift in range(m):
        if all(
            math.hypot(poly_a[k][0] - poly_b[(k + shift) % m][0],
                       poly_a[k][1] - poly_b[(k + shift) % m][1]) <= tol
            for k in range(m)
        ):
            return True
    return False


def point_in_polygon(p, poly) -> bool:
    """Strict interior test for a convex CCW polygon."""
    m = len(poly)
    for k in range(m):
        x0, y0 = poly[k]
        x1, y1 = poly[(k + 1) % m]
        if (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0) <= 0.0:
            return False
    return True


def normal_equations_solve(system: PatchSystem) -> np.ndarray:
    """Independent least-squares oracle: solve M^T M z = M^T b directly."""
    m = system.matrix
    return np.linalg.solve(m.T @ m, m.T @ system.rhs)


def mirror_system(members, equations) -> PatchSystem:
    """Hand-build a PatchSystem from (src, dst, line_dir, point_on_line) tuples.

    Writes the public contract rows g_dst - R g_src = (I - R) c without going
    through assemble_patch, so degenerate systems can be constructed at will.
    """
    index = {cell: j for j, cell in enumerate(members)}
    mat = np.zeros((2 * len(equations), 2 * len(members)))
    rhs = np.zeros(2 * len(equations))
    pairs = []
    for row, (src, dst, direction, c) in enumerate(equations):
        d = np.array(unit_vec(*direction))
        r = 2.0 * np.outer(d, d) - np.eye(2)
        i, j = 2 * index[src], 2 * index[dst]
        mat[2 * row:2 * row + 2, j:j + 2] = np.eye(2)
        mat[2 * row:2 * row + 2, i:i + 2] -= r
        rhs[2 * row:2 * row + 2] = c - r @ c
        pairs.append((src, dst))
    return PatchSystem(
        anchor=members[0], members=tuple(members), matrix=mat, rhs=rhs, row_pairs=tuple(pairs)
    )


def pair_delta_reference(r1: RidgeLine, r2: RidgeLine, p, eps: float = 1e-7) -> float:
    """Finite-difference sensitivity of the intersection ``p`` of two rays:
    the mean displacement of p when either ray turns by +-eps, divided by
    eps / 2, which to first order is ``baselines._pair_delta``'s closed form."""
    disp = []
    for angle in (eps, -eps):
        c, s = math.cos(angle), math.sin(angle)
        for k in (0, 1):
            rays = [r1, r2]
            dx, dy = rays[k].dir
            rays[k] = RidgeLine(rays[k].anchor, unit_vec(dx * c - dy * s, dx * s + dy * c))
            q = intersect_lines(*rays)
            disp.append(math.hypot(q.x - p[0], q.y - p[1]))
    return _sum(disp) / len(disp) / (eps / 2)


def transform_tessellation(t: Tessellation, point_map, dir_map) -> Tessellation:
    """Apply an isometry: ``point_map`` to vertices, ``dir_map`` to ray directions."""
    vertices = [point_map(p) for p in t.vertices]
    ridges = []
    for r in t.ridges:
        if r.is_finite:
            ridges.append(r)
        else:
            dx, dy = dir_map(r.ray_dir)
            ridges.append(Ridge(cells=r.cells, v0=r.v0, ray_dir=unit_vec(dx, dy)))
    return Tessellation(vertices, ridges, list(t.cells))


def relabel_cells(t: Tessellation, perm, gt: GroundTruth | None = None):
    """Rename cell ids via ``perm`` (old id -> new id); geometry untouched."""
    ridges = [
        Ridge(cells=(perm[r.cells[0]], perm[r.cells[1]]), v0=r.v0, v1=r.v1, ray_dir=r.ray_dir)
        for r in t.ridges
    ]
    cells: list[Cell | None] = [None] * len(t.cells)
    for old, cell in enumerate(t.cells):
        cells[perm[old]] = cell
    out = Tessellation(list(t.vertices), ridges, cells)
    if gt is None:
        return out
    gens: list[Point2 | None] = [None] * len(gt.generators)
    for old, g in enumerate(gt.generators):
        gens[perm[old]] = g
    return out, GroundTruth(tuple(gens))


def _cell_errors(generators, gt) -> list[list[float]]:
    """(dx, dy) of each row of ``generators`` from the same row of the truth:
    a GroundTruth, row c for cell c, or the true points of the same cells,
    such as ``gt.generators[list(sol.members)]`` for a patch solution."""
    d = np.asarray(generators, float).reshape(-1, 2) - getattr(gt, "generators", gt)
    return d.tolist()


def max_cell_error(generators, gt: GroundTruth) -> float:
    return max(math.hypot(dx, dy) for dx, dy in _cell_errors(generators, gt))


def rmse(generators, gt: GroundTruth) -> float:
    errors = _cell_errors(generators, gt)
    return math.sqrt(sum(dx**2 + dy**2 for dx, dy in errors) / len(errors))


def too_close_reference(pts, sep: float) -> set[int]:
    """Indices of points within ``sep`` of an earlier point: the grid-hash
    loop ``forward._too_close`` replaced, one dict cell of side 2 sep per
    point and its eight neighbours searched."""
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


def site_left_of_rays(t: Tessellation, sites, c: int, chain) -> bool:
    """Whether site ``c`` lies strictly left of the first ray of ``chain``,
    reversed, and of its last ray, so the chain runs counter-clockwise from
    the ray coming in to the ray going out. Each ray's line is taken through
    the midpoint of its two sites, where the exact ray lies: the stored
    vertex is rounded, and can carry the line past a site 1e-9 from it. The
    signs are taken exactly, in ``Fraction``s."""
    turns = []
    for rid in (chain[0], chain[-1]):
        r = t.ridges[rid]
        (gx, gy), (ox, oy), (dx, dy) = (
            map(Fraction, v) for v in (sites[c], sites[r.other_cell(c)], r.ray_dir)
        )
        turns.append(dx * (gy - oy) - dy * (gx - ox))  # twice the turn about the midpoint
    return turns[0] < 0 < turns[1]


def cell_ridges_reference(t: Tessellation, sites) -> list[tuple[int, ...]]:
    """Each cell's ridges in the order the forward build once sorted them
    into: by ``math.atan2`` of the site across each ridge, ties in ridge
    order (one ``lexsort`` over every boundary entry); then each unbounded
    cell of more than two ridges rotated to start just after its gap, the
    first entry that shares no vertex with the next, and each of two ridges
    put in the order that ``site_left_of_rays`` holds for. Collinear sites
    kept ridge order."""
    p = np.asarray(sites, float)
    cells = np.array([r.cells for r in t.ridges]).reshape(-1, 2)
    owner = cells.ravel()
    rids = np.repeat(np.arange(len(cells)), 2)
    d = p[cells[:, ::-1].ravel()] - p[owner]
    angle = np.fromiter(map(math.atan2, d[:, 1].tolist(), d[:, 0].tolist()), float, len(d))
    collinear = all_collinear(p)
    if collinear:
        angle[:] = 0.0
    order = rids[np.lexsort((rids, angle, owner))].tolist()
    start = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=len(p))))).tolist()
    chains = []
    for c, cell in enumerate(t.cells):
        chain = order[start[c] : start[c + 1]]
        if not (cell.bounded or collinear) and len(chain) > 2:
            ends = [set(t.ridges[r].vertex_ids()) for r in chain]
            gaps = [k for k in range(len(chain)) if len(ends[k] & ends[k - len(chain) + 1]) != 1]
            if gaps:
                chain = chain[gaps[0] + 1 :] + chain[: gaps[0] + 1]
        elif not (cell.bounded or collinear) and not site_left_of_rays(t, p, c, chain):
            chain = chain[::-1]
        chains.append(tuple(chain))
    return chains


# -- loop references for the vectorized anchor scoring and sweep -------------
#
# Per-cell Python loops with the floating-point operations of the scalar
# geometry API, in the order the vectorized code must reproduce; tests
# require bit-equal results. Sums run left to right (``_sum``), as the
# builtin ``sum`` of floats did before Python 3.12 made it compensated.


def assert_exactly_delaunay(pts, triangles) -> None:
    """Check a Delaunay triangulation in rational arithmetic, independent of
    ``delaunay``'s predicates: every triangle is counter-clockwise, no
    directed edge repeats, every point is used and the count is that of a
    triangulated convex polygon (2n - 2 - b for b boundary edges), and the
    fourth point across every interior edge is not strictly inside the
    triangle's circumcircle."""
    p = [(Fraction(x), Fraction(y)) for x, y in pts]
    opposite = {}
    for a, b, c in triangles:
        (ax, ay), (bx, by), (cx, cy) = p[a], p[b], p[c]
        assert (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0, f"triangle {(a, b, c)}"
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            assert (u, v) not in opposite, f"edge {(u, v)} twice"
            opposite[(u, v)] = w
    boundary = sum((v, u) not in opposite for u, v in opposite)
    assert {i for t in triangles for i in t} == set(range(len(pts)))
    assert len(triangles) == 2 * len(pts) - 2 - boundary
    for (u, v), w in opposite.items():
        if (v, u) not in opposite:
            continue
        d = opposite[(v, u)]
        (ax, ay), (bx, by), (cx, cy), (dx, dy) = p[u], p[v], p[w], p[d]
        rows = [(ax - dx, ay - dy), (bx - dx, by - dy), (cx - dx, cy - dy)]
        lift = [x * x + y * y for x, y in rows]
        (r0, r1, r2), (l0, l1, l2) = rows, lift
        det = (l0 * (r1[0] * r2[1] - r2[0] * r1[1]) + l1 * (r2[0] * r0[1] - r0[0] * r2[1])
               + l2 * (r0[0] * r1[1] - r1[0] * r0[1]))
        assert det <= 0, f"edge {(u, v)}: {d} inside the circle of {(u, v, w)}"


def _sum(xs) -> float:
    total = 0.0
    for x in xs:
        total += x
    return total


def _degenerate(t: Tessellation, rid: int) -> bool:
    try:
        t.ridge_line(rid)
    except DegenerateRidgeError:
        return True
    return False


def score_cell_reference(t: Tessellation, c: int) -> tuple:
    """(eligible, degree, min_edge_ratio) of one cell, one ridge at a time.

    Eligible means the paper's patch exists: the cell is bounded, none of its
    ridges is degenerate, some ridge is not parallel to its first, its
    neighbours are distinct and not the cell itself, and each pair of
    consecutive neighbours is joined by a ridge whose lowest-id one is not
    degenerate."""
    cell = t.cells[c]
    dirs, lengths, degenerate = [], [], False
    for rid in cell.ridges:
        try:
            dirs.append(t.ridge_line(rid).dir)
        except DegenerateRidgeError:
            degenerate = True
            continue
        r = t.ridges[rid]
        if r.is_finite:
            p0, p1 = t.vertices[r.v0], t.vertices[r.v1]
            lengths.append(math.hypot(p1.x - p0.x, p1.y - p0.y))
    turns = any(
        abs(dirs[0][0] * d[1] - dirs[0][1] * d[0]) > PARALLEL_TOL for d in dirs[1:]
    )
    min_edge_ratio = (min(lengths) / max(lengths)) if lengths else 0.0
    nb = [t.ridges[rid].other_cell(c) for rid in cell.ridges]
    distinct = len(set(nb)) == len(nb) and c not in nb
    full_ring = True
    for i in range(len(nb)):
        pair = frozenset((nb[i], nb[(i + 1) % len(nb)]))
        rid = next((k for k, r in enumerate(t.ridges) if frozenset(r.cells) == pair), None)
        full_ring = full_ring and rid is not None and not _degenerate(t, rid)
    eligible = cell.bounded and not degenerate and turns and distinct and full_ring
    return eligible, len(cell.ridges), min_edge_ratio


def mirror_step(t: Tessellation, rid: int, g) -> Point2:
    """``g`` reflected across ridge ``rid`` as R g + b, R = 2 u u^T - I and
    b = 2 m (m . c), from the ridge's own vertices and ``ridge_line``
    direction u, with the float operations of ``propagate.sweep``."""
    ux, uy = t.ridge_line(rid).dir
    r = t.ridges[rid]
    p0 = t.vertices[r.v0]
    cx, cy = p0
    if r.is_finite:
        p1 = t.vertices[r.v1]
        cx, cy = 0.5 * (p0.x + p1.x), 0.5 * (p0.y + p1.y)
    ex, ey = ux * ux - uy * uy, ux * uy + uy * ux
    mx, my = -uy, ux
    k = mx * cx + my * cy
    return Point2(ex * g[0] + ey * g[1] + 2.0 * mx * k, ey * g[0] - ex * g[1] + 2.0 * my * k)


def reflect_step(t: Tessellation, rid: int, g) -> Point2:
    """``g`` reflected across ridge ``rid`` by ``geom.reflect_point``."""
    return reflect_point(g, t.ridge_line(rid))


def sweep_reference(t: Tessellation, cells, points, step=mirror_step):
    """Layered reflection sweep, one cell at a time, each new cell reflected
    through its first incoming ridge by ``step``: the (n, 2) generators, the
    (cell, source, ridge) rows in finalization order, each cell's depth and
    the number of reflections."""
    known = dict(zip(cells, np.asarray(points, float).tolist()))
    depth = {c: 0 for c in known}
    order, calls = [], 0
    current = sorted(known)
    while current:
        incoming: dict = {}
        for c in current:
            for rid in t.cells[c].ridges:
                nc = t.ridges[rid].other_cell(c)
                if nc not in depth:
                    incoming.setdefault(nc, (c, rid))
        nxt = sorted(incoming)
        for nc in nxt:
            src, rid = incoming[nc]
            known[nc] = step(t, rid, known[src])
            calls += 1
            depth[nc] = depth[src] + 1
            order.append((nc, src, rid))
        current = nxt
    n = t.n_cells
    return (
        np.array([known[c] for c in range(n)], float).reshape(-1, 2),
        np.array(order, np.intp).reshape(-1, 3),
        np.array([depth[c] for c in range(n)]),
        calls,
    )


# -- loop references for the array-pass reference methods ----------------------


def brute_force_reference(t: Tessellation):
    """``baselines.brute_force_all`` one patch at a time: ``solve_patch`` of
    ``assemble_patch`` for each eligible cell, ascending, then the sweep:
    the (n, 2) generators and the (n,) residuals."""
    known: dict = {}
    resid = np.zeros(t.n_cells)
    for c in eligible_cells(t):
        sol = solve_patch(assemble_patch(t, c))
        known[c] = sol.generators[0]
        resid[c] = sol.residual
    if not known:
        raise NoEligibleAnchorError(
            "no anchor-eligible cell; the per-cell brute force cannot start"
        )
    generators, trace = sweep(t, list(known), list(known.values()), origin="any solved cell")
    for nc, src in zip(trace.cells.tolist(), trace.sources.tolist()):
        resid[nc] = resid[src]
    return generators, resid


def generator_rays_reference(t: Tessellation, c: int) -> list[RidgeLine]:
    """One generator-passing ray per usable vertex of cell ``c``, one vertex
    at a time in ascending id order, as ``baselines._generator_rays`` must
    reproduce them: the outer ridge's direction into the wedge of the two
    sides s_a, s_b (s_a x s_b > 0), reflected by z -> s_a s_b conj(z). A
    vertex where a side or the outer ridge is degenerate gives none."""
    arr = t.arrays
    rids = arr.cell_ridges[arr.cell_start[c] : arr.cell_start[c + 1]]
    ends = dict(zip(rids.tolist(), arr.ends[rids].tolist()))
    vids = sorted({v for pair in ends.values() for v in pair if v >= 0})
    xy = dict(zip(vids, map(Point2._make, arr.vertices[vids].tolist())))
    rays: list[RidgeLine] = []
    for v in vids:
        incident = vertex_ridges(t, v)
        sides = [rid for rid in incident if rid in ends]
        outers = [rid for rid in incident if rid not in ends]
        if len(sides) != 2 or not outers or any(_degenerate(t, rid) for rid in sides):
            continue
        a = xy[v]
        side_dirs = []
        for rid in sides:
            v0, v1 = ends[rid]
            w = xy[v1 if v0 == v else v0]
            side_dirs.append(unit_vec(w.x - a.x, w.y - a.y))
        sa, sb = side_dirs
        cross = sa.x * sb.y - sa.y * sb.x
        if abs(cross) <= PARALLEL_TOL:
            continue
        if cross < 0.0:
            sa, sb = sb, sa
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
            g = unit_vec(ex * into.x + ey * into.y, ey * into.x - ex * into.y)
            rays.append(RidgeLine(a, g))
    return rays


def delta_weights_reference(deltas: list[float]) -> list[float]:
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


def c_prime_cell_reference(t: Tessellation, c: int) -> CPrimeEstimate:
    """``baselines.c_prime_cell`` as a loop over ray pairs (i < j)."""
    a = t.arrays
    rids = a.cell_ridges[a.cell_start[c] : a.cell_start[c + 1]]
    if not a.bounded[c] or not a.finite[rids].all():
        raise UnderdeterminedError(
            f"cell {c} is unbounded; the angle construction needs a closed polygon"
        )
    rays = generator_rays_reference(t, c)
    if len(rays) < 2:
        raise UnderdeterminedError(
            f"cell {c} yields {len(rays)} generator rays; need at least 2"
        )
    points: list[Point2] = []
    deltas: list[float] = []
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            try:
                p = intersect_lines(rays[i], rays[j])
            except NoIntersectionError:
                continue
            points.append(p)
            (a1, d1), (a2, d2) = rays[i], rays[j]
            sine = d1.x * d2.y - d1.y * d2.x
            l1 = math.hypot(p.x - a1.x, p.y - a1.y)
            l2 = math.hypot(p.x - a2.x, p.y - a2.y)
            deltas.append((l1 + l2) / abs(sine))
    if not points:
        raise UnderdeterminedError(
            f"cell {c} has no two non-parallel generator rays"
        )
    weights = delta_weights_reference(deltas)
    ex = _sum(w * p.x for w, p in zip(weights, points))
    ey = _sum(w * p.y for w, p in zip(weights, points))
    return CPrimeEstimate(
        cell=c,
        ray_pairs_used=len(points),
        raw_intersections=points,
        weights=weights,
        estimate=Point2(ex, ey),
    )


def c_prime_all_reference(t: Tessellation):
    """``baselines.c_prime_all`` one cell at a time."""
    known = {}
    for c in np.flatnonzero(t.arrays.bounded).tolist():
        try:
            known[c] = c_prime_cell_reference(t, c).estimate
        except (UnderdeterminedError, DegenerateRidgeError):
            continue
    if not known:
        raise UnderdeterminedError("no cell admits the angle construction")
    return sweep(t, list(known), list(known.values()), origin="any estimated cell")[0]
