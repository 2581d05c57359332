"""Shared test utilities: independent oracles and fixture transforms.

The half-plane clipper here is a from-scratch O(n^2) Voronoi cell
construction used to cross-check the Delaunay-based builder, and the
normal-equations solve is an independent oracle for the QR path.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from vorogen.anchor import composite_score
from vorogen.errors import DegenerateRidgeError
from vorogen.geom import PARALLEL_TOL, Point2, RidgeLine, intersect_lines, reflect_point, unit_vec
from vorogen.solver import PatchSystem
from vorogen.tessellation import Cell, GroundTruth, Ridge, Tessellation


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


def max_cell_error(generators: dict, gt: GroundTruth) -> float:
    return max(
        math.hypot(p.x - gt.generators[c][0], p.y - gt.generators[c][1])
        for c, p in generators.items()
    )


def rmse(generators: dict, gt: GroundTruth) -> float:
    total = sum(
        (p.x - gt.generators[c][0]) ** 2 + (p.y - gt.generators[c][1]) ** 2
        for c, p in generators.items()
    )
    return math.sqrt(total / len(generators))


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


def score_cell_reference(t: Tessellation, c: int) -> tuple:
    """(eligible, degree, min_edge_ratio, max_pairwise_parallelism,
    centrality, composite) of one cell, one ridge at a time."""
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
    min_sin, max_sin = 1.0, 0.0
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            s = abs(dirs[i][0] * dirs[j][1] - dirs[i][1] * dirs[j][0])
            min_sin = min(min_sin, s)
            max_sin = max(max_sin, s)
    if len(dirs) < 2:
        min_sin = 0.0
    min_edge_ratio = (min(lengths) / max(lengths)) if lengths else 0.0
    vids = sorted({v for rid in cell.ridges for v in t.ridges[rid].vertex_ids()})
    centrality = 1.0
    if vids:
        cx = _sum(t.vertices[v].x for v in vids) / len(vids)
        cy = _sum(t.vertices[v].y for v in vids) / len(vids)
        x0, y0, x1, y1 = t.bbox()
        d = math.hypot(cx - 0.5 * (x0 + x1), cy - 0.5 * (y0 + y1))
        centrality = min(1.0, d / (0.5 * t.diameter()))
    nb = [t.ridges[rid].other_cell(c) for rid in cell.ridges]
    pairs = {frozenset(r.cells) for r in t.ridges}
    has_ring = cell.bounded and any(
        frozenset((nb[i], nb[(i + 1) % len(nb)])) in pairs for i in range(len(nb))
    )
    spread = max(0.0, min(1.0, min_sin))
    eligible = cell.bounded and not degenerate and max_sin > PARALLEL_TOL and has_ring
    return (
        eligible,
        len(cell.ridges),
        min_edge_ratio,
        1.0 - spread,
        centrality,
        composite_score(min_edge_ratio, centrality, len(cell.ridges), spread),
    )


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


def sweep_reference(t: Tessellation, known: dict, step=mirror_step):
    """Layered reflection sweep, one cell at a time, each new cell reflected
    through its first incoming ridge by ``step``: (generators, order, depth,
    candidates, reflect_calls)."""
    known = dict(known)
    depth = {c: 0 for c in known}
    order, candidates, calls = [], {}, 0
    current = sorted(known)
    while current:
        incoming: dict = {}
        for c in current:
            for rid in t.cells[c].ridges:
                nc = t.ridges[rid].other_cell(c)
                if nc not in depth:
                    incoming.setdefault(nc, []).append((c, rid))
        nxt = sorted(incoming)
        for nc in nxt:
            cands = incoming[nc]
            candidates[nc] = len(cands)
            src, rid = cands[0]
            known[nc] = step(t, rid, known[src])
            calls += 1
            depth[nc] = depth[src] + 1
            order.append((nc, src, rid))
        current = nxt
    return known, order, depth, candidates, calls
