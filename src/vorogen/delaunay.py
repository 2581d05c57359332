"""Incremental Delaunay triangulation (cavity / fan insertion).

The triangulation keeps one symbolic vertex at infinity, so hull updates
need no super-triangle bookkeeping or magic coordinates: every hull edge is
shared with an "infinite" triangle, and the in-circumcircle predicate for
those degenerates to an orientation test against the hull edge.

Triangles are oriented triples of point indices (counter-clockwise for
finite ones). The directed-edge map ``edge[(u, v)] -> triangle id`` is the
only adjacency structure; every directed edge, including those touching the
infinite vertex, has its reverse owned by the neighboring triangle.
"""

from __future__ import annotations

from typing import Sequence

INF = -1


def orient(ax, ay, bx, by, cx, cy):
    """Twice the signed area of (a, b, c); positive for counter-clockwise."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def incircle(ax, ay, bx, by, cx, cy, dx, dy):
    """Positive when d lies strictly inside the circumcircle of CCW (a, b, c)."""
    adx = ax - dx
    ady = ay - dy
    bdx = bx - dx
    bdy = by - dy
    cdx = cx - dx
    cdy = cy - dy
    ad = adx * adx + ady * ady
    bd = bdx * bdx + bdy * bdy
    cd = cdx * cdx + cdy * cdy
    return (
        adx * (bdy * cd - cdy * bd)
        - ady * (bdx * cd - cdx * bd)
        + ad * (bdx * cdy - cdx * bdy)
    )


def circumcenter(a, b, c):
    """Circumcenter of a non-degenerate triangle, computed relative to ``a``."""
    bx = b[0] - a[0]
    by = b[1] - a[1]
    cx = c[0] - a[0]
    cy = c[1] - a[1]
    d = 2.0 * (bx * cy - by * cx)
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    return (a[0] + (cy * b2 - by * c2) / d, a[1] + (bx * c2 - cx * b2) / d)


def _part1by1(v: int) -> int:
    v &= 0xFFFF
    v = (v | (v << 8)) & 0x00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F
    v = (v | (v << 2)) & 0x33333333
    v = (v | (v << 1)) & 0x55555555
    return v


def insertion_order(pts: Sequence[tuple[float, float]]) -> list[int]:
    """Morton (Z-curve) order so successive insertions stay spatially close."""
    n = len(pts)
    if n == 0:
        return []
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    sx = 65535.0 / (x1 - x0) if x1 > x0 else 0.0
    sy = 65535.0 / (y1 - y0) if y1 > y0 else 0.0
    keys = []
    for i, (x, y) in enumerate(pts):
        ix = int((x - x0) * sx)
        iy = int((y - y0) * sy)
        keys.append((_part1by1(ix) | (_part1by1(iy) << 1), i))
    keys.sort()
    return [i for _, i in keys]


def all_collinear(pts: Sequence[tuple[float, float]]) -> bool:
    """True when no triple of points spans a triangle (exact float test)."""
    n = len(pts)
    if n < 3:
        return True
    a = pts[0]
    b = None
    for p in pts[1:]:
        if p != a:
            b = p
            break
    if b is None:
        return True
    for p in pts:
        if orient(a[0], a[1], b[0], b[1], p[0], p[1]) != 0.0:
            return False
    return True


class Triangulation:
    """Delaunay triangulation of distinct points, at least 3, not all collinear."""

    def __init__(self, points: Sequence[tuple[float, float]]):
        self.points = [(float(p[0]), float(p[1])) for p in points]
        if len(self.points) < 3:
            raise ValueError("need at least 3 points")
        self.tris: dict[int, tuple[int, int, int]] = {}
        self.edge: dict[tuple[int, int], int] = {}
        self._next_id = 0
        self._last_finite = -1
        self._build()

    def real_items(self) -> list[tuple[int, tuple[int, int, int]]]:
        """Finite triangles with their ids, in deterministic (creation) order."""
        return [(tid, tri) for tid, tri in sorted(self.tris.items()) if INF not in tri]

    # -- construction ---------------------------------------------------------

    def _build(self) -> None:
        pts = self.points
        order = insertion_order(pts)
        i0 = order[0]
        i1 = -1
        for idx in order[1:]:
            if pts[idx] != pts[i0]:
                i1 = idx
                break
        if i1 < 0:
            raise ValueError("all points coincide")
        a = pts[i0]
        b = pts[i1]
        i2 = -1
        o = 0.0
        for idx in order[1:]:
            if idx == i1:
                continue
            p = pts[idx]
            o = orient(a[0], a[1], b[0], b[1], p[0], p[1])
            if o != 0.0:
                i2 = idx
                break
        if i2 < 0:
            raise ValueError("all points are collinear")
        if o < 0.0:
            i1, i2 = i2, i1
        self._add_tri(i0, i1, i2)
        self._add_tri(i1, i0, INF)
        self._add_tri(i2, i1, INF)
        self._add_tri(i0, i2, INF)
        seeded = {i0, i1, i2}
        for idx in order:
            if idx not in seeded:
                self._insert(idx)

    def _add_tri(self, a: int, b: int, c: int) -> int:
        tid = self._next_id
        self._next_id += 1
        self.tris[tid] = (a, b, c)
        e = self.edge
        e[(a, b)] = tid
        e[(b, c)] = tid
        e[(c, a)] = tid
        if a != INF and b != INF and c != INF:
            self._last_finite = tid
        return tid

    def _in_cavity(self, tid: int, px: float, py: float) -> bool:
        a, b, c = self.tris[tid]
        pts = self.points
        if a != INF and b != INF and c != INF:
            pa = pts[a]
            pb = pts[b]
            pc = pts[c]
            return incircle(pa[0], pa[1], pb[0], pb[1], pc[0], pc[1], px, py) > 0.0
        # infinite triangle: its single real directed edge (x, y) faces outward,
        # so the point conflicts iff it is beyond the hull line, or on it
        # strictly between the edge's ends (a point on the line outside the
        # edge would make a flat triangle with it)
        if a == INF:
            x, y = b, c
        elif b == INF:
            x, y = c, a
        else:
            x, y = a, b
        x1, y1 = pts[x]
        x2, y2 = pts[y]
        o = orient(x1, y1, x2, y2, px, py)
        if o != 0.0:
            return o > 0.0
        return (px - x1) * (x2 - x1) + (py - y1) * (y2 - y1) > 0.0 and (
            (px - x2) * (x1 - x2) + (py - y2) * (y1 - y2) > 0.0
        )

    def _locate(self, px: float, py: float) -> int:
        """Some triangle whose cavity test accepts (px, py), found by walking."""
        pts = self.points
        tris = self.tris
        edge = self.edge
        tid = self._last_finite
        alt = 0
        limit = 4 * len(tris) + 64
        for _ in range(limit):
            a, b, c = tris[tid]
            ax, ay = pts[a]
            bx, by = pts[b]
            cx, cy = pts[c]
            neg = []
            if orient(ax, ay, bx, by, px, py) < 0.0:
                neg.append((a, b))
            if orient(bx, by, cx, cy, px, py) < 0.0:
                neg.append((b, c))
            if orient(cx, cy, ax, ay, px, py) < 0.0:
                neg.append((c, a))
            if not neg:
                return tid
            u, v = neg[alt % len(neg)]
            alt += 1
            nb = edge[(v, u)]
            if INF in tris[nb]:
                return nb
            tid = nb
        for tid in sorted(tris):
            if self._in_cavity(tid, px, py):
                return tid
        raise RuntimeError("point location failed")

    def _insert(self, pi: int) -> None:
        px, py = self.points[pi]
        seed = self._locate(px, py)
        tris = self.tris
        edge = self.edge
        cavity = [seed]
        in_cav = {seed}
        i = 0
        while i < len(cavity):
            a, b, c = tris[cavity[i]]
            i += 1
            for u, v in ((a, b), (b, c), (c, a)):
                nb = edge[(v, u)]
                if nb not in in_cav and self._in_cavity(nb, px, py):
                    in_cav.add(nb)
                    cavity.append(nb)
        boundary = []
        for tid in cavity:
            a, b, c = tris[tid]
            for u, v in ((a, b), (b, c), (c, a)):
                if edge[(v, u)] not in in_cav:
                    boundary.append((u, v))
        for tid in cavity:
            a, b, c = tris[tid]
            del edge[(a, b)]
            del edge[(b, c)]
            del edge[(c, a)]
            del tris[tid]
        for u, v in boundary:
            self._add_tri(u, v, pi)
