"""Incremental Delaunay triangulation (cavity / fan insertion).

The triangulation keeps one symbolic vertex at infinity, so hull updates
need no super-triangle bookkeeping or magic coordinates: every hull edge is
shared with an "infinite" triangle, and the in-circumcircle predicate for
those degenerates to an orientation test against the hull edge.

Triangles live in flat lists indexed by triangle id, and ids are given in
creation order. The corners of triangle ``t`` are ``V[3t:3t+3]``, counter-
clockwise for finite ones; its edge ``k`` is the directed edge from
``V[3t+k]`` to ``V[3t+(k+1)%3]``, and ``N[3t+k]`` is the triangle across
it, which owns the reverse edge. Every edge has one, including those
touching the infinite vertex. A removed triangle keeps its slots with
``alive[t]`` 0 (a bytearray of flags), so ids never shift; ``live`` counts
the others.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

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


def _part1by1(v):
    v = v & 0xFFFF
    v = (v | (v << 8)) & 0x00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F
    v = (v | (v << 2)) & 0x33333333
    v = (v | (v << 1)) & 0x55555555
    return v


def insertion_order(pts: Sequence[tuple[float, float]]) -> list[int]:
    """Morton (Z-curve) order so successive insertions stay spatially close;
    points with equal keys keep their input order."""
    p = np.asarray(pts, float).reshape(-1, 2)
    if len(p) == 0:
        return []
    lo = p.min(axis=0)
    span = p.max(axis=0) - lo
    scale = np.divide(65535.0, span, out=np.zeros(2), where=span > 0.0)
    q = ((p - lo) * scale).astype(np.int64)
    key = _part1by1(q[:, 0]) | (_part1by1(q[:, 1]) << 1)
    return np.argsort(key, kind="stable").tolist()


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
        if len(points) < 3:
            raise ValueError("need at least 3 points")
        self._x = [float(p[0]) for p in points]
        self._y = [float(p[1]) for p in points]
        self._build()

    # -- construction ---------------------------------------------------------

    def _build(self) -> None:
        xs, ys = self._x, self._y
        order = insertion_order(np.column_stack((xs, ys)))
        i0 = order[0]
        a = (xs[i0], ys[i0])
        i1 = -1
        for idx in order[1:]:
            if (xs[idx], ys[idx]) != a:
                i1 = idx
                break
        if i1 < 0:
            raise ValueError("all points coincide")
        b = (xs[i1], ys[i1])
        i2 = -1
        o = 0.0
        for idx in order[1:]:
            if idx == i1:
                continue
            o = orient(a[0], a[1], b[0], b[1], xs[idx], ys[idx])
            if o != 0.0:
                i2 = idx
                break
        if i2 < 0:
            raise ValueError("all points are collinear")
        if o < 0.0:
            i1, i2 = i2, i1
        # triangle 0 is (i0, i1, i2); 1, 2 and 3 are the infinite triangles
        # across its edges (i0, i1), (i1, i2) and (i2, i0)
        self.V: list[int] = [i0, i1, i2, i1, i0, INF, i2, i1, INF, i0, i2, INF]
        self.N: list[int] = [1, 2, 3, 0, 3, 2, 0, 1, 3, 0, 2, 1]
        self.alive = bytearray(b"\x01" * 4)
        self.live = 4
        self._last_finite = 0
        seeded = {i0, i1, i2}
        for idx in order:
            if idx not in seeded:
                self._insert(idx)

    def _in_cavity(self, t: int, px: float, py: float) -> bool:
        V = self.V
        a, b, c = V[3 * t], V[3 * t + 1], V[3 * t + 2]
        xs, ys = self._x, self._y
        if a != INF and b != INF and c != INF:
            return incircle(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], px, py) > 0.0
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
        x1, y1, x2, y2 = xs[x], ys[x], xs[y], ys[y]
        o = orient(x1, y1, x2, y2, px, py)
        if o != 0.0:
            return o > 0.0
        return (px - x1) * (x2 - x1) + (py - y1) * (y2 - y1) > 0.0 and (
            (px - x2) * (x1 - x2) + (py - y2) * (y1 - y2) > 0.0
        )

    def _locate(self, px: float, py: float) -> int:
        """Some triangle whose cavity test accepts (px, py), found by walking."""
        xs, ys, V, N = self._x, self._y, self.V, self.N
        t = self._last_finite
        alt = 0
        for _ in range(4 * self.live + 64):
            j = 3 * t
            a, b, c = V[j], V[j + 1], V[j + 2]
            ax, ay, bx, by, cx, cy = xs[a], ys[a], xs[b], ys[b], xs[c], ys[c]
            # the edges with p strictly to their right: orient(u, v, p) < 0,
            # written out with orient's operations
            neg = []
            if (bx - ax) * (py - ay) - (by - ay) * (px - ax) < 0.0:
                neg.append(j)
            if (cx - bx) * (py - by) - (cy - by) * (px - bx) < 0.0:
                neg.append(j + 1)
            if (ax - cx) * (py - cy) - (ay - cy) * (px - cx) < 0.0:
                neg.append(j + 2)
            if not neg:
                return t
            t = N[neg[alt % len(neg)]]
            alt += 1
            if V[3 * t] == INF or V[3 * t + 1] == INF or V[3 * t + 2] == INF:
                return t
        for t, live in enumerate(self.alive):
            if live and self._in_cavity(t, px, py):
                return t
        raise RuntimeError("point location failed")

    def _insert(self, pi: int) -> None:
        xs, ys, V, N, alive = self._x, self._y, self.V, self.N, self.alive
        px, py = xs[pi], ys[pi]
        seed = self._locate(px, py)
        cavity = [seed]
        in_cav = {seed}
        # the cavity's boundary edges in cavity order: a neighbour that fails
        # the test once fails it again, so it never joins the cavity later
        boundary = []
        for t in cavity:
            for e in range(3 * t, 3 * t + 3):
                nb = N[e]
                if nb in in_cav:
                    continue
                j = 3 * nb
                a, b, c = V[j], V[j + 1], V[j + 2]
                if a == INF or b == INF or c == INF:
                    inside = self._in_cavity(nb, px, py)
                else:
                    # incircle(a, b, c, p) > 0, written out with the same
                    # operations in the same order
                    adx = xs[a] - px
                    ady = ys[a] - py
                    bdx = xs[b] - px
                    bdy = ys[b] - py
                    cdx = xs[c] - px
                    cdy = ys[c] - py
                    ad = adx * adx + ady * ady
                    bd = bdx * bdx + bdy * bdy
                    cd = cdx * cdx + cdy * cdy
                    inside = (
                        adx * (bdy * cd - cdy * bd)
                        - ady * (bdx * cd - cdx * bd)
                        + ad * (bdx * cdy - cdx * bdy)
                    ) > 0.0
                if inside:
                    in_cav.add(nb)
                    cavity.append(nb)
                else:
                    boundary.append(e)
        for t in cavity:
            alive[t] = 0
        # each boundary edge (u, v) becomes the triangle (u, v, pi)
        t0 = len(alive)
        after_u: dict[int, int] = {}
        for t, e in enumerate(boundary, t0):
            u = V[e]
            v = V[e + 1 if e % 3 < 2 else e - 2]
            out = N[e]
            o = 3 * out
            N[o if V[o] == v else o + 1 if V[o + 1] == v else o + 2] = t
            V += (u, v, pi)
            N += (out, -1, -1)
            after_u[u] = t
            if u != INF and v != INF:
                self._last_finite = t
        # triangle (u, v, pi) meets (v, w, pi) across the edge (v, pi)
        for t in range(t0, len(alive) + len(boundary)):
            nxt = after_u[V[3 * t + 1]]
            N[3 * t + 1] = nxt
            N[3 * nxt + 2] = t
        alive += b"\x01" * len(boundary)
        self.live += len(boundary) - len(cavity)
