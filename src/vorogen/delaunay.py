"""Delaunay triangulation in rounds of numpy operations, with exact predicates.

The scheme is the data-parallel one of Qi, Cao and Tan ("Computing 2D
Constrained Delaunay Triangulation Using the GPU", IEEE TVCG 19(5), 2013):
each insertion round splits every triangle that holds uninserted points by
one of them, and the points left over are relocated by orientation tests.
A relocated point is tested against each spoke of the new fan around the
inserted point; the signs, with the fan's ghost corners, form a key into a
table built at import from the rule of ``_Rounds._relocate_in_fans``, which
gives the child triangle and the edge of it that holds the point.
A flip round follows, over a conflict-free set of locally non-Delaunay
edges (no two share a triangle); the edges it leaves unchecked are carried
into the next round, and once every point is in, flip rounds run until
none is left. Which point a triangle takes is decided by a fixed-seed
random priority, never by position, so points in convex position need
about log n rounds, not one each.

``orient`` and ``incircle`` are exact for float input: the float
determinant decides an entry unless it lies within Shewchuk's static error
bound ("Adaptive Precision Floating-Point Arithmetic and Fast Robust
Geometric Predicates", DCG 18, 1997), and ``fractions.Fraction`` decides the
rest. Every flip decision is exact, so the flip rounds end, and a quad gets
the same answer from either diagonal.

One symbolic vertex at infinity (``INF``) closes the triangulation: every
hull edge is shared with a ghost triangle that has INF as a corner. The
strict convex hull is found first, and its vertices are inserted like the
other points but only into ghost triangles, chord by chord, so the inserted
part of the hull stays convex and no ghost triangle is ever flipped. A
point on an edge splits the two triangles of that edge into four, so no
triangle is ever flat.

The finished triangles are put in a canonical order that depends on the
triangle set alone, not on the random priority that built them. Each
finite triangle is rotated so that its corner of highest site id comes
last, and the triangles are sorted by the ids of their last, first and
middle corners. Ghost triangles follow, each with INF last.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

INF = -1

_EPS = 2.0**-53
# Shewchuk's first-stage bounds, plus an absolute term for products that
# fall below the normal range (each can lose up to 2**-1075)
_ORIENT_ERR = (3.0 + 16.0 * _EPS) * _EPS
_INCIRCLE_ERR = (10.0 + 96.0 * _EPS) * _EPS
_TINY = 2.0**-1000
# the random priority that decides which point a triangle takes in a round
_PRIORITY_SEED = 20130501


def _orient_det(ax, ay, bx, by, cx, cy):
    return (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)


def _incircle_det(ax, ay, bx, by, cx, cy, dx, dy):
    adx, ady, bdx, bdy, cdx, cdy = ax - dx, ay - dy, bx - dx, by - dy, cx - dx, cy - dy
    return (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )


def _signs(det, bound, exact, args) -> np.ndarray:
    """Signs of ``det`` (-1.0, 0.0 or 1.0), with every entry not clear of
    ``bound`` (NaN included) decided again by ``exact`` in Fractions."""
    sign = np.sign(det, out=np.empty_like(det))  # an array, also for 0-d input
    unsure = np.flatnonzero(~(np.abs(det) > bound))
    if len(unsure):
        cols = [np.broadcast_to(c, det.shape).flat[unsure].tolist() for c in args]
        sign.flat[unsure] = [
            (d > 0) - (d < 0) for d in (exact(*map(Fraction, row)) for row in zip(*cols))
        ]
    return sign


def orient(ax, ay, bx, by, cx, cy) -> np.ndarray:
    """Sign of the orientation of (a, b, c), exactly: 1 counter-clockwise,
    -1 clockwise, 0 collinear. Takes arrays (broadcast) or numbers."""
    args = [np.asarray(v, float) for v in (ax, ay, bx, by, cx, cy)]
    ax, ay, bx, by, cx, cy = args
    with np.errstate(all="ignore"):
        left = (ax - cx) * (by - cy)
        right = (ay - cy) * (bx - cx)
        det = left - right
        bound = _ORIENT_ERR * (np.abs(left) + np.abs(right)) + _TINY
    return _signs(det, bound, _orient_det, args)


def incircle(ax, ay, bx, by, cx, cy, dx, dy) -> np.ndarray:
    """Sign of d against the circumcircle of CCW (a, b, c), exactly: 1
    strictly inside, 0 on it, -1 outside. Takes arrays (broadcast) or numbers."""
    args = [np.asarray(v, float) for v in (ax, ay, bx, by, cx, cy, dx, dy)]
    ax, ay, bx, by, cx, cy, dx, dy = args
    with np.errstate(all="ignore"):
        adx, ady, bdx, bdy, cdx, cdy = ax - dx, ay - dy, bx - dx, by - dy, cx - dx, cy - dy
        bc, cb = bdx * cdy, cdx * bdy
        ca, ac = cdx * ady, adx * cdy
        ab, ba = adx * bdy, bdx * ady
        alift = adx * adx + ady * ady
        blift = bdx * bdx + bdy * bdy
        clift = cdx * cdx + cdy * cdy
        det = alift * (bc - cb) + blift * (ca - ac) + clift * (ab - ba)
        permanent = (
            (np.abs(bc) + np.abs(cb)) * alift
            + (np.abs(ca) + np.abs(ac)) * blift
            + (np.abs(ab) + np.abs(ba)) * clift
        )
        bound = _INCIRCLE_ERR * permanent + _TINY * (1.0 + alift + blift + clift)
    return _signs(det, bound, _incircle_det, args)


def circumcenter(a, b, c):
    """Circumcenter of a non-degenerate triangle, computed relative to ``a``."""
    bx = b[0] - a[0]
    by = b[1] - a[1]
    cx = c[0] - a[0]
    cy = c[1] - a[1]
    with np.errstate(all="ignore"):
        d = 2.0 * (bx * cy - by * cx)
        b2 = bx * bx + by * by
        c2 = cx * cx + cy * cy
        return (a[0] + (cy * b2 - by * c2) / d, a[1] + (bx * c2 - cx * b2) / d)


def circumcenter_error(a, b, c):
    """A first-order bound on how far ``circumcenter(a, b, c)`` lands from
    the exact circumcenter through rounding; not finite where the
    circumcenter is not."""
    bx = b[0] - a[0]
    by = b[1] - a[1]
    cx = c[0] - a[0]
    cy = c[1] - a[1]
    with np.errstate(all="ignore"):
        d = np.abs(2.0 * (bx * cy - by * cx))
        b2 = bx * bx + by * by
        c2 = cx * cx + cy * cy
        radius = np.hypot(cy * b2 - by * c2, bx * c2 - cx * b2) / d
        num = (np.abs(cy) + np.abs(cx)) * b2 + (np.abs(by) + np.abs(bx)) * c2
        return 8.0 * _EPS * (num + 2.0 * radius * (np.abs(bx * cy) + np.abs(by * cx))) / d


def all_collinear(pts: Sequence[tuple[float, float]]) -> bool:
    """True when no triple of points spans a triangle, by ``orient``."""
    p = np.asarray(pts, float).reshape(-1, 2)
    if len(p) < 3:
        return True
    other = np.flatnonzero((p != p[0]).any(axis=1))
    if not len(other):
        return True
    (ax, ay), (bx, by) = p[0], p[other[0]]
    return not orient(ax, ay, bx, by, p[:, 0], p[:, 1]).any()


class Triangulation:
    """Delaunay triangulation of at least 3 finite points, not all collinear.

    ``V`` is a (T, 3) array of corner ids, counter-clockwise for finite
    triangles; ``N[t, k]`` is the triangle across edge ``k`` (from
    ``V[t, k]`` to ``V[t, (k + 1) % 3]``), which owns the reverse edge.
    Rows ``0:finite`` are the finite triangles and the rest the ghost
    triangles, in the canonical order of the module docstring. A point that
    repeats an earlier one exactly is left out of every triangle.
    """

    def __init__(self, points: Sequence[tuple[float, float]]):
        if len(points) < 3:
            raise ValueError("need at least 3 points")
        p = np.asarray(points, float).reshape(-1, 2)
        bad = np.flatnonzero(~np.isfinite(p).all(axis=1))
        if len(bad):
            raise ValueError(f"point {bad[0]} is not finite")
        if all_collinear(p):
            raise ValueError("all points coincide" if (p == p[0]).all() else "all points are collinear")
        V, O = _Rounds(p).run()
        self.V, self.N, self.finite = _canonical(V, O, len(p))


def _unique_points(p: np.ndarray) -> np.ndarray:
    """Ids of the points, each coordinate pair once (its first occurrence)."""
    xy = np.empty(len(p), complex)  # numpy orders complex numbers by (real, imag)
    xy.real, xy.imag = p[:, 0], p[:, 1]
    by_xy = np.argsort(xy, kind="stable")
    s = xy[by_xy]
    repeat = np.zeros(len(p), bool)
    repeat[1:] = s[1:] == s[:-1]
    return np.sort(by_xy[~repeat])


def _strict_hull(x: np.ndarray, y: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Vertices of the convex hull of the points ``ids`` (distinct, not all
    collinear), counter-clockwise, without points inside an edge.

    Points strictly inside the polygon of the extreme points in eight
    directions are dropped first. The lower and upper chains then start as
    all remaining points by (x, y), and every round removes each point that
    does not turn strictly left between its chain neighbours; such a point
    is never a hull vertex, and a chain without one is the hull's.
    """
    px, py = x[ids], y[ids]
    ext = [np.argmin(py), np.argmax(px - py), np.argmax(px), np.argmax(px + py),
           np.argmax(py), np.argmax(py - px), np.argmin(px), np.argmin(px + py)]
    ext = [e for k, e in enumerate(ext) if e != ext[k - 1]]
    inside = np.ones(len(ids), bool)
    for a, b in zip(ext, ext[1:] + ext[:1]):
        inside &= orient(px[a], py[a], px[b], py[b], px, py) > 0
    cand = ids[~inside]
    cand = cand[np.lexsort((y[cand], x[cand]))]
    chains = []
    for chain in (cand, cand[::-1]):
        while len(chain) > 2:
            a, b, c = chain[:-2], chain[1:-1], chain[2:]
            left = orient(x[a], y[a], x[b], y[b], x[c], y[c]) > 0
            if left.all():
                break
            chain = np.concatenate(([chain[0]], b[left], [chain[-1]]))
        chains.append(chain[:-1])
    return np.concatenate(chains)


def _fan_table(c: int) -> np.ndarray:
    """The pick of ``_relocate_in_fans`` in a fan of ``c`` children, by key
    ``sum((w[j] + 1) 3**j) + 3**c sum(2**j for each ghost corner j)`` of a
    point's orient signs ``w`` against the spokes: per key, the child and the
    slot of its edge that holds the point (2 for the spoke to the child's
    first corner, 1 for the spoke to its next, 0 for neither)."""
    key = np.arange(6**c)
    w = key[:, None] // 3 ** np.arange(c) % 3 - 1
    real = key[:, None] // (3**c * 2 ** np.arange(c)) % 2 == 0
    w[~real] = 0  # ghost corners count as on every line
    wn, real_next = np.roll(w, -1, axis=1), np.roll(real, -1, axis=1)
    # the first finite child whose wedge holds the point, else the first ghost one
    j = np.argmax(((w >= 0) & (wn <= 0)) * (1 + (real & real_next)), axis=1)
    at = np.arange(len(key))
    slot = np.where((w[at, j] == 0) & real[at, j], 2, np.where((wn[at, j] == 0) & real_next[at, j], 1, 0))
    return np.stack((j, slot))


# the child pick per key for the 1-to-3 and the 2-to-4 fans, and the weights
# of the key's sign part
_FAN_TABLES = {c: _fan_table(c) for c in (3, 4)}
_POW3 = 3.0 ** np.arange(4)
# the next child of each child of a fan, around it
_TURN = {3: [1, 2, 0], 4: [1, 2, 3, 0]}


class _Rounds:
    """Working state of one triangulation.

    Triangle ``t`` has corners ``V[3t:3t+3]`` and half-edges ``3t + k``
    (from corner k to corner k + 1); ``O[h]`` is the twin half-edge.
    ``ghost[t]`` marks triangles with an INF corner. The uninserted points
    are ``q``, each with the triangle ``loc`` whose closed area holds it
    (a ghost triangle holds the points strictly beyond its hull chord) and
    ``on``, the half-edge of ``loc`` whose open segment holds it, or -1.
    ``own`` maps the half-edges of a round's old triangles to their new ids
    and is the identity between rounds; ``claim`` and ``mark`` are -1
    between rounds. The last triangle of the capacity is never used, so
    ``O[-1]`` and ``own[-1]`` read -1: indexed by an ``on`` of -1, they
    give -1.

    The rounds select with index arrays (``np.flatnonzero``), not boolean
    masks: numpy gathers by index several times faster than it compresses
    an array by a mask that mixes True and False.
    """

    def __init__(self, p: np.ndarray):
        self.x = x = np.ascontiguousarray(p[:, 0])
        self.y = y = np.ascontiguousarray(p[:, 1])
        ids = _unique_points(p)
        hull = _strict_hull(x, y, ids)
        self.prio = np.random.default_rng(_PRIORITY_SEED).permutation(len(p))
        self.on_hull = np.zeros(len(p), bool)
        self.on_hull[hull] = True
        # the three hull vertices of highest priority, in hull order
        top = np.sort(np.argsort(self.prio[hull])[-3:])
        a, b, c = hull[top]
        cap = 2 * len(ids) + 2
        self.V = np.full(3 * cap, INF, np.int64)
        self.O = np.full(3 * cap, -1, np.int64)
        self.V[:12] = [a, b, c, b, a, INF, c, b, INF, a, c, INF]
        self.O[:12] = [3, 6, 9, 0, 11, 7, 1, 5, 10, 2, 8, 4]
        self.ghost = np.zeros(cap, bool)
        self.ghost[1:4] = True
        self.T = 4
        half = np.arange(3 * cap)
        # the next and the previous half-edge of the same triangle
        self.nxt = half + 1 - 3 * (half % 3 == 2)
        self.prv = half - 1 + 3 * (half % 3 == 0)
        self.own = half
        self.own[-1] = -1
        self.claim = np.full(cap, -1, np.int64)
        self.mark = np.full(cap, -1, np.int64)
        self.stamp = np.empty(3 * cap, np.int64)
        q = ids[(ids != a) & (ids != b) & (ids != c)]
        u, v = np.array([[a], [b], [c]]), np.array([[b], [c], [a]])
        o = orient(x[u], y[u], x[v], y[v], x[q], y[q])
        self.q = q
        self.loc = np.select([o[0] < 0, o[1] < 0, o[2] < 0], [1, 2, 3], 0)
        self.on = np.select([o[0] == 0, o[1] == 0, o[2] == 0], [0, 1, 2], -1)
        self.on[self.loc > 0] = -1

    def run(self) -> tuple[np.ndarray, np.ndarray]:
        # one flip round after each insertion round; the edges still to
        # check are carried into the next round, then flipped out at the end
        h = np.empty(0, np.int64)
        while len(self.q):
            h = self._flip(self._insert(h))
        while len(h):
            h = self._flip(h)
        T = self.T
        return self.V[: 3 * T].reshape(T, 3), self.O[: 3 * T]

    # -- insertion ------------------------------------------------------------

    def _insert(self, pending: np.ndarray) -> np.ndarray:
        """One insertion round. Returns the half-edges the flips must check:
        ``pending`` under their new ids, the edges around each new fan, and
        the pieces of each split edge."""
        V, O, q, loc, on, own = self.V, self.O, self.q, self.loc, self.on, self.own
        nxt, prv = self.nxt, self.prv
        hull_pt = self.on_hull[q]
        # a ghost triangle takes only hull vertices, and a point on a hull
        # chord waits until the chord's ghost holds no hull vertex
        waiting = np.zeros(self.T, bool)
        waiting[loc[hull_pt]] = True
        ok = hull_pt | ~self.ghost[loc]
        on_edge = np.flatnonzero(on >= 0)
        ok[on_edge] &= ~waiting[O[on[on_edge]] // 3]
        pr = np.where(ok, self.prio[q], -1)
        best = np.full(self.T, -1)
        np.maximum.at(best, loc, pr)
        cand = np.flatnonzero(ok & (pr == best[loc]))
        # a point on an edge also needs the triangle across it: the highest
        # priority among all claims on a triangle wins it (a triangle has
        # one candidate of its own)
        c_pr, c_loc, c_on = pr[cand], loc[cand], on[cand]
        c_twin = O[c_on]
        edge = np.flatnonzero(c_on >= 0)
        claim = self.claim
        claim[c_loc] = c_pr
        across = c_twin[edge] // 3
        np.maximum.at(claim, across, c_pr[edge])
        win = claim[c_loc] == c_pr
        win[edge] &= claim[across] == c_pr[edge]
        claim[c_loc] = claim[across] = -1

        # 1-to-3: the fan of a triangle's three edges; 2-to-4: the fan of the
        # four edges around the split edge, which disappears. Row j of a fan's
        # arrays is its child j, which spans corners j and j + 1 around p
        one, two = np.flatnonzero(win & (c_on < 0)), edge[win[edge]]
        t, h, g = c_loc[one], c_on[two], c_twin[two]
        new = self.T + np.arange(2 * len(t) + 2 * len(h))
        a, b = new[: 2 * len(t)].reshape(2, -1), new[2 * len(t):].reshape(2, -1)
        fans = [
            (3 * t + np.arange(3)[:, None], np.stack((t, a[0], a[1])), q[cand[one]]),
            (np.stack((nxt[h], prv[h], nxt[g], prv[g])),
             np.stack((h // 3, b[0], g // 3, b[1])), q[cand[two]]),
        ]
        self.T += len(new)
        fans = [(E, S, p, V[E], O[E], _TURN[len(E)]) for E, S, p in fans]
        for E, S, *_ in fans:
            own[E] = 3 * S
        own[h] = own[g] = -1
        for E, S, p, F, outer, turn in fans:
            H, end = 3 * S, F[turn]
            V[H], V[H + 1], V[H + 2] = F, end, p
            self.ghost[S] = np.minimum(F, end) < 0
            Hn = H[turn]
            O[H + 1], O[Hn + 2] = Hn + 2, H + 1
            tw = own[outer]
            O[H], O[tw] = tw, H
        keep = np.ones(len(q), bool)
        keep[cand[one]] = keep[cand[two]] = False
        keep = np.flatnonzero(keep)
        self.q, self.loc, self.on = q[keep], loc[keep], on[keep]
        self._relocate_in_fans(t, h // 3, g // 3, fans)
        pending = own[pending]
        for E, *_ in fans:
            own[E] = E
        own[h], own[g] = h, g
        split = 3 * fans[1][1].ravel() + 1
        return np.concatenate([pending[pending >= 0], split] + [3 * S.ravel() for _, S, *_ in fans])

    def _relocate_in_fans(self, t, h3, g3, fans) -> None:
        """Move the points of the split triangles, ``t`` (1-to-3) and ``h3``
        and ``g3`` (2-to-4), into the children ``S`` of their fans around
        ``p``, whose corners in turn are ``F``.

        Child j spans the wedge from ``F[j]`` to ``F[j + 1]`` around p; a
        point goes to the first finite child whose wedge holds it, or else
        to the first ghost child (ghost corners count as on every line).
        The signs of the point's orient tests against the fan's spokes and
        the fan's ghost corners make a key, and ``_FAN_TABLES``, built from
        that rule, gives the child and the edge of it that holds the point.
        """
        mark, m = self.mark, len(t)
        mark[t] = np.arange(m)
        mark[h3] = mark[g3] = m + np.arange(len(h3))
        fan = mark[self.loc]
        mark[t] = mark[h3] = mark[g3] = -1
        moved = np.flatnonzero(fan >= 0)
        fan = fan[moved]
        two = fan >= m
        for (_, S, p, F, _, _), kind, first in zip(fans, (~two, two), (0, m)):
            kind = np.flatnonzero(kind)
            if not len(kind):
                continue
            k, r = moved[kind], fan[kind] - first
            c = len(F)
            x, y, pts, pr, Fr = self.x, self.y, self.q[k], p[r], np.take(F, r, axis=1)
            w = orient(x[pr], y[pr], x[Fr], y[Fr], x[pts], y[pts])
            # the ghost corners' part of each fan's key, plus the sum of 3**j
            # that shifts the signs from -1, 0, 1 to 0, 1, 2
            ghost_key = (3**c * 2 ** np.arange(c)) @ (F == INF) + (3**c - 1) // 2
            j, slot = np.take(_FAN_TABLES[c], (_POW3[:c] @ w).astype(np.intp) + ghost_key[r], axis=1)
            tri = S.ravel()[j * S.shape[1] + r]
            self.loc[k] = tri
            self.on[k] = np.where(slot > 0, 3 * tri + slot, self.own[self.on[k]])

    # -- flips ----------------------------------------------------------------

    def _flip(self, h: np.ndarray) -> np.ndarray:
        """One flip round: flips the locally non-Delaunay edges among ``h``
        that share no triangle with one of higher id, and returns the edges
        to check next (those left out and those the flips exposed)."""
        V, O, ghost, x, y = self.V, self.O, self.ghost, self.x, self.y
        nxt, prv, own, claim, stamp = self.nxt, self.prv, self.own, self.claim, self.stamp
        # each edge once, from the side of its lower half-edge id, and none
        # of a ghost triangle: those are never flipped
        twin = O[h]
        h, g = np.minimum(h, twin), np.maximum(h, twin)
        at = np.arange(len(h))
        stamp[h] = at
        keep = np.flatnonzero((stamp[h] == at) & ~ghost[h // 3] & ~ghost[g // 3])
        h, g = h[keep], g[keep]
        # (a, b, c) on the side of h and (b, a, d) on the side of g
        a, b, c, d = V[h], V[nxt[h]], V[prv[h]], V[prv[g]]
        bad = np.flatnonzero(incircle(x[a], y[a], x[b], y[b], x[c], y[c], x[d], y[d]) > 0)
        if not len(bad):
            return h[:0]
        h, g = h[bad], g[bad]
        tt = np.concatenate((h // 3, g // 3))
        np.maximum.at(claim, tt, np.concatenate((h, h)))
        won = claim[tt]
        claim[tt] = -1
        won = (won[: len(h)] == h) & (won[len(h):] == h)
        lose, win = h[np.flatnonzero(~won)], np.flatnonzero(won)
        h, g, win = h[win], g[win], bad[win]
        a, b, c, d = a[win], b[win], c[win], d[win]
        # they become (a, d, c) in t1 and (d, b, c) in t2
        outer = np.concatenate((nxt[g], prv[h], prv[g], nxt[h]))
        t1, t2 = h // 3, g // 3
        H1, H2 = 3 * t1, 3 * t2
        fresh = np.concatenate((H1, H1 + 2, H2, H2 + 1))
        twin = O[outer]
        own[outer] = fresh
        own[h] = own[g] = -1
        V[H1], V[H1 + 1], V[H1 + 2] = a, d, c
        V[H2], V[H2 + 1], V[H2 + 2] = d, b, c
        tw = own[twin]
        O[fresh], O[tw] = tw, fresh
        O[H1 + 1], O[H2 + 2] = H2 + 2, H1 + 1
        self._relocate_in_quads(t1, t2, c, d)
        suspects = np.concatenate((fresh, own[lose]))
        own[outer], own[h], own[g] = outer, h, g
        return suspects

    def _relocate_in_quads(self, t1, t2, c, d) -> None:
        """Move the points of flipped triangles to the side of the new
        diagonal from d to c that holds them; a point on it goes to t1."""
        mark = self.mark
        mark[t1] = mark[t2] = np.arange(len(t1))
        quad = mark[self.loc]
        mark[t1] = mark[t2] = -1
        k = np.flatnonzero(quad >= 0)
        if not len(k):
            return
        r = quad[k]
        pts, c, d, t1 = self.q[k], c[r], d[r], t1[r]
        x, y = self.x, self.y
        o = orient(x[d], y[d], x[c], y[c], x[pts], y[pts])
        self.loc[k] = np.where(o >= 0, t1, t2[r])
        self.on[k] = np.where(o == 0, 3 * t1 + 1, self.own[self.on[k]])


def _canonical(V: np.ndarray, O: np.ndarray, n: int):
    """The triangles in canonical order (see the module docstring): corners,
    the neighbour across each edge, and the number of finite triangles."""
    T = len(V)
    r = np.where(V == INF, n, V)  # n sites: INF ranks above every one
    last = np.argmax(r, axis=1)
    # (last, first) is a directed edge, in one triangle only: a unique key,
    # within int64 for n below 3 * 10**9
    base = 3 * np.arange(T)
    r = r.ravel()
    perm = np.argsort(r[base + last] * n + r[base + (last + 1) % 3])
    new_id = np.empty(T, np.int64)
    new_id[perm] = np.arange(T)
    # slot k of new triangle i is old half-edge 3 perm[i] + (last + 1 + k) % 3
    half = 3 * perm + (last[perm] + np.arange(1, 4)[:, None]) % 3
    V = np.ascontiguousarray(V.ravel()[half].T)
    N = np.ascontiguousarray(new_id[O[half] // 3].T)
    return V, N, int((V[:, 2] != INF).sum())
