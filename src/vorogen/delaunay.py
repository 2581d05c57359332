"""Delaunay triangulation in rounds of numpy operations, with exact predicates.

The scheme is the data-parallel one of Qi, Cao and Tan ("Computing 2D
Constrained Delaunay Triangulation Using the GPU", IEEE TVCG 19(5), 2013):
each insertion round splits every triangle that holds uninserted points by
one of them, and the points left over are relocated by orientation tests.
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
    sign = np.sign(det)
    unsure = ~(np.abs(det) > bound)
    if unsure.any():
        cols = [c[unsure].tolist() for c in np.broadcast_arrays(*args)]
        sign[unsure] = [
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
    by_xy = np.lexsort((p[:, 1], p[:, 0]))
    s = p[by_xy]
    repeat = np.zeros(len(p), bool)
    repeat[1:] = (s[1:] == s[:-1]).all(axis=1)
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
    between rounds.
    """

    def __init__(self, p: np.ndarray):
        self.x = np.ascontiguousarray(p[:, 0])
        self.y = np.ascontiguousarray(p[:, 1])
        ids = _unique_points(p)
        hull = _strict_hull(self.x, self.y, ids)
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
        self.own = np.arange(3 * cap)
        self.claim = np.full(cap, -1, np.int64)
        self.mark = np.full(cap, -1, np.int64)
        self.stamp = np.empty(3 * cap, np.int64)
        # the next and the previous half-edge of the same triangle
        self.nxt = self.own + 1 - 3 * (self.own % 3 == 2)
        self.prv = self.own - 1 + 3 * (self.own % 3 == 0)
        q = ids[(ids != a) & (ids != b) & (ids != c)]
        x, y = self.x, self.y
        o = [orient(x[u], y[u], x[v], y[v], x[q], y[q]) for u, v in ((a, b), (b, c), (c, a))]
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
        V, O, q, loc, on = self.V, self.O, self.q, self.loc, self.on
        hull_pt = self.on_hull[q]
        # a ghost triangle takes only hull vertices, and a point on a hull
        # chord waits until the chord's ghost holds no hull vertex
        waiting = np.zeros(self.T, bool)
        waiting[loc[hull_pt]] = True
        ok = hull_pt | ~self.ghost[loc]
        edge = on >= 0
        ok[edge] &= ~waiting[O[on[edge]] // 3]
        pr = np.where(ok, self.prio[q], -1)
        best = np.full(self.T, -1)
        np.maximum.at(best, loc, pr)
        cand = np.flatnonzero(ok & (pr == best[loc]))
        # a point on an edge also needs the triangle across it: the highest
        # priority among all claims on a triangle wins it
        c_pr, c_loc, c_on = pr[cand], loc[cand], on[cand]
        c_edge = c_on >= 0
        c_twin = np.where(c_edge, O[c_on], -1)
        claim = self.claim
        np.maximum.at(claim, c_loc, c_pr)
        np.maximum.at(claim, c_twin[c_edge] // 3, c_pr[c_edge])
        win = (claim[c_loc] == c_pr) & (~c_edge | (claim[c_twin // 3] == c_pr))
        claim[c_loc] = -1
        claim[c_twin[c_edge] // 3] = -1

        # 1-to-3: the fan of a triangle's three edges; 2-to-4: the fan of the
        # four edges around the split edge, which disappears
        one, two = win & ~c_edge, win & c_edge
        t, h, g = c_loc[one], c_on[two], c_twin[two]
        new = self.T + np.arange(2 * len(t) + 2 * len(h))
        a, b = new[: 2 * len(t)].reshape(2, -1), new[2 * len(t):].reshape(2, -1)
        fans = [
            (3 * t[:, None] + np.arange(3), np.column_stack((t, a[0], a[1])), q[cand[one]]),
            (np.column_stack((self.nxt[h], self.prv[h], self.nxt[g], self.prv[g])),
             np.column_stack((h // 3, b[0], g // 3, b[1])), q[cand[two]]),
        ]
        self.T += len(new)
        rows = [(E, S, p, V[E], V[self.nxt[E]], O[E]) for E, S, p in fans]
        for E, S, _, _, _, _ in rows:
            self.own[E] = 3 * S
        self.own[h] = self.own[g] = -1
        for E, S, p, start, end, outer in rows:
            H = 3 * S
            V[H], V[H + 1], V[H + 2] = start, end, p[:, None]
            self.ghost[S] = (start == INF) | (end == INF)
            turn = np.roll(np.arange(H.shape[1]), -1)
            O[H + 1] = H[:, turn] + 2
            O[H[:, turn] + 2] = H + 1
            tw = self.own[outer]
            O[H], O[tw] = tw, H
        inserted = np.zeros(len(q), bool)
        inserted[cand[win]] = True
        for (_, S, p, start, _, _), old in zip(rows, (t[:, None], np.column_stack((h, g)) // 3)):
            self._relocate_in_fans(old, S, p, start, inserted)
        pending = self.own[pending]
        for E, _, _, _, _, _ in rows:
            self.own[E] = E
        self.own[h], self.own[g] = h, g
        keep = ~inserted
        self.q, self.loc, self.on = q[keep], self.loc[keep], self.on[keep]
        split = 3 * rows[1][1].ravel() + 1
        return np.concatenate([pending[pending >= 0], split] + [3 * S.ravel() for _, S, *_ in rows])

    def _relocate_in_fans(self, old, S, p, F, inserted) -> None:
        """Move the points of the split triangles ``old`` into the children
        ``S`` of their fans around ``p``, whose corners in turn are ``F``.

        Child j spans the wedge from ``F[j]`` to ``F[j + 1]`` around p; a
        point goes to the first finite child whose wedge holds it, or else
        to the first ghost child (ghost corners count as on every line).
        """
        mark = self.mark
        rows = np.broadcast_to(np.arange(len(S))[:, None], old.shape)
        mark[old] = rows
        k = np.flatnonzero((mark[self.loc] >= 0) & ~inserted)
        r = mark[self.loc[k]]
        mark[old] = -1
        if not len(k):
            return
        x, y, pts = self.x, self.y, self.q[k]
        Fr, pr = F[r], p[r]
        w = orient(x[pr][:, None], y[pr][:, None], x[Fr], y[Fr], x[pts][:, None], y[pts][:, None])
        real = Fr != INF
        w[~real] = 0
        turn = np.roll(np.arange(w.shape[1]), -1)
        wn, real_next = w[:, turn], real[:, turn]
        inside = (w >= 0) & (wn <= 0)
        j = np.argmax(inside * (1 + (real & real_next)), axis=1)
        at = np.arange(len(k))
        tri = S[r, j]
        on = self.on[k]
        moved = np.where(on >= 0, self.own[on], -1)
        self.loc[k] = tri
        self.on[k] = np.where(
            (w[at, j] == 0) & real[at, j], 3 * tri + 2,
            np.where((wn[at, j] == 0) & real_next[at, j], 3 * tri + 1, moved),
        )

    # -- flips ----------------------------------------------------------------

    def _flip(self, h: np.ndarray) -> np.ndarray:
        """One flip round: flips the locally non-Delaunay edges among ``h``
        that share no triangle with one of higher id, and returns the edges
        to check next (those left out and those the flips exposed)."""
        V, O, ghost, x, y = self.V, self.O, self.ghost, self.x, self.y
        nxt, prv, own, claim, stamp = self.nxt, self.prv, self.own, self.claim, self.stamp
        # each edge once, from the side of its lower half-edge id
        h = np.minimum(h, O[h])
        at = np.arange(len(h))
        stamp[h] = at
        h = h[stamp[h] == at]
        g = O[h]
        e = np.stack((h, g, h // 3, g // 3))
        e = e[:, ~(ghost[e[2]] | ghost[e[3]])]
        # (a, b, c) on the side of h and (b, a, d) on the side of g
        abcd = V[np.stack((e[0], nxt[e[0]], prv[e[0]], prv[e[1]]))]
        X, Y = x[abcd], y[abcd]
        bad = incircle(X[0], Y[0], X[1], Y[1], X[2], Y[2], X[3], Y[3]) > 0
        if not bad.any():
            return h[:0]
        e = np.concatenate((e, abcd))[:, bad]
        h, t1, t2 = e[0], e[2], e[3]
        np.maximum.at(claim, t1, h)
        np.maximum.at(claim, t2, h)
        win = (claim[t1] == h) & (claim[t2] == h)
        claim[t1] = claim[t2] = -1
        lose = h[~win]
        h, g, t1, t2, a, b, c, d = e[:, win]
        # they become (a, d, c) in t1 and (d, b, c) in t2
        outer = np.concatenate((nxt[g], prv[h], prv[g], nxt[h]))
        fresh = np.concatenate((3 * t1, 3 * t1 + 2, 3 * t2, 3 * t2 + 1))
        twin = O[outer]
        own[outer] = fresh
        own[h] = own[g] = -1
        V[3 * t1], V[3 * t1 + 1], V[3 * t1 + 2] = a, d, c
        V[3 * t2], V[3 * t2 + 1], V[3 * t2 + 2] = d, b, c
        tw = own[twin]
        O[fresh], O[tw] = tw, fresh
        O[3 * t1 + 1], O[3 * t2 + 2] = 3 * t2 + 2, 3 * t1 + 1
        self._relocate_in_quads(t1, t2, c, d)
        suspects = np.concatenate((fresh, own[lose]))
        own[outer], own[h], own[g] = outer, h, g
        return suspects

    def _relocate_in_quads(self, t1, t2, c, d) -> None:
        """Move the points of flipped triangles to the side of the new
        diagonal from d to c that holds them; a point on it goes to t1."""
        mark = self.mark
        mark[t1] = mark[t2] = np.arange(len(t1))
        k = np.flatnonzero(mark[self.loc] >= 0)
        if not len(k):
            mark[t1] = mark[t2] = -1
            return
        r = mark[self.loc[k]]
        mark[t1] = mark[t2] = -1
        pts, c, d = self.q[k], c[r], d[r]
        x, y = self.x, self.y
        o = orient(x[d], y[d], x[c], y[c], x[pts], y[pts])
        on = self.on[k]
        self.loc[k] = np.where(o >= 0, t1[r], t2[r])
        self.on[k] = np.where(o == 0, 3 * t1[r] + 1, np.where(on >= 0, self.own[on], -1))


def _canonical(V: np.ndarray, O: np.ndarray, n: int):
    """The triangles in canonical order (see the module docstring): corners,
    the neighbour across each edge, and the number of finite triangles."""
    T = len(V)
    r = np.where(V == INF, n, V)  # n sites: INF ranks above every one
    last = np.argmax(r, axis=1)
    turn = (last[:, None] + 1 + np.arange(3)) % 3
    V = np.take_along_axis(V, turn, axis=1)
    r = np.take_along_axis(r, turn, axis=1)
    # (last, first) is a directed edge, in one triangle only: a unique key,
    # within int64 for n below 3 * 10**9
    perm = np.argsort(r[:, 2] * n + r[:, 0])
    new_id = np.empty(T, np.int64)
    new_id[perm] = np.arange(T)
    # old half-edge 3t + k is slot (k - last - 1) % 3 of triangle new_id[t]
    tw = np.take_along_axis(O.reshape(T, 3), turn, axis=1)[perm]
    N = new_id[tw // 3]
    finite = int((V[:, 2] != INF).sum())
    return V[perm], N, finite
