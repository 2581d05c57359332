"""The triangulation: Qhull's triangles, an exact check where Qhull is no
oracle, exact predicates, canonical ids and mutual neighbours."""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import assert_exactly_delaunay
from vorogen import delaunay
from vorogen.forward import sample_sites


def build(pts) -> delaunay.Triangulation:
    """Triangulate ``pts`` and check that every neighbour slot is mutual:
    the triangle across edge (u, v) holds (v, u) and points back."""
    tri = delaunay.Triangulation(pts)
    V, N = tri.V, tri.N
    assert V.shape == N.shape and V.shape[1] == 3
    assert (V[: tri.finite] >= 0).all() and (V[tri.finite :, 2] == delaunay.INF).all()
    nxt = V[:, [1, 2, 0]]
    for k in range(3):
        u, v, nb = V[:, k], nxt[:, k], N[:, k]
        back = (N[nb] == np.arange(len(V))[:, None]) & (V[nb] == v[:, None]) & (nxt[nb] == u[:, None])
        assert (back.sum(axis=1) == 1).all(), f"edge {k}"
    return tri


def finite_triangles(tri) -> list[tuple[int, int, int]]:
    """The finite triangles' corners, in canonical order."""
    return [tuple(t) for t in tri.V[: tri.finite].tolist()]


def points(n: int, seed: int) -> list[tuple[float, float]]:
    return [(p.x, p.y) for p in sample_sites(n, seed).points]


def digest(rows) -> str:
    return hashlib.sha256(np.asarray(rows, np.int64).tobytes()).hexdigest()[:16]


def assert_matches_qhull(pts):
    spatial = pytest.importorskip("scipy.spatial")
    ours = sorted(tuple(sorted(abc)) for abc in finite_triangles(build(pts)))
    theirs = sorted(tuple(sorted(s)) for s in spatial.Delaunay(pts).simplices.tolist())
    assert ours == theirs


@pytest.mark.parametrize("n", [200, 2000])
@pytest.mark.parametrize("seed", range(5))
def test_triangles_match_qhull(n, seed):
    assert_matches_qhull(points(n, seed))


@pytest.mark.parametrize("extra", [(0.5, 1.0), (2.0, -3.0), (-1.0, 0.5), (7.0, 1e-9)])
def test_collinear_plus_one_matches_qhull(extra):
    assert_matches_qhull([(float(i), 0.0) for i in range(6)] + [extra])


def test_square_plus_centre_matches_qhull():
    assert_matches_qhull([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)])


def parabola(n: int, seed: int) -> list[tuple[float, float]]:
    """Points in convex position: every one is a hull vertex."""
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    return list(zip(x.tolist(), (x * x).tolist()))


def square_boundary_and_interior() -> list[tuple[float, float]]:
    """21 points on each side of the unit square (collinear hull runs), then
    200 inside it."""
    s = np.linspace(0.0, 1.0, 21).tolist()
    pts = [(t, 0.0) for t in s] + [(1.0, t) for t in s[1:]]
    pts += [(t, 1.0) for t in s[:-1]] + [(0.0, t) for t in s[1:-1]]
    return pts + [tuple(p) for p in np.random.default_rng(1).uniform(0.05, 0.95, (200, 2)).tolist()]


@pytest.mark.parametrize("name,pts", [
    ("parabola", parabola(2000, 0)),
    ("strip 10^6:1", [tuple(p) for p in (np.random.default_rng(2).uniform(0, 1, (500, 2)) * [1e6, 1]).tolist()]),
    ("square boundary", square_boundary_and_interior()),
    ("grid jittered by 1e-3", [
        (i + dx, j + dy)
        for (i, j), (dx, dy) in zip(
            [(i, j) for i in range(30) for j in range(30)],
            np.random.default_rng(3).uniform(-1e-3, 1e-3, (900, 2)).tolist(),
        )
    ]),
] + [(f"n = {n}", [tuple(p) for p in np.random.default_rng(n).uniform(0, 1, (n, 2)).tolist()])
     for n in range(3, 9)])
def test_hard_inputs_match_qhull(name, pts):
    assert_matches_qhull(pts)


def gaussian_clusters(k: int, size: int, seed: int) -> list[tuple[float, float]]:
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.0, 1.0, (k, 2))
    return [tuple(p) for c in centres for p in rng.normal(c, 0.01, (size, 2)).tolist()]


def regular_polygon_and_centre(m: int) -> list[tuple[float, float]]:
    """Rounded from cos/sin, so some quads are cocircular and others miss by
    an ulp: Qhull's choice among them is no oracle."""
    return [(math.cos(2 * math.pi * k / m), math.sin(2 * math.pi * k / m)) for k in range(m)] + [(0.0, 0.0)]


@pytest.mark.parametrize("name,pts", [
    ("10 clusters of 200", gaussian_clusters(10, 200, 0)),
    ("2 clusters of 1000", gaussian_clusters(2, 1000, 1)),
    ("64-gon and centre", regular_polygon_and_centre(64)),
])
def test_near_degenerate_inputs_are_exactly_delaunay(name, pts):
    assert_exactly_delaunay(pts, finite_triangles(build(pts)))


def test_finite_triangles_are_counter_clockwise():
    pts = points(500, 7)
    for a, b, c in finite_triangles(build(pts)):
        assert delaunay.orient(*pts[a], *pts[b], *pts[c]) > 0.0


def _exact_sign(det) -> int:
    return (det > 0) - (det < 0)


def test_predicates_are_exact_near_degenerate_input():
    """Points rounded onto a line or a circle, where the float determinant
    has the wrong sign on about a seventh and a third of them: the signs
    equal the rational ones, and a quad gets the same in-circle answer from
    both triangles of a diagonal."""
    rng = np.random.default_rng(5)
    a, b = rng.uniform(-1.0, 1.0, (2, 400, 2))
    c = a + rng.uniform(0.0, 1.0, (400, 1)) * (b - a)
    args = [a[:, 0], a[:, 1], b[:, 0], b[:, 1], c[:, 0], c[:, 1]]
    want = [_exact_sign(delaunay._orient_det(*map(Fraction, r))) for r in zip(*args)]
    assert (np.sign(delaunay._orient_det(*args)) != want).sum() > 20
    assert delaunay.orient(*args).tolist() == want

    ang = np.sort(rng.uniform(0.0, 2 * math.pi, (400, 4)), axis=1)
    a, b, c, d = ((np.cos(ang[:, k]), np.sin(ang[:, k])) for k in range(4))
    args = [*a, *b, *c, *d]
    want = [_exact_sign(delaunay._incircle_det(*map(Fraction, r))) for r in zip(*args)]
    assert (np.sign(delaunay._incircle_det(*args)) != want).sum() > 50
    assert delaunay.incircle(*args).tolist() == want
    # (a, b, c, d) is counter-clockwise: the diagonal a-c seen from (c, d, a)
    assert (delaunay.incircle(*c, *d, *a, *b) == delaunay.incircle(*args)).all()


# SHA-256 (first 16 hex digits) of the finite triangles in canonical order
# and of insertion_order, as int64; the triangles' digests were recorded
# when the canonical order replaced the incremental code's creation order
DIGESTS = {
    (1000, 0): ("a23e7fd3ece931f1", "391a40ddae29b139"),
    (1000, 1): ("c0ec4e7ac246ff55", "ad9cbd3ee35f4c2d"),
    (1000, 2): ("9475c9de60675b1c", "4d4db1babb93a99d"),
    (10_000, 0): ("45462a6e8c5df6c0", "c507a7d6f5ea29ee"),
}


@pytest.mark.parametrize("n,seed", sorted(DIGESTS))
def test_triangle_ids_and_insertion_order_keep_their_bits(n, seed):
    pts = points(n, seed)
    tris, order = DIGESTS[(n, seed)]
    assert digest(delaunay.insertion_order(pts)) == order
    assert digest(finite_triangles(build(pts))) == tris


def test_canonical_rotation_puts_the_latest_corner_last():
    """Each finite triangle ends with its corner inserted last in the
    parent's order, except the first triangle, which starts with its first
    point; and the triangles go by those last corners."""
    pts = points(1000, 3)
    order = delaunay.insertion_order(pts)
    rank = np.empty(len(pts), int)
    rank[order] = np.arange(len(pts))
    tris = np.array(finite_triangles(build(pts)))
    r = rank[tris]
    seed = r.max(axis=1) == 2
    assert tris[seed].tolist() == [[order[0], *tris[seed][0, 1:]]]
    assert (r[~seed, 2] == r[~seed].max(axis=1)).all()
    assert (np.diff(r[:, 2]) >= 0).all()


def test_insertion_order_ties_keep_input_order():
    assert delaunay.insertion_order([]) == []
    assert delaunay.insertion_order([(1.0, 1.0), (0.0, 0.0), (1.0, 1.0), (0.0, 0.0)]) == [1, 3, 0, 2]


def test_repeated_points_are_left_out():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.3, 0.3), (0.0, 0.0)]
    used = {i for t in finite_triangles(build(pts)) for i in t}
    assert used == {0, 1, 2, 4}


@pytest.mark.parametrize("pts,message", [
    ([(0.0, 0.0), (1.0, 1.0)], "at least 3"),
    ([(1.0, 2.0)] * 3, "coincide"),
    ([(0.0, 0.0), (1.0, 1.0), (3.0, 3.0)], "collinear"),
])
def test_rejects_inputs_without_a_triangle(pts, message):
    with pytest.raises(ValueError, match=message):
        delaunay.Triangulation(pts)


@pytest.mark.slow
def test_uniform_1e5_matches_qhull():
    assert_matches_qhull(points(100_000, 0))


@pytest.mark.slow
def test_parabola_1e4_is_exactly_delaunay():
    """Qhull is no oracle here: 5 of its edges fail the exact test."""
    pts = parabola(10_000, 0)
    assert_exactly_delaunay(pts, finite_triangles(build(pts)))
