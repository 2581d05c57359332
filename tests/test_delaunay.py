"""The triangulation: Qhull's triangles, an exact check where Qhull is no
oracle, exact predicates, canonical ids and mutual neighbours."""

from __future__ import annotations

import hashlib
import itertools
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
    return [tuple(p) for p in sample_sites(n, seed).points.tolist()]


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


def test_predicates_take_numbers_where_the_float_sign_is_unsure():
    """A zero or tiny determinant of plain numbers goes to the exact path too."""
    assert delaunay.orient(0.0, 0.0, 1.0, 0.0, 2.0, 0.0) == 0
    assert delaunay.orient(0.0, 0.0, 1.0, 0.0, 2.0, 1e-300) == 1
    assert delaunay.incircle(1.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0, -1.0) == 0


def _fan_pick(w, real):
    """The child rule of ``_relocate_in_fans`` for one point, in a loop: the
    first finite child whose wedge holds the point, else the first ghost
    child, with the slot of its edge that holds the point."""
    c = len(w)
    w = [s if r else 0 for s, r in zip(w, real)]
    holds = [j for j in range(c) if w[j] >= 0 and w[(j + 1) % c] <= 0]
    finite = [j for j in holds if real[j] and real[(j + 1) % c]]
    j = (finite + holds + [0])[0]
    k = (j + 1) % c
    return j, 2 if real[j] and w[j] == 0 else 1 if real[k] and w[k] == 0 else 0


@pytest.mark.parametrize("c", [3, 4])
def test_fan_table_is_the_child_rule(c):
    """Every key of the table, over all orient signs and ghost corners,
    gives the child and edge slot of the loop rule."""
    table = delaunay._FAN_TABLES[c]
    for ghosts in itertools.product((False, True), repeat=c):
        for w in itertools.product((-1, 0, 1), repeat=c):
            key = sum((s + 1) * 3**j for j, s in enumerate(w))
            key += 3**c * sum(2**j for j, g in enumerate(ghosts) if g)
            assert tuple(table[:, key]) == _fan_pick(w, [not g for g in ghosts]), (w, ghosts)


# SHA-256 (first 16 hex digits) of the finite triangles in canonical order,
# as int64; re-recorded when the canonical order came to rank corners by
# their site ids
DIGESTS = {
    (1000, 0): "f933bccc8f1ad9a3",
    (1000, 1): "f45db4be5052bfcd",
    (1000, 2): "9367db0a060f8c8c",
    (10_000, 0): "903ada40de20120c",
}


@pytest.mark.parametrize("n,seed", sorted(DIGESTS))
def test_triangle_ids_and_insertion_order_keep_their_bits(n, seed):
    assert digest(finite_triangles(build(points(n, seed)))) == DIGESTS[(n, seed)]


# Inputs with cocircular quads, whose Delaunay triangulation is not unique:
# which diagonal each quad keeps depends on the order of the rounds (a
# _PRIORITY_SEED of 3 or 99 moves both digests), so these rows pin the
# process itself, not only its result. Digests as for DIGESTS.
TIE_DIGESTS = {
    "30 x 30 integer grid": ([(float(i), float(j)) for i in range(30) for j in range(30)], "f43cf8e25ad061f4"),
    "square boundary": (square_boundary_and_interior(), "4baa8b2893be4b9b"),
}


@pytest.mark.parametrize("name", sorted(TIE_DIGESTS))
def test_cocircular_ties_keep_their_bits(name):
    pts, want = TIE_DIGESTS[name]
    assert digest(finite_triangles(build(pts))) == want


def test_canonical_rotation_puts_the_latest_corner_last():
    """Each finite triangle ends with its highest site id, and the triangles
    go by their last, first and middle corners; every ghost triangle ends
    with INF."""
    tri = build(points(1000, 3))
    tris = tri.V[: tri.finite]
    assert (tris[:, 2] == tris.max(axis=1)).all()
    assert (np.lexsort((tris[:, 1], tris[:, 0], tris[:, 2])) == np.arange(tri.finite)).all()
    assert (tri.V[tri.finite :, 2] == delaunay.INF).all()


def test_canonical_order_ignores_the_insertion_priority(monkeypatch):
    """The random priority that decides the insertion rounds reaches no
    triangle or neighbour id: generic points have one Delaunay
    triangulation, and every priority seed numbers it the same way."""
    pts = [tuple(p) for p in np.random.default_rng(4).uniform(0.0, 1.0, (1000, 2)).tolist()]
    tri = build(pts)
    for seed in (1, 99):
        monkeypatch.setattr(delaunay, "_PRIORITY_SEED", seed)
        other = build(pts)
        assert np.array_equal(other.V, tri.V) and np.array_equal(other.N, tri.N)
        assert other.finite == tri.finite


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


@pytest.mark.parametrize("bad", [(math.nan, 0.5), (0.5, math.inf), (-math.inf, 0.5)])
def test_rejects_points_that_are_not_finite(bad):
    """Refused at entry, not by the exact predicates' rational fallback."""
    pts = [(0.0, 0.0), (1.0, 0.0), bad, (0.0, 1.0)]
    with pytest.raises(ValueError, match=r"^point 2 is not finite$"):
        delaunay.Triangulation(pts)


@pytest.mark.slow
def test_uniform_1e5_matches_qhull():
    assert_matches_qhull(points(100_000, 0))


@pytest.mark.slow
def test_parabola_1e4_is_exactly_delaunay():
    """Qhull is no oracle here: 5 of its edges fail the exact test."""
    pts = parabola(10_000, 0)
    assert_exactly_delaunay(pts, finite_triangles(build(pts)))
