"""The flat-list triangulation: Qhull's triangles, pinned ids, mutual neighbours."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from vorogen import delaunay
from vorogen.forward import sample_sites


def build(pts) -> delaunay.Triangulation:
    """Triangulate ``pts`` and check that every neighbour slot is mutual."""
    tri = delaunay.Triangulation(pts)
    V, N = tri.V, tri.N
    assert len(V) == len(N) == 3 * len(tri.alive)
    assert tri.live == sum(tri.alive)
    for t, live in enumerate(tri.alive):
        if not live:
            continue
        for k in range(3):
            u, v = V[3 * t + k], V[3 * t + (k + 1) % 3]
            nb = N[3 * t + k]
            assert tri.alive[nb], f"triangle {t} edge {k}: dead neighbour {nb}"
            back = [m for m in range(3) if N[3 * nb + m] == t]
            assert len(back) == 1, f"triangle {t} edge {k}: {nb} points back {len(back)} times"
            m = back[0]
            assert (V[3 * nb + m], V[3 * nb + (m + 1) % 3]) == (v, u), f"triangle {t} edge {k}"
    return tri


def finite_triangles(tri) -> list[tuple[int, int, int, int]]:
    """(id, a, b, c) of every live finite triangle, in id order."""
    V = np.array(tri.V).reshape(-1, 3)
    keep = np.frombuffer(tri.alive, bool) & (V >= 0).all(axis=1)
    return [(t, *V[t]) for t in np.flatnonzero(keep).tolist()]


def points(n: int, seed: int) -> list[tuple[float, float]]:
    return [(p.x, p.y) for p in sample_sites(n, seed).points]


def digest(rows) -> str:
    return hashlib.sha256(np.asarray(rows, np.int64).tobytes()).hexdigest()[:16]


def assert_matches_qhull(pts):
    spatial = pytest.importorskip("scipy.spatial")
    ours = sorted(tuple(sorted(abc)) for _, *abc in finite_triangles(build(pts)))
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


def test_finite_triangles_are_counter_clockwise():
    pts = points(500, 7)
    for _, a, b, c in finite_triangles(build(pts)):
        assert delaunay.orient(*pts[a], *pts[b], *pts[c]) > 0.0


# SHA-256 (first 16 hex digits) of the live finite triangles' (id, corners)
# and of insertion_order, as int64, recorded with the dict-based triangulation
# the flat lists replaced; ids fix the dual's vertex ids and so the file bits
DIGESTS = {
    (1000, 0): ("6d6daf1cb558e135", "391a40ddae29b139"),
    (1000, 1): ("c7d71914d1f28e02", "ad9cbd3ee35f4c2d"),
    (1000, 2): ("31fdb2fdfb47eaae", "4d4db1babb93a99d"),
    (10_000, 0): ("1ecfadea024a571d", "c507a7d6f5ea29ee"),
}


@pytest.mark.parametrize("n,seed", sorted(DIGESTS))
def test_triangle_ids_and_insertion_order_keep_their_bits(n, seed):
    pts = points(n, seed)
    tris, order = DIGESTS[(n, seed)]
    assert digest(delaunay.insertion_order(pts)) == order
    assert digest(finite_triangles(build(pts))) == tris


def test_insertion_order_ties_keep_input_order():
    assert delaunay.insertion_order([]) == []
    assert delaunay.insertion_order([(1.0, 1.0), (0.0, 0.0), (1.0, 1.0), (0.0, 0.0)]) == [1, 3, 0, 2]


@pytest.mark.parametrize("pts,message", [
    ([(0.0, 0.0), (1.0, 1.0)], "at least 3"),
    ([(1.0, 2.0)] * 3, "coincide"),
    ([(0.0, 0.0), (1.0, 1.0), (3.0, 3.0)], "collinear"),
])
def test_rejects_inputs_without_a_triangle(pts, message):
    with pytest.raises(ValueError, match=message):
        delaunay.Triangulation(pts)
