"""Forward construction: sampling, Voronoi building, degeneracy handling.

The load-bearing checks are the bisector property (every ridge equidistant
from its two sites) and agreement with two independent oracles: half-plane
clipping and, where scipy is installed, ``scipy.spatial.Voronoi`` (Qhull).
"""

from __future__ import annotations

import gc
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vorogen import delaunay
from vorogen.errors import ConstructionError, VorogenError
from vorogen.forward import (
    SiteSample,
    _repair,
    _too_close,
    build_voronoi,
    sample_and_build,
    sample_sites,
)
from vorogen.geom import DEGENERACY_REL, Point2, unit_vec
from vorogen.pipeline import reconstruct
from vorogen.tessellation import dumps, validate

from conftest import DIAMOND_SITES, DIAMOND_VERTICES
from helpers import (
    cell_ridges_reference,
    cyclic_match,
    distance_to_line,
    halfplane_cell,
    point_in_polygon,
    polygon_vertices,
    site_left_of_rays,
    too_close_reference,
    vertex_ridges,
)


def test_sample_sites_count_window_and_bounds():
    s = sample_sites(10, seed=42)
    assert len(s.points) == 10
    assert s.window == pytest.approx(math.sqrt(10))
    assert ((0.0 < s.points) & (s.points < s.window)).all()


def test_sample_sites_deterministic():
    assert np.array_equal(sample_sites(10, seed=7).points, sample_sites(10, seed=7).points)


def test_sample_sites_seeds_differ():
    assert not np.array_equal(sample_sites(10, seed=0).points, sample_sites(10, seed=1).points)


def test_sample_sites_rejects_tiny_n():
    with pytest.raises(ValueError):
        sample_sites(1, seed=0)


def test_build_two_sites():
    t, gt = build_voronoi(SiteSample((Point2(0.0, 0.0), Point2(2.0, 0.0)), 2.0, None))
    assert validate(t) == []  # one vertex: an extent of 0 is no fault
    assert len(t.arrays.vertices) == 1
    assert len(t.cells) == 2
    assert gt.generators.tolist() == [[0.0, 0.0], [2.0, 0.0]]


def test_build_three_collinear_sites():
    pts = (Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(2.0, 0.0))
    t, _ = build_voronoi(SiteSample(pts, 2.0, None))
    assert validate(t) == []
    assert all(not c.bounded for c in t.cells)
    anchors = sorted({t.ridge_line(rid).anchor.x for rid in range(len(t.ridges))})
    assert anchors == [0.5, 1.5]
    assert all(abs(t.ridge_line(rid).dir.x) < 1e-15 for rid in range(len(t.ridges)))


def test_build_diamond_matches_hand_computation():
    t, gt = build_voronoi(SiteSample(tuple(Point2(*s) for s in DIAMOND_SITES), 2.0, None))
    assert validate(t) == []
    assert gt.generators[4].tolist() == [1.0, 1.0]
    center = t.cells[4]
    assert center.bounded and len(center.ridges) == 4
    poly = polygon_vertices(t, 4)
    assert cyclic_match(poly, [Point2(*v) for v in DIAMOND_VERTICES], tol=1e-12)


def test_duplicate_sites_raise_construction_error():
    pts = (Point2(0.0, 0.0), Point2(0.0, 0.0), Point2(1.0, 1.0))
    with pytest.raises(ConstructionError) as exc:
        build_voronoi(SiteSample(pts, 1.0, None))
    assert exc.value.site_groups == ((1,),)  # each point that repeats an earlier one
    # the separation tolerance, relative to the sites' bounding-box diagonal
    assert exc.value.threshold == DEGENERACY_REL * math.sqrt(2.0)


def test_cocircular_square_raises_and_jitter_repairs():
    pts = (Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0), Point2(1.0, 1.0),
           Point2(0.5, 2.0))
    sample = SiteSample(pts, 2.0, seed=5)
    with pytest.raises(ConstructionError) as exc:
        build_voronoi(sample)
    assert exc.value.site_groups == ((0, 1, 2, 3),)
    # the Voronoi vertices are (0.5, 0.5) twice and (0.5, 1.375): diameter 0.875
    assert exc.value.threshold == pytest.approx(DEGENERACY_REL * 0.875, rel=1e-12)
    jittered, t, _ = _repair(sample, exc.value, 1e-9)
    assert not np.array_equal(jittered.points, sample.points)
    assert validate(t) == []
    # every vertex is 3-valent after the repair
    assert all(len(vertex_ridges(t, v)) == 3 for v in range(len(t.vertices)))


def test_failed_repair_rounds_leave_no_reference_cycle():
    """The error of a failed jitter round is kept without its traceback,
    whose frames, the failed build's arrays among them, would otherwise sit
    in a reference cycle until the cyclic garbage collector ran."""
    pts = (Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0), Point2(1.0, 1.0),
           Point2(0.5, 2.0))
    sample = SiteSample(pts, 2.0, seed=5)
    with pytest.raises(ConstructionError) as info:
        build_voronoi(sample)
    exc = info.value.with_traceback(None)
    del info
    gc.disable()
    try:
        gc.collect()
        # far below the degeneracy tolerance: every round fails
        with pytest.raises(ConstructionError):
            _repair(sample, exc, 1e-300)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_lattice_raises_construction_error(k):
    """Each unit square of a k x k lattice is a cocircular group; the build
    names all of them instead of making flat hull triangles."""
    pts = tuple(Point2(float(i), float(j)) for i in range(k) for j in range(k))
    with pytest.raises(ConstructionError) as exc:
        build_voronoi(SiteSample(pts, float(k), None))
    squares = {(k * i + j, k * i + j + 1, k * (i + 1) + j, k * (i + 1) + j + 1)
               for i in range(k - 1) for j in range(k - 1)}
    assert set(exc.value.site_groups) == squares


@pytest.mark.parametrize("extra", [(0.5, 1.0), (5.0, 1e-9), (2.0, -3.0), (-1.0, 0.5)])
def test_collinear_sites_plus_one_match_qhull(extra):
    """Five sites on a line and one off it: points inserted on a hull edge's
    line but outside the edge leave that edge alone, so the diagram builds."""
    spatial = pytest.importorskip("scipy.spatial")
    pts = tuple(Point2(float(i), 0.0) for i in range(5)) + (Point2(*extra),)
    t, _ = build_voronoi(SiteSample(pts, 5.0, None))
    assert validate(t) == []
    theirs = sorted(tuple(sorted(p)) for p in spatial.Voronoi(pts).ridge_points.tolist())
    assert sorted(r.cells for r in t.ridges) == theirs


def _exact_pairs(sep: float) -> list[tuple[float, float]]:
    """Pairs at a distance of exactly ``sep`` and one ulp beyond it, on and
    across the grid lines of side 2 sep."""
    pts = []
    for k, x in enumerate((0.0, 2 * sep, 3 * sep, 7.5 * sep)):
        y = 10.0 * sep * k
        pts += [(x, y), (x + sep, y), (x, y + 1.0), (np.nextafter(x + sep, math.inf), y + 1.0)]
        pts += [(x - 5.0, y), (x - 5.0, y + sep), (x + 5.0, y), (x + 5.0, y - sep)]
    return pts


def _groups_of_three(sep: float) -> list[tuple[float, float]]:
    """Triangles of mutually close points, and chains whose ends are not."""
    pts = []
    for k in range(6):
        x, y = 3.0 * k, 0.1 * k
        pts += [(x, y), (x + 0.5 * sep, y), (x + 0.25 * sep, y + 0.4 * sep)]
        pts += [(x, y + 1.0), (x + 0.9 * sep, y + 1.0), (x + 1.8 * sep, y + 1.0)]
    return pts


@pytest.mark.parametrize("name,pts,sep", [
    ("exact pairs", _exact_pairs(0.5), 0.5),
    ("exact pairs, small sep", _exact_pairs(3e-7), 3e-7),
    ("groups of three", _groups_of_three(0.01), 0.01),
    ("uniform", [tuple(p) for p in np.random.default_rng(3).uniform(0, 1, (3000, 2)).tolist()], 0.004),
    ("column", [(0.25, 0.7e-3 * k * (1 + (k % 3 == 0))) for k in range(10_000)], 1e-3),
    ("sep zero", [(0.0, 0.0), (1e-301, 0.0), (0.0, 0.0), (1.0, 1.0)], 0.0),
    ("sep negative", [(0.0, 0.0), (0.0, 3e-301), (0.0, 1e-299), (0.0, 0.0)], -1.0),
])
def test_too_close_matches_the_loop(name, pts, sep):
    """The clash set is {i : some j < i lies within sep}, as the loop found it."""
    expected = too_close_reference(pts, sep)
    assert _too_close(pts, sep) == expected
    assert expected, f"{name}: the input should clash somewhere"


def test_too_close_takes_a_pair_at_exactly_sep():
    pts = [(0.0, 0.0), (0.5, 0.0), (0.0, 1.0), (np.nextafter(0.5, 1.0), 1.0)]
    assert _too_close(pts, 0.5) == {1}


def test_non_finite_sites_raise_construction_error():
    for bad in (math.nan, math.inf):
        pts = (Point2(0.0, 0.0), Point2(bad, 1.0), Point2(1.0, 1.0))
        with pytest.raises(ConstructionError, match="finite"):
            build_voronoi(SiteSample(pts, 1.0, None))


def test_overflowing_extent_is_refused_not_called_duplicate():
    """Sites whose extent overflows float are not duplicates: the separation
    would be infinite, and so would a jitter. Nothing is retried, and no
    RuntimeWarning escapes."""
    sample = SiteSample(((-1e308, 0.0), (1e308, 0.0), (0.0, 1e308)), 1.0, None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConstructionError, match="float range") as exc:
            build_voronoi(sample)
    assert exc.value.site_groups == ()
    assert exc.value.threshold == 0.0


def test_overflowing_circumcenters_raise_without_warnings():
    """A finite extent whose circumcenter arithmetic overflows ends in the
    rounding-degeneracy error, with no RuntimeWarning on the way."""
    sample = SiteSample(((0.0, 0.0), (1e308, 1.0), (2.0, 1e308)), 1.0, None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConstructionError, match="rounding degeneracy") as exc:
            build_voronoi(sample)
    assert exc.value.site_groups == ((0, 1, 2),)


def test_far_circumcenters_raise_construction_error():
    """Nearly collinear sites whose circumcenter lands beyond COORD_MAX, a
    coordinate loading refuses, end in the rounding-degeneracy error."""
    sample = SiteSample(((0.0, 0.0), (0.0, 1.0), (3.039906720989635e-234, 2.0)), 2.0, None)
    with pytest.raises(ConstructionError, match="rounding degeneracy") as exc:
        build_voronoi(sample)
    assert exc.value.site_groups == ((0, 1, 2),)


# SHA-256 of sample_sites' points as little-endian float64, recorded when
# sample_sites still resampled clashing points itself; it found none here
SAMPLE_DIGESTS = {
    (10_000, 0): "6b3c32213d41fe3b",
    (10_000, 1): "e98303054d55fa2b",
    (10_000, 2): "a02a3a88b7076baf",
    (10_000, 3): "2e44c4290334532a",
    (10_000, 4): "93637b6fa3c97db7",
    (10_000, 5): "c9dd4901c17911f0",
    (100_000, 0): "3ef7aa3efe3c89a4",
}


@pytest.mark.parametrize("n,seed", sorted(SAMPLE_DIGESTS))
def test_sample_sites_keeps_its_bits(n, seed):
    points = sample_sites(n, seed).points
    digest = hashlib.sha256(np.asarray(points, "<f8").tobytes()).hexdigest()[:16]
    assert digest == SAMPLE_DIGESTS[(n, seed)]


def test_jitter_repairs_duplicate_sites():
    """``sample_sites`` leaves a near-duplicate pair to the build's retry."""
    pts = sample_sites(40, seed=11).points.copy()
    pts[5] = (pts[3, 0] + 1e-13, pts[3, 1])
    sample = SiteSample(pts, math.sqrt(40), seed=11)
    with pytest.raises(ConstructionError) as exc:
        build_voronoi(sample)
    assert exc.value.site_groups == ((5,),)
    jittered, t, _ = _repair(sample, exc.value, 1e-9)
    assert np.flatnonzero((pts != jittered.points).any(axis=1)).tolist() == [5]
    assert validate(t) == []


def test_jitter_moves_points_at_most_eps():
    pts = (Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0), Point2(1.0, 1.0))
    sample = SiteSample(pts, 1.0, seed=3)
    eps = 1e-6
    with pytest.raises(ConstructionError) as exc:
        build_voronoi(sample)
    out, _, _ = _repair(sample, exc.value, eps)
    # the repair loop may retry a few rounds, so allow a small multiple
    for (px, py), (qx, qy) in zip(sample.points.tolist(), out.points.tolist()):
        assert math.hypot(px - qx, py - qy) <= 8 * eps


def test_bisector_property(built):
    for n, seed in ((30, 0), (100, 1), (250, 2)):
        _, t, gt = built(n, seed)
        for rid, r in enumerate(t.ridges):
            a, b = r.cells
            ga, gb = gt.generators[a], gt.generators[b]
            for v in r.vertex_ids():
                p = t.vertices[v]
                da = math.hypot(p.x - ga[0], p.y - ga[1])
                db = math.hypot(p.x - gb[0], p.y - gb[1])
                assert abs(da - db) <= 1e-10 * max(da, db, 1.0), f"ridge {rid}"


def test_cells_match_halfplane_oracle(built):
    _, t, gt = built(30, 0)
    sites = [tuple(g) for g in gt.generators.tolist()]
    pad = 10.0 * math.sqrt(30)
    for c, cell in enumerate(t.cells):
        if not cell.bounded:
            continue
        oracle = halfplane_cell(sites, c, pad)
        poly = polygon_vertices(t, c)
        assert cyclic_match(poly, oracle, tol=1e-9), f"cell {c}"


@pytest.mark.parametrize("n", [200, 2000])
@pytest.mark.parametrize("seed", range(5))
def test_matches_qhull_voronoi(built, n, seed):
    """Same cell pairs as Qhull's ridges, rays where Qhull has rays, and
    finite ridge ends at Qhull's vertices to 1e-9 relative."""
    spatial = pytest.importorskip("scipy.spatial")
    sample, t, gt = built(n, seed)
    vor = spatial.Voronoi(gt.generators)
    theirs = {}
    for (i, j), ends in zip(vor.ridge_points.tolist(), vor.ridge_vertices):
        theirs[(min(i, j), max(i, j))] = ends
    assert sorted(theirs) == sorted(r.cells for r in t.ridges)
    for rid, r in enumerate(t.ridges):
        ends = theirs[r.cells]
        assert r.is_finite == (-1 not in ends), f"ridge {rid}"
        if not r.is_finite:
            continue
        ours = [t.vertices[v] for v in r.vertex_ids()]
        q0, q1 = (vor.vertices[v] for v in ends)
        if math.dist(ours[0], q0) > math.dist(ours[0], q1):
            q0, q1 = q1, q0
        for p, q in zip(ours, (q0, q1)):
            assert math.dist(p, q) <= 1e-9 * max(math.hypot(*q), sample.window), f"ridge {rid}"


def test_sites_lie_inside_their_bounded_cells(built):
    _, t, gt = built(100, 1)
    for c, cell in enumerate(t.cells):
        if cell.bounded:
            assert point_in_polygon(gt.generators[c], polygon_vertices(t, c)), f"cell {c}"


def test_ray_ridges_still_bisect(built):
    _, t, gt = built(50, 3)
    for rid, r in enumerate(t.ridges):
        if r.is_finite:
            continue
        a, b = r.cells
        line = t.ridge_line(rid)
        da = distance_to_line(gt.generators[a], line)
        db = distance_to_line(gt.generators[b], line)
        assert da == pytest.approx(db, rel=1e-10)


def test_hull_rays_match_the_loop(built):
    """Each hull ray has the bits of a per-ridge loop: perpendicular to its
    two sites, away from the third corner of its triangle (vertex ids are
    the finite triangles' ids), normalized by ``unit_vec``."""
    for n, seed in ((50, 3), (2000, 1)):
        sample, t, _ = built(n, seed)
        p = sample.points.tolist()
        corners = delaunay.Triangulation(sample.points).V.tolist()
        for k in np.flatnonzero(~t._finite).tolist():
            i, j = t._cells[k].tolist()
            (w,) = set(corners[t._ends[k, 0]]) - {i, j}
            (xi, yi), (xj, yj), (xw, yw) = p[i], p[j], p[w]
            dx, dy = -(yj - yi), xj - xi
            if dx * (xw - 0.5 * (xi + xj)) + dy * (yw - 0.5 * (yi + yj)) > 0.0:
                dx, dy = -dx, -dy
            assert tuple(t._rays[k].tolist()) == unit_vec(dx, dy), f"ridge {k}"


def test_build_is_deterministic():
    _, t1, gt1 = sample_and_build(60, 9)
    _, t2, gt2 = sample_and_build(60, 9)
    assert dumps(t1, gt1) == dumps(t2, gt2)


# SHA-256 of the vertex coordinates as little-endian float64, rows sorted by
# (x, y): a renumbering of the vertices keeps them, a change to a
# circumcenter's bits does not (re-recorded when the canonical order came to
# rank corners by site id, which changes the corner each circumcenter is
# computed from)
VERTEX_DIGESTS = {
    (1000, 0): "73bdab0f590baad9",
    (1000, 1): "c7134d87f442bcb7",
    (1000, 2): "40a5341b0f61e259",
    (10_000, 0): "0905bfaaeedcee06",
}


def vertex_digest(t) -> str:
    xy = np.asarray(t.arrays.vertices, "<f8")
    return hashlib.sha256(xy[np.lexsort((xy[:, 1], xy[:, 0]))].tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("n,seed", sorted(VERTEX_DIGESTS))
def test_vertex_coordinates_keep_their_bits(n, seed):
    t, _ = build_voronoi(sample_sites(n, seed))
    assert vertex_digest(t) == VERTEX_DIGESTS[(n, seed)]


# SHA-256 of dumps(t, gt) for the retried samples: a change to the retry
# must keep these bits, jittered sites included (re-recorded when the
# vertices were renumbered from the triangle set, and again when the
# canonical order came to rank corners by site id; the sites, first 16 hex
# digits of their float64 SHA-256, were recorded before and kept)
RETRY_DIGESTS = {
    1619958167: "6c17faf24c56d084bbb2e873f8c50a4268e3719098192b66a7e693d4ba6681cb",
    2032142921: "63318845966747404d035b7d6c84c6d702eecae8136827b2f58e83a7ec11bbc9",
}
RETRY_SITES = {1619958167: "e18e62b6203bbd2a", 2032142921: "00e7f5997c242dbc"}


@pytest.mark.parametrize("seed", sorted(RETRY_DIGESTS))
def test_retry_clears_the_rejecting_threshold(seed):
    """Samples whose far-out hull circumcenters put the degeneracy threshold
    above the window-relative jitter still build, with only the cocircular
    group moved and the generators recovered."""
    sample = sample_sites(10_000, seed)
    with pytest.raises(ConstructionError):
        build_voronoi(sample)
    jittered, t, gt = sample_and_build(10_000, seed)
    assert hashlib.sha256(dumps(t, gt).encode()).hexdigest() == RETRY_DIGESTS[seed]
    assert hashlib.sha256(np.asarray(jittered.points, "<f8").tobytes()).hexdigest()[:16] == RETRY_SITES[seed]
    moved = np.flatnonzero((sample.points != jittered.points).any(axis=1))
    assert 0 < len(moved) <= 4
    assert max(map(math.hypot, *(sample.points - jittered.points)[moved].T.tolist())) < 1e-3
    rep = reconstruct(t, "anchor", gt)
    assert rep.max_rse < 1e-8


# SHA-256 of dumps(t, gt), recorded while each cell's ridges were still
# sorted by the angle of the neighbour across them: building the cell
# boundaries another way must keep these bits
BUILD_DIGESTS = {
    (200, 0): "946d385df250673fea54a8d364914b7476dc02907db0b0c095b1f8b7cf3ffa74",
    (200, 1): "80b8865af7f52b1e1ef25e234b0b3c9cb2b8efece0e494f8587ae401ca93bd2d",
    (200, 2): "40b384ed2b079bcc8f84e1942de69821223359ef6e9942f2c480148dfc9cc97d",
    (200, 3): "960ea607ac32b49ce3a81d59caacd0513f0f0239914d41111e61d3ae0d9c79a3",
    (200, 4): "900c294e7e1ec173bba31289a52cd274afa55f85661d3524ef43cd6fd0fdf450",
    (2000, 0): "d7e19b586bf68110ea30a1059987c0c184a4f100962bd35f1731e8bd6ef08147",
    (2000, 1): "9bf114c991bbcc89054eb91944fc30799447f99e8b7284edb52de0e704f78caf",
    (2000, 2): "ff2f0ffc1c9a8b0e6873a781cadf8d0552849176bc019a8d0f5f783857dca71e",
    (2000, 3): "5cd89d4f5c5ab130e4d13771b9bf6ae6586008cb0921120236dc775515d702f8",
    (2000, 4): "9b6de3de08eb44b7587aea4dbf72bf3d7e778b968bd8dbd2554dc3917301aaa1",
    (10_000, 0): "c516fa368470f3f89c05aabce39e62929692b861e86c11b2c74ca0ce180e4d0a",
    (100_000, 1): "1e294eaf5e9eeee1f7b982cb83ce89e3dbccf979b9f38fa570fe124cab37f2b5",
}
# the same for build_voronoi of small_sites(k), or the type of the error that
# refused it; sets 0, 9 and 18 have three sites, so two-ridge hull cells only
# (0 and 1 re-recorded when two-ray cells came to run from the ray coming in
# to the ray going out: cell 0 of each lists its two rays the other way round)
SMALL_DIGESTS = [
    "ffa6e4adb06b45d26711bdb5a59ff6c2e77bb866881cdde39a25d0e84138f4ad",
    "0f2eb15fe1245ba49c462751db118d35c42e4f4b14959876495b670c8e1558c0",
    "58b2fb2d0e3b9ac5a59673b275a43d7e7cf9fa746eef4d92447cfbe076fe59f7",
    "a9cbaca5ebcb610106524754094af5f8dc28188e0a63733ad285983dde1aaa17",
    "bfac4033511731a203566f67107f00e7b1db088c488de54516baf61da5cfe472",
    "ConstructionError",
    "4f688c397bc8ff09967f5d8b1d179346b83145cb5d6248986e92714fef10c10a",
    "0c7f749d4ed2390c464a1e955cbd1647e40f2bdb01a0dcacbcc27a9043050a6b",
    "b0a2166c2f27730c64ce1ac8d76dff845f60478a6037d26bf3103442783ccc58",
    "05d0a0c87afe6395328f975828aad5d84ad2f8ddd679881bd599c2d06e4e77fa",
    "01d2b138f55c2b586f4de3710c950f7e273693341474a4b8278a8592d6adc538",
    "49ce773d75873819756db67e7a7a10e647e186c5ddaba14d12f4f250dc1e3e90",
    "808e087f6b8bba6de460c42e8468c7c99f7e9a63e913eaa4e65449d0431c0201",
    "fec91f1284433ef04fa0fa94a44f0fe4d10013fbbedf907137df0b2db3d9796c",
    "835f08aea7dc2d0b6f001df4faff6fa9c69301d641738da2774cb2db5ba9f342",
    "ConstructionError",
    "80d80d93c9223c52d5adf9ac7d9409c340f497cf897563d941bd01be1112b970",
    "ConstructionError",
    "f888134cc3379b403bcb451401caf3cf499793ab50b53f5f44cc8936ca986624",
    "ConstructionError",
]


def small_sites(k: int) -> np.ndarray:
    """3 + k % 9 sites uniform on [0, 4)^2, rounded to integers for odd k."""
    pts = np.random.default_rng(2500 + k).uniform(0.0, 4.0, (3 + k % 9, 2))
    return np.round(pts) if k % 2 else pts


@pytest.mark.parametrize("n,seed", [
    pytest.param(*key, marks=pytest.mark.slow) if key[0] > 10_000 else key for key in sorted(BUILD_DIGESTS)
])
def test_sample_and_build_keeps_its_bits(n, seed):
    _, t, gt = sample_and_build(n, seed)
    assert hashlib.sha256(dumps(t, gt).encode()).hexdigest() == BUILD_DIGESTS[(n, seed)]


@pytest.mark.parametrize("k", range(len(SMALL_DIGESTS)))
def test_small_builds_keep_their_bits(k):
    try:
        t, gt = build_voronoi(SiteSample(small_sites(k), 4.0, None))
    except VorogenError as exc:
        assert type(exc).__name__ == SMALL_DIGESTS[k]
        return
    assert hashlib.sha256(dumps(t, gt).encode()).hexdigest() == SMALL_DIGESTS[k]


# small inputs where exact ties are the rule: integer grids, points rounded
# onto a line, and points rounded onto a circle, a few moved by an ulp or so
grid_sites = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=2, max_size=12)
nudges = st.sampled_from([0.0, 0.0, 2.0**-52, -(2.0**-52), 1e-15, 5e-324, 1e-9])
line_sites = st.lists(st.tuples(st.integers(-6, 6), nudges), min_size=2, max_size=10).map(
    lambda ps: [(t / 3.0, 0.7 * t / 3.0 + 0.1 + e) for t, e in ps]
)
circle_sites = st.tuples(
    st.lists(st.tuples(st.integers(0, 11), nudges), min_size=3, max_size=12), st.booleans()
).map(lambda arg: [(math.cos(k * math.pi / 6) + e, math.sin(k * math.pi / 6)) for k, e in arg[0]]
      + [(0.0, 0.0)] * arg[1])
tie_sites = st.one_of(grid_sites.map(lambda ps: [(float(x), float(y)) for x, y in ps]), line_sites,
                      circle_sites)


@settings(max_examples=150, deadline=5000)
@given(tie_sites)
# rounded onto a line: a circumcenter that is not finite, and cells that
# turn the wrong way; a pair 1e-9 apart on a circle: a cell not convex
@example([(t / 3.0, 0.7 * t / 3.0 + 0.1) for t in (0, -1, 2)])
@example([(t / 3.0, 0.7 * t / 3.0 + 0.1) for t in (-1, 3, -4, -3)])
@example([(0.5000000010000001, 0.8660254037844386), (-1.0, 1.2246467991473532e-16),
          (0.8660254037844384, -0.5000000000000004), (0.5000000000000003, 0.8660254037844386), (0.0, 0.0)])
def test_degenerate_sites_build_or_raise_construction_error(pts):
    """Any such input gives a diagram that validates, or a ConstructionError;
    never another exception."""
    try:
        t, _ = build_voronoi(SiteSample(tuple(Point2(*p) for p in pts), 1.0, None))
    except ConstructionError:
        return
    assert validate(t) == []
    assert len(t.cells) == len(pts)


small_sets = st.lists(st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 4.0)), min_size=3, max_size=11)


@settings(max_examples=300, deadline=None)
@given(st.one_of(tie_sites, small_sets))
@example([(0.0, 0.0), (4.0, 1.0), (1.0, 3.0)])
@example([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 1.0)])
# two sites 1e-9 apart: the rounded vertex puts the site across its ray line
@example([(1.0, 0.0), (0.8660254047844387, 0.49999999999999994), (0.8660254037844387, 0.49999999999999994)])
def test_unbounded_chains_run_from_ray_in_to_ray_out(pts):
    """Every unbounded cell of a diagram of sites not all on one line has its
    site strictly left of its first ray, reversed, and of its last ray."""
    try:
        t, gt = build_voronoi(SiteSample(tuple(Point2(*p) for p in pts), 4.0, None))
    except ConstructionError:
        return
    if delaunay.all_collinear(gt.generators):
        return
    for c, cell in enumerate(t.cells):
        if not cell.bounded:
            assert site_left_of_rays(t, gt.generators, c, cell.ridges), f"cell {c}"


# sites on [0, 6]^2, each rounded to the integer grid or not
mixed_sites = st.lists(
    st.tuples(st.floats(0.0, 6.0), st.floats(0.0, 6.0), st.booleans()).map(
        lambda q: (float(round(q[0])), float(round(q[1]))) if q[2] else q[:2]
    ),
    min_size=3,
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(mixed_sites)
@example([(0.0, 0.0), (4.0, 1.0), (1.0, 3.0)])
@example([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 1.0)])
@example([(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)])
def test_cell_ridges_follow_the_reference_order(pts):
    """Each built cell lists its ridges as the sort by neighbour angle, the
    rotation to the gap and the order of two rays of
    ``cell_ridges_reference`` do."""
    try:
        t, gt = build_voronoi(SiteSample(pts, 6.0, None))
    except ConstructionError:
        return
    assert [c.ridges for c in t.cells] == cell_ridges_reference(t, gt.generators)


@pytest.mark.slow
def test_sample_and_build_at_1e5():
    sample, t, gt = sample_and_build(100_000, 0)
    assert validate(t) == []
    assert len(t.cells) == 100_000 and np.array_equal(gt.generators, sample.points)


def test_sample_and_build_shapes(built):
    sample, t, gt = built(100, 1)
    assert len(sample.points) == 100
    assert len(t.cells) == 100
    assert len(gt.generators) == 100
    assert np.array_equal(gt.generators, sample.points)


def test_unbounded_cells_trace_the_hull(built):
    _, t, _ = built(100, 1)
    unbounded = [c for c in t.cells if not c.bounded]
    assert unbounded, "every finite sample has hull cells"
    for cell in unbounded:
        rays = [rid for rid in cell.ridges if not t.ridges[rid].is_finite]
        assert len(rays) == 2
        assert cell.ridges[0] in rays and cell.ridges[-1] in rays
