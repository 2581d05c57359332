"""Forward construction: sampling, Voronoi building, degeneracy handling.

The load-bearing checks are the bisector property (every ridge equidistant
from its two sites) and agreement with two independent oracles: half-plane
clipping and, where scipy is installed, ``scipy.spatial.Voronoi`` (Qhull).
"""

from __future__ import annotations

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vorogen.errors import ConstructionError
from vorogen.forward import (
    SiteSample,
    _too_close,
    build_voronoi,
    jitter_degenerate,
    sample_and_build,
    sample_sites,
)
from vorogen.geom import DEGENERACY_REL, Point2
from vorogen.pipeline import reconstruct
from vorogen.tessellation import dumps, validate

from conftest import DIAMOND_SITES, DIAMOND_VERTICES
from helpers import (
    cyclic_match,
    distance_to_line,
    halfplane_cell,
    point_in_polygon,
    polygon_vertices,
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
    assert validate(t) == []
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
    jittered = jitter_degenerate(sample, 1e-9)
    assert not np.array_equal(jittered.points, sample.points)
    t, _ = build_voronoi(jittered)
    assert validate(t) == []
    # every vertex is 3-valent after the repair
    assert all(len(vertex_ridges(t, v)) == 3 for v in range(len(t.vertices)))


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
        assert jitter_degenerate(sample, 1.0) is sample
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


def test_jitter_is_identity_on_generic_input():
    sample = sample_sites(40, seed=11)
    assert jitter_degenerate(sample, 1e-9) is sample


def test_jitter_repairs_duplicate_sites():
    """``sample_sites`` leaves a near-duplicate pair to the build's retry."""
    pts = sample_sites(40, seed=11).points.copy()
    pts[5] = (pts[3, 0] + 1e-13, pts[3, 1])
    sample = SiteSample(pts, math.sqrt(40), seed=11)
    with pytest.raises(ConstructionError) as exc:
        build_voronoi(sample)
    assert exc.value.site_groups == ((5,),)
    jittered = jitter_degenerate(sample, 1e-9)
    assert np.flatnonzero((pts != jittered.points).any(axis=1)).tolist() == [5]
    t, _ = build_voronoi(jittered)
    assert validate(t) == []


def test_jitter_eps_zero_keeps_degenerate_input():
    pts = (Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0), Point2(1.0, 1.0))
    sample = SiteSample(pts, 1.0, None)
    assert jitter_degenerate(sample, 0.0) is sample


def test_jitter_rejects_negative_eps():
    with pytest.raises(ValueError):
        jitter_degenerate(sample_sites(10, seed=0), -1.0)


def test_jitter_moves_points_at_most_eps():
    pts = (Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0), Point2(1.0, 1.0))
    sample = SiteSample(pts, 1.0, seed=3)
    eps = 1e-6
    out = jitter_degenerate(sample, eps)
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


def test_build_is_deterministic():
    _, t1, gt1 = sample_and_build(60, 9)
    _, t2, gt2 = sample_and_build(60, 9)
    assert dumps(t1, gt1) == dumps(t2, gt2)


# SHA-256 of the vertex coordinates as little-endian float64, rows sorted by
# (x, y), recorded with the incremental triangulation: a renumbering of the
# vertices keeps them, a change to a circumcenter's bits does not
VERTEX_DIGESTS = {
    (1000, 0): "d48a658810c8cf60",
    (1000, 1): "269e10e808df8498",
    (1000, 2): "2a118a60402dc739",
    (10_000, 0): "a8dbc44ce41ace57",
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
# vertices were renumbered from the triangle set; the sites, first 16 hex
# digits of their float64 SHA-256, were recorded before and kept)
RETRY_DIGESTS = {
    1619958167: "9a3f9b6ea8c28d206bba8f01bd9aaef68dba31e2de289bc5c33997e647311f6c",
    2032142921: "fd4a94029c13a5be0120af8f02f6804f8d55e2d5093cbb0a86310916b44ac683",
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


@settings(max_examples=150, deadline=5000)
@given(st.one_of(grid_sites.map(lambda ps: [(float(x), float(y)) for x, y in ps]), line_sites, circle_sites))
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
