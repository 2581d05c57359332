"""Data model, validation, traversal and serialization round-trips."""

from __future__ import annotations

import gc
import math

import numpy as np
import pytest

from vorogen import forward
from vorogen.errors import (
    AnchorIneligibleError,
    InconsistentSystemError,
    OutOfRangeIdError,
    ParseError,
    UnsupportedVersionError,
)
from vorogen.geom import UnitVec2
from vorogen.pipeline import METHODS, reconstruct
from vorogen.solver import assemble_patch, mirror_terms
from vorogen.tessellation import (
    Cell,
    GroundTruth,
    Point2,
    Ridge,
    Tessellation,
    dumps,
    load,
    loads,
    save,
    validate,
)

from conftest import DIAMOND_CENTER, make_diamond
from helpers import line_from_two_points, same_line, vertex_ridges


def test_diamond_fixture_validates_clean(diamond):
    t, _ = diamond
    assert validate(t) == []


def test_forward_builds_validate_clean(built):
    for n, seed in ((30, 0), (100, 1), (250, 2)):
        _, t, _ = built(n, seed)
        assert validate(t) == [], f"n={n} seed={seed}"


def _diamond_parts():
    vertices, ridges, cells, _ = make_diamond()
    return vertices, ridges, cells


def test_validate_flags_asymmetric_adjacency():
    vertices, ridges, cells = _diamond_parts()
    # remove the center cell's ridge 0 from its list only
    cells[4] = Cell(ridges=(1, 3, 2), bounded=True)
    assert validate(Tessellation(vertices, ridges, cells)) == [
        "asymmetric adjacency at ridge 0 (cell 4)",
        "cell 4 ridges do not chain into a closed polygon",
    ]


def _listed_twice(ridges, cells):
    cells[4] = Cell(ridges=(1, 3, 2, 0, 0), bounded=True)


def _self_joined(ridges, cells):
    ridges[0] = Ridge(cells=(4, 4), v0=0, v1=3)


def _self_joined_listed_twice(ridges, cells):
    _self_joined(ridges, cells)
    _listed_twice(ridges, cells)


def _listed_by_a_stranger(ridges, cells):
    cells[1] = Cell(ridges=(5, 1, 4, 0), bounded=False)


@pytest.mark.parametrize(
    "edit, expected",
    [
        (_listed_twice, [
            "asymmetric adjacency at ridge 0 (cell 4)",
            "cell 4 ridges do not chain into a closed polygon",
        ]),
        (_self_joined, [
            "ridge 0 joins cell 4 to itself",
            "cell 0 lists ridge 0 that does not border it",
        ]),
        (_self_joined_listed_twice, [
            "ridge 0 joins cell 4 to itself",
            "asymmetric adjacency at ridge 0 (cell 4)",
            "asymmetric adjacency at ridge 0 (cell 4)",
            "cell 0 lists ridge 0 that does not border it",
            "cell 4 ridges do not chain into a closed polygon",
        ]),
        (_listed_by_a_stranger, ["cell 1 lists ridge 0 that does not border it"]),
    ],
)
def test_validate_adjacency_messages(edit, expected):
    """How often each cell of a ridge lists it, message for message."""
    vertices, ridges, cells = _diamond_parts()
    edit(ridges, cells)
    assert validate(Tessellation(vertices, ridges, cells)) == expected


def test_validate_flags_degenerate_ridge():
    vertices, ridges, cells = _diamond_parts()
    ridges[0] = Ridge(cells=(0, 4), v0=0, v1=0)
    msgs = validate(Tessellation(vertices, ridges, cells))
    assert any(m.startswith("degenerate ridge 0") for m in msgs)


def test_validate_flags_coincident_vertices():
    vertices, ridges, cells = _diamond_parts()
    vertices.append(vertices[3])  # vertex 4 coincides with vertex 3
    ridges[0] = Ridge(cells=(0, 4), v0=4, v1=3)  # zero-length span
    msgs = validate(Tessellation(vertices, ridges, cells))
    assert any(m.startswith("degenerate ridge 0") for m in msgs)


def test_validate_flags_self_adjacent_ridge():
    vertices, ridges, cells = _diamond_parts()
    ridges[4] = Ridge(cells=(0, 0), v0=0, ray_dir=UnitVec2(0.0, -1.0))
    msgs = validate(Tessellation(vertices, ridges, cells))
    assert any("joins cell 0 to itself" in m for m in msgs)


def test_validate_flags_out_of_range_ids():
    vertices, ridges, cells = _diamond_parts()
    ridges[0] = Ridge(cells=(0, 9), v0=0, v1=3)
    msgs = validate(Tessellation(vertices, ridges, cells))
    assert any("out-of-range cell" in m for m in msgs)
    vertices, ridges, cells = _diamond_parts()
    ridges[0] = Ridge(cells=(0, 4), v0=0, v1=99)
    msgs = validate(Tessellation(vertices, ridges, cells))
    assert any("out-of-range vertex" in m for m in msgs)


def test_validate_flags_non_unit_ray():
    vertices, ridges, cells = _diamond_parts()
    ridges[4] = Ridge(cells=(0, 1), v0=0, ray_dir=UnitVec2(0.0, -2.0))
    msgs = validate(Tessellation(vertices, ridges, cells))
    assert any("not unit length" in m for m in msgs)


def test_validate_flags_orphan_vertex():
    vertices, ridges, cells = _diamond_parts()
    vertices.append((5.0, 5.0))
    msgs = validate(Tessellation(vertices, ridges, cells))
    assert any("orphan vertex 4" in m for m in msgs)


def test_validate_flags_wrong_valence():
    vertices, ridges, cells = _diamond_parts()
    del ridges[7]  # vertex 3 now has 2 incident ridges (and they are not a split bisector)
    cells[0] = Cell(ridges=(4, 0), bounded=False)
    cells[2] = Cell(ridges=(2, 6), bounded=False)
    msgs = validate(Tessellation(vertices, ridges, cells))
    assert any("vertex 3 is shared by 2 ridges" in m for m in msgs)


def test_validate_flags_clockwise_polygon():
    vertices, ridges, cells = _diamond_parts()
    cells[4] = Cell(ridges=tuple(reversed(cells[4].ridges)), bounded=True)
    msgs = validate(Tessellation(vertices, ridges, cells))
    # a reversed convex polygon reads as reflex at every corner
    assert any("cell 4 polygon" in m for m in msgs)


def test_validate_flags_bounded_cell_with_ray():
    vertices, ridges, cells = _diamond_parts()
    cells[0] = Cell(ridges=cells[0].ridges, bounded=True)
    msgs = validate(Tessellation(vertices, ridges, cells))
    assert any("bounded cell 0 contains ray ridge" in m for m in msgs)


def test_validate_accepts_two_site_split_bisector():
    sample = forward.SiteSample((Point2(0.0, 0.0), Point2(2.0, 0.0)), 2.0, None)
    t, _ = forward.build_voronoi(sample)
    assert validate(t) == []
    assert len(t.cells) == 2
    assert all(not c.bounded for c in t.cells)
    # the single bisector x=1 is stored as two opposite rays through (1, 0)
    assert t.vertices[0] == Point2(1.0, 0.0)
    dirs = sorted((r.ray_dir.x, r.ray_dir.y) for r in t.ridges)
    assert dirs == [(0.0, -1.0), (0.0, 1.0)]


def _nbrs(t, c):
    a = t.arrays
    return a.cell_nbrs[a.cell_start[c]:a.cell_start[c + 1]].tolist()


def _ring(t, c):
    """(neighbour, next neighbour, joining ridge or -1) around cell ``c``."""
    a = t.arrays
    nb = _nbrs(t, c)
    return list(zip(nb, nb[1:] + nb[:1], a.ring[a.cell_start[c]:a.cell_start[c + 1]].tolist()))


def test_neighbors_diamond_center_ccw(diamond):
    t, _ = diamond
    nb = _nbrs(t, DIAMOND_CENTER)
    assert nb == [1, 3, 2, 0]
    assert len(nb) == len(t.cells[DIAMOND_CENTER].ridges)


def test_neighbors_corner_includes_center(diamond):
    t, _ = diamond
    assert DIAMOND_CENTER in _nbrs(t, 0)


def test_ring_pairs_diamond(diamond):
    t, _ = diamond
    ring = _ring(t, DIAMOND_CENTER)
    assert [(a, b) for a, b, _ in ring] == [(1, 3), (3, 2), (2, 0), (0, 1)]
    # ring ridges lie on x=1 and y=1, each twice
    lines = [t.ridge_line(rid) for _, _, rid in ring]
    vertical = sum(1 for line in lines if abs(line.dir.x) < 1e-15 and line.anchor.x == 1.0)
    horizontal = sum(1 for line in lines if abs(line.dir.y) < 1e-15 and line.anchor.y == 1.0)
    assert vertical == 2 and horizontal == 2


def test_ring_pairs_missing_pair_is_omitted(diamond_missing_ring):
    t, _ = diamond_missing_ring
    ring = _ring(t, DIAMOND_CENTER)
    assert [(a, b) for a, b, rid in ring if rid >= 0] == [(3, 2), (2, 0), (0, 1)]
    assert ring[0] == (1, 3, -1)


def test_ring_pairs_generic_count_equals_degree(built):
    _, t, _ = built(100, 1)
    for c, cell in enumerate(t.cells):
        if cell.bounded:
            ring = _ring(t, c)
            assert len(ring) == len(cell.ridges)
            assert all(rid >= 0 for _, _, rid in ring)


def test_ring_pairs_rejects_unbounded_anchor(diamond):
    """Corner cell 0 has a ring ridge (between cells 1 and 4), yet an
    unbounded cell anchors no patch."""
    t, _ = diamond
    assert any(rid >= 0 for _, _, rid in _ring(t, 0))
    with pytest.raises(AnchorIneligibleError):
        assemble_patch(t, 0)


def test_neighbor_order_invariant_under_ridge_list_rotation(diamond):
    t, _ = diamond
    vertices, ridges, cells = _diamond_parts()
    rot = cells[4].ridges[1:] + cells[4].ridges[:1]
    cells[4] = Cell(ridges=rot, bounded=True)
    t2 = Tessellation(vertices, ridges, cells)
    nb1 = _nbrs(t, 4)
    nb2 = _nbrs(t2, 4)
    assert nb2 == nb1[1:] + nb1[:1]  # same cycle, rotated start


def test_ridge_line_and_point(diamond):
    t, _ = diamond
    # ridge 3 lies on x+y=3
    line = t.ridge_line(3)
    assert abs(line.dir.x + line.dir.y) < 1e-15
    # the mirror equation's point on the line: segment midpoint, ray origin
    c, _, _ = mirror_terms(t.arrays, np.array([3, 5]))
    assert c.tolist() == [1.5 + 1.5j, 2.0 + 1.0j]
    assert t.arrays.lengths[5] == math.inf
    assert t.arrays.lengths[3] == pytest.approx(math.sqrt(2.0))


def test_ridge_arrays_match_scalar_geometry(built):
    _, t, _ = built(2000, 0)
    a = t.arrays
    assert t.arrays is a  # built once
    thresh = t.degeneracy_threshold()
    for rid, r in enumerate(t.ridges):
        if not r.is_finite:
            assert tuple(a.dirs[rid]) == r.ray_dir
            continue
        line = line_from_two_points(t.vertices[r.v0], t.vertices[r.v1], min_length=thresh)
        assert tuple(a.dirs[rid]) == line.dir
        assert tuple(a.vertices[a.ends[rid, 0]]) == line.anchor
        assert t.ridge_line(rid) == line
    # the scalar accessor hands out Python floats, not numpy scalars
    line = t.ridge_line(0)
    assert all(type(v) is float for v in (*line.anchor, *line.dir))


def test_ridge_arrays_csr_follows_cell_order(diamond):
    t, _ = diamond
    a = t.arrays
    for c, cell in enumerate(t.cells):
        lo, hi = a.cell_start[c], a.cell_start[c + 1]
        assert a.cell_ridges[lo:hi].tolist() == list(cell.ridges)
        nbrs = [t.ridges[rid].other_cell(c) for rid in cell.ridges]
        assert a.cell_nbrs[lo:hi].tolist() == nbrs


@pytest.mark.parametrize(
    "cells,v0,cell_ridges,words",
    [
        ((0, 99), 0, (1, 3, 2, 0), "references cell"),
        ((-1, 4), 0, (1, 3, 2, 0), "references cell"),
        ((0, 4), 99, (1, 3, 2, 0), "references vertex"),
        ((0, 4), 0, (1, 3, 2, 99), "references ridge"),
    ],
)
def test_ridge_arrays_reject_out_of_range_ids(cells, v0, cell_ridges, words):
    vertices, ridges, cell_list, _ = make_diamond()
    ridges[0] = Ridge(cells=cells, v0=v0, v1=3)
    cell_list[4] = Cell(ridges=cell_ridges, bounded=True)
    t = Tessellation(vertices, ridges, cell_list)
    with pytest.raises(OutOfRangeIdError, match=words):
        t.arrays
    assert validate(t)  # validation still reports instead of raising


def _malformed(t, kind):
    """``t`` with its first ray's direction doubled or removed, or with
    vertex 0's x set to NaN; such a tessellation can only be built in code."""
    ridges, vertices = list(t.ridges), list(t.vertices)
    k = next(rid for rid, r in enumerate(ridges) if not r.is_finite)
    r = ridges[k]
    if kind == "scaled ray":
        ridges[k] = Ridge(cells=r.cells, v0=r.v0, ray_dir=(2.0 * r.ray_dir[0], 2.0 * r.ray_dir[1]))
    elif kind == "missing ray":
        ridges[k] = Ridge(cells=r.cells, v0=r.v0)
    else:
        vertices[0] = (math.nan, vertices[0].y)
    return Tessellation(vertices, ridges, t.cells)


@pytest.mark.parametrize(
    "kind,words",
    [("scaled ray", "ray ridge"), ("missing ray", "ray ridge"), ("nan vertex", "vertex 0")],
)
def test_malformed_geometry_is_inconsistent(built, kind, words):
    """Every method refuses a bad ray or vertex with a typed error (exit 4)."""
    _, t, gt = built(200, 0)
    bad = _malformed(t, kind)
    for method in METHODS:
        with pytest.raises(InconsistentSystemError, match=words):
            reconstruct(bad, method, gt)
    assert validate(bad)  # validation still reports instead of raising


def test_validate_reports_a_split_bisector_without_direction():
    """The 2-site diagram's two opposite rays, one without a direction."""
    sample = forward.SiteSample((Point2(0.0, 0.0), Point2(2.0, 0.0)), 2.0, None)
    t, _ = forward.build_voronoi(sample)
    r = t.ridges[0]
    bad = Tessellation(t.vertices, [Ridge(cells=r.cells, v0=r.v0), t.ridges[1]], t.cells)
    assert "ridge 0 ray direction is not unit length" in validate(bad)


def _two_ridges_join_a_ring_pair():
    """The diamond with a second ray between cells 1 and 3, listed by no
    cell: ridges 5 and 8 both join the center's neighbours 1 and 3."""
    vertices, ridges, cells, _ = make_diamond()
    ridges.append(Ridge(cells=(3, 1), v0=1, ray_dir=UnitVec2(1.0, 0.0)))
    return Tessellation(vertices, ridges, cells)


def _entry_loop(t):
    """Per boundary entry, in order: its cell and its ring ridge, the
    lowest-id ridge joining its neighbour to the next entry's, or -1."""
    lowest = {}
    for rid, r in enumerate(t.ridges):
        lowest.setdefault(frozenset(r.cells), rid)
    cells, ring = [], []
    for c, cell in enumerate(t.cells):
        nbrs = [t.ridges[rid].other_cell(c) for rid in cell.ridges]
        for i, nb in enumerate(nbrs):
            cells.append(c)
            ring.append(lowest.get(frozenset((nb, nbrs[(i + 1) % len(nbrs)])), -1))
    return cells, ring


@pytest.mark.parametrize("case", ["built", "diamond", "missing_ring", "two_ridges", "no_ridges"])
def test_entry_cell_and_ring_match_the_entry_loop(case, built, diamond, diamond_missing_ring):
    t = {
        "built": lambda: built(2000, 0)[1],
        "diamond": lambda: diamond[0],
        "missing_ring": lambda: diamond_missing_ring[0],
        "two_ridges": _two_ridges_join_a_ring_pair,
        "no_ridges": lambda: Tessellation([], [], [Cell(ridges=(), bounded=True)]),
    }[case]()
    a = t.arrays
    cells, ring = _entry_loop(t)
    assert a.entry_cell.dtype == a.ring.dtype == np.int32
    assert a.entry_cell.tolist() == cells
    assert a.ring.tolist() == ring
    if case == "two_ridges":
        lo = a.cell_start[DIAMOND_CENTER]
        assert a.ring[lo:lo + 1].tolist() == [5]  # not 8
    if case == "no_ridges":
        assert a.ring.shape == (0,)


def test_vertex_ridges(diamond):
    t, _ = diamond
    assert sorted(vertex_ridges(t, 0)) == [0, 1, 4]


def test_dumps_loads_round_trip_bit_exact(diamond):
    t, gt = diamond
    text = dumps(t, gt)
    t2, gt2 = loads(text)
    assert dumps(t2, gt2) == text
    assert t2.vertices == t.vertices
    assert t2.ridges == t.ridges
    assert t2.cells == t.cells
    assert np.array_equal(gt2.generators, gt.generators)


def test_round_trip_on_forward_build_is_bit_exact(built):
    _, t, gt = built(100, 1)
    t2, gt2 = loads(dumps(t, gt))
    assert t2.vertices == t.vertices
    assert np.array_equal(gt2.generators, gt.generators)
    assert dumps(t2, gt2) == dumps(t, gt)


def test_save_load_file_round_trip(tmp_path, diamond):
    t, gt = diamond
    path = tmp_path / "diamond.json"
    save(t, path, gt)
    t2, gt2 = load(path)
    assert t2.vertices == t.vertices
    assert np.array_equal(gt2.generators, gt.generators)


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load(tmp_path / "nope.json")


def test_loads_rejects_truncated_document():
    with pytest.raises(ParseError):
        loads('{"version": 1, "vertices": [[0, 0')


@pytest.fixture()
def gc_state():
    """Restores the collector's state after a test that changes it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_file_layer_restores_the_collector(diamond, gc_state, enabled):
    t, gt = diamond
    if enabled:
        gc.enable()
    else:
        gc.disable()
    loads(dumps(t, gt))
    assert gc.isenabled() is enabled
    with pytest.raises(ParseError):
        loads('{"version": 1, "vertices": [[0, 0')
    assert gc.isenabled() is enabled


def test_loads_rejects_unknown_version():
    with pytest.raises(UnsupportedVersionError):
        loads('{"version": 99, "vertices": [], "ridges": [], "cells": []}')


def test_loads_rejects_missing_field():
    with pytest.raises(ParseError, match="ridges"):
        loads('{"version": 1, "vertices": [], "cells": []}')


def test_loads_rejects_bad_ridge_geometry():
    base = '{"version": 1, "vertices": [[0,0],[1,1]], "cells": [], "ridges": [%s]}'
    with pytest.raises(ParseError, match="exactly one of"):
        loads(base % '{"cells": [0, 1]}')
    with pytest.raises(ParseError, match="unit length"):
        loads(base % '{"cells": [0, 1], "ray": {"v": 0, "dir": [3, 4]}}')
    # off unit by more than geom.UNIT_TOL allows
    with pytest.raises(ParseError, match="unit length"):
        loads(base % '{"cells": [0, 1], "ray": {"v": 0, "dir": [1.0000000001, 0]}}')


def test_loads_rejects_generator_count_mismatch(diamond):
    t, _ = diamond
    text = dumps(t, GroundTruth((Point2(0.0, 0.0),)))
    with pytest.raises(ParseError, match="generators"):
        loads(text)


def test_loads_rejects_non_finite_coordinates():
    with pytest.raises(ParseError):
        loads('{"version": 1, "vertices": [[NaN, 0]], "ridges": [], "cells": []}')


def test_program_never_builds_the_object_views():
    """The program reads the array storage. The Ridge/Cell views serve
    callers only; a stray ``len(t.cells)`` in program code would bring the
    object path back."""
    _, built_t, built_gt = forward.sample_and_build(200, 0)
    t, gt = loads(dumps(built_t, built_gt))
    assert validate(t) == []
    for method in METHODS:
        reconstruct(t, method, gt)
    dumps(t, gt)
    for made in (built_t, t):
        assert not {"vertices", "ridges", "cells"} & set(vars(made))


def test_bisector_lines_survive_round_trip(built):
    _, t, _ = built(50, 3)
    t2, _ = loads(dumps(t))
    for rid in range(len(t.ridges)):
        assert same_line(t.ridge_line(rid), t2.ridge_line(rid), tol=1e-12)
