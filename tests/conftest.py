"""Shared fixtures: hand-built tessellations and a cached forward builder."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from vorogen.forward import sample_and_build
from vorogen.geom import UnitVec2
from vorogen.tessellation import Cell, GroundTruth, Point2, Ridge, Tessellation

# Hand-computed 5-site fixture. Sites (0,0),(2,0),(0,2),(2,2) and (1,1); the
# center cell is the diamond with vertices (1,0),(2,1),(1,2),(0,1) whose four
# ridges lie on x+y=1, x-y=1, y-x=1, x+y=3. All ridge lines were derived as
# perpendicular bisectors by hand, independent of the forward builder.
DIAMOND_SITES = ((0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0), (1.0, 1.0))
DIAMOND_CENTER = 4
DIAMOND_VERTICES = ((1.0, 0.0), (2.0, 1.0), (1.0, 2.0), (0.0, 1.0))


def make_diamond(offset_cells: int = 0, offset_vertices: int = 0, dx: float = 0.0):
    """Ridges/cells of the diamond, optionally shifted for multi-component fixtures."""
    oc, ov = offset_cells, offset_vertices
    ridges = [
        Ridge(cells=(0 + oc, 4 + oc), v0=0 + ov, v1=3 + ov),              # x+y=1
        Ridge(cells=(1 + oc, 4 + oc), v0=0 + ov, v1=1 + ov),              # x-y=1
        Ridge(cells=(2 + oc, 4 + oc), v0=2 + ov, v1=3 + ov),              # y-x=1
        Ridge(cells=(3 + oc, 4 + oc), v0=1 + ov, v1=2 + ov),              # x+y=3
        Ridge(cells=(0 + oc, 1 + oc), v0=0 + ov, ray_dir=UnitVec2(0.0, -1.0)),
        Ridge(cells=(1 + oc, 3 + oc), v0=1 + ov, ray_dir=UnitVec2(1.0, 0.0)),
        Ridge(cells=(2 + oc, 3 + oc), v0=2 + ov, ray_dir=UnitVec2(0.0, 1.0)),
        Ridge(cells=(0 + oc, 2 + oc), v0=3 + ov, ray_dir=UnitVec2(-1.0, 0.0)),
    ]
    ro = 8 * (oc // 5)  # ridge id offset when stacking copies
    cells = [
        Cell(ridges=(4 + ro, 0 + ro, 7 + ro), bounded=False),
        Cell(ridges=(5 + ro, 1 + ro, 4 + ro), bounded=False),
        Cell(ridges=(7 + ro, 2 + ro, 6 + ro), bounded=False),
        Cell(ridges=(6 + ro, 3 + ro, 5 + ro), bounded=False),
        Cell(ridges=(1 + ro, 3 + ro, 2 + ro, 0 + ro), bounded=True),
    ]
    vertices = [(x + dx, y) for x, y in DIAMOND_VERTICES]
    sites = [(x + dx, y) for x, y in DIAMOND_SITES]
    return vertices, ridges, cells, sites


@pytest.fixture(scope="session")
def diamond():
    vertices, ridges, cells, sites = make_diamond()
    t = Tessellation(vertices, ridges, cells)
    gt = GroundTruth(tuple(Point2(*s) for s in sites))
    return t, gt


@pytest.fixture(scope="session")
def two_diamonds():
    """Two exact copies 8 units apart: a disconnected adjacency graph with two
    geometrically identical eligible cells (ids 4 and 9)."""
    v1, r1, c1, s1 = make_diamond()
    v2, r2, c2, s2 = make_diamond(offset_cells=5, offset_vertices=4, dx=8.0)
    t = Tessellation(v1 + v2, r1 + r2, c1 + c2)
    gt = GroundTruth(tuple(Point2(*s) for s in s1 + s2))
    return t, gt


@pytest.fixture()
def diamond_missing_ring():
    """Diamond without the ray between cells 1 and 3: the (1,3) ring pair is gone."""
    vertices, ridges, cells, sites = make_diamond()
    del ridges[5]

    def fix(rids):
        return tuple(r - 1 if r > 5 else r for r in rids if r != 5)

    cells = [Cell(ridges=fix(c.ridges), bounded=c.bounded) for c in cells]
    t = Tessellation(vertices, ridges, cells)
    return t, GroundTruth(tuple(Point2(*s) for s in sites))


def pytest_collection_modifyitems(config, items):
    """Tests marked ``slow`` run only when VOROGEN_SLOW=1 is set."""
    if os.environ.get("VOROGEN_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="slow; set VOROGEN_SLOW=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


_BUILD_CACHE: dict = {}


@pytest.fixture(scope="session")
def built():
    """Cached forward builds: built(n, seed) -> (SiteSample, Tessellation, GroundTruth)."""

    def _get(n: int, seed: int):
        key = (n, seed)
        if key not in _BUILD_CACHE:
            _BUILD_CACHE[key] = sample_and_build(n, seed)
        return _BUILD_CACHE[key]

    return _get
