"""Anchor eligibility, scoring and selection."""

from __future__ import annotations

import pytest

from vorogen.anchor import eligible_cells, score_cell, select_anchor
from vorogen.errors import NoEligibleAnchorError
from vorogen.forward import SiteSample, build_voronoi
from vorogen.geom import Point2
from vorogen.pipeline import reconstruct
from vorogen.tessellation import Cell, Ridge, Tessellation

from conftest import DIAMOND_CENTER, make_diamond
from helpers import relabel_cells, score_cell_reference


def test_diamond_center_is_eligible(diamond):
    t, _ = diamond
    s = score_cell(t, DIAMOND_CENTER)
    assert s.eligible
    assert s.degree == 4
    assert s.min_edge_ratio == pytest.approx(1.0)


def test_diamond_corner_is_ineligible(diamond):
    t, _ = diamond
    for c in range(4):
        assert not score_cell(t, c).eligible


def test_diamond_selects_center(diamond):
    t, _ = diamond
    assert eligible_cells(t) == [DIAMOND_CENTER]
    assert select_anchor(t) == DIAMOND_CENTER


def test_all_parallel_bounded_cell_is_ineligible():
    # two parallel segments marked as a "bounded" cell: nothing pins translation
    vertices = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    ridges = [
        Ridge(cells=(0, 1), v0=0, v1=1),
        Ridge(cells=(0, 2), v0=2, v1=3),
    ]
    cells = [
        Cell(ridges=(0, 1), bounded=True),
        Cell(ridges=(0,), bounded=False),
        Cell(ridges=(1,), bounded=False),
    ]
    t = Tessellation(vertices, ridges, cells)
    assert not score_cell(t, 0).eligible


def test_two_site_diagram_has_no_anchor():
    t, _ = build_voronoi(SiteSample((Point2(0.0, 0.0), Point2(2.0, 0.0)), 2.0, None))
    assert eligible_cells(t) == []
    with pytest.raises(NoEligibleAnchorError):
        select_anchor(t)


def test_eligible_cells_sorted_and_bounded(built):
    _, t, _ = built(100, 1)
    elig = eligible_cells(t)
    assert elig == sorted(elig)
    assert elig, "a 100-cell sample always has interior cells"
    for c in elig:
        s = score_cell(t, c)
        assert s.eligible
        assert t.cells[c].bounded


def test_selected_anchor_is_eligible(built):
    _, t, _ = built(100, 1)
    assert score_cell(t, select_anchor(t)).eligible


def test_best_score_maximizes_edge_ratio(built):
    """The anchor is the lowest-id eligible cell of largest edge ratio."""
    for n, seed in ((100, 1), (300, 5)):
        _, t, _ = built(n, seed)
        ratios = {c: score_cell(t, c).min_edge_ratio for c in eligible_cells(t)}
        best = max(ratios.values())
        assert select_anchor(t) == min(c for c, r in ratios.items() if r == best)


def test_exact_tie_breaks_to_lowest_cell_id(two_diamonds):
    # the two components are exact translated copies: identical edge ratios
    t, _ = two_diamonds
    s1 = score_cell(t, 4)
    s2 = score_cell(t, 9)
    assert s1.eligible and s2.eligible
    assert s1.min_edge_ratio == s2.min_edge_ratio
    assert select_anchor(t) == 4


def test_best_score_is_permutation_stable(built):
    _, t, gt = built(60, 4)
    best = select_anchor(t)
    n = len(t.cells)
    perm = [(i * 37 + 11) % n for i in range(n)]  # 37 coprime to 60: a bijection
    assert sorted(perm) == list(range(n))
    t2, _ = relabel_cells(t, perm, gt)
    assert select_anchor(t2) == perm[best]


def test_scores_match_loop_reference(diamond, two_diamonds, diamond_missing_ring, built):
    """Every field of every cell's score equals the per-cell loop's, bit for bit."""
    vertices, ridges, cells, _ = make_diamond()
    ridges[0] = Ridge(cells=(0, 4), v0=0, v1=0)  # zero-length ridge
    collapsed = Tessellation(vertices, ridges, cells)
    parallel = Tessellation(
        [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)],
        [Ridge(cells=(0, 1), v0=0, v1=1), Ridge(cells=(0, 2), v0=2, v1=3)],
        [Cell(ridges=(0, 1), bounded=True), Cell(ridges=(0,), bounded=False),
         Cell(ridges=(1,), bounded=False)],
    )
    # |sin| of these two perpendicular ridges rounds to 1 + 2**-52
    perpendicular = Tessellation(
        [(0.0, 0.0), (1.0, 5.0), (-5.0, 1.0)],
        [Ridge(cells=(0, 1), v0=0, v1=1), Ridge(cells=(0, 2), v0=0, v1=2)],
        [Cell(ridges=(0, 1), bounded=True), Cell(ridges=(0,), bounded=False),
         Cell(ridges=(1,), bounded=False)],
    )
    two_sites, _ = build_voronoi(SiteSample((Point2(0.0, 0.0), Point2(2.0, 0.0)), 2.0, None))
    vertices, ridges, cells, _ = make_diamond()
    no_ridges = Tessellation(vertices, ridges, [*cells, Cell(ridges=(), bounded=True)])
    cases = [diamond[0], two_diamonds[0], diamond_missing_ring[0], collapsed, parallel,
             perpendicular, two_sites, no_ridges, _self_ridge_diamond(), built(300, 5)[1]]
    for t in cases:
        for c in range(len(t.cells)):
            s = score_cell(t, c)
            got = (s.eligible, s.degree, s.min_edge_ratio)
            assert got == score_cell_reference(t, c), c


def _self_ridge_diamond() -> Tessellation:
    """The diamond whose center lists a ridge joining it to itself, in place
    of its ridge to corner cell 0, which no longer lists that ridge."""
    vertices, ridges, cells, _ = make_diamond()
    ridges[0] = Ridge(cells=(4, 4), v0=0, v1=3)
    cells[0] = Cell(ridges=(4, 7), bounded=False)
    return Tessellation(vertices, ridges, cells)


def test_a_cell_that_neighbours_itself_anchors_nothing():
    """Every ring ridge of the self-ridge diamond's center exists, but its
    neighbours are not distinct cells, so it has no patch to solve."""
    t = _self_ridge_diamond()
    assert (t.arrays.ring[t.arrays.entry_cell == DIAMOND_CENTER] >= 0).all()
    assert not score_cell(t, DIAMOND_CENTER).eligible
    with pytest.raises(NoEligibleAnchorError):
        reconstruct(t, "anchor")
