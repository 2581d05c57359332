"""Per-cell brute force and the angle-rotation construction.

The diamond pins both methods exactly: the center cell is the only
eligible anchor for the brute force, and its four vertex rays all pass
through (1, 1) for the angle construction.
"""

from __future__ import annotations

import math

import pytest

from helpers import max_cell_error, pair_delta_reference
from vorogen.anchor import select_anchor
from vorogen.baselines import (
    _delta_weights,
    _generator_rays,
    _pair_delta,
    brute_force_all,
    c_prime_all,
    c_prime_cell,
)
from vorogen.errors import NoEligibleAnchorError, NoIntersectionError, UnderdeterminedError
from vorogen.forward import SiteSample, build_voronoi
from vorogen.geom import Point2, intersect_lines, unit_vec
from vorogen.propagate import reconstruct_all
from vorogen.solver import assemble_patch, solve_patch
from vorogen.tessellation import Cell, Ridge, Tessellation


# ------------------------------------------------------------- brute force


def test_brute_force_diamond(diamond):
    t, gt = diamond
    out = brute_force_all(t)
    assert [c for c, _, _ in out] == [0, 1, 2, 3, 4]
    gens = {c: p for c, p, _ in out}
    assert max_cell_error(gens, gt) < 1e-10
    resid = {c: r for c, _, r in out}
    assert resid[4] < 1e-12
    # hull cells are filled by reflection and inherit the source residual
    for c in (0, 1, 2, 3):
        assert resid[c] == resid[4]


def test_brute_force_matches_ground_truth(built):
    _, t, gt = built(120, 3)
    out = brute_force_all(t)
    assert [c for c, _, _ in out] == list(range(120))
    assert max_cell_error({c: p for c, p, _ in out}, gt) < 1e-9
    assert all(r < 1e-9 for _, _, r in out)


def test_brute_force_matches_single_anchor_sweep(built):
    _, t, _ = built(200, 1)
    sol = solve_patch(assemble_patch(t, select_anchor(t)))
    swept, _ = reconstruct_all(t, sol)
    diff = max(
        math.hypot(p.x - swept[c].x, p.y - swept[c].y)
        for c, p, _ in brute_force_all(t)
    )
    assert diff < 1e-8


def test_brute_force_is_deterministic(built):
    _, t, _ = built(80, 5)
    assert brute_force_all(t) == brute_force_all(t)


def test_brute_force_needs_an_eligible_cell():
    t, _ = build_voronoi(SiteSample((Point2(0.0, 0.0), Point2(2.0, 0.0)), 2.0, None))
    with pytest.raises(NoEligibleAnchorError):
        brute_force_all(t)


# ---------------------------------------------------------- angle rotation


def test_c_prime_diamond_center(diamond):
    t, _ = diamond
    est = c_prime_cell(t, 4)
    assert est.cell == 4
    # 4 vertex rays, all through the generator; the 2 opposite pairs are
    # parallel and are skipped
    assert est.ray_pairs_used == 4
    assert (est.estimate.x, est.estimate.y) == pytest.approx((1.0, 1.0), abs=1e-8)
    for p in est.raw_intersections:
        assert (p.x, p.y) == pytest.approx((1.0, 1.0), abs=1e-8)


def test_c_prime_weights_are_a_convex_combination(diamond):
    t, _ = diamond
    est = c_prime_cell(t, 4)
    assert len(est.weights) == est.ray_pairs_used == len(est.raw_intersections)
    assert all(w >= 0.0 for w in est.weights)
    assert sum(est.weights) == pytest.approx(1.0, abs=1e-12)
    ex = sum(w * p.x for w, p in zip(est.weights, est.raw_intersections))
    ey = sum(w * p.y for w, p in zip(est.weights, est.raw_intersections))
    assert est.estimate.x == pytest.approx(ex, abs=1e-12)
    assert est.estimate.y == pytest.approx(ey, abs=1e-12)


def test_pair_delta_matches_finite_differences(built):
    """The closed form equals the mean displacement of the intersection
    under +-1e-7 ray rotations, scaled by 2 / 1e-7, on every ray pair."""
    _, t, _ = built(200, 0)
    cells = [c for c in range(len(t.cells)) if t.cells[c].bounded][:8]
    pairs = 0
    for c in cells:
        rays = _generator_rays(t, c)
        for i in range(len(rays)):
            for j in range(i + 1, len(rays)):
                try:
                    p = intersect_lines(rays[i], rays[j])
                except NoIntersectionError:
                    continue
                got = _pair_delta(rays[i], rays[j], p)
                assert got == pytest.approx(pair_delta_reference(rays[i], rays[j], p), rel=1e-5)
                pairs += 1
    assert pairs >= 100


def test_insensitive_pairs_give_uniform_weights():
    assert _delta_weights([0.0] * 4) == [0.25, 0.25, 0.25, 0.25]


def test_c_prime_rejects_unbounded_cell(diamond):
    t, _ = diamond
    with pytest.raises(UnderdeterminedError, match="unbounded"):
        c_prime_cell(t, 0)


def test_c_prime_rejects_ray_cell_marked_bounded(built):
    """A hull cell flagged bounded by mistake is still refused, and the
    sweep fills it from the estimated cells."""
    _, t, gt = built(60, 3)
    c = next(i for i, cell in enumerate(t.cells) if not cell.bounded)
    cells = list(t.cells)
    cells[c] = Cell(ridges=cells[c].ridges, bounded=True)
    mislabelled = Tessellation(list(t.vertices), list(t.ridges), cells)
    with pytest.raises(UnderdeterminedError, match="unbounded"):
        c_prime_cell(mislabelled, c)
    out = c_prime_all(mislabelled)
    assert max_cell_error({k: p for k, p in out}, gt) < 1e-6


def test_c_prime_all_parallel_rays_underdetermined(diamond):
    """Outer rays tilted so every generator ray comes out parallel.

    Rotating the four outer rays by +-e in the right pattern puts all four
    generator rays at 3pi/4 +- e, so every pairwise |sin| is about 2e,
    below the parallel tolerance for e = 1e-11.
    """
    t, _ = diamond
    e = 1e-11
    angles = {
        4: 5.0 * math.pi / 4.0 + e,
        5: math.pi / 4.0 - e,
        6: math.pi / 4.0 + e,
        7: 5.0 * math.pi / 4.0 - e,
    }
    ridges = list(t.ridges)
    for rid, a in angles.items():
        r = ridges[rid]
        ridges[rid] = Ridge(
            cells=r.cells, v0=r.v0, ray_dir=unit_vec(math.cos(a), math.sin(a))
        )
    warped = Tessellation(list(t.vertices), ridges, list(t.cells))
    with pytest.raises(UnderdeterminedError, match="non-parallel"):
        c_prime_cell(warped, 4)


def test_c_prime_all_covers_every_cell(diamond):
    t, gt = diamond
    out = c_prime_all(t)
    assert [c for c, _ in out] == [0, 1, 2, 3, 4]
    # unbounded corners are filled by reflecting the center estimate
    assert max_cell_error({c: p for c, p in out}, gt) < 1e-8


def test_c_prime_all_accuracy_on_built(built):
    _, t, gt = built(100, 2)
    out = c_prime_all(t)
    assert [c for c, _ in out] == list(range(100))
    assert max_cell_error({c: p for c, p in out}, gt) < 1e-6
