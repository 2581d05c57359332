"""Layered reflection sweep from the solved patch to every cell.

Exactness of single reflections is pinned on the diamond; the sweep
invariants (layer ordering, counts, independence of the patch) run on
forward builds where the ground truth is known.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
import pytest

from helpers import max_cell_error, reflect_point, reflect_step, rmse, sweep_reference
from vorogen.anchor import eligible_cells, select_anchor
from vorogen.errors import DegenerateRidgeError, OutOfRangeIdError, UnreachableCellsError
from vorogen.geom import Point2
from vorogen.propagate import REFINE_MAX_ITER, reconstruct_all, refine_all, sweep
from vorogen.solver import assemble_patch, solve_patch
from vorogen.tessellation import Cell, Ridge, Tessellation


def _solve(t, anchor=None):
    if anchor is None:
        anchor = select_anchor(t)
    return solve_patch(assemble_patch(t, anchor))


# ------------------------------------------------------- single reflections


def test_sweep_reflects_across_diamond_ridges(diamond):
    t, _ = diamond
    # from the center cell: ridge 3 lies on x+y=3, ridge 0 on x+y=1
    known, _ = sweep(t, [4], [(1.0, 1.0)])
    assert known[3] == pytest.approx((2.0, 2.0), abs=1e-14)
    assert known[0] == pytest.approx((0.0, 0.0), abs=1e-14)
    # a point on ridge 1's line x-y=1 stays put in cell 1
    known, _ = sweep(t, [4], [(1.5, 0.5)])
    assert known[1] == pytest.approx((1.5, 0.5), abs=1e-14)


def test_sweep_across_degenerate_ridge_raises():
    t = Tessellation(
        [(0.0, 0.0), (0.0, 0.0)],
        [Ridge(cells=(0, 1), v0=0, v1=1)],
        [Cell(ridges=(0,), bounded=False), Cell(ridges=(0,), bounded=False)],
    )
    with pytest.raises(DegenerateRidgeError):
        sweep(t, [0], [(1.0, 1.0)])


@pytest.mark.parametrize(
    "ids,bad", [([-1], -1), ([-2], -2), ([200], 200), ([2**40], 2**31 - 1), ([0, -(2**40)], -(2**31))]
)
def test_sweep_refuses_ids_out_of_range(built, ids, bad):
    """A negative id does not count from the end, and a huge one is named
    by its int32 bound, as ``check_id`` words it."""
    t = built(200, 0)[1]
    with pytest.raises(OutOfRangeIdError, match=f"cell {bad} does not exist; there are 200 cells"):
        sweep(t, ids, np.zeros((len(ids), 2)))


@pytest.mark.parametrize("k", [0, 1, 3])
def test_sweep_needs_one_point_per_id(built, k):
    _, t, gt = built(200, 0)
    with pytest.raises(ValueError, match=f"{k} points for 2 cells"):
        sweep(t, [0, 1], gt.generators[:k])


@pytest.mark.parametrize("ids, bad", [([0, 0], 0), ([7, 5, 7, 5], 5), ([9, 2, 9, 9], 9)])
def test_sweep_refuses_a_repeated_id(built, ids, bad):
    """A repeated id is refused even when its points agree, before any reflection;
    the lowest repeated id is named."""
    _, t, gt = built(50, 0)
    for shift in (0.0, 1.0):
        points = gt.generators[ids] + shift * (np.arange(len(ids)) > 0)[:, None]
        with pytest.raises(ValueError, match=f"cell {bad} is given more than once"):
            sweep(t, ids, points)


# -------------------------------------------------------------- full sweep


def test_patch_already_covers_diamond(diamond):
    t, gt = diamond
    known, trace = reconstruct_all(t, _solve(t, 4))
    assert known.shape == (5, 2)
    assert trace.reflect_calls == len(trace.cells) == len(trace.sources) == len(trace.ridges) == 0
    assert trace.max_depth == 0
    assert trace.reflect_calls == 0
    assert max_cell_error(known, gt) < 1e-10


def test_sweep_recovers_all_generators(built):
    _, t, gt = built(100, 0)
    sol = _solve(t)
    known, trace = reconstruct_all(t, sol)
    assert known.shape == (100, 2)
    assert max_cell_error(known, gt) < 1e-9
    # one finalization per non-patch cell, each once
    assert len(trace.cells) == 100 - len(sol.generators)
    assert sorted([*trace.cells.tolist(), *sol.members]) == list(range(100))
    assert trace.depth.shape == (100,) and (trace.depth >= 0).all()


def test_trace_layer_invariants(built):
    _, t, _ = built(200, 3)
    sol = _solve(t)
    _, trace = reconstruct_all(t, sol)
    order = list(zip(trace.cells.tolist(), trace.sources.tolist(), trace.ridges.tolist()))
    pos = {cell: i for i, (cell, _, _) in enumerate(order)}
    for cell, src, rid in order:
        # finalized via a real shared ridge, strictly one layer in
        assert set(t.ridges[rid].cells) == {cell, src}
        assert trace.depth[src] == trace.depth[cell] - 1
        if src in pos:
            assert pos[src] < pos[cell]
    # no empty layers
    assert sorted(set(trace.depth.tolist())) == list(range(trace.max_depth + 1))
    assert 0.0 < trace.depth.mean() <= trace.max_depth


def test_reflect_call_counts(built):
    _, t, _ = built(150, 2)
    sol = _solve(t)
    _, trace = reconstruct_all(t, sol)
    assert trace.reflect_calls == len(trace.cells) == len(t.cells) - len(sol.generators)


def test_policies_agree_on_exact_input(built):
    """Sweeps from the default anchor's patch and from the patch of an
    eligible cell drawn by a seed agree."""
    _, t, gt = built(200, 7)
    elig = eligible_cells(t)
    drawn = elig[int(np.random.default_rng(7).integers(len(elig)))]
    runs = [
        reconstruct_all(t, _solve(t))[0],
        reconstruct_all(t, _solve(t, drawn))[0],
    ]
    for known in runs:
        assert max_cell_error(known, gt) < 1e-9
    for a in runs:
        for b in runs:
            diff = max(map(math.hypot, *(a - b).T.tolist()))
            assert diff < 1e-8


def test_sweep_matches_loop_reference(built):
    """Generators and trace equal the one-cell-at-a-time loop's, bit for bit,
    from a solved patch and from scattered known cells."""
    _, t, gt = built(300, 6)
    anchor = select_anchor(t)
    for seeds in (assemble_patch(t, anchor).members, (0, 7, 150, 299)):
        known = gt.generators[list(seeds)]
        got, trace = sweep(t, seeds, known)
        ref, order, depth, calls = sweep_reference(t, seeds, known)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.stack((trace.cells, trace.sources, trace.ridges), axis=1), order)
        assert np.array_equal(trace.depth, depth)
        assert trace.reflect_calls == calls


def test_sweep_beats_the_reflect_point_loop(built):
    """From the true patch generators, the mirror map R g + b loses less than
    reflecting through the foot point on the ridge's first vertex."""
    for seed in range(5):
        _, t, gt = built(1000, seed)
        members = assemble_patch(t, select_anchor(t)).members
        known = gt.generators[list(members)]
        got, _ = sweep(t, members, known)
        ref = sweep_reference(t, members, known, reflect_step)[0]
        assert rmse(got, gt) < rmse(ref, gt)


def test_disconnected_component_is_reported(two_diamonds):
    t, _ = two_diamonds
    with pytest.raises(UnreachableCellsError) as exc:
        reconstruct_all(t, _solve(t, 4))
    assert exc.value.cells == (5, 6, 7, 8, 9)
    assert "5 of 10" in str(exc.value)


def test_depth_grows_like_sqrt_n(built):
    """Quadrupling n should roughly double the sweep depth."""
    ratios = []
    for seed in range(10):
        depths = {}
        for n in (250, 1000):
            _, t, _ = built(n, 100 + seed)
            _, trace = reconstruct_all(t, _solve(t))
            depths[n] = trace.depth.mean()
        ratios.append(depths[1000] / depths[250])
    assert 1.4 <= statistics.median(ratios) <= 3.0


# -------------------------------------------------------------- refinement


def _weighted_mirror_residual(t, known, warm):
    """Loop reference: weighted norm of g_b - reflect(g_a) over every ridge,
    with finite ridges weighted L / (L + d) from the warm-start generators."""
    known, warm = ([Point2._make(p) for p in xy.tolist()] for xy in (known, warm))
    total = 0.0
    for rid, r in enumerate(t.ridges):
        a, b = r.cells
        img = reflect_point(known[a], t.ridge_line(rid))
        w = 1.0
        if r.is_finite:
            p0, p1 = t.vertices[r.v0], t.vertices[r.v1]
            length = math.hypot(p1.x - p0.x, p1.y - p0.y)
            mid = (0.5 * (p0.x + p1.x), 0.5 * (p0.y + p1.y))
            w = length / (length + math.hypot(warm[a].x - mid[0], warm[a].y - mid[1]))
        total += (w * math.hypot(known[b].x - img.x, known[b].y - img.y)) ** 2
    return math.sqrt(total)


def test_refinement_keeps_exact_input_and_lowers_mirror_residual(diamond, built):
    t, gt = diamond
    refined, _ = refine_all(t, gt.generators)
    assert max_cell_error(refined, gt) < 1e-12

    _, t, gt = built(1000, 0)
    swept, _ = reconstruct_all(t, _solve(t))
    refined, iterations = refine_all(t, swept)
    assert 0 < iterations <= REFINE_MAX_ITER
    assert refined.shape == swept.shape
    assert _weighted_mirror_residual(t, refined, swept) <= _weighted_mirror_residual(
        t, swept, swept
    )
    assert rmse(refined, gt) <= rmse(swept, gt)

