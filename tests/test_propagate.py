"""Layered reflection sweep from the solved patch to every cell.

Exactness of single reflections is pinned on the diamond; the sweep
invariants (layer ordering, counts, independence of the patch) run on
forward builds where the ground truth is known.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vorogen
from helpers import hypot, max_cell_error, reflect_point, reflect_step, rmse, sweep_reference
from vorogen.anchor import eligible_cells, select_anchor
from vorogen.errors import DegenerateRidgeError, OutOfRangeIdError, UnreachableCellsError
from vorogen.forward import sample_and_build
from vorogen.geom import Point2
from vorogen.pipeline import reconstruct
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
            length = hypot(p1.x - p0.x, p1.y - p0.y)
            mid = (0.5 * (p0.x + p1.x), 0.5 * (p0.y + p1.y))
            w = length / (length + hypot(warm[a].x - mid[0], warm[a].y - mid[1]))
        total += (w * hypot(known[b].x - img.x, known[b].y - img.y)) ** 2
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


def test_refinement_rerun_from_its_own_output_stops_at_the_floor(built):
    """Started from its own output, the refinement stops within 3 steps and
    moves no coordinate by more than 3e-14 (at most 3 steps and 1.1e-14
    measured over seeds 0-9). Rounding the output to float64 lifts the
    weighted residual a few per cent above the floor, and the first steps
    win that back before a step gains less than ``REFINE_MIN_DROP``."""
    for seed in range(3):
        _, t, _ = built(1000, seed)
        first = reconstruct(t, "anchor").generators
        again, iterations = refine_all(t, first)
        assert 0 < iterations <= 3, seed
        assert np.abs(again - first).max() <= 3e-14, seed


def test_a_cell_whose_rows_all_weigh_zero_keeps_its_warm_start(built):
    """A closed cell shrunk to a point has only degenerate ridges, which
    weigh 0: its Jacobi scale is 0 (no division by zero) and it keeps its
    warm start bit for bit while its neighbors move."""
    _, t, gt = built(200, 1)
    c = 41
    assert t._bounded[c]
    rids = t._cell_ridges[t._cell_start[c]:t._cell_start[c + 1]]
    corners = np.unique(t._ends[rids])
    xy = t._xy.copy()
    xy[corners] = xy[corners].mean(axis=0)
    shrunk = Tessellation.from_arrays(
        xy, t._cells, t._ends, t._finite, t._rays, t._cell_start, t._cell_ridges, t._bounded
    )
    assert shrunk.arrays.degenerate[rids].all()
    warm = gt.generators + np.random.default_rng(0).normal(0.0, 1e-9, gt.generators.shape)
    refined, iterations = refine_all(shrunk, warm)
    assert iterations > 0
    assert refined[c].tobytes() == warm[c].tobytes()
    nbrs = np.unique(t._cells[rids])
    assert (refined[nbrs[nbrs != c]] != warm[nbrs[nbrs != c]]).all()


@pytest.mark.slow
@pytest.mark.parametrize("seed", [3595293276, 2586168000])
def test_refinement_reaches_the_floor_after_a_poor_sweep(seed):
    """The two worst anchor runs of the 1,000-run campaign at 10^4 (the
    seeds ``vorogen bench --ns 10000 --nsim 1000`` draws): sweeps with worst
    errors of 1.1e-8 and 2.7e-8 refine to 4.5e-14 and 5.1e-14, where a stop
    relative to the warm start left 1.7e-10 and 3.6e-11."""
    _, t, gt = sample_and_build(10_000, seed)
    assert reconstruct(t, "anchor", gt).max_rse <= 1e-13


BLAS_RUN = """
import hashlib
import numpy as np
from vorogen.forward import sample_and_build
from vorogen.propagate import refine_all
_, t, gt = sample_and_build(1000, 1)
warm = gt.generators + np.random.default_rng(0).normal(0.0, 1e-9, gt.generators.shape)
refined, iterations = refine_all(t, warm)
print(hashlib.sha256(refined.tobytes()).hexdigest(), iterations)
"""


def _on_openblas() -> bool:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not _on_openblas(), reason="numpy is not built on OpenBLAS")
def test_refinement_bits_do_not_depend_on_the_blas_kernel():
    """The refinement calls no BLAS: the same warm start gives the same
    bytes whichever kernel OpenBLAS picks for the CPU."""
    env = dict(os.environ, PYTHONPATH=str(Path(vorogen.__file__).resolve().parents[1]))
    env.pop("OPENBLAS_CORETYPE", None)
    outputs = []
    for core in (None, "Haswell"):
        run_env = env if core is None else dict(env, OPENBLAS_CORETYPE=core)
        run = subprocess.run([sys.executable, "-c", BLAS_RUN], capture_output=True, text=True, env=run_env)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
