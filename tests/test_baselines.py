"""Per-cell brute force and the angle-rotation construction.

The diamond pins both methods exactly: the center cell is the only
eligible anchor for the brute force, and its four vertex rays all pass
through (1, 1) for the angle construction. Both methods run as array
passes; the per-cell loops in ``helpers`` are their bit-for-bit references.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import (
    NoIntersectionError,
    brute_force_reference,
    c_prime_all_reference,
    c_prime_cell_reference,
    generator_rays_reference,
    intersect_lines,
    max_cell_error,
    pair_delta_reference,
)
from vorogen.anchor import eligible_cells, score_cell, select_anchor
from vorogen.baselines import (
    _delta_weights,
    _pair_delta,
    brute_force_all,
    c_prime_all,
    c_prime_cell,
)
from vorogen.errors import (
    InconsistentSystemError,
    NoEligibleAnchorError,
    UnderdeterminedError,
    VorogenError,
)
from vorogen.forward import SiteSample, build_voronoi, sample_and_build
from vorogen.geom import Point2, unit_vec
from vorogen.pipeline import reconstruct
from vorogen.propagate import reconstruct_all
from vorogen.solver import assemble_patch, solve_patch
from vorogen.tessellation import Cell, Ridge, Tessellation, validate


# ------------------------------------------------------------- brute force


def test_brute_force_diamond(diamond):
    t, gt = diamond
    gens, resid = brute_force_all(t)
    assert gens.shape == (5, 2) and resid.shape == (5,)
    assert max_cell_error(gens, gt) < 1e-10
    assert resid[4] < 1e-12
    # hull cells are filled by reflection and inherit the source residual
    for c in (0, 1, 2, 3):
        assert resid[c] == resid[4]


def test_brute_force_matches_ground_truth(built):
    _, t, gt = built(120, 3)
    gens, resid = brute_force_all(t)
    assert gens.shape == (120, 2)
    assert max_cell_error(gens, gt) < 1e-9
    assert (resid < 1e-9).all()


def test_brute_force_matches_single_anchor_sweep(built):
    _, t, _ = built(200, 1)
    sol = solve_patch(assemble_patch(t, select_anchor(t)))
    swept, _ = reconstruct_all(t, sol)
    diff = max(map(math.hypot, *(brute_force_all(t)[0] - swept).T.tolist()))
    assert diff < 1e-8


def test_brute_force_is_deterministic(built):
    _, t, _ = built(80, 5)
    assert _equal(brute_force_all(t), brute_force_all(t))


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
        rays = generator_rays_reference(t, c)
        for i in range(len(rays)):
            for j in range(i + 1, len(rays)):
                try:
                    p = intersect_lines(rays[i], rays[j])
                except NoIntersectionError:
                    continue
                r1, r2 = rays[i], rays[j]
                rows = (np.array([v]) for v in (r1.anchor, r1.dir, r2.anchor, r2.dir, p))
                got = _pair_delta(*rows)[0]
                assert got == pytest.approx(pair_delta_reference(r1, r2, p), rel=1e-5)
                pairs += 1
    assert pairs >= 100


def test_insensitive_pairs_give_uniform_weights():
    deltas = np.zeros((1, 4))
    assert _delta_weights(deltas, deltas == 0.0).tolist() == [[0.25, 0.25, 0.25, 0.25]]


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
    assert max_cell_error(c_prime_all(mislabelled), gt) < 1e-6


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
    assert out.shape == (5, 2)
    # unbounded corners are filled by reflecting the center estimate
    assert max_cell_error(out, gt) < 1e-8


def test_c_prime_all_accuracy_on_built(built):
    _, t, gt = built(100, 2)
    out = c_prime_all(t)
    assert out.shape == (100, 2)
    assert max_cell_error(out, gt) < 1e-6


# ------------------------------------------------ parity with the cell loops


def _equal(got, ref) -> bool:
    """Arrays, or tuples of arrays, equal entry for entry."""
    if isinstance(got, np.ndarray):
        got, ref = (got,), (ref,)
    return len(got) == len(ref) and all(map(np.array_equal, got, ref))


def _outcome(fn, *args):
    """``fn``'s result, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except VorogenError as exc:
        return type(exc), str(exc)


PARITY = [(n, seed) for n in (200, 2000) for seed in range(3)]


@pytest.mark.parametrize("n,seed", PARITY)
def test_brute_force_matches_the_cell_loop(built, n, seed):
    """Generators and residuals equal the one-patch-at-a-time loop's bit for bit."""
    _, t, _ = built(n, seed)
    assert _equal(brute_force_all(t), brute_force_reference(t))


@pytest.mark.parametrize("n,seed", PARITY)
def test_c_prime_matches_the_cell_loop(built, n, seed):
    """Every cell's rays, pairs, intersections, weights and estimate, and
    every error, equal the per-cell loop's bit for bit."""
    _, t, _ = built(n, seed)
    for c in range(t.n_cells):
        assert _outcome(c_prime_cell, t, c) == _outcome(c_prime_cell_reference, t, c)
    assert _equal(c_prime_all(t), c_prime_all_reference(t))


def test_both_methods_match_the_cell_loops_on_the_diamond(diamond, diamond_missing_ring):
    """Also on the diamond whose centre has a corner with no ring ridge:
    that corner gives no ray, and the brute force refuses the diagram."""
    for t, _ in (diamond, diamond_missing_ring):
        assert _equal(_outcome(brute_force_all, t), _outcome(brute_force_reference, t))
        assert _equal(_outcome(c_prime_all, t), _outcome(c_prime_all_reference, t))
        for c in range(t.n_cells):
            assert _outcome(c_prime_cell, t, c) == _outcome(c_prime_cell_reference, t, c)


def _with(t: Tessellation, xy=None, ends=None) -> Tessellation:
    """``t``'s arrays through ``from_arrays``, with the vertices or ridge ends replaced."""
    return Tessellation.from_arrays(
        t._xy if xy is None else xy, t._cells, t._ends if ends is None else ends,
        t._finite, t._rays, t._cell_start, t._cell_ridges, t._bounded,
    )


def test_a_ray_second_end_means_nothing(built):
    """Rays that also list a second end, here their own first, are the same
    rays: every reader takes ray-ness from ``finite``, so ``validate`` finds
    nothing and each method returns the clean diagram's bits (reading the
    second end once made ``refine_all`` weigh those rays inf / inf)."""
    _, t, _ = built(300, 0)
    ends = t._ends.copy()
    ends[~t._finite, 1] = ends[~t._finite, 0]
    stray = _with(t, ends=ends)
    assert validate(stray) == []
    for method in ("anchor", "brute", "cprime"):
        got, want = reconstruct(stray, method), reconstruct(t, method)
        assert got.generators.tobytes() == want.generators.tobytes(), method
        assert (got.anchor, got.refine_iterations) == (want.anchor, want.refine_iterations)


def test_a_degenerate_side_gives_no_ray(built):
    """A closed cell's side shortened below the degeneracy threshold has no
    direction, so its corners give no ray, as a degenerate outer ridge
    gives none; every cell and ``c_prime_all`` still match the loops."""
    _, t, _ = built(200, 1)
    k = int(np.flatnonzero((np.sort(t._cells, axis=1) == (41, 45)).all(axis=1))[0])
    assert t._bounded[[41, 45]].all() and t._finite[k]
    xy = t._xy.copy()
    v0, v1 = t._ends[k]
    xy[v1] = xy[v0] + (1e-13, 0.0)
    short = _with(t, xy=xy)
    assert short.arrays.degenerate[k]
    for c in range(short.n_cells):
        assert _outcome(c_prime_cell, short, c) == _outcome(c_prime_cell_reference, short, c)
    assert _equal(c_prime_all(short), c_prime_all_reference(short))


def _scaled(t: Tessellation, k: int) -> Tessellation:
    """``t`` with every vertex times 2**k; ray directions keep their bits."""
    return Tessellation.from_arrays(
        t._xy * 2.0**k, t._cells, t._ends, t._finite, t._rays, t._cell_start, t._cell_ridges, t._bounded
    )


# (x, y) -> (sign x', sign y') with (x', y') = (x, y)[perm]: each rounds nothing
_TURNS = {
    "quarter turn": ([1, 0], [-1.0, 1.0]),
    "half turn": ([0, 1], [-1.0, -1.0]),
    "axis swap": ([1, 0], [1.0, 1.0]),
}


def _turned(t: Tessellation, name: str) -> Tessellation:
    """``t`` with every vertex and ray direction mapped by ``_TURNS[name]``,
    bits kept; the swap flips orientation, so it reverses each cell's ridges."""
    perm, sign = _TURNS[name]
    start, ridges = t._cell_start, t._cell_ridges
    if name == "axis swap":
        owner = np.repeat(np.arange(len(start) - 1), np.diff(start))
        ridges = ridges[start[owner] + start[owner + 1] - 1 - np.arange(len(ridges))]
    return Tessellation.from_arrays(
        t._xy[:, perm] * sign, t._cells, t._ends, t._finite, t._rays[:, perm] * sign, start, ridges, t._bounded
    )


@pytest.mark.parametrize("n,seed", [(300, 0), (300, 1), (300, 2), (2000, 1)])
def test_power_of_two_scaling_scales_every_method_exactly(built, n, seed):
    """Scaling the vertices by 2**k rounds nothing, and every tolerance is
    relative, so each method's generators scale by 2**k bit for bit, with
    the same anchor and refinement count. Under a half turn every method,
    and under a quarter turn or an axis swap ``cprime``, keeps its bits
    too; ``anchor`` and ``brute`` then keep their anchor and refinement
    count and move by at most 1e-12 (7.7e-14 measured)."""
    _, t, _ = built(n, seed)
    for method in ("anchor", "brute", "cprime"):
        base = reconstruct(t, method)
        for k in (-20, 7):
            got = reconstruct(_scaled(t, k), method)
            assert got.generators.tobytes() == (base.generators * 2.0**k).tobytes(), (method, k)
            assert (got.anchor, got.refine_iterations) == (base.anchor, base.refine_iterations)
        for name, (perm, sign) in _TURNS.items():
            got = reconstruct(_turned(t, name), method)
            want = base.generators[:, perm] * sign
            assert (got.anchor, got.refine_iterations) == (base.anchor, base.refine_iterations), name
            if method == "cprime" or name == "half turn":
                assert got.generators.tobytes() == want.tobytes(), (method, name)
            else:
                assert max(map(math.hypot, *(got.generators - want).T.tolist())) <= 1e-12, (method, name)


def _moved_vertex(t, v: int, to) -> Tessellation:
    vertices = list(t.vertices)
    vertices[v] = Point2(*to)
    return Tessellation(vertices, list(t.ridges), list(t.cells))


@pytest.mark.parametrize("how", ["shifted", "collapsed"])
def test_brute_force_raises_the_loop_error_of_the_lowest_cell(built, how):
    """Shifting a vertex makes the patches around it inconsistent (six
    cells here); moving the far end of the lowest eligible cell's first
    ring ridge onto that cell's corner makes the ridge degenerate, so that
    cell is no longer eligible and a patch that reads a moved ridge fails
    instead. Either way the error is the loop's for the lowest failing
    cell, type and message."""
    _, t, _ = built(200, 1)
    a = t.arrays
    if how == "shifted":
        cell = int(np.flatnonzero(a.bounded)[len(a.bounded) // 2])
        v = int(a.ends[a.cell_ridges[a.cell_start[cell]], 0])
        to, error = (t.vertices[v].x + 0.05, t.vertices[v].y - 0.03), InconsistentSystemError
    else:
        cell = eligible_cells(t)[0]
        lo, hi = a.cell_start[cell], a.cell_start[cell + 1]
        ring = a.ring[lo:hi]
        ends = a.ends[ring[ring >= 0][0]].tolist()
        corners = set(a.ends[a.cell_ridges[lo:hi]].ravel().tolist())
        (v,), (w,) = [u for u in ends if u not in corners], [u for u in ends if u in corners]
        to, error = t.vertices[w], InconsistentSystemError
    broken = _moved_vertex(t, v, to)
    if how == "collapsed":
        assert not score_cell(broken, cell).eligible
    expected = _outcome(brute_force_reference, broken)
    assert expected[0] is error, expected
    assert _outcome(brute_force_all, broken) == expected


@pytest.mark.slow
@pytest.mark.parametrize("method", ["brute", "cprime"])
def test_reference_methods_at_1e4(method):
    """Both reference methods finish at the paper's size and meet criterion
    08's bound on the worst generator error."""
    _, t, gt = sample_and_build(10_000, 0)
    rep = reconstruct(t, method, gt)
    assert rep.max_rse < 1e-6, f"{method}: {rep.max_rse:.3e}"
