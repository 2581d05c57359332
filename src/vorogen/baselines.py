"""Reference reconstructions used for benchmarking.

Two methods live here. The per-cell brute force repeats the full patch
solve with every eligible cell as its own anchor, keeping only that cell's
generator from each solve. The angle-rotation method recovers a generator
from cell geometry alone: at each corner the extension of the outer ridge
(the corner's ring ridge, ``RidgeArrays.ring``) into the cell, reflected
across the bisector of the cell's wedge there, is a ray through the
generator; pairwise ray intersections are averaged with sensitivity weights.

Both run as array passes over the whole diagram, cells grouped by the shape
of their work (patch degree, ray count), and give the bits a per-cell
loop gives: the stacked LAPACK and BLAS calls run the same routine on each
matrix, and sums are added column by column, left to right. The patches
are those of the anchor method's solve (``solver.patch_stacks``), and
``solver.solve_stack`` factors each once, by QR, whose R also gives its
rank; an SVD runs only on a patch that R cannot prove to be of full rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geom
from .anchor import eligible_cells
from .errors import NoEligibleAnchorError, UnderdeterminedError
from .geom import Point2
from .propagate import sweep
from .solver import assemble_patch, patch_stacks, solve_patch, solve_stack
from .tessellation import CellId, RidgeArrays, Tessellation, check_id, ranges, shared_corners, successors

# a zero-displacement (insensitive) pair gets at most this multiple of the
# mean inverse-displacement weight
ZERO_DELTA_WEIGHT_CAP = 10.0

# cells whose patches or rays are worked on at once, which bounds the
# temporaries whatever the diagram's size
_BLOCK = 512


@dataclass(frozen=True)
class CPrimeEstimate:
    """One cell's angle-rotation estimate with its audit trail.

    ``weights`` are nonnegative and sum to 1; ``estimate`` is the weighted
    mean of ``raw_intersections``.
    """

    cell: CellId
    ray_pairs_used: int
    raw_intersections: list[Point2]
    weights: list[float]
    estimate: Point2


# ------------------------------------------------------------- brute force


def brute_force_all(t: Tessellation) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell independent reconstruction: one full patch solve per cell.

    Every eligible cell anchors its own solve and contributes only its own
    generator. Ineligible cells (the hull's, and any other without the
    paper's patch) are then filled by the reflection sweep from the solved
    cells so the result covers all cells; filled cells inherit the residual
    of their source. Returns the (n, 2) generators and the (n,) residuals,
    indexed by cell.

    The patches are built ``_BLOCK`` cells at a time by ``solver.patch_stacks``
    and solved by ``solve_stack``, one stacked QR per cell degree. A patch
    that is singular or inconsistent is solved on its own by
    ``assemble_patch`` and ``solve_patch``, which raise the error of the
    lowest such cell.
    """
    cells = np.array(eligible_cells(t), np.intp)
    if not len(cells):
        raise NoEligibleAnchorError(
            "no anchor-eligible cell; the per-cell brute force cannot start"
        )
    a = t.arrays
    xy = np.zeros((t.n_cells, 2))
    resid = np.zeros(t.n_cells)
    solved = np.zeros(t.n_cells, bool)
    for lo in range(0, len(cells), _BLOCK):
        for group, mat, rhs, _, _ in patch_stacks(a, cells[lo : lo + _BLOCK]):
            rank, z, residual, limit = solve_stack(mat, rhs)
            ok = (rank == mat.shape[2]) & ~(residual > limit)
            group = group[ok]
            xy[group], resid[group], solved[group] = z[ok, :2], residual[ok], True
    for c in cells[~solved[cells]].tolist():
        sol = solve_patch(assemble_patch(t, c))  # raises the loop's error
        xy[c] = sol.generators[0]
        resid[c] = sol.residual
    generators, trace = sweep(t, cells, xy[cells], origin="any solved cell")
    for nc, src in zip(trace.cells.tolist(), trace.sources.tolist()):
        resid[nc] = resid[src]
    return generators, resid


# ---------------------------------------------------------- angle rotation


def _closed(a: RidgeArrays) -> np.ndarray:
    """Cells flagged bounded that have no ray side."""
    rays = np.bincount(a.entry_cell, ~a.finite[a.cell_ridges], len(a.bounded))
    return a.bounded & (rays == 0)


def _generator_rays(a: RidgeArrays, cells: np.ndarray):
    """One generator-passing ray per usable corner of each of ``cells``.

    At a corner A the two cell sides span a wedge (< pi, the cell is convex)
    containing the extension of the outer ridge into the cell. As seen from
    A the sides bisect the angles (generator, neighbor generator) and the
    outer ridge bisects the two neighbors', so the generator direction is
    the outer extension reflected across the wedge bisector. With points as
    complex numbers and side directions s_a and s_b, the bisector's direction
    squared is s_a s_b, so that reflection is z -> s_a s_b conj(z).

    A corner is the vertex two consecutive sides share (``shared_corners``),
    and its outer ridge is the first side's ring ridge (``RidgeArrays.ring``).
    The corner is usable when that ridge exists and has a direction pointing
    into the wedge, and the sides' directions (``RidgeArrays.dirs``, none for
    a degenerate side) exist and are not parallel.
    Returns each ray's cell (an index into ``cells``), anchor and unit
    direction, ordered by cell and corner vertex id.
    """
    lo, hi = a.cell_start[cells], a.cell_start[cells + 1]
    start = np.concatenate(([0], np.cumsum(hi - lo)))
    entries = ranges(lo, hi)
    rids = a.cell_ridges[entries]
    corner, closes = shared_corners(a.ends, a.finite, start, rids)
    ring = a.ring[entries]
    row = np.repeat(np.arange(len(cells)), hi - lo)  # each entry's row in cells
    use = np.flatnonzero(closes & (ring >= 0))
    use = use[np.lexsort((corner[use], row[use]))]
    v = corner[use]
    a0 = a.vertices[v]
    # the sides from the corner: a ridge's direction, turned round where v is
    # its second end (0.0 - d keeps a zero +0.0, as the vertex difference has it)
    (sax, say), (sbx, sby) = (
        np.where((a.ends[rid, 0] == v)[:, None], a.dirs[rid], 0.0 - a.dirs[rid]).T
        for rid in (rids[use], rids[successors(start)[use]])
    )
    cross = sax * sby - say * sbx
    ok = np.abs(cross) > geom.PARALLEL_TOL  # False for a degenerate side's NaN
    swap = cross < 0.0
    sax, sbx = np.where(swap, sbx, sax), np.where(swap, sax, sbx)
    say, sby = np.where(swap, sby, say), np.where(swap, say, sby)
    ex, ey = geom.cmul(sax, say, sbx, sby)  # e = s_a s_b
    dx, dy = a.dirs[ring[use]].T  # NaN, pointing nowhere, for a degenerate ridge
    fwd = (sax * dy - say * dx > 0.0) & (dx * sby - dy * sbx > 0.0)
    back = (sax * -dy - say * -dx > 0.0) & (-dx * sby - -dy * sbx > 0.0)
    ix, iy = np.where(fwd, dx, -dx), np.where(fwd, dy, -dy)
    gx, gy, _ = geom.unit_vecs(*geom.mirror(ex, ey, ix, iy))  # e and the ridge are unit
    into = ok & (fwd | back)
    return row[use[into]], a0[into], np.stack((gx[into], gy[into]), axis=1)


def _pair_delta(a1: np.ndarray, d1: np.ndarray, a2: np.ndarray, d2: np.ndarray, p: np.ndarray):
    """(l1 + l2) / |sin theta| for rays (anchor a_i, direction d_i; rows of
    (N, 2) arrays) meeting at ``p`` at angle theta, l_i being p's distance
    from a_i: turning ray i by a small angle eps moves p by
    eps * l_i / |sin theta|."""
    sine = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    l1, l2 = (geom.hypot(*(p - a).T) for a in (a1, a2))
    return (l1 + l2) / np.abs(sine)


def _delta_weights(deltas: np.ndarray, use: np.ndarray) -> np.ndarray:
    """Each row's weights of the pairs where ``use``: inverse deltas summing
    to 1, a zero delta capped at 10x the mean of the row's others, uniform
    when every used pair has a zero delta."""
    zero = use & (deltas == 0.0)
    rest = use & ~zero
    raw = np.zeros_like(deltas)
    np.divide(1.0, deltas, out=raw, where=rest)
    if zero.any():
        others = rest.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            cap = np.where(others > 0, ZERO_DELTA_WEIGHT_CAP * (geom.row_sum(raw, rest) / others), 0.0)
        raw = np.where(zero, cap[:, None], raw)
    total = geom.row_sum(raw, use)
    with np.errstate(invalid="ignore", divide="ignore"):
        uniform = 1.0 / use.sum(axis=1)
        return np.where((total <= 0.0)[:, None], uniform[:, None], raw / total[:, None])


def _estimates(a: RidgeArrays, cells: np.ndarray):
    """The angle-rotation construction of ``cells`` (all closed).

    Returns each cell's ray count and, per group of cells with the same
    count m >= 2, (indices into ``cells``, intersections (g, P, 2), weights
    (g, P), used (g, P), estimates (g, 2)) over the P = m (m - 1) / 2 ray
    pairs i < j in loop order; a pair is used when its rays are not
    parallel. A cell with no used pair has no estimate.
    """
    owner, anchor, direction = _generator_rays(a, cells)
    n_rays = np.bincount(owner, minlength=len(cells))
    start = np.cumsum(n_rays) - n_rays
    groups = []
    for m in np.unique(n_rays[n_rays >= 2]).tolist():
        idx = np.flatnonzero(n_rays == m)
        i, j = np.triu_indices(m, 1)
        r1, r2 = start[idx, None] + i, start[idx, None] + j
        d1, d2 = direction[r1], direction[r2]
        sine = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
        used = np.abs(sine) > geom.PARALLEL_TOL
        a1, a2, d1, d2 = anchor[r1[used]], anchor[r2[used]], d1[used], d2[used]
        w = a2 - a1
        s = (w[:, 0] * d2[:, 1] - w[:, 1] * d2[:, 0]) / sine[used]
        p = np.full(used.shape + (2,), math.nan)
        p[used] = a1 + s[:, None] * d1
        deltas = np.zeros(used.shape)
        deltas[used] = _pair_delta(a1, d1, a2, d2, p[used])
        weights = _delta_weights(deltas, used)
        est = np.stack([geom.row_sum(weights * p[..., k], used) for k in (0, 1)], axis=1)
        groups.append((idx, p, weights, used, est))
    return n_rays, groups


def c_prime_cell(t: Tessellation, c: CellId) -> CPrimeEstimate:
    """Angle-rotation estimate of one bounded cell's generator.

    Generator rays from every usable corner are intersected pairwise; each
    pair is weighted by the inverse of its sensitivity to the ray directions,
    |sin theta| / (l1 + l2) (``_pair_delta``). Insensitive pairs (zero
    displacement) are capped at 10x the mean weight; when every pair is
    insensitive the weights are uniform. A cell with a ray side is unbounded
    whatever its flag says. This is ``c_prime_all``'s construction on one
    cell. Raises OutOfRangeIdError for a cell id that does not exist.
    """
    check_id(c, t.n_cells, "cell")
    a = t.arrays
    rids = a.cell_ridges[a.cell_start[c] : a.cell_start[c + 1]]
    if not a.bounded[c] or not a.finite[rids].all():
        raise UnderdeterminedError(
            f"cell {c} is unbounded; the angle construction needs a closed polygon"
        )
    n_rays, groups = _estimates(a, np.array([c]))
    if n_rays[0] < 2:
        raise UnderdeterminedError(
            f"cell {c} yields {n_rays[0]} generator rays; need at least 2"
        )
    ((_, p, weights, used, est),) = groups
    used = used[0]
    if not used.any():
        raise UnderdeterminedError(
            f"cell {c} has no two non-parallel generator rays"
        )
    return CPrimeEstimate(
        cell=c,
        ray_pairs_used=int(used.sum()),
        raw_intersections=list(map(Point2._make, p[0, used].tolist())),
        weights=weights[0, used].tolist(),
        estimate=Point2._make(est[0].tolist()),
    )


def c_prime_all(t: Tessellation) -> np.ndarray:
    """Angle-rotation estimates for every cell, as an (n, 2) array.

    Bounded cells get their own construction; unbounded ones (and any cell
    where the construction is underdetermined) are filled by the reflection
    sweep from the estimated cells, as in the brute force.
    """
    a = t.arrays
    closed = np.flatnonzero(_closed(a))
    xy = np.zeros((t.n_cells, 2))
    done = np.zeros(t.n_cells, bool)
    for lo in range(0, len(closed), _BLOCK):
        cells = closed[lo : lo + _BLOCK]
        for idx, _, _, used, est in _estimates(a, cells)[1]:
            ok = used.any(axis=1)
            xy[cells[idx[ok]]] = est[ok]
            done[cells[idx[ok]]] = True
    if not done.any():
        raise UnderdeterminedError("no cell admits the angle construction")
    ids = np.flatnonzero(done)
    return sweep(t, ids, xy[ids], origin="any estimated cell")[0]
