"""Reference reconstructions used for benchmarking.

Two methods live here. The per-cell brute force repeats the full patch
solve with every eligible cell as its own anchor, keeping only that cell's
generator from each solve. The angle-rotation method recovers a generator
from cell geometry alone: at each vertex the extension of the outer ridge
into the cell, reflected across the bisector of the cell's wedge at that
vertex, is a ray through the generator; pairwise ray intersections are
averaged with sensitivity weights.

Both run as array passes over the whole diagram, cells grouped by the shape
of their work (patch matrix shape, ray count), and give the bits a per-cell
loop gives: the stacked LAPACK and BLAS calls run the same routine on each
matrix, and sums are added column by column, left to right.
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
from .solver import (
    CONSISTENCY_REL_TOL,
    RANK_REL_TOL,
    assemble_patch,
    mirror_terms,
    solve_patch,
)
from .tessellation import CellId, RidgeArrays, Tessellation, ranges

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
    generator. Ineligible (hull) cells are then filled by the reflection
    sweep from the solved cells so the result covers all cells; filled cells
    inherit the residual of their source. Returns the (n, 2) generators and
    the (n,) residuals, indexed by cell.

    The patches are those of ``solver.assemble_patch``, built ``_BLOCK``
    cells at a time and solved as ``solver.solve_patch`` solves them, with
    one stacked call per matrix shape. A patch that is singular, inconsistent or has a
    degenerate ring ridge is solved on its own, which raises the error of
    the lowest such cell.
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
    _, e, b = mirror_terms(a, slice(None))
    for lo in range(0, len(cells), _BLOCK):
        for group, mat, rhs in _patch_stacks(a, cells[lo : lo + _BLOCK], e, b):
            if mat is not None:
                ok, z, residual = _solve_stack(mat, rhs)
                group = group[ok]
                xy[group], resid[group], solved[group] = z[:, :2], residual, True
    for c in cells[~solved[cells]].tolist():
        sol = solve_patch(assemble_patch(t, c))  # raises the loop's error
        xy[c] = sol.generators[c]
        resid[c] = sol.residual
    generators, trace = sweep(t, cells, xy[cells], origin="any solved cell")
    for nc, src in zip(trace.cells.tolist(), trace.sources.tolist()):
        resid[nc] = resid[src]
    return generators, resid


def _patch_stacks(a: RidgeArrays, cells: np.ndarray, e: np.ndarray, b: np.ndarray):
    """Yield (cells, matrices, right-hand sides), one stack per matrix shape,
    of the patches ``solver.assemble_patch`` builds around ``cells``: the
    same rows, in the same order, from the same entries e, b of
    ``mirror_terms`` over all ridges. Cells whose patch has a degenerate
    ring ridge, or fewer equations than unknowns, come as (cells, None,
    None)."""
    degree = np.diff(a.cell_start)[cells]
    for k in np.unique(degree).tolist():
        cs = cells[degree == k]
        entry = a.cell_start[cs, None] + np.arange(k)
        nb = a.cell_nbrs[entry]
        ring = a.ring[entry]
        has = ring >= 0
        # unknown j belongs to the j-th distinct cell of (anchor, *neighbours)
        cell_list = np.concatenate((cs[:, None], nb), axis=1)
        first = (cell_list[:, :, None] == cell_list[:, None, :]).argmax(axis=2)
        is_first = first == np.arange(k + 1)
        block = np.take_along_axis(np.cumsum(is_first, axis=1) - 1, first, axis=1)
        # ring rows run from each neighbour to the next, where a ridge joins them
        pick = np.argsort(~has, axis=1, kind="stable")
        ring_src = np.take_along_axis(block[:, 1:], pick, axis=1)
        ring_dst = np.take_along_axis(np.roll(block[:, 1:], -1, axis=1), pick, axis=1)
        ring = np.take_along_axis(ring, pick, axis=1)
        n_ring = has.sum(axis=1)
        members = is_first.sum(axis=1)
        bad = (a.degenerate[ring] & (np.arange(k) < n_ring[:, None])).any(axis=1)
        bad |= k + n_ring < members
        if bad.any():
            yield cs[bad], None, None
        shape = np.where(bad, -1, n_ring * (k + 2) + members)
        for key in np.unique(shape[~bad]).tolist():
            sel = np.flatnonzero(shape == key)
            r, c = divmod(key, k + 2)
            rids = np.concatenate((a.cell_ridges[entry[sel]], ring[sel, :r]), axis=1)
            src = 2 * np.concatenate((np.zeros((len(sel), k), np.intp), ring_src[sel, :r]), axis=1)
            dst = 2 * np.concatenate((block[sel, 1:], ring_dst[sel, :r]), axis=1)
            er, ei = e.real[rids], e.imag[rids]
            # g_dst - R g_src = b, R = [[Re e, Im e], [Im e, -Re e]]: two rows per ridge
            g = np.arange(len(sel))[:, None]
            row = 2 * np.arange(k + r)
            mat = np.zeros((len(sel), 2 * (k + r), 2 * c))
            mat[g, row, dst] = 1.0
            mat[g, row + 1, dst + 1] = 1.0
            mat[g, row, src] -= er
            mat[g, row, src + 1] -= ei
            mat[g, row + 1, src] -= ei
            mat[g, row + 1, src + 1] += er
            yield cs[sel], mat, b[rids].view(float)


def _solve_stack(mat: np.ndarray, rhs: np.ndarray):
    """``solver.solve_patch`` on each matrix of a stack: whether it solved,
    and the solutions and residuals of those that did."""
    n = mat.shape[2]
    svals = np.linalg.svd(mat, compute_uv=False)
    smax = svals[:, 0]
    rank = np.where(smax > 0.0, np.count_nonzero(svals > RANK_REL_TOL * smax[:, None], axis=1), 0)
    ok = rank == n
    if not ok.all():
        mat, rhs = mat[ok], rhs[ok]
    if not len(mat):
        return ok, np.empty((0, n)), np.empty(0)
    rhs = rhs[..., None]
    q, r = np.linalg.qr(mat)
    z = np.linalg.solve(r, np.swapaxes(q, 1, 2) @ rhs)
    # np.linalg.norm of a vector is the square root of its BLAS dot product
    res = mat @ z - rhs
    residual = np.sqrt((np.swapaxes(res, 1, 2) @ res)[:, 0, 0])
    bnorm = np.sqrt((np.swapaxes(rhs, 1, 2) @ rhs)[:, 0, 0])
    consistent = ~(residual > CONSISTENCY_REL_TOL * bnorm)
    ok[ok] = consistent
    return ok, z[consistent, :, 0], residual[consistent]


# ---------------------------------------------------------- angle rotation


def _closed(a: RidgeArrays) -> np.ndarray:
    """Cells flagged bounded that have no ray side."""
    rays = np.bincount(a.entry_cell, a.ends[a.cell_ridges, 1] < 0, len(a.bounded))
    return a.bounded & (rays == 0)


def _unit(x: np.ndarray, y: np.ndarray):
    """``geom.unit_vec`` of each (x, y): the direction, and whether it exists."""
    _, e = np.frexp(np.maximum(np.abs(x), np.abs(y)))
    sx, sy = np.ldexp(x, -e), np.ldexp(y, -e)
    n = np.fromiter(map(math.hypot, sx, sy), float, len(sx))
    ok = (n > 0.0) & np.isfinite(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        return sx / n, sy / n, ok


def _generator_rays(a: RidgeArrays, cells: np.ndarray):
    """One generator-passing ray per usable vertex of each of ``cells``.

    At a vertex A the two cell sides span a wedge (< pi, the cell is convex)
    containing the extension of the outer ridge into the cell. As seen from
    A the sides bisect the angles (generator, neighbor generator) and the
    outer ridge bisects the two neighbors', so the generator direction is
    the outer extension reflected across the wedge bisector. With points as
    complex numbers and side directions s_a and s_b, the bisector's direction
    squared is s_a s_b, so that reflection is z -> s_a s_b conj(z).

    A vertex is usable when exactly two of its ridges are the cell's sides,
    their directions exist and are not parallel, and some other ridge ends
    there; each such outer ridge with a direction pointing into the wedge
    gives a ray. Returns each ray's cell (an index into ``cells``), anchor
    and unit direction, ordered by cell, vertex id and outer ridge id.
    """
    nv, nr = len(a.vertices), len(a.cells)
    lo, hi = a.cell_start[cells], a.cell_start[cells + 1]
    row = np.repeat(np.arange(len(cells), dtype=np.int64), hi - lo)  # each entry's row in cells
    rids = a.cell_ridges[ranges(lo, hi)]
    # each cell's distinct vertices, ascending, and the ridges ending there
    ends = a.ends[rids].ravel()
    keep = ends >= 0
    corner = np.unique(np.repeat(row, 2)[keep] * nv + ends[keep])
    cell, v = np.divmod(corner, nv)
    deg = a.vertex_start[v + 1] - a.vertex_start[v]
    at = np.repeat(np.arange(len(corner)), deg)
    inc = a.vertex_ridges[ranges(a.vertex_start[v], a.vertex_start[v + 1])]
    own = np.unique(row * nr + rids)
    query = cell[at] * nr + inc
    side = own[np.minimum(np.searchsorted(own, query), len(own) - 1)] == query
    n_side = np.bincount(at[side], minlength=len(corner))
    use = np.flatnonzero((n_side == 2) & (deg > 2))
    # the two sides as unit vectors from the vertex
    first = (np.cumsum(n_side) - 2)[use]
    sides = inc[np.flatnonzero(side)]
    a0 = a.vertices[v[use]]
    s = []
    for rid in (sides[first], sides[first + 1]):
        v0, v1 = a.ends[rid].T
        w = a.vertices[np.where(v0 == v[use], v1, v0)]
        s.append(_unit(w[:, 0] - a0[:, 0], w[:, 1] - a0[:, 1]))
    (sax, say, ok_a), (sbx, sby, ok_b) = s
    with np.errstate(invalid="ignore"):
        cross = sax * sby - say * sbx
        ok = ok_a & ok_b & (np.abs(cross) > geom.PARALLEL_TOL)
    swap = cross < 0.0
    sax, sbx = np.where(swap, sbx, sax), np.where(swap, sax, sbx)
    say, sby = np.where(swap, sby, say), np.where(swap, say, sby)
    # e = s_a s_b, each real product rounded on its own
    ex = sax * sbx - say * sby
    ey = sax * sby + say * sbx
    # the outer ridges with a direction, at the usable vertices
    slot = np.full(len(corner), -1)
    slot[use[ok]] = np.flatnonzero(ok)
    outer = np.flatnonzero(~side & (slot[at] >= 0) & ~a.degenerate[inc])
    j, (dx, dy) = slot[at[outer]], a.dirs[inc[outer]].T
    sax, say, sbx, sby, ex, ey = sax[j], say[j], sbx[j], sby[j], ex[j], ey[j]
    fwd = (sax * dy - say * dx > 0.0) & (dx * sby - dy * sbx > 0.0)
    back = (sax * -dy - say * -dx > 0.0) & (-dx * sby - -dy * sbx > 0.0)
    ix, iy = np.where(fwd, dx, -dx), np.where(fwd, dy, -dy)
    gx, gy, _ = _unit(ex * ix + ey * iy, ey * ix - ex * iy)  # e and the ridge are unit
    into = fwd | back
    corner_of = use[j[into]]
    return cell[corner_of], a.vertices[v[corner_of]], np.stack((gx[into], gy[into]), axis=1)


def _pair_delta(a1: np.ndarray, d1: np.ndarray, a2: np.ndarray, d2: np.ndarray, p: np.ndarray):
    """(l1 + l2) / |sin theta| for rays (anchor a_i, direction d_i; rows of
    (N, 2) arrays) meeting at ``p`` at angle theta, l_i being p's distance
    from a_i: turning ray i by a small angle eps moves p by
    eps * l_i / |sin theta|."""
    sine = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    l1 = np.fromiter(map(math.hypot, p[:, 0] - a1[:, 0], p[:, 1] - a1[:, 1]), float, len(p))
    l2 = np.fromiter(map(math.hypot, p[:, 0] - a2[:, 0], p[:, 1] - a2[:, 1]), float, len(p))
    return (l1 + l2) / np.abs(sine)


def _row_sum(x: np.ndarray, use: np.ndarray) -> np.ndarray:
    """Each row's sum of its entries where ``use``, added left to right from
    0.0 as a Python loop adds them (``numpy.add.reduce`` sums pairwise)."""
    total = np.zeros(len(x))
    for col in range(x.shape[1]):
        np.add(total, x[:, col], out=total, where=use[:, col])
    return total


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
            cap = np.where(others > 0, ZERO_DELTA_WEIGHT_CAP * (_row_sum(raw, rest) / others), 0.0)
        raw = np.where(zero, cap[:, None], raw)
    total = _row_sum(raw, use)
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
        est = np.stack([_row_sum(weights * p[..., k], used) for k in (0, 1)], axis=1)
        groups.append((idx, p, weights, used, est))
    return n_rays, groups


def c_prime_cell(t: Tessellation, c: CellId) -> CPrimeEstimate:
    """Angle-rotation estimate of one bounded cell's generator.

    Generator rays from every usable vertex are intersected pairwise; each
    pair is weighted by the inverse of its sensitivity to the ray directions,
    |sin theta| / (l1 + l2) (``_pair_delta``). Insensitive pairs (zero
    displacement) are capped at 10x the mean weight; when every pair is
    insensitive the weights are uniform. A cell with a ray side is unbounded
    whatever its flag says. This is ``c_prime_all``'s construction on one
    cell.
    """
    a = t.arrays
    rids = a.cell_ridges[a.cell_start[c] : a.cell_start[c + 1]]
    if not a.bounded[c] or (a.ends[rids, 1] < 0).any():
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
