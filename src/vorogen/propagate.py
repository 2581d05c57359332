"""Spread generators outward from the solved patch by ridge reflections.

A known generator g of cell A determines the generator of any neighbor B as
the mirror image of g across the shared ridge line. Propagation runs as a
layered breadth-first sweep: layer 0 is the patch, and a cell enters layer
d + 1 only through ridges from layer-d cells, never sideways within a layer,
so every cell's depth equals its ridge distance from the patch. A cell with
several incoming ridges takes the reflection through the first one found.

Each reflection is the ridge's mirror map g -> R g + b, with the terms
that the patch and ``refine_all`` read too (``RidgeArrays.mirrors``). Its
direction comes from two stored vertices, so the sweep's rounding error
grows with depth. ``refine_all`` then re-solves the mirror equations of
every ridge at once, warm-started from the sweep: a Jacobi-scaled CGLS that
runs until the weighted residual stops falling, at the input's own error
floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geom
from .errors import UnreachableCellsError
from .solver import PatchSolution
from .tessellation import Tessellation, _ids, check_id, point_array, ranges


@dataclass(frozen=True, eq=False)
class PropagationTrace:
    """What the sweep did, as arrays: finalization order and depth.

    ``cells``, ``sources`` and ``ridges`` hold one entry per non-patch cell,
    in finalization order: the cell, the finalized cell it was reflected
    from and the ridge between them; a source is always finalized before its
    target. ``depth[c]`` is cell c's ridge distance from the known cells.
    """

    cells: np.ndarray
    sources: np.ndarray
    ridges: np.ndarray
    depth: np.ndarray

    @property
    def reflect_calls(self) -> int:
        """One reflection per finalized cell."""
        return len(self.cells)

    @property
    def max_depth(self) -> int:
        return int(self.depth.max(initial=0))


def sweep(
    t: Tessellation,
    cells: np.ndarray,
    points: np.ndarray,
    origin: str = "the known cells",
) -> tuple[np.ndarray, PropagationTrace]:
    """Recover every generator by layered reflection from the known ones,
    ``points[k]`` being the generator of cell ``cells[k]``.

    Layer d + 1 holds the unknown cells across a ridge from layer d, layer 0
    being the known cells. A layer is found by one gather over the CSR
    boundary index of the previous one, in discovery order (source cells
    ascending, each in its boundary order). Each new cell is the mirror
    image of its first incoming source across their shared ridge, R g + b
    from ``RidgeArrays.mirrors``, reflected as one array operation per layer, so
    every generator is the one a per-cell loop in that order would give.
    Returns the (n, 2) generators, read-only, and the trace. Raises
    OutOfRangeIdError for a cell id outside [0, n), ValueError for a
    repeated id or unless there is one (x, y) point per id, and
    UnreachableCellsError, naming ``origin``, when the ridge graph does not
    connect every cell to a known one.
    """
    a = t.arrays
    n = t.n_cells
    start = a.cell_start
    _, e, b = a.mirrors
    er, ei, br, bi = e.real, e.imag, b.real, b.imag
    xy = np.zeros((n, 2))
    depth = np.full(n, -1)
    seeds = _ids(cells).reshape(-1)
    bad = seeds[(seeds < 0) | (seeds >= n)]
    if len(bad):
        check_id(int(bad[0]), n, "cell")  # raises
    points = point_array(points)
    if len(points) != len(seeds):
        raise ValueError(f"{len(points)} points for {len(seeds)} cells")
    current, count = np.unique(seeds, return_counts=True)
    repeated = current[count > 1]
    if len(repeated):
        raise ValueError(f"cell {repeated[0]} is given more than once")
    xy[seeds] = points
    depth[seeds] = 0
    order = [np.empty((3, 0), np.intp)]  # (cells, sources, ridges) per layer
    d = 0
    while len(current):
        # the boundary entries of the current layer, in discovery order
        entry = ranges(start[current], start[current + 1])
        src = a.entry_cell[entry]
        dst = a.cell_nbrs[entry]
        new = depth[dst] < 0
        src, dst, rid = src[new], dst[new], a.cell_ridges[entry[new]]
        if not len(dst):
            break
        found, first = np.unique(dst, return_index=True)
        src, rid = src[first], rid[first]
        bad = a.degenerate[rid]
        if bad.any():
            t.ridge_line(int(rid[np.argmax(bad)]))  # raises DegenerateRidgeError
        x, y = geom.mirror(er[rid], ei[rid], xy[src, 0], xy[src, 1])
        xy[found, 0] = x + br[rid]
        xy[found, 1] = y + bi[rid]
        depth[found] = d + 1
        order.append(np.stack((found, src, rid)))
        current = found
        d += 1

    missing = np.flatnonzero(depth < 0)
    if len(missing):
        raise UnreachableCellsError(
            f"{len(missing)} of {n} cells cannot be reached from {origin}",
            cells=tuple(missing.tolist()),
        )
    xy.flags.writeable = False
    return xy, PropagationTrace(*np.concatenate(order, axis=1), depth)


def reconstruct_all(t: Tessellation, patch: PatchSolution) -> tuple[np.ndarray, PropagationTrace]:
    """Recover every generator from the solved patch.

    Returns the (n, 2) generators and the trace of the sweep. Raises
    UnreachableCellsError if the ridge adjacency graph does not connect
    every cell to the patch.
    """
    return sweep(t, patch.members, patch.generators, f"the patch around cell {patch.members[0]}")


# CGLS stops at the error floor: once a step lowers the weighted mirror
# residual ||W (b - A g)|| by less than REFINE_MIN_DROP of its value, where
# that residual has reached the input's own inconsistency, or after
# REFINE_MAX_ITER steps.
REFINE_MIN_DROP = 0.01
REFINE_MAX_ITER = 100


def refine_all(t: Tessellation, generators: np.ndarray) -> tuple[np.ndarray, int]:
    """Weighted least-squares polish of every generator.

    Every ridge between cells a and b contributes the patch system's mirror
    equation ``g_b - R g_a = (I - R) c`` (two rows, ``RidgeArrays.mirrors``),
    giving 2n unknowns in all. A finite ridge of length L stores its
    direction to about eps / L, which moves a reflected point at distance d
    from the ridge by about eps * d / L, so its rows are weighted
    ``L / (L + d)``, with d measured from the warm-start generator of cell a
    (both generators are equidistant from the ridge midpoint). Rays weigh 1;
    ridges shorter than the degeneracy threshold define no direction and
    weigh 0.

    Solved by CGLS (conjugate gradients on the normal equations) for a
    correction D z to the (n, 2) warm start ``generators``, z starting at 0.
    D scales each cell's two unknowns by 1 / sqrt(sum of its rows' squared
    weights) (Jacobi column scaling); a cell with no weighted row keeps its
    warm start. Each step is one gather over the ridges and one ``bincount``
    scatter back per coordinate, so O(n). It stops once a step lowers the
    weighted residual ||W (b - A g)|| by less than ``REFINE_MIN_DROP``.
    Returns the refined (n, 2) generators, read-only, and the number of
    iterations taken.
    """
    n = t.n_cells
    a = t.arrays
    g = np.asarray(generators, float).reshape(-1, 2)
    if len(g) != n:
        raise ValueError(f"{len(g)} generators for {n} cells")
    gx, gy = g.T
    ia, ib = a.cells.T.astype(np.intp)
    ends = np.concatenate((ib, ia))  # each ridge's cell b, then each ridge's cell a
    m = len(ia)
    usable = a.finite & ~a.degenerate
    c, e, b = a.mirrors

    w = np.where(a.finite, 0.0, 1.0)
    length = a.lengths[usable]
    gap = geom.hypot((gx[ia] - c.real)[usable], (gy[ia] - c.imag)[usable])
    w[usable] = length / (length + gap)
    weight = np.bincount(ends, np.concatenate((w * w, w * w)), n)
    scale = np.zeros(n)
    np.divide(1.0, np.sqrt(weight), out=scale, where=weight > 0.0)
    # with d = scale, ridge k's row pair reads wb z_b + M z_a, where wb = w d_b and
    # M = -w d_a R = [[mr, mi], [mi, -mr]], R = [[er, ei], [ei, -er]] the reflection
    wb = w * scale[ib]
    wa = w * scale[ia]
    mr, mi = -wa * e.real, -wa * e.imag
    # the weighted residual of the warm start, W (b - A g)
    mx, my = geom.mirror(e.real, e.imag, gx[ia], gy[ia])
    rx = w * (b.real - (gx[ib] - mx))
    ry = w * (b.imag - (gy[ib] - my))

    zx, zy = np.zeros(n), np.zeros(n)
    step = np.empty(n)
    qx, qy, tmp = np.empty(m), np.empty(m), np.empty(m)
    both, both_y = np.empty(2 * m), np.empty(2 * m)  # ordered as ``ends``
    pb, pa = both[:m], both[m:]
    pb_y, pa_y = both_y[:m], both_y[m:]

    def sumsq(x, buf):
        return float(np.sum(np.multiply(x, x, out=buf)))

    def forward(px, py):
        """(qx, qy) = W A D p."""
        # every id is in range; mode "raise" would copy ``out`` through a buffer
        np.take(px, ends, out=both, mode="clip")
        np.take(py, ends, out=both_y, mode="clip")
        np.multiply(wb, pb, out=qx)
        np.add(qx, np.multiply(mr, pa, out=tmp), out=qx)
        np.add(qx, np.multiply(mi, pa_y, out=tmp), out=qx)
        np.multiply(wb, pb_y, out=qy)
        np.add(qy, np.multiply(mi, pa, out=tmp), out=qy)
        np.subtract(qy, np.multiply(mr, pa_y, out=tmp), out=qy)

    def adjoint():
        """(sx, sy) = D A^T W r; M is symmetric, so cell a collects M r."""
        np.multiply(wb, rx, out=pb)
        np.multiply(mr, rx, out=pa)
        np.add(pa, np.multiply(mi, ry, out=tmp), out=pa)
        sx = np.bincount(ends, both, n)
        np.multiply(wb, ry, out=pb)
        np.multiply(mi, rx, out=pa)
        np.subtract(pa, np.multiply(mr, ry, out=tmp), out=pa)
        return sx, np.bincount(ends, both, n)

    rho = sumsq(rx, tmp) + sumsq(ry, tmp)
    px, py = adjoint()
    gamma = sumsq(px, step) + sumsq(py, step)
    least = (1.0 - REFINE_MIN_DROP) ** 2
    iterations = 0
    while gamma > 0.0 and iterations < REFINE_MAX_ITER:
        forward(px, py)
        alpha = gamma / (sumsq(qx, tmp) + sumsq(qy, tmp))
        zx += np.multiply(alpha, px, out=step)
        zy += np.multiply(alpha, py, out=step)
        rx -= np.multiply(alpha, qx, out=tmp)
        ry -= np.multiply(alpha, qy, out=tmp)
        iterations += 1
        rho_next = sumsq(rx, tmp) + sumsq(ry, tmp)
        if rho_next > least * rho:
            break
        rho = rho_next
        sx, sy = adjoint()
        gamma_next = sumsq(sx, step) + sumsq(sy, step)
        beta = gamma_next / gamma
        px *= beta
        px += sx
        py *= beta
        py += sy
        gamma = gamma_next
    refined = np.stack((gx + scale * zx, gy + scale * zy), axis=1)
    refined.flags.writeable = False
    return refined, iterations
