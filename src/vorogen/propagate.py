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
every ridge at once, warm-started from the sweep.
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


# CGLS stops once the normal-equation residual ||A^T W (b - A g)|| has fallen
# by REFINE_TOL relative to the warm start, or after REFINE_MAX_ITER steps.
REFINE_TOL = 1e-3
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

    Solved by CGLS (conjugate gradients on the normal equations) starting
    from the (n, 2) ``generators``; each step is one gather over the ridges
    and one ``bincount`` scatter back, so O(n). Returns the refined (n, 2)
    generators, read-only, and the number of iterations taken.
    """
    # points are complex numbers, reflections z -> e conj(z) (``solver.build_mirror_terms``)
    n = t.n_cells
    a = t.arrays
    ia, ib = a.cells.T
    finite = a.finite
    usable = finite & ~a.degenerate
    c, e, b = a.mirrors

    g = np.ascontiguousarray(generators, float).reshape(-1).view(complex)
    if len(g) != n:
        raise ValueError(f"{len(g)} generators for {n} cells")
    w = np.where(finite, 0.0, 1.0)
    length = a.lengths[usable]
    gap = (g[ia] - c)[usable]
    w[usable] = length / (length + geom.hypot(gap.real, gap.imag))
    b = w * b
    scatter = np.concatenate((ib, ia))
    er, ei = e.real, e.imag

    def mirror(z):
        out = np.empty_like(z)
        out.real, out.imag = geom.mirror(er, ei, z.real, z.imag)
        return out

    def forward(z):
        return w * (z[ib] - mirror(z[ia]))

    def adjoint(y):
        # R is symmetric: g_b collects W y and g_a collects -R W y
        y = w * y
        y = np.concatenate((y, -mirror(y)))
        return np.bincount(scatter, y.real, n) + 1j * np.bincount(scatter, y.imag, n)

    def sumsq(z):
        x = z.view(float)
        return float(np.sum(x * x))

    r = b - forward(g)
    s = adjoint(r)
    p = s
    gamma = sumsq(s)
    stop = REFINE_TOL * REFINE_TOL * gamma
    iterations = 0
    while gamma > stop and iterations < REFINE_MAX_ITER:
        q = forward(p)
        alpha = gamma / sumsq(q)
        g = g + alpha * p
        r = r - alpha * q
        s = adjoint(r)
        gamma_next = sumsq(s)
        p = s + (gamma_next / gamma) * p
        gamma = gamma_next
        iterations += 1
    refined = g.view(float).reshape(-1, 2)
    refined.flags.writeable = False
    return refined, iterations
