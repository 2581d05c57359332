"""Assembly and solution of the anchor patch system.

Each ridge of the anchor cell, and each ridge between consecutive anchor
neighbors, contributes one mirror equation

    g_target - R g_source = (I - R) c = 2 m (m . c)

where R reflects across the ridge line, m is the line's unit normal and c
is any point on it (the right hand side does not depend on which point,
since I - R annihilates the line direction). These are the rows that
``propagate.refine_all`` solves over every ridge, and g -> R g + b is the
reflection ``propagate.sweep`` applies; all three take the terms from
``mirror_terms``. Stacking them over the anchor's ridges and the ring
ridges gives an overdetermined linear system in the anchor generator and
its neighbor generators, solved once by Householder QR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anchor import score_cell
from .errors import AnchorIneligibleError, InconsistentSystemError, SingularSystemError
from .geom import Point2
from .tessellation import CellId, RidgeArrays, Tessellation

# smallest singular value below this fraction of the largest means rank deficient
RANK_REL_TOL = 1e-8
# least-squares residual above this fraction of ||b|| means the ridges are not
# mirror-consistent, i.e. the input is not an exact Voronoi tessellation
CONSISTENCY_REL_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class PatchSystem:
    """The stacked mirror equations around one anchor cell.

    ``members`` lists the cells owning the unknown generators, anchor first;
    unknown ``j`` occupies columns ``2j`` and ``2j + 1``. ``row_pairs`` records,
    per equation (two matrix rows), the (source, target) cells it relates.
    """

    anchor: CellId
    members: tuple[CellId, ...]
    matrix: np.ndarray
    rhs: np.ndarray
    row_pairs: tuple[tuple[CellId, CellId], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def k(self) -> int:
        return len(self.members) - 1

    def column_block(self, cell: CellId) -> int:
        return self.members.index(cell)


@dataclass(frozen=True)
class PatchSolution:
    """Solved generator positions plus the numerical health of the solve."""

    members: tuple[CellId, ...]
    generators: dict[CellId, Point2]
    residual: float
    rank: int
    smin: float
    smax: float

    @property
    def condition(self) -> float:
        return self.smax / self.smin if self.smin > 0.0 else float("inf")


def mirror_terms(a: RidgeArrays, rids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mirror equation ``g_b - R g_a = (I - R) c`` of ridges ``rids``.

    Points are complex numbers x + iy: the reflection across a line through
    the origin with unit direction u is z -> u^2 conj(z). Returns, one entry
    per ridge, c (the segment midpoint or the ray origin), e = u^2 and the
    right-hand side b = 2 m (m . c), m = iu being the unit normal. Kept in
    that form, the rounding of the right-hand side shifts the line but
    cannot tilt it. A degenerate ridge has no direction; u = 1 stands in.

    e is formed from separately rounded real products: numpy's complex
    product rounds differently on some SIMD paths, which would make the
    reflections depend on the CPU. The products that form c and b have a
    factor with a zero part, so they round the same on every path.
    """
    ends = a.ends[rids]
    finite = ends[:, 1] >= 0
    verts = a.vertices.view(complex).ravel()
    p0 = verts[ends[:, 0]]
    p1 = verts[np.where(finite, ends[:, 1], ends[:, 0])]
    c = np.where(finite, 0.5 * (p0 + p1), p0)
    u = np.where(a.degenerate[rids], 1.0, a.dirs[rids].view(complex).ravel())
    e = np.empty_like(u)
    e.real = u.real * u.real - u.imag * u.imag
    e.imag = u.real * u.imag + u.imag * u.real
    m = 1j * u
    return c, e, 2.0 * m * (m.real * c.real + m.imag * c.imag)


def assemble_patch(t: Tessellation, anchor: CellId) -> PatchSystem:
    """Build the patch system for ``anchor``; the anchor must be eligible.

    Its rows are the global mirror rows (``mirror_terms``) of the anchor's
    ridges, in its CCW boundary order, then of its ring ridges
    (``RidgeArrays.ring``): the ridge joining each two consecutive
    neighbours, where one does. Raises DegenerateRidgeError for a degenerate
    ring ridge.
    """
    score = score_cell(t, anchor)
    if not score.eligible:
        raise AnchorIneligibleError(
            f"cell {anchor} is not anchor-eligible (bounded={bool(t.arrays.bounded[anchor])},"
            f" degree={score.degree},"
            f" max parallelism={score.max_pairwise_parallelism:.3g})"
        )
    a = t.arrays
    lo, hi = a.cell_start[anchor], a.cell_start[anchor + 1]
    nb = a.cell_nbrs[lo:hi]
    ring = a.ring[lo:hi]
    has = ring >= 0
    src = np.concatenate((np.full(len(nb), anchor), nb[has]))
    dst = np.concatenate((nb, np.roll(nb, -1)[has]))
    rids = np.concatenate((a.cell_ridges[lo:hi], ring[has]))
    bad = a.degenerate[rids]
    if bad.any():
        t.ridge_line(int(rids[np.argmax(bad)]))  # raises DegenerateRidgeError
    members = tuple(dict.fromkeys([anchor, *nb.tolist()]))
    block = {cell: j for j, cell in enumerate(members)}
    s = 2 * np.array([block[cell] for cell in src.tolist()], np.intp)
    d = 2 * np.array([block[cell] for cell in dst.tolist()], np.intp)
    _, e, b = mirror_terms(a, rids)
    # g_dst - R g_src = b, R = [[Re e, Im e], [Im e, -Re e]]: two rows per ridge
    row = 2 * np.arange(len(rids))
    mat = np.zeros((2 * len(rids), 2 * len(members)))
    mat[row, d] = 1.0
    mat[row + 1, d + 1] = 1.0
    mat[row, s] -= e.real
    mat[row, s + 1] -= e.imag
    mat[row + 1, s] -= e.imag
    mat[row + 1, s + 1] += e.real
    return PatchSystem(
        anchor=anchor,
        members=members,
        matrix=mat,
        rhs=b.view(float),
        row_pairs=tuple(zip(src.tolist(), dst.tolist())),
    )


def solve_patch(system: PatchSystem) -> PatchSolution:
    """Least-squares solve of the patch system via QR.

    Raises SingularSystemError when the system is rank deficient (for example
    when every ridge in the patch is parallel, which leaves a translation
    along the common direction free). Raises InconsistentSystemError when the
    residual is too large relative to ||b||, which cannot happen for ridges
    that really are perpendicular bisectors of some generator set.
    """
    mat = system.matrix
    rhs = system.rhs
    n = mat.shape[1]
    if mat.shape[0] < n:
        raise SingularSystemError(
            f"patch around cell {system.anchor} has {mat.shape[0]} equations"
            f" for {n} unknowns"
        )
    svals = np.linalg.svd(mat, compute_uv=False)
    smax = float(svals[0])
    smin = float(svals[-1])
    rank = int(np.count_nonzero(svals > RANK_REL_TOL * smax)) if smax > 0.0 else 0
    if rank < n:
        _, _, vh = np.linalg.svd(mat)
        null = vh[-1]
        raise SingularSystemError(
            _describe_null(system, null, rank, n), null_direction=tuple(float(v) for v in null)
        )
    # QR, not the SVD's solution: median error 1e-14 against 2.6e-14 on brute's n = 1000 patches
    q, r = np.linalg.qr(mat)
    z = np.linalg.solve(r, q.T @ rhs)
    residual = float(np.linalg.norm(mat @ z - rhs))
    bnorm = float(np.linalg.norm(rhs))
    if residual > CONSISTENCY_REL_TOL * bnorm:
        raise InconsistentSystemError(
            f"patch around cell {system.anchor} has least-squares residual"
            f" {residual:.3e} > {CONSISTENCY_REL_TOL:g} * ||b|| = "
            f"{CONSISTENCY_REL_TOL * bnorm:.3e}; ridges are not mirror-consistent",
            residual=residual,
            threshold=CONSISTENCY_REL_TOL * bnorm,
        )
    generators = {
        cell: Point2(float(z[2 * j]), float(z[2 * j + 1]))
        for j, cell in enumerate(system.members)
    }
    return PatchSolution(
        members=system.members,
        generators=generators,
        residual=residual,
        rank=rank,
        smin=smin,
        smax=smax,
    )


def _describe_null(system: PatchSystem, null: np.ndarray, rank: int, n: int) -> str:
    """Human-readable account of the free motion left by a rank-deficient patch."""
    msg = (
        f"patch around cell {system.anchor} is singular"
        f" (rank {rank} of {n})"
    )
    blocks = null.reshape(-1, 2)
    spread = float(np.max(np.abs(blocks - blocks[0])))
    if spread <= 1e-6:
        dx, dy = blocks[0]
        norm = float(np.hypot(dx, dy))
        if norm > 0.0:
            msg += (
                f"; generators may translate freely along ({dx / norm:.6f},"
                f" {dy / norm:.6f}), as happens when all patch ridges are parallel"
            )
    return msg
