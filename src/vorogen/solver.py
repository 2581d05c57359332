"""Assembly and solution of the anchor patch system.

Each ridge of the anchor cell, and each ridge between consecutive anchor
neighbors, contributes one mirror equation

    g_target - R g_source = (I - R) c = 2 m (m . c)

where R reflects across the ridge line, m is the line's unit normal and c
is any point on it (the right hand side does not depend on which point,
since I - R annihilates the line direction). These are the rows that
``propagate.refine_all`` solves over every ridge, and g -> R g + b is the
reflection ``propagate.sweep`` applies; all three read the terms that
``build_mirror_terms`` computes once per diagram and ``RidgeArrays.mirrors``
keeps. Stacking them over the anchor's ridges and the ring ridges gives an
overdetermined linear system in the anchor generator and its neighbor
generators, solved once by an R-only Householder QR of [A | b]: around an
eligible anchor of degree k, 4k scalar equations in 2(k + 1) unknowns.
``patch_stacks`` and ``solve_stack`` build and solve many patches at once,
one stack per degree; ``assemble_patch`` and ``solve_patch`` are their
one-cell case.

A patch's rank comes from the same QR. Its R proves full rank when
1/||R^-1||_F, a lower bound on the smallest singular value, exceeds
``RANK_CERT_MARGIN * RANK_REL_TOL`` times ||R||_F, an upper bound on the
largest (Golub and Van Loan, Matrix Computations, 4th ed., sections 2.4
and 5.2). Only a patch R cannot clear goes to the SVD, whose count of
singular values above ``RANK_REL_TOL`` times the largest is its rank; the
margin makes that count the rank of a cleared patch too. ``solve_patch``
also takes its one patch's singular values, for its ``condition``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geom
from .anchor import score_cell
from .errors import AnchorIneligibleError, InconsistentSystemError, SingularSystemError
from .tessellation import CellId, RidgeArrays, Tessellation, point_array

# smallest singular value below this fraction of the largest means rank deficient
RANK_REL_TOL = 1e-8
# R proves full rank when the bounds on its singular values clear
# RANK_REL_TOL by this factor, far beyond what the QR's backward error
# (about eps ||A||) and the SVD's rounding can move
RANK_CERT_MARGIN = 1e3
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


@dataclass(frozen=True, eq=False)
class PatchSolution:
    """Solved generator positions, a read-only ``(len(members), 2)`` array
    whose row j is cell ``members[j]``'s, plus the numerical health of the solve."""

    members: tuple[CellId, ...]
    generators: np.ndarray
    residual: float
    rank: int
    smin: float
    smax: float

    def __post_init__(self):
        object.__setattr__(self, "generators", point_array(self.generators))

    @property
    def condition(self) -> float:
        return self.smax / self.smin if self.smin > 0.0 else float("inf")


def build_mirror_terms(a: RidgeArrays) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mirror equation ``g_b - R g_a = (I - R) c`` of every ridge,
    as read-only arrays; ``RidgeArrays.mirrors`` keeps them.

    Points are complex numbers x + iy: the reflection across a line through
    the origin with unit direction u is z -> u^2 conj(z). Returns, one entry
    per ridge, c (the segment midpoint or the ray origin), e = u^2 and the
    right-hand side b = 2 m (m . c), m = iu being the unit normal. Kept in
    that form, the rounding of the right-hand side shifts the line but
    cannot tilt it. A degenerate ridge has no direction; u = 1 stands in.

    e is ``geom.cmul``'s. The products that form c and b have a factor with
    a zero part, so they round the same on every path.
    """
    ends, finite = a.ends, a.finite
    verts = a.vertices.view(complex).ravel()
    p0 = verts[ends[:, 0]]
    p1 = verts[np.where(finite, ends[:, 1], ends[:, 0])]
    c = np.where(finite, 0.5 * (p0 + p1), p0)
    u = np.where(a.degenerate, 1.0, a.dirs.view(complex).ravel())
    e = np.empty_like(u)
    e.real, e.imag = geom.cmul(u.real, u.imag, u.real, u.imag)
    m = 1j * u
    terms = c, e, 2.0 * m * (m.real * c.real + m.imag * c.imag)
    for x in terms:
        x.flags.writeable = False
    return terms


def patch_stacks(a: RidgeArrays, cells: np.ndarray):
    """Yield (cells, matrices, right-hand sides, members, row_pairs), one
    stack per degree k, of the patches around the eligible ``cells``.

    A patch's 4k rows are the global mirror rows (``RidgeArrays.mirrors``)
    of its anchor's k ridges, in CCW order, then of its k ring ridges
    (``RidgeArrays.ring``), each relating a (source, target) pair of cells;
    its 2(k + 1) columns are the generators of its members, the anchor and
    then its k neighbours, which eligibility makes distinct.
    """
    degree = a.cell_start[cells + 1] - a.cell_start[cells]
    for k in np.unique(degree).tolist():
        cs = cells[degree == k]
        entry = a.cell_start[cs, None] + np.arange(k)
        members = np.concatenate((cs[:, None], a.cell_nbrs[entry]), axis=1)
        # anchor rows run from the anchor to each neighbour, ring rows to the next neighbour
        nb = np.arange(1, k + 1)
        src, dst = np.concatenate((0 * nb, nb)), np.concatenate((nb, np.roll(nb, -1)))
        rids = np.concatenate((a.cell_ridges[entry], a.ring[entry]), axis=1)
        e, b = a.mirrors[1][rids], a.mirrors[2][rids]
        pairs = np.stack((members[:, src], members[:, dst]), axis=2)
        # g_dst - R g_src = b, R = [[Re e, Im e], [Im e, -Re e]]: two rows per ridge
        row, src, dst = 2 * np.arange(2 * k), 2 * src, 2 * dst
        mat = np.zeros((len(cs), 4 * k, 2 * (k + 1)))
        mat[:, row, dst] = 1.0
        mat[:, row + 1, dst + 1] = 1.0
        mat[:, row, src] -= e.real
        mat[:, row, src + 1] -= e.imag
        mat[:, row + 1, src] -= e.imag
        mat[:, row + 1, src + 1] += e.real
        yield cs, mat, b.view(float), members, pairs


def solve_stack(mat: np.ndarray, rhs: np.ndarray):
    """Least-squares solve of each m x n matrix A (m >= n) of a stack,
    raising nothing: per matrix its rank, solution and residual (NaN where
    the rank falls short) and the residual limit ``CONSISTENCY_REL_TOL * ||b||``.
    One stacked R-only QR of [A | b] factors every A and applies Q^T to its b
    as it goes (Golub and Van Loan, section 5.3): the top-left n x n block is
    A's R, the rest of column n is Q^T b, and |R[n, n]| is the residual (0 for
    a square A). The solution is R^-1 Q^T b, with the R^-1 that ``_certified``
    builds; the SVD runs only where R does not clear. A stacked LAPACK or BLAS
    call runs the same routine on every matrix, so a matrix's bits do not
    depend on its stack."""
    n = mat.shape[2]
    rhs = rhs[..., None]
    # QR, not the SVD's solution: median error 1e-14 against 2.6e-14 on brute's n = 1000 patches
    r = np.linalg.qr(np.concatenate((mat, rhs), axis=2), mode="r")
    full, inv = _certified(r[:, :n, :n])
    rank = np.full(len(mat), n)
    if not full.all():
        svals = np.linalg.svd(mat[~full], compute_uv=False)
        count = np.count_nonzero(svals > RANK_REL_TOL * svals[:, :1], axis=1)
        rank[~full] = np.where(svals[:, 0] > 0.0, count, 0)
        full = rank == n
    # np.linalg.norm of a vector is the square root of its BLAS dot product
    bnorm = np.sqrt((np.swapaxes(rhs, 1, 2) @ rhs)[:, 0, 0])
    with np.errstate(over="ignore", invalid="ignore"):  # an R not cleared may have an inf R^-1
        z = np.where(full[:, None], (inv @ r[:, :n, n:])[:, :, 0], np.nan)
    residual = np.abs(r[:, n, n]) if r.shape[1] > n else np.zeros(len(mat))
    return rank, z, np.where(full, residual, np.nan), CONSISTENCY_REL_TOL * bnorm


def _certified(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which of a stack of square upper-triangular R have 1/||R^-1||_F >
    RANK_CERT_MARGIN * RANK_REL_TOL * ||R||_F, which proves sigma_min /
    sigma_max above that bound, and their R^-1. A zero or non-finite diagonal,
    or an overflow, makes ||R^-1||_F inf or NaN, which clears nothing."""
    n = r.shape[2]
    d = np.diagonal(r, axis1=1, axis2=2)
    inv = np.zeros_like(r)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # back substitution, one row of R^-1 at a time from the last
        for j in range(n - 1, -1, -1):
            row = -(r[:, j : j + 1, j + 1 :] @ inv[:, j + 1 :])[:, 0]
            row[:, j] += 1.0
            inv[:, j] = row / d[:, j : j + 1]
        size, inv_size = (np.sqrt(np.einsum("sij,sij->s", x, x)) for x in (r, inv))
        return 1.0 / inv_size > RANK_CERT_MARGIN * RANK_REL_TOL * size, inv


def assemble_patch(t: Tessellation, anchor: CellId) -> PatchSystem:
    """The patch system ``patch_stacks`` builds around the eligible ``anchor``.

    Raises AnchorIneligibleError for an ineligible anchor and
    OutOfRangeIdError for an anchor id that does not exist.
    """
    score = score_cell(t, anchor)
    if not score.eligible:
        raise AnchorIneligibleError(
            f"cell {anchor} is not anchor-eligible: its patch needs a bounded cell, distinct"
            " neighbours, a full non-degenerate ring and non-parallel ridges"
            f" (bounded={bool(t.arrays.bounded[anchor])}, degree={score.degree})"
        )
    ((_, mat, rhs, members, pairs),) = patch_stacks(t.arrays, np.array([anchor]))
    return PatchSystem(
        anchor=anchor, members=tuple(members[0].tolist()), matrix=mat[0], rhs=rhs[0],
        row_pairs=tuple(map(tuple, pairs[0].tolist())),
    )


def solve_patch(system: PatchSystem) -> PatchSolution:
    """Least-squares solve of the patch system, ``solve_stack`` on a stack of
    one; the patch's own SVD gives ``smin`` and ``smax``.

    Raises SingularSystemError when the system is rank deficient (for example
    when every ridge in the patch is parallel, which leaves a translation
    along the common direction free). Raises InconsistentSystemError when the
    residual is too large relative to ||b||, which cannot happen for ridges
    that really are perpendicular bisectors of some generator set.
    """
    mat = system.matrix
    n = mat.shape[1]
    if mat.shape[0] < n:
        raise SingularSystemError(
            f"patch around cell {system.anchor} has {mat.shape[0]} equations for {n} unknowns"
        )
    rank, z, residual, limit = solve_stack(mat[None], system.rhs[None])
    rank, residual, limit = int(rank[0]), float(residual[0]), float(limit[0])
    if rank < n:
        null = np.linalg.svd(mat)[2][-1]
        raise SingularSystemError(
            _describe_null(system, null, rank, n), null_direction=tuple(float(v) for v in null)
        )
    if residual > limit:
        raise InconsistentSystemError(
            f"patch around cell {system.anchor} has least-squares residual {residual:.3e}"
            f" > {CONSISTENCY_REL_TOL:g} * ||b|| = {limit:.3e}; ridges are not mirror-consistent",
            residual=residual,
            threshold=limit,
        )
    svals = np.linalg.svd(mat[None], compute_uv=False)[0]
    return PatchSolution(
        members=system.members, generators=z[0].reshape(-1, 2), residual=residual, rank=rank,
        smin=float(svals[-1]), smax=float(svals[0]),
    )


def _describe_null(system: PatchSystem, null: np.ndarray, rank: int, n: int) -> str:
    """Human-readable account of the free motion left by a rank-deficient patch."""
    msg = f"patch around cell {system.anchor} is singular (rank {rank} of {n})"
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
