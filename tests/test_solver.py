"""Patch assembly and the one-shot QR solve.

The diamond fixture gives a hand-checkable 16x10 system; the hand-built
mirror_system helper lets us construct singular and inconsistent systems
that assemble_patch itself would refuse to produce.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import (
    max_cell_error,
    mirror_system,
    normal_equations_solve,
    reflect_point,
    transform_tessellation,
)
from vorogen.errors import (
    AnchorIneligibleError,
    InconsistentSystemError,
    NoEligibleAnchorError,
    SingularSystemError,
)
from vorogen import forward, solver
from vorogen.anchor import eligible_cells, select_anchor
from vorogen.baselines import brute_force_all
from vorogen.geom import Point2
from vorogen.pipeline import reconstruct
from vorogen.solver import PatchSystem, assemble_patch, solve_patch
from vorogen.tessellation import Ridge, Tessellation

from conftest import make_diamond


# ---------------------------------------------------------------- assembly


def test_diamond_system_shape_and_members(diamond):
    t, _ = diamond
    sys_ = assemble_patch(t, 4)
    assert sys_.anchor == 4
    # 4 anchor ridges + 4 ring ridges, 2 rows each; unknowns for 5 cells
    assert sys_.matrix.shape == (16, 10)
    assert len(sys_.members) - 1 == 4
    # anchor first, then neighbors in first-appearance CCW order
    assert sys_.members == (4, 1, 3, 2, 0)
    assert sys_.members.index(4) == 0
    assert sys_.members.index(0) == 4


def test_diamond_row_pairs(diamond):
    t, _ = diamond
    sys_ = assemble_patch(t, 4)
    assert len(sys_.row_pairs) == 8
    # one anchor equation per CCW neighbor, then the ring closure
    assert sys_.row_pairs[:4] == ((4, 1), (4, 3), (4, 2), (4, 0))
    assert set(sys_.row_pairs[4:]) == {(1, 3), (3, 2), (2, 0), (0, 1)}


def test_row_structure_sparsity(diamond):
    """Each equation touches one source and one target block only."""
    t, _ = diamond
    sys_ = assemble_patch(t, 4)
    for row in sys_.matrix:
        nz = np.nonzero(np.abs(row) > 0.0)[0]
        assert len(nz) <= 4
        assert len({j // 2 for j in nz}) <= 2


def test_missing_ring_pair_makes_the_cell_ineligible(diamond_missing_ring):
    """Without the (1, 3) ring ridge the center's patch is not the paper's
    4k x 2(k+1) system, so the center anchors nothing, and nothing else can."""
    t, _ = diamond_missing_ring
    with pytest.raises(AnchorIneligibleError, match="full non-degenerate ring"):
        assemble_patch(t, 4)
    with pytest.raises(NoEligibleAnchorError):
        reconstruct(t, "anchor")


def test_generic_patch_has_full_ring(built):
    """Every eligible cell of a build has the paper's patch: every
    consecutive neighbour pair shares a ridge, so the system is exactly
    4k x 2(k+1), and ``patch_stacks`` yields each degree once."""
    for n, seed in ((200, 0), (2000, 1)):
        _, t, _ = built(n, seed)
        a = t.arrays
        cells = np.array(eligible_cells(t))
        stacked, degrees = [], []
        for cs, mat, rhs, members, pairs in solver.patch_stacks(a, cells):
            k = a.cell_start[cs + 1] - a.cell_start[cs]
            assert (k == k[0]).all()
            k = int(k[0])
            assert mat.shape == (len(cs), 4 * k, 2 * (k + 1))
            assert rhs.shape == (len(cs), 4 * k)
            assert members.shape == (len(cs), k + 1) and pairs.shape == (len(cs), 2 * k, 2)
            stacked += cs.tolist()
            degrees.append(k)
        assert sorted(stacked) == cells.tolist()
        assert len(degrees) == len(set(degrees))
        anchor = select_anchor(t)
        k = len(t.cells[anchor].ridges)
        assert assemble_patch(t, anchor).matrix.shape == (4 * k, 2 * (k + 1))


def _row_ridges(t, sys_):
    """Ridge of each equation, found from the ridges themselves: the anchor's
    boundary in order, then the lowest-id ridge joining each ring pair."""
    ring = [
        min(rid for rid, r in enumerate(t.ridges) if set(r.cells) == {src, dst})
        for src, dst in sys_.row_pairs[len(t.cells[sys_.anchor].ridges):]
    ]
    return [*t.cells[sys_.anchor].ridges, *ring]


def test_patch_rows_are_the_global_mirror_rows(diamond, built):
    """Each equation is the mirror row pair that refine_all solves:
    -R = -[[Re e, Im e], [Im e, -Re e]] on the source block, the identity on
    the target block and (Re b, Im b) on the right, bit for bit, for every
    eligible cell. ``_row_ridges`` finds the ring ridges from ``t.ridges``,
    not through ``patch_stacks``, which ``assemble_patch`` shares with
    ``brute``."""
    big = built(200, 0)[1]
    cases = [(diamond[0], 4)]
    cases += [(big, c) for c in eligible_cells(big)]
    for t, anchor in cases:
        sys_ = assemble_patch(t, anchor)
        _, e, b = (x[np.array(_row_ridges(t, sys_))] for x in t.arrays.mirrors)
        for j, (src, dst) in enumerate(sys_.row_pairs):
            expect = np.zeros((2, sys_.matrix.shape[1]))
            s, d = 2 * sys_.members.index(src), 2 * sys_.members.index(dst)
            expect[:, d:d + 2] = np.eye(2)
            expect[:, s:s + 2] -= [[e[j].real, e[j].imag], [e[j].imag, -e[j].real]]
            assert sys_.matrix[2 * j:2 * j + 2].tolist() == expect.tolist()
            assert sys_.rhs[2 * j:2 * j + 2].tolist() == [b[j].real, b[j].imag]


def test_mirror_terms_rounds_each_real_product(built):
    """e = u^2 is (ux ux - uy uy, ux uy + uy ux), each product rounded on its
    own, bit for bit, whatever path numpy's complex product takes."""
    a = built(2000, 0)[1].arrays
    _, e, _ = a.mirrors
    expect = []
    for (ux, uy), bad in zip(a.dirs.tolist(), a.degenerate.tolist()):
        if bad:
            ux, uy = 1.0, 0.0
        expect.append([ux * ux - uy * uy, ux * uy + uy * ux])
    assert e.view(float).reshape(-1, 2).tolist() == expect


@pytest.mark.parametrize("run", ["anchor", "brute"])
def test_mirror_terms_are_built_once_per_diagram(monkeypatch, run):
    """The patch, the sweep and the refinement read one cached copy."""
    calls = []
    build = solver.build_mirror_terms
    monkeypatch.setattr(solver, "build_mirror_terms", lambda a: calls.append(a) or build(a))
    _, t, _ = forward.sample_and_build(200, 0)
    if run == "anchor":
        reconstruct(t, "anchor")
    else:
        brute_force_all(t)
    assert len(calls) == 1
    assert not t.arrays.mirrors[1].flags.writeable


def test_scaled_ring_ray_is_refused():
    """A ring ray whose direction is not unit length has no reflection."""
    vertices, ridges, cells, _ = make_diamond()
    ridges[5] = Ridge(cells=(1, 3), v0=1, ray_dir=(2.0, 0.0))  # the (1, 3) ring ray
    with pytest.raises(InconsistentSystemError, match="ray ridge 5"):
        assemble_patch(Tessellation(vertices, ridges, cells), 4)


def test_unbounded_anchor_rejected(diamond):
    t, _ = diamond
    with pytest.raises(AnchorIneligibleError):
        assemble_patch(t, 0)


def test_true_generators_satisfy_system(diamond, built):
    """Stacked mirror equations are exact at the true generator positions."""
    cases = [diamond]
    for n, seed in ((100, 0), (250, 5)):
        _, t, gt = built(n, seed)
        cases.append((t, gt))
    for t, gt in cases:
        anchor = select_anchor(t)
        sys_ = assemble_patch(t, anchor)
        z = np.empty(2 * len(sys_.members))
        for j, cell in enumerate(sys_.members):
            z[2 * j], z[2 * j + 1] = gt.generators[cell]
        assert np.max(np.abs(sys_.matrix @ z - sys_.rhs)) < 1e-10


# ------------------------------------------------------------------- solve


def test_diamond_solve_recovers_all_five(diamond):
    t, gt = diamond
    sol = solve_patch(assemble_patch(t, 4))
    assert sol.members == (4, 1, 3, 2, 0)
    assert sol.generators.shape == (5, 2)
    assert max_cell_error(sol.generators, gt.generators[list(sol.members)]) < 1e-10
    assert sol.residual < 1e-12
    assert sol.rank == 10
    assert sol.smin > 1e-8
    assert math.isfinite(sol.condition)


def test_solve_matches_normal_equations(built):
    """QR path vs the direct M^T M oracle."""
    for n, seed in ((50, 1), (100, 2), (200, 9)):
        _, t, _ = built(n, seed)
        anchor = select_anchor(t)
        sys_ = assemble_patch(t, anchor)
        sol = solve_patch(sys_)
        z_ne = normal_equations_solve(sys_)
        for j, (x, y) in enumerate(sol.generators.tolist()):
            assert abs(x - z_ne[2 * j]) < 1e-9
            assert abs(y - z_ne[2 * j + 1]) < 1e-9


def test_square_full_rank_system_has_zero_residual():
    """Four generators and the perpendicular bisectors of the pairs of a
    4-cycle: 8 equations in 8 unknowns, so [A | b] has no row below R and
    the residual is 0, and the solve gives back the generators."""
    g = np.array([(0.0, 0.0), (3.0, 1.0), (2.0, 4.0), (-1.0, 2.5)])
    sys_ = mirror_system(
        (0, 1, 2, 3),
        [(s, d, (g[s, 1] - g[d, 1], g[d, 0] - g[s, 0]), tuple(0.5 * (g[s] + g[d])))
         for s, d in ((0, 1), (1, 2), (2, 3), (3, 0))],
    )
    assert sys_.matrix.shape == (8, 8)
    sol = solve_patch(sys_)
    assert sol.rank == 8 and sol.residual == 0.0
    assert max_cell_error(sol.generators, g) < 1e-12


def test_neighbors_are_reflections_of_anchor(built):
    # the solve must reproduce the defining mirror relation ridge by ridge
    _, t, _ = built(100, 4)
    anchor = select_anchor(t)
    sol = solve_patch(assemble_patch(t, anchor))
    ga = Point2(*sol.generators[0])
    for rid in t.cells[anchor].ridges:
        cid = t.ridges[rid].other_cell(anchor)
        mirrored = reflect_point(ga, t.ridge_line(rid))
        gx, gy = sol.generators[sol.members.index(cid)]
        assert math.hypot(mirrored.x - gx, mirrored.y - gy) < 1e-10


def test_eligible_anchors_are_well_conditioned(built):
    _, t, _ = built(100, 11)
    for c in eligible_cells(t):
        sol = solve_patch(assemble_patch(t, c))
        assert sol.smin > 1e-8


def test_solution_accuracy_on_built_patches(built):
    for n, seed in ((50, 6), (200, 13)):
        _, t, gt = built(n, seed)
        anchor = select_anchor(t)
        sol = solve_patch(assemble_patch(t, anchor))
        assert max_cell_error(sol.generators, gt.generators[list(sol.members)]) < 1e-10


# ---------------------------------------------------------------- failures


def _vertical_triple() -> PatchSystem:
    # three mirrors, all across vertical lines: x=1, x=2, x=3
    return mirror_system(
        (0, 1, 2),
        [
            (0, 1, (0.0, 1.0), (1.0, 0.0)),
            (0, 2, (0.0, 1.0), (2.0, 0.0)),
            (1, 2, (0.0, 1.0), (3.0, 0.0)),
        ],
    )


def test_all_parallel_mirrors_are_singular():
    sys_ = _vertical_triple()
    assert sys_.matrix.shape == (6, 6)
    with pytest.raises(SingularSystemError) as exc:
        solve_patch(sys_)
    assert "translate freely along" in str(exc.value)
    null = exc.value.null_direction
    assert null is not None and len(null) == 6
    # the free motion is one shared translation: equal (x, y) blocks, vertical
    blocks = [(null[2 * j], null[2 * j + 1]) for j in range(3)]
    for bx, by in blocks:
        assert abs(bx - blocks[0][0]) < 1e-9 and abs(by - blocks[0][1]) < 1e-9
        assert abs(bx) < 1e-9
        assert abs(abs(by) - 1.0 / math.sqrt(3.0)) < 1e-9


def test_underdetermined_raises():
    # 2 equations, 3 unknown generators: 4 rows for 6 columns
    sys_ = mirror_system(
        (0, 1, 2),
        [
            (0, 1, (0.0, 1.0), (1.0, 0.0)),
            (0, 2, (1.0, 0.0), (0.0, 1.0)),
        ],
    )
    with pytest.raises(SingularSystemError):
        solve_patch(sys_)


def test_perturbed_rhs_is_inconsistent(diamond):
    t, _ = diamond
    sys_ = assemble_patch(t, 4)
    sys_.rhs[3] += 1e-3  # fresh assembly, safe to poke
    with pytest.raises(InconsistentSystemError) as exc:
        solve_patch(sys_)
    assert exc.value.residual > exc.value.threshold > 0.0


# ------------------------------------------------------- stacks and rank


def _svd_rank(mat: np.ndarray) -> np.ndarray:
    """Each matrix's count of singular values above RANK_REL_TOL times the
    largest, 0 for a zero matrix: the rank rule ``solve_stack`` keeps."""
    s = np.linalg.svd(mat, compute_uv=False)
    return np.where(s[:, 0] > 0.0, np.count_nonzero(s > solver.RANK_REL_TOL * s[:, :1], axis=1), 0)


def _svd_inputs(monkeypatch) -> list:
    """Record every matrix the SVD is given from now on."""
    seen, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: seen.extend(a) or svd(a, *args, **kw))
    return seen


def test_solve_stack_gives_each_matrix_its_stack_of_one_bits(diamond):
    """A full-rank patch, an all-parallel-mirror patch (every mirror
    vertical, as in ``_vertical_triple``, over the diamond's row pairs) and
    a patch with a perturbed right-hand side, solved in one stack: each gets
    the rank, solution, residual and limit bits of its own stack of one,
    and the rank-deficient one a NaN solution and residual."""
    sys_ = assemble_patch(diamond[0], 4)
    vertical = mirror_system(
        sys_.members, [(src, dst, (0.0, 1.0), (float(j), 0.0)) for j, (src, dst) in enumerate(sys_.row_pairs)]
    )
    perturbed = sys_.rhs.copy()
    perturbed[3] += 1e-3
    mat = np.stack((sys_.matrix, vertical.matrix, sys_.matrix))
    rhs = np.stack((sys_.rhs, vertical.rhs, perturbed))
    rank, z, residual, limit = solver.solve_stack(mat, rhs)
    assert rank.tolist() == [10, 9, 10]
    for i in range(3):
        one = solver.solve_stack(mat[i : i + 1], rhs[i : i + 1])
        assert [x.tobytes() for x in one] == [x[i : i + 1].tobytes() for x in (rank, z, residual, limit)], i
    assert np.isnan(z[1]).all() and np.isnan(residual[1])
    assert np.isfinite(z[[0, 2]]).all()
    assert residual[0] <= limit[0] and residual[2] > limit[2]


def test_rank_is_the_svd_count_and_near_threshold_goes_to_the_svd(monkeypatch):
    """Matrices U diag(s) V^T with set singular values, 1 to 0.1 and then
    sigma_min: the rank is the SVD's count on each, also at 1e-8 (1 +- 1e-6)
    either side of the tolerance, and on an exactly singular matrix (a
    repeated column) and the zero matrix. Only the matrix far from the
    tolerance (1e-4) is cleared by R; the SVD factors every other one."""
    rng = np.random.default_rng(0)
    m, n = 16, 10
    mats = []
    for smin in (1e-4, 1e-7, 1e-8 * (1 + 1e-6), 1e-8 * (1 - 1e-6), 1e-9):
        u = np.linalg.qr(rng.standard_normal((m, n)))[0]
        v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        mats.append((u * np.append(np.geomspace(1.0, 0.1, n - 1), smin)) @ v.T)
    repeated = rng.standard_normal((m, n))
    repeated[:, -1] = repeated[:, 0]
    mat = np.stack(mats + [repeated, np.zeros((m, n))])
    seen = _svd_inputs(monkeypatch)
    rank, z, residual, _ = solver.solve_stack(mat, rng.standard_normal((len(mat), m)))
    assert len(seen) == len(mat) - 1
    assert [x.tobytes() for x in seen] == [x.tobytes() for x in mat[1:]]
    assert rank.tolist() == _svd_rank(mat).tolist() == [10, 10, 10, 9, 9, 9, 0]
    assert np.isnan(z[3:]).all() and np.isnan(residual[3:]).all()
    assert np.isfinite(z[:3]).all()


def _check_brute_ranks(monkeypatch, t):
    """Every brute patch of ``t`` gets the SVD's rank, and R clears each one."""
    stacks = list(solver.patch_stacks(t.arrays, np.array(eligible_cells(t))))
    want = [_svd_rank(mat).tolist() for _, mat, _, _, _ in stacks]
    seen = _svd_inputs(monkeypatch)
    assert [solver.solve_stack(mat, rhs)[0].tolist() for _, mat, rhs, _, _ in stacks] == want
    assert not seen


@pytest.mark.parametrize("seed", range(6))
def test_r_clears_only_what_the_svd_calls_full_rank(monkeypatch, built, seed):
    _check_brute_ranks(monkeypatch, built(1000, seed)[1])


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
def test_r_clears_only_what_the_svd_calls_full_rank_at_1e4(monkeypatch, seed):
    _check_brute_ranks(monkeypatch, forward.sample_and_build(10_000, seed)[1])


def test_residual_is_the_recomputed_norm(built):
    """On brute's n = 1000 patches, as built and with noise of 1e-3 on b, the
    residual read off R agrees with ||A z - b|| recomputed from the solution
    to 4 eps ||b||: over seeds 0-5 the two differed by at most 1.97 eps ||b||
    (clean) and 1.38 eps ||b|| (noisy)."""
    _, t, _ = built(1000, 1)
    rng = np.random.default_rng(0)
    for _, mat, rhs, _, _ in solver.patch_stacks(t.arrays, np.array(eligible_cells(t))):
        for b in (rhs, rhs + 1e-3 * rng.standard_normal(rhs.shape)):
            _, z, residual, _ = solver.solve_stack(mat, b)
            again = np.linalg.norm(np.einsum("sij,sj->si", mat, z) - b, axis=1)
            assert np.all(np.abs(residual - again) <= 4 * np.finfo(float).eps * np.linalg.norm(b, axis=1))


def test_brute_patch_median_error(built):
    """The median error of the anchor generator over brute's n = 1000
    (seed 1) patches stays at the figure ``solve_stack``'s comment gives:
    1.0049e-14 when Q was formed and Q^T b applied as a product, 9.93e-15
    from the R of [A | b]."""
    _, t, gt = built(1000, 1)
    err = []
    for cells, mat, rhs, _, _ in solver.patch_stacks(t.arrays, np.array(eligible_cells(t))):
        z = solver.solve_stack(mat, rhs)[1]
        err.extend(np.hypot(*(z[:, :2] - gt.generators[cells]).T))
    assert np.median(err) <= 1.005e-14


# ------------------------------------------------------------- equivariance


def test_solution_is_translation_equivariant(built):
    _, t, gt = built(100, 8)
    dx, dy = 3.25, -1.5
    t2 = transform_tessellation(t, lambda p: (p[0] + dx, p[1] + dy), lambda d: d)
    anchor = select_anchor(t2)
    sol = solve_patch(assemble_patch(t2, anchor))
    for c, (x, y) in zip(sol.members, sol.generators.tolist()):
        tx, ty = gt.generators[c]
        assert math.hypot(x - (tx + dx), y - (ty + dy)) < 1e-10


def test_solution_is_rotation_equivariant(built):
    _, t, gt = built(100, 8)
    th = 0.7
    co, si = math.cos(th), math.sin(th)

    def rot(p):
        return (co * p[0] - si * p[1], si * p[0] + co * p[1])

    t2 = transform_tessellation(t, rot, rot)
    anchor = select_anchor(t2)
    sol = solve_patch(assemble_patch(t2, anchor))
    for c, (x, y) in zip(sol.members, sol.generators.tolist()):
        rx, ry = rot(gt.generators[c])
        assert math.hypot(x - rx, y - ry) < 1e-10
