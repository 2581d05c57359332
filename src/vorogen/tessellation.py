"""Tessellation data model, validation and (de)serialization.

A tessellation is the reconstruction input: vertices, ridges (finite
segments or rays), and cells holding counter-clockwise ridge lists. The
cell adjacency graph is implied by the ridges. Instances are immutable
after construction and safe to share across worker processes.

The storage is numpy arrays: the vertex coordinates, each ridge's cells,
end vertices and ray direction, and each cell's ridge list (a CSR index)
and bounded flag. The forward build and ``loads`` fill them directly;
``Ridge``/``Cell`` objects are converted once on the way in and built as
views (``vertices``, ``ridges``, ``cells``) only when asked for. The ridge
geometry the algorithms read is checked and derived from the storage on
first use, ``Tessellation.arrays``, and so is the anchor score table,
``Tessellation.anchor_scores``.

The file format is JSON with numbers written to 17 significant digits, so
save/load round-trips are bit exact.
"""

from __future__ import annotations

import gc
import json
import math
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from . import geom
from .errors import (
    DegenerateRidgeError,
    InconsistentSystemError,
    OutOfRangeIdError,
    ParseError,
    UnsupportedVersionError,
)
from .geom import Point2, RidgeLine, UnitVec2

CellId = int
RidgeId = int
VertexId = int

FORMAT_VERSION = 1

# items that validate and dumps handle at once, which bounds their temporaries
_BLOCK = 4096


@dataclass(frozen=True)
class Ridge:
    """Boundary between two cells: a finite segment ``(v0, v1)`` or a ray from ``v0``."""

    cells: tuple[CellId, CellId]
    v0: VertexId
    v1: Optional[VertexId] = None
    ray_dir: Optional[UnitVec2] = None

    @property
    def is_finite(self) -> bool:
        return self.v1 is not None

    def other_cell(self, c: CellId) -> CellId:
        a, b = self.cells
        return b if c == a else a

    def vertex_ids(self) -> tuple[VertexId, ...]:
        return (self.v0,) if self.v1 is None else (self.v0, self.v1)


@dataclass(frozen=True)
class Cell:
    """Ridge ids in counter-clockwise boundary order; rays first and last if unbounded."""

    ridges: tuple[RidgeId, ...]
    bounded: bool


def point_array(values) -> np.ndarray:
    """A point set as one read-only float64 (n, 2) array, row c for cell c.

    Any (n, 2) array-like is taken; a read-only float64 array is kept as it
    is, anything else copied.
    """
    xy = values
    if not (isinstance(xy, np.ndarray) and xy.dtype == np.float64 and not xy.flags.writeable):
        xy = np.array(values, float)
        if not xy.size:
            xy = xy.reshape(0, 2)  # an empty sequence has shape (0,)
        xy.flags.writeable = False
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) array of points, got shape {xy.shape}")
    return xy


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Generator points indexed by CellId (known only on the forward path),
    as ``point_array`` stores them."""

    generators: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "generators", point_array(self.generators))


def _ids(values) -> np.ndarray:
    """Ids as int32; one beyond that range becomes the nearest int32 bound,
    which is as far out of range for any tessellation that fits in memory."""
    try:
        return np.array(values, np.int32)
    except OverflowError:
        return np.clip(np.array(values, object), -(2**31), 2**31 - 1).astype(np.int32)


class Tessellation:
    """Immutable vertices/ridges/cells bundle; the algorithms read ``arrays``."""

    def __init__(self, vertices: Sequence, ridges: Sequence[Ridge], cells: Sequence[Cell]):
        """Convert hand-built objects to the array storage (``from_arrays``)."""
        ridges, cells = list(ridges), list(cells)
        no_dir = (math.nan, math.nan)
        ray_dirs = [no_dir if r.v1 is not None or r.ray_dir is None else r.ray_dir for r in ridges]
        self._store(
            np.reshape([(p[0], p[1]) for p in vertices], (-1, 2)),
            _ids([r.cells for r in ridges]).reshape(-1, 2),
            _ids([(r.v0, -1 if r.v1 is None else r.v1) for r in ridges]).reshape(-1, 2),
            [r.v1 is not None for r in ridges],
            np.reshape(ray_dirs, (-1, 2)),
            np.cumsum([0] + [len(c.ridges) for c in cells]),
            _ids([rid for c in cells for rid in c.ridges]),
            [c.bounded for c in cells],
        )

    @classmethod
    def from_arrays(
        cls, vertices, ridge_cells, ridge_ends, finite, ray_dirs, cell_start, cell_ridges, bounded
    ) -> "Tessellation":
        """A tessellation stored as the given arrays.

        Per vertex its (x, y); per ridge its two cells and two end vertices
        (-1 for a ray's missing end), whether it is finite, and a ray's unit
        direction (NaN where it has none); per cell its ridge ids at
        ``cell_ridges[cell_start[c]:cell_start[c + 1]]`` and whether it is
        bounded. Ids are stored as int32 (``loads`` turns a larger one into
        the int32 bound) and are not checked here: ``validate`` reports bad
        ones and ``arrays`` refuses them.
        """
        t = cls.__new__(cls)
        t._store(vertices, ridge_cells, ridge_ends, finite, ray_dirs, cell_start, cell_ridges, bounded)
        return t

    def _store(self, *arrays) -> None:
        names = ("_xy", "_cells", "_ends", "_finite", "_rays", "_cell_start", "_cell_ridges", "_bounded")
        dtypes = (float, np.int32, np.int32, bool, float, np.int64, np.int32, bool)
        for name, dtype, value in zip(names, dtypes, arrays):
            value = np.ascontiguousarray(value, dtype)
            value.flags.writeable = False
            setattr(self, name, value)
        self.n_vertices, self.n_ridges, self.n_cells = len(self._xy), len(self._cells), len(self._bounded)
        xs, ys = self._xy.T.tolist()
        self._bbox = (min(xs), min(ys), max(xs), max(ys)) if xs else (0.0, 0.0, 0.0, 0.0)

    # -- object views, built on first access --------------------------------

    @cached_property
    def vertices(self) -> tuple[Point2, ...]:
        return tuple(map(Point2._make, self._xy.tolist()))

    @cached_property
    def ridges(self) -> tuple[Ridge, ...]:
        def ridge(cells, ends, finite, d):
            if finite:
                return Ridge(tuple(cells), *ends)
            return Ridge(tuple(cells), ends[0], ray_dir=None if math.isnan(d[0]) else UnitVec2._make(d))

        rows = (self._cells.tolist(), self._ends.tolist(), self._finite.tolist(), self._rays.tolist())
        return tuple(map(ridge, *rows))

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        rids, start = self._cell_ridges.tolist(), self._cell_start.tolist()
        return tuple(
            Cell(tuple(rids[lo:hi]), b) for lo, hi, b in zip(start, start[1:], self._bounded.tolist())
        )

    # -- derived geometry ---------------------------------------------------

    def bbox(self) -> tuple[float, float, float, float]:
        return self._bbox

    def diameter(self) -> float:
        x0, y0, x1, y1 = self._bbox
        return math.hypot(x1 - x0, y1 - y0) or 1.0

    def degeneracy_threshold(self) -> float:
        """Ridges shorter than this fraction of the diagram diameter are degenerate."""
        return geom.DEGENERACY_REL * self.diameter()

    @cached_property
    def arrays(self) -> "RidgeArrays":
        """The ridge geometry as arrays, built on first use and then kept.

        Raises OutOfRangeIdError when a ridge or cell refers to an id that
        does not exist, and InconsistentSystemError for a non-finite vertex
        or a ray whose direction is missing or not unit length.
        """
        return _ridge_arrays(self)

    @cached_property
    def anchor_scores(self):
        """Every cell's ``anchor.ScoreTable``, built on first use and then kept."""
        from .anchor import build_score_table  # anchor imports this module

        return build_score_table(self)

    def ridge_line(self, rid: RidgeId) -> RidgeLine:
        a = self.arrays
        if a.degenerate[rid]:
            raise DegenerateRidgeError(
                f"ridge {rid} is {a.lengths[rid]:.3e} long"
                f" (minimum {self.degeneracy_threshold():.3e})"
            )
        anchor = Point2._make(a.vertices[a.ends[rid, 0]].tolist())
        return RidgeLine(anchor, UnitVec2._make(a.dirs[rid].tolist()))


@dataclass(frozen=True, eq=False)
class RidgeArrays:
    """Struct-of-arrays view of a tessellation's ridges and cell boundaries.

    Row ``k`` of a per-ridge array describes ridge ``k``, whose line is
    anchored at its first vertex, ``vertices[ends[k, 0]]``. A finite ridge's
    direction is its vector from the first vertex to the second divided by
    its ``math.hypot`` length, as ``Tessellation.ridge_line`` hands it out;
    rays keep their stored direction, and degenerate ridges (no longer than
    the degeneracy threshold) have NaN directions. The CSR index lists cell
    ``c``'s boundary at entries ``cell_start[c]:cell_start[c + 1]`` in CCW
    order, each entry with its ridge id, its cell, the cell across its
    ridge and its ring ridge: the lowest-id ridge joining that neighbour to
    the neighbour of the cell's next entry (its first after its last), -1
    where none does. A second index lists the ridges ending at each vertex,
    ascending.

    Every id is checked to be in range. Ids are int32, which halves the
    index arrays every tessellation keeps; arithmetic on ids that can pass
    2**31 must widen them first. The cells, ends and cell ridges are the
    tessellation's own storage, shared rather than copied.
    """

    vertices: np.ndarray  # (V, 2)
    cells: np.ndarray  # (R, 2) the two cells of each ridge
    ends: np.ndarray  # (R, 2) end vertex ids; -1 in column 1 for rays
    dirs: np.ndarray  # (R, 2) unit directions
    lengths: np.ndarray  # (R,) segment length, inf for rays
    degenerate: np.ndarray  # (R,) bool
    bounded: np.ndarray  # (C,) bool
    cell_start: np.ndarray  # (C + 1,) CSR offsets
    cell_ridges: np.ndarray  # (E,) ridge id of each boundary entry
    entry_cell: np.ndarray  # (E,) cell owning each entry
    cell_nbrs: np.ndarray  # (E,) cell across each entry's ridge
    ring: np.ndarray  # (E,) ring ridge of each entry, -1 for none
    vertex_start: np.ndarray  # (V + 1,) offsets into vertex_ridges
    vertex_ridges: np.ndarray  # ridges ending at each vertex, ascending

    @property
    def finite(self) -> np.ndarray:
        return self.ends[:, 1] >= 0


def _is_unit(dirs: np.ndarray) -> np.ndarray:
    """``geom.is_unit`` of each row; False for NaN."""
    x, y = dirs.T
    return np.abs(x * x + y * y - 1.0) <= geom.UNIT_TOL


def _segments(xy, ends, finite) -> tuple[np.ndarray, np.ndarray]:
    """Each ridge's vector from its first end to its second (zero for a ray)
    and its length. math.hypot, not np.hypot: the two round differently on
    about a third of the ridges, and every direction's bits would move."""
    seg = xy[np.where(finite, ends[:, 1], ends[:, 0])] - xy[ends[:, 0]]
    return seg, np.fromiter(map(math.hypot, *seg.T), float, len(seg))


def _vertex_index(ends, finite, nv: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR offsets and ids of the ridges ending at each vertex, ascending.

    Every ridge end naming a vertex in range counts, so a finite ridge from
    ``v`` to ``v`` is listed twice.
    """
    vids = ends.ravel()
    use = (vids >= 0) & (vids < nv)
    use[1::2] &= finite
    start = np.concatenate(([0], np.cumsum(np.bincount(vids[use], minlength=nv))))
    rids = np.repeat(np.arange(len(ends), dtype=np.int32), 2)
    return start, rids[use][np.argsort(vids[use], kind="stable")]


def ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The integers of every ``range(lo[k], hi[k])``, concatenated: the
    entries of CSR rows, for one."""
    count = hi - lo
    return np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())


def _successors(cell_start) -> np.ndarray:
    """The next boundary entry of each entry's cell, a cell's first after its last."""
    nxt = np.arange(1, cell_start[-1] + 1)
    last = np.flatnonzero(np.diff(cell_start)) + 1
    nxt[cell_start[last] - 1] = cell_start[last - 1]
    return nxt


def shared_corners(ends, finite, cell_start, cell_ridges) -> tuple[np.ndarray, np.ndarray]:
    """The corner each boundary entry shares with the next one of its cell
    (a cell's last entry with its first).

    Returns, per entry, the vertex id and whether the two ridges share
    exactly one vertex; the id means nothing where they do not.
    """
    nxt = _successors(cell_start)
    a0, a1 = ends[cell_ridges].T
    fa = finite[cell_ridges]
    b0, b1, fb = a0[nxt], a1[nxt], fa[nxt]
    first_in = (a0 == b0) | (fb & (a0 == b1))
    second_in = fa & (a1 != a0) & ((a1 == b0) | (fb & (a1 == b1)))
    return np.where(first_in, a0, a1), first_in != second_in


def _ridge_arrays(t: Tessellation) -> RidgeArrays:
    nv, nr, nc = t.n_vertices, t.n_ridges, t.n_cells
    cells, ends, finite = t._cells, t._ends, t._finite
    rids = np.arange(nr)
    owner = np.repeat(np.arange(nc, dtype=np.int32), np.diff(t._cell_start))
    for kind, who, refs, what, limit in (
        ("ridge", np.repeat(rids, 2), cells.ravel(), ("cell", "cells"), nc),
        ("ridge", rids, ends[:, 0], ("vertex", "vertices"), nv),
        ("ridge", rids[finite], ends[finite, 1], ("vertex", "vertices"), nv),
        ("cell", owner, t._cell_ridges, ("ridge", "ridges"), nr),
    ):
        bad = np.flatnonzero((refs < 0) | (refs >= limit))
        if len(bad):
            k = bad[0]
            raise OutOfRangeIdError(
                f"{kind} {who[k]} references {what[0]} {refs[k]}; there are {limit} {what[1]}"
            )
    bad = np.flatnonzero(~np.isfinite(t._xy).all(axis=1))
    if len(bad):
        raise InconsistentSystemError(f"vertex {bad[0]} has non-finite coordinates")
    bad = np.flatnonzero(~finite & ~_is_unit(t._rays))
    if len(bad):
        x, y = t._rays[bad[0]].tolist()
        d = None if math.isnan(x) else (x, y)
        raise InconsistentSystemError(f"ray ridge {bad[0]} has direction {d}, not a unit vector")
    seg, lengths = _segments(t._xy, ends, finite)
    lengths[~finite] = math.inf
    degenerate = finite & ((lengths <= t.degeneracy_threshold()) | (lengths == 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        dirs = seg / lengths[:, None]
    dirs[degenerate] = math.nan
    dirs[~finite] = t._rays[~finite]
    pair = cells[t._cell_ridges]
    nbrs = np.where(pair[:, 0] == owner, pair[:, 1], pair[:, 0])
    vertex_start, vertex_ridges = _vertex_index(ends, finite, nv)
    return RidgeArrays(
        vertices=t._xy,
        cells=cells,
        ends=ends,
        dirs=dirs,
        lengths=lengths,
        degenerate=degenerate,
        bounded=t._bounded,
        cell_start=t._cell_start,
        cell_ridges=t._cell_ridges,
        entry_cell=owner,
        cell_nbrs=nbrs,
        ring=_ring_ridges(cells, nbrs, nbrs[_successors(t._cell_start)], nc),
        vertex_start=vertex_start,
        vertex_ridges=vertex_ridges,
    )


def _ring_ridges(cells, c1, c2, nc: int) -> np.ndarray:
    """The lowest-id ridge joining cells ``c1[i]`` and ``c2[i]``, -1 where
    none does: a search of the ridges sorted by the key ``min * nc + max``
    of their cells, equal keys in id order."""
    keys = cells.min(axis=1).astype(np.int64) * nc + cells.max(axis=1)
    by_key = np.argsort(keys, kind="stable").astype(np.int32)
    keys = keys[by_key]
    query = np.minimum(c1, c2).astype(np.int64) * nc + np.maximum(c1, c2)
    pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return np.where(keys[pos] == query, by_key[pos], np.int32(-1))


# -- validation ---------------------------------------------------------------


def validate(t: Tessellation) -> list[str]:
    """Check structural invariants; returns one message per violation.

    An empty list means the tessellation is internally consistent and in
    generic position (every vertex on exactly 3 ridges). Each check is an
    array pass; messages are written for the vertices, ridges and cells it
    flags, in that order. Each part runs in its own function, so that its
    temporaries are freed before the next part starts.
    """
    nonfinite = np.flatnonzero(~np.isfinite(t._xy).all(axis=1)).tolist()
    out = [f"vertex {i} has non-finite coordinates" for i in nonfinite]
    ok = _validate_ridges(t, out)
    vertex_start, vertex_ridges = _vertex_index(t._ends, t._finite, t.n_vertices)
    valence = np.diff(vertex_start)
    referenced = np.zeros(t.n_vertices, bool)
    referenced[t._ends[ok, 0]] = True
    referenced[t._ends[ok & t._finite, 1]] = True
    for v in np.flatnonzero(~referenced | (valence != 3)).tolist():
        if not referenced[v]:
            out.append(f"orphan vertex {v}")
        elif not _is_split_bisector(t, vertex_start, vertex_ridges, v):
            out.append(f"vertex {v} is shared by {valence[v]} ridges (expected 3)")
    return out + _validate_cells(t, ~ok, vertex_start, vertex_ridges)


def _validate_ridges(t: Tessellation, out: list[str]) -> np.ndarray:
    """Append each ridge's violations to ``out``; returns which ridges have
    every id in range."""
    nv, nr, nc = t.n_vertices, t.n_ridges, t.n_cells
    cells, ends, finite = t._cells, t._ends, t._finite
    thresh = t.degeneracy_threshold()
    bad_cell = ((cells < 0) | (cells >= nc)).any(axis=1)
    outside = (ends < 0) | (ends >= nv)
    bad_vertex = ~bad_cell & (outside[:, 0] | (finite & outside[:, 1]))
    ok = ~bad_cell & ~bad_vertex
    _, length = _segments(t._xy, ends[ok], finite[ok])
    degenerate = np.zeros(nr, bool)
    degenerate[ok] = finite[ok] & ((ends[ok, 0] == ends[ok, 1]) | (length <= thresh))
    bad_ray = ok & ~finite & ~_is_unit(t._rays)
    # how often each ridge is listed by each of its cells
    owner = np.repeat(np.arange(nc), np.diff(t._cell_start))
    listed = t._cell_ridges
    in_range = (listed >= 0) & (listed < nr)
    owner, listed = owner[in_range], listed[in_range]
    count = [np.bincount(listed[cells[listed, j] == owner], minlength=nr) for j in (0, 1)]
    asym = ok[:, None] & (np.stack(count, axis=1) != 1)
    flagged = (cells[:, 0] == cells[:, 1]) | ~ok | degenerate | bad_ray | asym.any(axis=1)
    for k in np.flatnonzero(flagged).tolist():
        a, b = cells[k].tolist()
        if a == b:
            out.append(f"ridge {k} joins cell {a} to itself")
        if not ok[k]:
            out.append(f"ridge {k} references an out-of-range {'cell' if bad_cell[k] else 'vertex'}")
        if degenerate[k]:
            out.append(f"degenerate ridge {k} (length below {thresh:.3e})")
        if bad_ray[k]:
            out.append(f"ridge {k} ray direction is not unit length")
        out += [f"asymmetric adjacency at ridge {k} (cell {c})" for c, bad in zip((a, b), asym[k]) if bad]
    return ok


def _is_split_bisector(t: Tessellation, vertex_start, vertex_ridges, v: VertexId) -> bool:
    """Two opposite rays from one vertex between the same two cells.

    This is how a bisector with no Voronoi vertex on it (the 2-site diagram)
    is represented, so it is tolerated at valence 2.
    """
    if 0 <= v < t.n_vertices:
        rids = vertex_ridges[vertex_start[v] : vertex_start[v + 1]]
    else:  # an id out of range is in no index: look for its ridges
        hit = t._ends == v
        hit[:, 1] &= t._finite
        rids = np.flatnonzero(hit) // 2
    if len(rids) != 2 or t._finite[rids].any():
        return False
    (a1, b1), (a2, b2) = t._cells[rids].tolist()
    (x1, y1), (x2, y2) = t._rays[rids].tolist()
    return sorted((a1, b1)) == sorted((a2, b2)) and math.hypot(x1 + x2, y1 + y2) <= 1e-9


def _validate_cells(t: Tessellation, skip, vertex_start, vertex_ridges) -> list[str]:
    """Violations of each cell, in cell order. ``skip`` marks the ridges
    reported for an out-of-range id, whose polygon cannot be walked.

    A cell is clean when every ridge it lists is in range and borders it.
    The boundary chains (``shared_corners``), rays and polygons of the clean
    cells are checked as array passes over a CSR index of their own.
    """
    nr, nc = t.n_ridges, t.n_cells
    start, listed, bounded = t._cell_start, t._cell_ridges, t._bounded
    deg = np.diff(start)
    owner = np.repeat(np.arange(nc), deg)
    in_range = (listed >= 0) & (listed < nr)
    borders = in_range.copy()
    borders[in_range] = (t._cells[listed[in_range]] == owner[in_range, None]).any(axis=1)
    clean = (deg > 0) & (np.bincount(owner[~borders], minlength=nc) == 0)
    rids, own = listed[clean[owner]], owner[clean[owner]]
    sub_start = np.concatenate(([0], np.cumsum(deg[clean])))
    first, last = sub_start[:-1], sub_start[1:] - 1
    corner, closes = shared_corners(t._ends, t._finite, sub_start, rids)
    ray = ~t._finite[rids]
    rays = np.bincount(own[ray], minlength=nc)
    touches_skip = np.bincount(own[skip[rids]], minlength=nc) > 0
    closed = np.bincount(own[~closes], minlength=nc) == 0
    open_ends = np.zeros(nc, bool)  # unbounded: the chain runs from a ray to a ray
    open_ends[clean] = ray[first] & ray[last]
    closes[last] = True  # from here on: an open chain's breaks
    chain_ok = np.bincount(own[~closes], minlength=nc) == 0
    row = np.cumsum(clean) - 1  # a clean cell's row in the index of its own
    polygon = np.flatnonzero(clean & bounded & (rays == 0) & ~touches_skip & (deg >= 3) & closed)
    revisit, concave_at, area2 = _polygon_checks(t, polygon, sub_start[row[polygon]], corner)
    bad_polygon = (deg < 3) | ~closed | revisit | (concave_at >= 0) | (area2 <= 0.0)
    bad_chain = (rays != 2) | ~open_ends | ~chain_ok
    flagged = ~clean | np.where(bounded, (rays > 0) | (~touches_skip & bad_polygon), bad_chain)

    out = []
    for c in np.flatnonzero(flagged).tolist():
        lo, hi = start[c], start[c + 1]
        cell = listed[lo:hi].tolist()
        sub = slice(sub_start[row[c]], sub_start[row[c]] + len(cell))
        if not cell:
            out.append(f"cell {c} has no ridges")
        elif not in_range[lo:hi].all():
            out.append(f"cell {c} references out-of-range ridge {cell[np.argmin(in_range[lo:hi])]}")
        elif not clean[c]:
            out += [
                f"cell {c} lists ridge {rid} that does not border it"
                for rid, b in zip(cell, borders[lo:hi]) if not b
            ]
        elif bounded[c] and rays[c]:
            out.append(f"bounded cell {c} contains ray ridge {cell[np.argmax(ray[sub])]}")
        elif bounded[c] and touches_skip[c]:
            pass
        elif bounded[c] and deg[c] < 3:
            out.append(f"bounded cell {c} has only {deg[c]} ridges")
        elif bounded[c] and not closed[c]:
            out.append(f"cell {c} ridges do not chain into a closed polygon")
        elif bounded[c] and revisit[c]:
            out.append(f"cell {c} polygon revisits a vertex")
        elif bounded[c] and concave_at[c] >= 0:
            out.append(f"cell {c} polygon is not convex at vertex {concave_at[c]}")
        elif bounded[c]:
            out.append(f"cell {c} polygon is not counter-clockwise")
        elif not _is_parallel_strip(t, cell, vertex_start, vertex_ridges):
            if rays[c] != 2:
                out.append(f"unbounded cell {c} has {rays[c]} ray ridges (expected 2)")
            elif not open_ends[c]:
                out.append(f"unbounded cell {c} does not start and end with its rays")
            out += [
                f"cell {c} boundary chain breaks between ridges {cell[i]} and {cell[i + 1]}"
                for i in np.flatnonzero(~closes[sub]).tolist()
            ]
    return out


def _polygon_checks(t: Tessellation, cells: np.ndarray, first: np.ndarray, corner: np.ndarray):
    """Per cell: whether its polygon revisits a vertex, the vertex of its
    first reflex corner (-1 if none) and twice its signed area.

    ``cells`` are the cells to check and ``first`` their first boundary
    entry in ``corner``, the vertex each entry shares with the next (here
    always in range). Up to ``_BLOCK`` cells of one degree are checked
    together, one row of a matrix each; the area is summed corner by corner
    from the first, as a loop would.
    """
    nc = t.n_cells
    revisit, concave_at, area2 = np.zeros(nc, bool), np.full(nc, -1), np.zeros(nc)
    degree = np.diff(t._cell_start)[cells]
    for k in np.unique(degree).tolist():
        of_k = np.flatnonzero(degree == k)
        for part in (of_k[lo : lo + _BLOCK] for lo in range(0, len(of_k), _BLOCK)):
            cs, vid = cells[part], corner[first[part, None] + np.arange(k)]
            p = t._xy[vid]
            p_next = np.roll(p, -1, axis=1)
            edge = p_next - p  # from each corner to the next
            length = np.fromiter(map(math.hypot, *edge.reshape(-1, 2).T), float, vid.size)
            length = length.reshape(vid.shape)
            edge_next = np.roll(edge, -1, axis=1)
            cross = edge[..., 0] * edge_next[..., 1] - edge[..., 1] * edge_next[..., 0]
            norm = length * np.roll(length, -1, axis=1)
            bad = (norm > 0.0) & (cross < -1e-9 * norm)
            rows = np.flatnonzero(bad.any(axis=1))
            concave_at[cs[rows]] = np.roll(vid, -1, axis=1)[rows, bad[rows].argmax(axis=1)]
            ordered = np.sort(vid, axis=1)
            revisit[cs] = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
            term = p[..., 0] * p_next[..., 1] - p_next[..., 0] * p[..., 1]
            for col in range(k):
                area2[cs] += term[:, col]
    return revisit, concave_at, area2


def _is_parallel_strip(t: Tessellation, cell: list[int], vertex_start, vertex_ridges) -> bool:
    """Cell bounded only by whole bisector lines (collinear-site diagrams).

    Such a cell is a half plane or a strip: every ridge is a ray, and the
    rays pair up into split bisectors through at most two vertices.
    """
    if t._finite[cell].any():
        return False
    verts = set(t._ends[cell, 0].tolist())
    if len(verts) * 2 != len(cell) or len(verts) > 2:
        return False
    return all(_is_split_bisector(t, vertex_start, vertex_ridges, v) for v in verts)


# -- serialization ------------------------------------------------------------


_NO_DIR = (math.nan, math.nan)
_FINITE = '{"cells": [%d, %d], "finite": [%d, %d]}'
_RAY = '{"cells": [%d, %d], "ray": {"v": %d, "dir": [%.17g, %.17g]}}'


def _cell_template(degree: int, bounded: bool) -> str:
    ids = ", ".join(["%d"] * degree)
    return f'{{"ridges": [{ids}], "bounded": {"true" if bounded else "false"}}}'


@contextmanager
def _gc_paused():
    """Keep the cyclic garbage collector off inside the block or the
    decorated function (``dumps``, ``loads``).

    A 10^4-cell file is about 160,000 lists and dicts, none of them in a
    reference cycle, yet building them would set off collections, full ones
    among them, that walk the tree and find nothing to free. The collector
    is enabled again afterwards only if it was on before. The pause is
    process-wide: cycles made by another thread meanwhile wait until it ends.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _text(n: int, block_text) -> str:
    """``block_text(lo, hi)`` of consecutive blocks of ``n`` items, joined."""
    return ", ".join([block_text(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK)])


def _points_text(xy: np.ndarray) -> str:
    def block(lo: int, hi: int) -> str:
        return ", ".join(["[%.17g, %.17g]"] * (hi - lo)) % tuple(xy[lo:hi].ravel().tolist())

    return _text(len(xy), block)


@_gc_paused()
def dumps(t: Tessellation, gt: Optional[GroundTruth] = None) -> str:
    """Deterministic textual form of a tessellation (17 significant digits).

    Each block of items is written by one %-format: a finite ridge fills
    ``_FINITE`` with its cells and ends, a ray ``_RAY`` with its cells,
    vertex and direction, and a cell the template of its degree.
    """

    def ridges(lo: int, hi: int) -> str:
        finite = t._finite[lo:hi]
        fields = np.empty((hi - lo, 5), object)
        fields[:, :2], fields[:, 2:4] = t._cells[lo:hi], t._ends[lo:hi]
        fields[~finite, 3:] = t._rays[lo:hi][~finite]
        used = np.ones(fields.shape, bool)
        used[finite, 4] = False
        return ", ".join([_FINITE if f else _RAY for f in finite.tolist()]) % tuple(fields[used])

    def cells(lo: int, hi: int) -> str:
        start = t._cell_start[lo : hi + 1]
        kinds = list(zip(np.diff(start).tolist(), t._bounded[lo:hi].tolist()))
        template = {kind: _cell_template(*kind) for kind in set(kinds)}
        ids = t._cell_ridges[start[0] : start[-1]].tolist()
        return ", ".join([template[kind] for kind in kinds]) % tuple(ids)

    parts = [
        f'{{\n  "version": {FORMAT_VERSION},\n  "vertices": [', _points_text(t._xy),
        '],\n  "ridges": [', _text(t.n_ridges, ridges),
        '],\n  "cells": [', _text(t.n_cells, cells), "]",
    ]
    if gt is not None:
        parts += [',\n  "generators": [', _points_text(gt.generators), "]"]
    return "".join(parts + ["\n}\n"])


def save(t: Tessellation, path, gt: Optional[GroundTruth] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(t, gt))


def _parse_point(obj, where: str) -> tuple[float, float]:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj)
    ):
        raise ParseError(f"{where}: expected a [x, y] number pair, got {obj!r}")
    try:
        x, y = float(obj[0]), float(obj[1])
    except OverflowError:  # an integer beyond the float range
        x = y = math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ParseError(f"{where}: coordinates must be finite")
    return x, y


def _parse_points(objs: list, where: str) -> np.ndarray:
    """The [x, y] number pairs ``objs`` as an (N, 2) array, converted at once
    when all of them are valid; otherwise one by one, so that the ParseError
    names the first bad one."""
    if all(type(p) is list and len(p) == 2 for p in objs) and (
        set(map(type, chain.from_iterable(objs))) <= {int, float}
    ):
        with suppress(OverflowError):  # an integer beyond the float range
            xy = np.array(objs, float).reshape(-1, 2)
            if np.isfinite(xy).all():
                return xy
    return np.reshape([_parse_point(p, f"{where}[{i}]") for i, p in enumerate(objs)], (-1, 2))


def _is_int_pair(obj) -> bool:
    return type(obj) is list and len(obj) == 2 and type(obj[0]) is int and type(obj[1]) is int


@_gc_paused()
def loads(text: str) -> tuple[Tessellation, Optional[GroundTruth]]:
    """Parse the textual format; raises ParseError / UnsupportedVersionError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"unsupported format version {version!r} (expected {FORMAT_VERSION})"
        )
    for field in ("vertices", "ridges", "cells"):
        if field not in doc:
            raise ParseError(f"missing required field '{field}'")
        if not isinstance(doc[field], list):
            raise ParseError(f"field '{field}' must be an array")
    xy = _parse_points(doc["vertices"], "vertices")
    pairs: list[int] = []
    ends: list[int] = []
    ray_dirs: list[tuple[float, float]] = []  # NaN for a finite ridge
    for i, robj in enumerate(doc["ridges"]):
        if type(robj) is not dict:
            raise ParseError(f"ridges[{i}]: expected an object")
        cells = robj.get("cells")
        if not _is_int_pair(cells):
            raise ParseError(f"ridges[{i}].cells: expected a [cell, cell] integer pair, got {cells!r}")
        pairs += cells
        has_finite = "finite" in robj
        if has_finite == ("ray" in robj):
            raise ParseError(f"ridges[{i}]: exactly one of 'finite' or 'ray' is required")
        if has_finite:
            if not _is_int_pair(robj["finite"]):
                raise ParseError(f"ridges[{i}].finite: expected a [v0, v1] integer pair")
            ends += robj["finite"]
            ray_dirs.append(_NO_DIR)
            continue
        ray = robj["ray"]
        if type(ray) is not dict or "v" not in ray or "dir" not in ray:
            raise ParseError(f"ridges[{i}].ray: expected an object with 'v' and 'dir'")
        if type(ray["v"]) is not int:
            raise ParseError(f"ridges[{i}].ray.v: expected an integer vertex id")
        d = _parse_point(ray["dir"], f"ridges[{i}].ray.dir")
        if not geom.is_unit(d):
            raise ParseError(f"ridges[{i}].ray.dir: direction must be unit length")
        ends += (ray["v"], -1)
        ray_dirs.append(d)
    counts = [0]
    listed: list[int] = []
    bounded = []
    for i, cobj in enumerate(doc["cells"]):
        if type(cobj) is not dict:
            raise ParseError(f"cells[{i}]: expected an object")
        rid_list = cobj.get("ridges")
        if type(rid_list) is not list or not all(type(v) is int for v in rid_list):
            raise ParseError(f"cells[{i}].ridges: expected an array of ridge ids")
        if type(cobj.get("bounded")) is not bool:
            raise ParseError(f"cells[{i}].bounded: expected a boolean")
        listed += rid_list
        counts.append(len(rid_list))
        bounded.append(cobj["bounded"])
    gt = None
    if "generators" in doc:
        gens = doc["generators"]
        if not isinstance(gens, list):
            raise ParseError("field 'generators' must be an array")
        if len(gens) != len(bounded):
            raise ParseError(
                f"field 'generators' has {len(gens)} entries for {len(bounded)} cells"
            )
        points = _parse_points(gens, "generators")
        points.flags.writeable = False  # so GroundTruth keeps it uncopied
        gt = GroundTruth(points)
    del doc
    ray_dirs = np.reshape(ray_dirs, (-1, 2))
    t = Tessellation.from_arrays(
        xy, _ids(pairs).reshape(-1, 2), _ids(ends).reshape(-1, 2), np.isnan(ray_dirs[:, 0]),
        ray_dirs, np.cumsum(counts), _ids(listed), bounded,
    )
    return t, gt


def load(path) -> tuple[Tessellation, Optional[GroundTruth]]:
    """Read a tessellation file; OSError propagates for missing/unreadable paths."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return loads(text)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from e
