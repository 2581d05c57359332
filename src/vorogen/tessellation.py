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
``Tessellation.anchor_scores``, which needs each anchor's ring ridges.

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


def check_id(i: int, n: int, what: str) -> None:
    """Raise OutOfRangeIdError unless ``0 <= i < n``: an array would read a
    negative id from its end."""
    if not 0 <= i < n:
        raise OutOfRangeIdError(f"{what} {i} does not exist; there are {n} {what}s")


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

        Per vertex its (x, y); per ridge its two cells, two end vertices
        (a ray's second end means nothing), whether it is finite, and a
        ray's unit direction (NaN where it has none); per cell its ridge ids
        at ``cell_ridges[cell_start[c]:cell_start[c + 1]]`` and whether it
        is bounded. Ids are stored as int32 (``loads`` turns a larger one
        into the int32 bound) and are not checked here: ``validate`` reports
        bad ones and ``arrays`` refuses them. ValueError names the first
        array whose shape disagrees with the others' (``_check_shapes``).
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
        _check_shapes(*(getattr(self, name) for name in names))
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

    def diameter(self) -> float:
        x0, y0, x1, y1 = self._bbox
        return math.hypot(x1 - x0, y1 - y0) or 1.0

    def degeneracy_threshold(self) -> float:
        """Ridges shorter than this fraction of the diagram diameter are degenerate."""
        return geom.DEGENERACY_REL * self.diameter()

    @cached_property
    def arrays(self) -> "RidgeArrays":
        """The ridge geometry as arrays, built on first use and then kept.

        Raises on the first fault found, which ``validate`` lists too:
        OutOfRangeIdError for an id that does not exist, InconsistentSystemError
        for a vertex that is not finite or has a coordinate above
        ``geom.COORD_MAX``, vertices spanning a diagonal below
        ``geom.EXTENT_MIN`` (but above 0), a ray whose direction is missing or
        not unit length, a cell listing a ridge that does not border it, or a
        ridge not listed exactly once by each of its two cells. The vertex,
        extent and last two faults have ``validate``'s message; the others
        name the bad id or direction, where ``validate`` says "out-of-range"
        or "not unit length".
        """
        return _ridge_arrays(self)

    @cached_property
    def anchor_scores(self):
        """Every cell's ``anchor.ScoreTable``, built on first use and then kept."""
        from .anchor import build_score_table  # anchor imports this module

        return build_score_table(self)

    def ridge_line(self, rid: RidgeId) -> RidgeLine:
        check_id(rid, self.n_ridges, "ridge")
        a = self.arrays
        if a.degenerate[rid]:
            raise DegenerateRidgeError(
                f"ridge {rid} is {a.lengths[rid]:.3e} long"
                f" (minimum {self.degeneracy_threshold():.3e})"
            )
        anchor = Point2._make(a.vertices[a.ends[rid, 0]].tolist())
        return RidgeLine(anchor, UnitVec2._make(a.dirs[rid].tolist()))


def _check_shapes(vertices, ridge_cells, ridge_ends, finite, ray_dirs, cell_start, cell_ridges, bounded):
    """Raise ValueError naming the first of ``from_arrays``' arrays, each with
    at least one axis, whose shape disagrees with the others'."""
    r = ridge_cells.shape[:1]
    for name, value, shape in (
        ("vertices", vertices, vertices.shape[:1] + (2,)),
        ("ridge_cells", ridge_cells, r + (2,)),
        ("ridge_ends", ridge_ends, r + (2,)),
        ("finite", finite, r),
        ("ray_dirs", ray_dirs, r + (2,)),
        ("cell_ridges", cell_ridges, cell_ridges.shape[:1]),
        ("cell_start", cell_start, cell_start.shape[:1]),
    ):
        if value.shape != shape:
            raise ValueError(f"{name} has shape {value.shape}, expected {shape}")
    start, n = cell_start, len(cell_ridges)
    if not (len(start) and start[0] == 0 and start[-1] == n and (np.diff(start) >= 0).all()):
        raise ValueError(f"cell_start must run from 0 to len(cell_ridges) = {n} without decreasing")
    if len(bounded) != len(cell_start) - 1:
        raise ValueError(f"bounded has {len(bounded)} entries for {len(cell_start) - 1} cells")


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
    where none does. At a corner of a valid diagram that ridge is the
    third one, the outer ridge at the vertex the two entries' ridges share.

    Every id is checked to be in range. Ids are int32, which halves the
    index arrays every tessellation keeps; arithmetic on ids that can pass
    2**31 must widen them first. The cells, ends, finite flags and cell
    ridges are the tessellation's own storage, shared rather than copied.
    """

    vertices: np.ndarray  # (V, 2)
    cells: np.ndarray  # (R, 2) the two cells of each ridge
    ends: np.ndarray  # (R, 2) end vertex ids; a ray's second end means nothing
    finite: np.ndarray  # (R,) bool, says which ridges are rays (False)
    dirs: np.ndarray  # (R, 2) unit directions
    lengths: np.ndarray  # (R,) segment length, inf for rays
    degenerate: np.ndarray  # (R,) bool
    bounded: np.ndarray  # (C,) bool
    cell_start: np.ndarray  # (C + 1,) CSR offsets
    cell_ridges: np.ndarray  # (E,) ridge id of each boundary entry
    entry_cell: np.ndarray  # (E,) cell owning each entry
    cell_nbrs: np.ndarray  # (E,) cell across each entry's ridge
    ring: np.ndarray  # (E,) ring ridge of each entry, -1 for none

    @cached_property
    def mirrors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``solver.build_mirror_terms``, read-only, built on first use and then kept."""
        from .solver import build_mirror_terms  # solver imports this module
        return build_mirror_terms(self)


def ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The integers of every ``range(lo[k], hi[k])``, concatenated: the
    entries of CSR rows, for one."""
    count = hi - lo
    return np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())


def successors(cell_start) -> np.ndarray:
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
    nxt = successors(cell_start)
    a0, a1 = ends[cell_ridges].T
    fa = finite[cell_ridges]
    b0, b1, fb = a0[nxt], a1[nxt], fa[nxt]
    first_in = (a0 == b0) | (fb & (a0 == b1))
    second_in = fa & (a1 != a0) & ((a1 == b0) | (fb & (a1 == b1)))
    return np.where(first_in, a0, a1), first_in != second_in


@dataclass(frozen=True, eq=False)
class _Incidence:
    """Every structural fault of a tessellation, found by one pass over any
    storage (``_incidence``): ``Tessellation.arrays`` raises on the first and
    ``validate`` lists them all. Only a ridge whose cells and ends are in
    range (``ok``; a ray's missing end always is) has ``RidgeArrays``' geometry.
    """

    bad_cell: np.ndarray  # (R, 2) a ridge's cell id is out of range
    bad_end: np.ndarray  # (R, 2) a ridge's end vertex id is out of range
    ok: np.ndarray  # (R,)
    seg: np.ndarray  # (R, 2) from the first end to the second, zero for a ray
    lengths: np.ndarray  # (R,) inf for a ray
    degenerate: np.ndarray  # (R,)
    bad_ray: np.ndarray  # (R,) an ok ray whose direction is not unit length
    listings: np.ndarray  # (R, 2) how often each of a ridge's cells lists it, as floats
    nonfinite: np.ndarray  # (V,) a vertex with a non-finite coordinate
    huge: np.ndarray  # (V,) a vertex with a finite coordinate above ``geom.COORD_MAX``
    span_fault: str  # the vertices span a diagonal in (0, ``geom.EXTENT_MIN``); else ""
    owner: np.ndarray  # (E,) the cell of each entry
    in_range: np.ndarray  # (E,) the entry's ridge id is in range
    borders: np.ndarray  # (E,) the entry's ridge is one of its cell's
    nbrs: np.ndarray  # (E,) the other cell of the entry's ridge


def _incidence(t: Tessellation) -> _Incidence:
    # a gather by fancy or boolean index, or an any/all over two columns,
    # costs several times what the ``take`` and the ``|`` used here cost
    nv, nr, nc = t.n_vertices, t.n_ridges, t.n_cells
    cells, ends, finite, listed = t._cells, t._ends, t._finite, t._cell_ridges
    bad_cell = (cells < 0) | (cells >= nc)
    bad_end = (ends < 0) | (ends >= nv)
    bad_end[:, 1] &= finite
    ok = ~(bad_cell[:, 0] | bad_cell[:, 1] | bad_end[:, 0] | bad_end[:, 1])
    use = ok & finite
    # a ridge that is not in use reads a zero vector from a row past the vertices
    xy = np.concatenate((t._xy, np.zeros((1, 2))))
    v0 = np.where(ok, ends[:, 0], nv)
    with np.errstate(invalid="ignore"):  # inf - inf, where a vertex is not finite
        seg = xy.take(np.where(use, ends[:, 1], v0), 0) - xy.take(v0, 0)
    lengths = geom.hypot(seg[:, 0], seg[:, 1])
    lengths[~finite] = math.inf
    degenerate = use & ((ends[:, 0] == ends[:, 1]) | (lengths <= t.degeneracy_threshold()))
    bad_ray = ok & ~finite & ~geom.is_unit(t._rays.T)
    owner = np.repeat(np.arange(nc, dtype=np.int32), np.diff(t._cell_start))
    in_range = (listed >= 0) & (listed < nr)
    # an entry whose ridge id is out of range reads the cells -1 from a row past the ridges
    rid = np.where(in_range, listed, nr)
    c0, c1 = np.concatenate((cells, np.full((1, 2), -1, np.int32))).take(rid, 0).T
    s0, s1 = c0 == owner, c1 == owner
    listings = np.stack([np.bincount(rid, s, nr + 1)[:nr] for s in (s0, s1)], axis=1)
    x, y = np.abs(t._xy.T)
    nonfinite = ~np.isfinite(x) | ~np.isfinite(y)
    huge = ~nonfinite & ((x > geom.COORD_MAX) | (y > geom.COORD_MAX))
    span = t.diameter()  # 1.0 in place of 0, which is no fault either
    span_fault = f"vertices span {span:.3e}, below 2**-400" if 0.0 < span < geom.EXTENT_MIN else ""
    return _Incidence(
        bad_cell, bad_end, ok, seg, lengths, degenerate, bad_ray, listings, nonfinite, huge, span_fault,
        owner, in_range, s0 | s1, np.where(s0, c1, c0),
    )


def _ridge_arrays(t: Tessellation) -> RidgeArrays:
    nv, nr, nc = t.n_vertices, t.n_ridges, t.n_cells
    cells, ends, finite, listed = t._cells, t._ends, t._finite, t._cell_ridges
    inc = _incidence(t)
    for error, flagged, message in (
        (OutOfRangeIdError, inc.bad_cell.ravel(),
         lambda i: f"ridge {i // 2} references cell {cells.flat[i]}; there are {nc} cells"),
        (OutOfRangeIdError, inc.bad_end.T.ravel(),  # every first end before any second end
         lambda i: f"ridge {i % nr} references vertex {ends.T.flat[i]}; there are {nv} vertices"),
        (OutOfRangeIdError, ~inc.in_range,
         lambda e: f"cell {inc.owner[e]} references ridge {listed[e]}; there are {nr} ridges"),
        (InconsistentSystemError, inc.nonfinite | inc.huge, lambda v: _vertex_fault(inc, v)),
        (InconsistentSystemError, [inc.span_fault != ""], lambda _: inc.span_fault),
        (InconsistentSystemError, inc.bad_ray, lambda k: f"ray ridge {k} has direction"
         f" {None if math.isnan(t._rays[k, 0]) else tuple(t._rays[k].tolist())}, not a unit vector"),
        (InconsistentSystemError, ~inc.borders,
         lambda e: f"cell {inc.owner[e]} lists ridge {listed[e]} that does not border it"),
        (InconsistentSystemError, (inc.listings[:, 0] != 1) | (inc.listings[:, 1] != 1),
         lambda k: f"asymmetric adjacency at ridge {k} (cell {cells[k, int(inc.listings[k, 0] == 1)]})"),
    ):
        bad = np.flatnonzero(flagged)
        if len(bad):
            raise error(message(int(bad[0])))
    with np.errstate(divide="ignore", invalid="ignore"):
        dirs = inc.seg / inc.lengths[:, None]
    dirs[inc.degenerate] = math.nan
    dirs[~finite] = t._rays[~finite]
    return RidgeArrays(
        vertices=t._xy,
        cells=cells,
        ends=ends,
        finite=finite,
        dirs=dirs,
        lengths=inc.lengths,
        degenerate=inc.degenerate,
        bounded=t._bounded,
        cell_start=t._cell_start,
        cell_ridges=listed,
        entry_cell=inc.owner,
        cell_nbrs=inc.nbrs,
        ring=_ring_ridges(cells, inc.nbrs, inc.nbrs[successors(t._cell_start)], nc),
    )


def _vertex_fault(inc: _Incidence, v: int) -> str:
    if inc.nonfinite[v]:
        return f"vertex {v} has non-finite coordinates"
    return f"vertex {v} has a coordinate above 2**500 in magnitude"


def _ring_ridges(cells, c1, c2, nc: int) -> np.ndarray:
    """The lowest-id ridge joining cells ``c1[i]`` and ``c2[i]``, -1 where
    none does: a search of the ridges sorted by the key ``min * nc + max``
    of their cells, equal keys in id order. The queries are searched in key
    order too, which keeps the search in cache, and scattered back."""
    keys = np.minimum(*cells.T).astype(np.int64) * nc + np.maximum(*cells.T)
    by_key = np.argsort(keys, kind="stable").astype(np.int32)
    keys = keys[by_key]
    query = np.minimum(c1, c2).astype(np.int64) * nc + np.maximum(c1, c2)
    order = np.argsort(query)
    query = query[order]
    pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    ring = np.empty(len(query), np.int32)
    ring[order] = np.where(keys[pos] == query, by_key[pos], np.int32(-1))
    return ring


# -- validation ---------------------------------------------------------------


def validate(t: Tessellation) -> list[str]:
    """Check structural invariants; returns one message per violation.

    An empty list means the tessellation is internally consistent and in
    generic position (every vertex on exactly 3 ridges). Array passes, the
    first the one ``Tessellation.arrays`` runs (``_incidence``), flag the
    vertices, ridges and cells that messages are written for, in that order.
    """
    inc = _incidence(t)
    index = _vertex_index(t, inc)
    out = [_vertex_fault(inc, v) for v in np.flatnonzero(inc.nonfinite | inc.huge).tolist()]
    out += [inc.span_fault] if inc.span_fault else []
    cells, ok, thresh = t._cells, inc.ok, t.degeneracy_threshold()
    asym = ok[:, None] & (inc.listings != 1)
    flagged = (cells[:, 0] == cells[:, 1]) | ~ok | inc.degenerate | inc.bad_ray | asym[:, 0] | asym[:, 1]
    for k in np.flatnonzero(flagged).tolist():
        a, b = cells[k].tolist()
        if a == b:
            out.append(f"ridge {k} joins cell {a} to itself")
        if not ok[k]:
            out.append(f"ridge {k} references an out-of-range {'cell' if any(inc.bad_cell[k]) else 'vertex'}")
        if inc.degenerate[k]:
            out.append(f"degenerate ridge {k} (length below {thresh:.3e})")
        if inc.bad_ray[k]:
            out.append(f"ridge {k} ray direction is not unit length")
        out += [f"asymmetric adjacency at ridge {k} (cell {c})" for c, bad in zip((a, b), asym[k]) if bad]
    valence = np.diff(index[0])
    referenced = np.zeros(t.n_vertices, bool)
    referenced[t._ends[ok, 0]] = True
    referenced[t._ends[ok & t._finite, 1]] = True
    for v in np.flatnonzero(~referenced | (valence != 3)).tolist():
        if not referenced[v]:
            out.append(f"orphan vertex {v}")
        elif not _is_split_bisector(t, index, v):
            out.append(f"vertex {v} is shared by {valence[v]} ridges (expected 3)")
    return out + _validate_cells(t, inc, index)


def _vertex_index(t: Tessellation, inc: _Incidence) -> tuple[np.ndarray, np.ndarray]:
    """The ridges ending at each vertex, ascending, as CSR offsets (V + 1,)
    and ridge ids. Every end in range counts, so a finite ridge from v to v
    is listed twice."""
    at = ~inc.bad_end
    at[:, 1] &= t._finite
    vids = t._ends[at]
    start = np.concatenate(([0], np.cumsum(np.bincount(vids, minlength=t.n_vertices))))
    ridges = np.repeat(np.arange(t.n_ridges, dtype=np.int32), 2)[at.ravel()]
    return start, ridges[np.argsort(vids, kind="stable")]


def _is_split_bisector(t: Tessellation, index, v: VertexId) -> bool:
    """Two opposite rays from one vertex between the same two cells.

    This is how a bisector with no Voronoi vertex on it (the 2-site diagram)
    is represented, so it is tolerated at valence 2. ``index`` is
    ``_vertex_index``.
    """
    if 0 <= v < t.n_vertices:
        start, ridges = index
        rids = ridges[start[v] : start[v + 1]]
    else:  # an id out of range is in no index: look for its ridges
        hit = t._ends == v
        hit[:, 1] &= t._finite
        rids = np.flatnonzero(hit) // 2
    if len(rids) != 2 or t._finite[rids].any():
        return False
    (a1, b1), (a2, b2) = t._cells[rids].tolist()
    (x1, y1), (x2, y2) = t._rays[rids].tolist()
    return sorted((a1, b1)) == sorted((a2, b2)) and math.hypot(x1 + x2, y1 + y2) <= 1e-9


def _validate_cells(t: Tessellation, inc: _Incidence, index) -> list[str]:
    """Violations of each cell, in cell order. The polygon of a cell with a
    ridge that is not ``inc.ok``, or that ends at a vertex flagged non-finite
    or huge, is not checked.

    A cell is clean when every ridge it lists is in range and borders it.
    The boundary chains (``shared_corners``), rays and polygons of the clean
    cells are checked as array passes over a CSR index of their own.
    """
    nc = t.n_cells
    start, listed, bounded = t._cell_start, t._cell_ridges, t._bounded
    deg = np.diff(start)
    owner, in_range, borders = inc.owner, inc.in_range, inc.borders
    # -1, a bad or missing end, reads the row past the vertices
    wild = np.append(inc.nonfinite | inc.huge, False).take(np.where(inc.bad_end, -1, t._ends))
    skip = ~inc.ok | wild[:, 0] | wild[:, 1]
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
        elif not _is_parallel_strip(t, cell, index):
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
            length = geom.hypot(edge[..., 0], edge[..., 1])
            edge_next = np.roll(edge, -1, axis=1)
            cross = edge[..., 0] * edge_next[..., 1] - edge[..., 1] * edge_next[..., 0]
            norm = length * np.roll(length, -1, axis=1)
            bad = (norm > 0.0) & (cross < -1e-9 * norm)
            rows = np.flatnonzero(bad.any(axis=1))
            concave_at[cs[rows]] = np.roll(vid, -1, axis=1)[rows, bad[rows].argmax(axis=1)]
            ordered = np.sort(vid, axis=1)
            revisit[cs] = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
            term = p[..., 0] * p_next[..., 1] - p_next[..., 0] * p[..., 1]
            area2[cs] = geom.row_sum(term)
    return revisit, concave_at, area2


def _is_parallel_strip(t: Tessellation, cell: list[int], index) -> bool:
    """Cell bounded only by whole bisector lines (collinear-site diagrams).

    Such a cell is a half plane or a strip: every ridge is a ray, and the
    rays pair up into split bisectors through at most two vertices.
    """
    if t._finite[cell].any():
        return False
    verts = set(t._ends[cell, 0].tolist())
    if len(verts) * 2 != len(cell) or len(verts) > 2:
        return False
    return all(_is_split_bisector(t, index, v) for v in verts)


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
    decorated function (``loads``).

    A 10^4-cell file parses into about 160,000 lists and dicts, none of them
    in a reference cycle, yet building them would set off collections, full
    ones among them, that walk the tree and find nothing to free. ``dumps``
    runs unpaused: it builds mostly strings, which the collector does not
    track, and sets off a few young collections only. The collector is
    enabled again afterwards only if it was on before. The pause is
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
    if max(abs(x), abs(y)) > geom.COORD_MAX:
        raise ParseError(f"{where}: coordinates must be at most 2**500 in magnitude")
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
            if (np.abs(xy) <= geom.COORD_MAX).all():  # False for NaN
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
    if type(version) is not int or version != FORMAT_VERSION:  # true == 1.0 == 1
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
