"""Tessellation data model, validation, traversal and (de)serialization.

A tessellation is the reconstruction input: vertices, ridges (finite
segments or rays), and cells holding counter-clockwise ridge lists. The
cell adjacency graph is implied by the ridges. Instances are immutable
after construction and safe to share across worker processes.

The ridge geometry the algorithms read (unit directions, lengths, a CSR
cell -> ridge index) is computed once per instance, as numpy arrays, on
first use: ``Tessellation.arrays``. The anchor score table built from it
is kept the same way, as ``Tessellation.anchor_scores``.

The file format is JSON with numbers written to 17 significant digits, so
save/load round-trips are bit exact.
"""

from __future__ import annotations

import json
import math
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


@dataclass(frozen=True)
class GroundTruth:
    """Generator points indexed by CellId (known only on the forward path)."""

    generators: tuple[Point2, ...]


class Tessellation:
    """Immutable vertices/ridges/cells bundle; lookups go through ``arrays``."""

    def __init__(self, vertices: Sequence, ridges: Sequence[Ridge], cells: Sequence[Cell]):
        self.vertices: tuple[Point2, ...] = tuple(Point2(float(p[0]), float(p[1])) for p in vertices)
        self.ridges: tuple[Ridge, ...] = tuple(ridges)
        self.cells: tuple[Cell, ...] = tuple(cells)
        if self.vertices:
            xs = [p.x for p in self.vertices]
            ys = [p.y for p in self.vertices]
            self._bbox = (min(xs), min(ys), max(xs), max(ys))
        else:
            self._bbox = (0.0, 0.0, 0.0, 0.0)

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
        return RidgeLine(self.vertices[self.ridges[rid].v0], UnitVec2._make(a.dirs[rid].tolist()))

    def vertex_ridges(self, v: VertexId) -> tuple[RidgeId, ...]:
        """Ridges ending at vertex ``v``, ascending."""
        a = self.arrays
        if not 0 <= v < len(self.vertices):
            return ()
        return tuple(a.vertex_ridges[a.vertex_start[v] : a.vertex_start[v + 1]].tolist())


@dataclass(frozen=True, eq=False)
class RidgeArrays:
    """Struct-of-arrays view of a tessellation's ridges and cell boundaries.

    Row ``k`` of a per-ridge array describes ridge ``k``, whose line is
    anchored at its first vertex, ``vertices[ends[k, 0]]``. Directions are
    computed as ``geom.line_from_two_points`` computes them (one
    ``math.hypot`` per ridge), so they are bit-identical to
    ``Tessellation.ridge_line``; rays keep their stored direction, and
    degenerate ridges (no longer than the degeneracy threshold) have NaN
    directions. The CSR index lists cell ``c``'s boundary at entries
    ``cell_start[c]:cell_start[c + 1]`` in CCW order, each entry with its
    ridge id and the cell across that ridge; a second one lists the ridges
    ending at each vertex, ascending. Ridges are also indexed by their cell
    pair, as the sorted key ``min * C + max``, which ``pair_ridge`` searches.

    Ids are int32, which halves the index arrays every tessellation keeps;
    arithmetic on ids that can pass 2**31 must widen them first.
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
    cell_nbrs: np.ndarray  # (E,) cell across each entry's ridge
    pair_keys: np.ndarray  # (R,) sorted cell-pair keys, int64
    pair_ridges: np.ndarray  # (R,) ridge of each key; the lowest id among equal keys first
    vertex_start: np.ndarray  # (V + 1,) offsets into vertex_ridges
    vertex_ridges: np.ndarray  # ridges ending at each vertex, ascending

    @property
    def finite(self) -> np.ndarray:
        return self.ends[:, 1] >= 0

    def pair_ridge(self, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
        """The lowest-id ridge joining cells ``c1[i]`` and ``c2[i]``, or -1
        where no ridge joins them."""
        keys = self.pair_keys
        query = np.minimum(c1, c2).astype(np.int64) * len(self.bounded) + np.maximum(c1, c2)
        pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
        return np.where(keys[pos] == query, self.pair_ridges[pos], -1)


def _ridge_arrays(t: Tessellation) -> RidgeArrays:
    nv, nr, nc = len(t.vertices), len(t.ridges), len(t.cells)
    counts = np.fromiter((len(c.ridges) for c in t.cells), np.intp, nc)
    cell_start = np.zeros(nc + 1, np.intp)
    np.cumsum(counts, out=cell_start[1:])
    finite = np.fromiter((r.v1 is not None for r in t.ridges), bool, nr)
    try:
        ids = np.fromiter(
            chain.from_iterable((*r.cells, r.v0, -1 if r.v1 is None else r.v1) for r in t.ridges),
            np.int32,
            4 * nr,
        ).reshape(nr, 4)
        cell_ridges = np.fromiter(
            chain.from_iterable(c.ridges for c in t.cells), np.int32, int(cell_start[-1])
        )
    except OverflowError as exc:
        raise OutOfRangeIdError(f"an id does not fit in a machine integer: {exc}") from exc
    cells, ends = ids[:, :2], ids[:, 2:]
    rids = np.arange(nr)
    owner = np.repeat(np.arange(nc), counts)
    for kind, who, refs, what, limit in (
        ("ridge", np.repeat(rids, 2), cells.ravel(), ("cell", "cells"), nc),
        ("ridge", rids, ends[:, 0], ("vertex", "vertices"), nv),
        ("ridge", rids[finite], ends[finite, 1], ("vertex", "vertices"), nv),
        ("cell", owner, cell_ridges, ("ridge", "ridges"), nr),
    ):
        bad = np.flatnonzero((refs < 0) | (refs >= limit))
        if len(bad):
            k = bad[0]
            raise OutOfRangeIdError(
                f"{kind} {who[k]} references {what[0]} {refs[k]}; there are {limit} {what[1]}"
            )

    vertices = np.fromiter(chain.from_iterable(t.vertices), float, 2 * nv).reshape(nv, 2)
    bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
    if len(bad):
        raise InconsistentSystemError(f"vertex {bad[0]} has non-finite coordinates")
    p0 = vertices[ends[:, 0]]
    p1 = vertices[np.where(finite, ends[:, 1], ends[:, 0])]
    seg = p1 - p0
    # math.hypot, not np.hypot: the two round differently on about a third of
    # the ridges, and these must equal geom.line_from_two_points' lengths
    lengths = np.fromiter(map(math.hypot, *seg.T), float, nr)
    lengths[~finite] = math.inf
    thresh = t.degeneracy_threshold()
    degenerate = finite & ((lengths <= thresh) | (lengths == 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        dirs = seg / lengths[:, None]
    dirs[degenerate] = math.nan
    for k in np.flatnonzero(~finite).tolist():
        d = t.ridges[k].ray_dir
        if d is None or not geom.is_unit(d):
            raise InconsistentSystemError(f"ray ridge {k} has direction {d}, not a unit vector")
        dirs[k] = d
    pair = cells[cell_ridges]
    keys = cells.min(axis=1).astype(np.int64) * nc + cells.max(axis=1)
    by_pair = np.argsort(keys, kind="stable")
    # (vertex, ridge) incidences in ridge order, grouped stably by vertex
    incident = ends.ravel() >= 0
    by_vertex = np.argsort(ends.ravel()[incident], kind="stable")
    return RidgeArrays(
        vertices=vertices,
        cells=cells,
        ends=ends,
        dirs=dirs,
        lengths=lengths,
        degenerate=degenerate,
        bounded=np.fromiter((c.bounded for c in t.cells), bool, nc),
        cell_start=cell_start,
        cell_ridges=cell_ridges,
        cell_nbrs=np.where(pair[:, 0] == owner, pair[:, 1], pair[:, 0]),
        pair_keys=keys[by_pair],
        pair_ridges=by_pair.astype(np.int32),
        vertex_start=np.concatenate(
            ([0], np.cumsum(np.bincount(ends.ravel()[incident], minlength=nv)))
        ),
        vertex_ridges=np.repeat(rids, 2)[incident][by_vertex].astype(np.int32),
    )


# -- validation ---------------------------------------------------------------


def validate(t: Tessellation) -> list[str]:
    """Check structural invariants; returns one message per violation.

    An empty list means the tessellation is internally consistent and in
    generic position (every vertex on exactly 3 ridges).
    """
    out: list[str] = []
    nv, nr, nc = len(t.vertices), len(t.ridges), len(t.cells)
    for i, p in enumerate(t.vertices):
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            out.append(f"vertex {i} has non-finite coordinates")
    thresh = t.degeneracy_threshold()
    incident: dict[int, list[int]] = {}
    for rid, r in enumerate(t.ridges):
        for v in r.vertex_ids():
            incident.setdefault(v, []).append(rid)
    referenced: set[int] = set()
    out_of_range: set[int] = set()
    for rid, r in enumerate(t.ridges):
        a, b = r.cells
        if a == b:
            out.append(f"ridge {rid} joins cell {a} to itself")
        if not (0 <= a < nc and 0 <= b < nc):
            out.append(f"ridge {rid} references an out-of-range cell")
            out_of_range.add(rid)
            continue
        if not (0 <= r.v0 < nv) or (r.v1 is not None and not (0 <= r.v1 < nv)):
            out.append(f"ridge {rid} references an out-of-range vertex")
            out_of_range.add(rid)
            continue
        referenced.update(r.vertex_ids())
        if r.is_finite:
            p0, p1 = t.vertices[r.v0], t.vertices[r.v1]
            if r.v0 == r.v1 or math.hypot(p1.x - p0.x, p1.y - p0.y) <= thresh:
                out.append(f"degenerate ridge {rid} (length below {thresh:.3e})")
        else:
            if r.ray_dir is None or not geom.is_unit(r.ray_dir):
                out.append(f"ridge {rid} ray direction is not unit length")
        for c in r.cells:
            if t.cells[c].ridges.count(rid) != 1:
                out.append(f"asymmetric adjacency at ridge {rid} (cell {c})")
    for v in range(nv):
        if v not in referenced:
            out.append(f"orphan vertex {v}")
        elif len(incident.get(v, ())) != 3 and not _is_split_bisector(t, incident, v):
            out.append(f"vertex {v} is shared by {len(incident.get(v, ()))} ridges (expected 3)")
    for cid, cell in enumerate(t.cells):
        out.extend(_validate_cell(t, incident, out_of_range, cid, cell))
    return out


def _is_split_bisector(t: Tessellation, incident: dict[int, list[int]], v: VertexId) -> bool:
    """Two opposite rays from one vertex between the same two cells.

    This is how a bisector with no Voronoi vertex on it (the 2-site diagram)
    is represented, so it is tolerated at valence 2. ``incident`` maps each
    vertex to the ridges ending at it.
    """
    rids = incident.get(v, ())
    if len(rids) != 2:
        return False
    r1, r2 = (t.ridges[r] for r in rids)
    if r1.is_finite or r2.is_finite or r1.v0 != v or r2.v0 != v or None in (r1.ray_dir, r2.ray_dir):
        return False
    if tuple(sorted(r1.cells)) != tuple(sorted(r2.cells)):
        return False
    return math.hypot(r1.ray_dir[0] + r2.ray_dir[0], r1.ray_dir[1] + r2.ray_dir[1]) <= 1e-9


def _ridge_vertex_set(r: Ridge) -> set[int]:
    return set(r.vertex_ids())


def _validate_cell(
    t: Tessellation, incident: dict[int, list[int]], out_of_range: set[int], cid: int, cell: Cell
) -> list[str]:
    """Violations of one cell; ``out_of_range`` holds the ridges already
    reported for an out-of-range id, whose polygon cannot be walked."""
    msgs: list[str] = []
    if not cell.ridges:
        return [f"cell {cid} has no ridges"]
    for rid in cell.ridges:
        if not (0 <= rid < len(t.ridges)):
            return [f"cell {cid} references out-of-range ridge {rid}"]
        if cid not in t.ridges[rid].cells:
            msgs.append(f"cell {cid} lists ridge {rid} that does not border it")
    if msgs:
        return msgs
    rays = [rid for rid in cell.ridges if not t.ridges[rid].is_finite]
    if cell.bounded:
        if rays:
            msgs.append(f"bounded cell {cid} contains ray ridge {rays[0]}")
        elif not out_of_range.intersection(cell.ridges):
            msgs.extend(_validate_polygon(t, cid, cell))
    else:
        if _is_parallel_strip(t, incident, cell):
            return msgs  # fully split-bisector boundary has no chain to walk
        if len(rays) != 2:
            msgs.append(f"unbounded cell {cid} has {len(rays)} ray ridges (expected 2)")
        elif not (cell.ridges[0] in rays and cell.ridges[-1] in rays):
            msgs.append(f"unbounded cell {cid} does not start and end with its rays")
        for i in range(len(cell.ridges) - 1):
            r1 = t.ridges[cell.ridges[i]]
            r2 = t.ridges[cell.ridges[i + 1]]
            if len(_ridge_vertex_set(r1) & _ridge_vertex_set(r2)) != 1:
                msgs.append(
                    f"cell {cid} boundary chain breaks between ridges"
                    f" {cell.ridges[i]} and {cell.ridges[i + 1]}"
                )
    return msgs


def _is_parallel_strip(t: Tessellation, incident: dict[int, list[int]], cell: Cell) -> bool:
    """Cell bounded only by whole bisector lines (collinear-site diagrams).

    Such a cell is a half plane or a strip: every ridge is a ray, and the
    rays pair up into split bisectors through at most two vertices.
    """
    if any(t.ridges[rid].is_finite for rid in cell.ridges):
        return False
    verts = {t.ridges[rid].v0 for rid in cell.ridges}
    if len(verts) * 2 != len(cell.ridges) or len(verts) > 2:
        return False
    return all(_is_split_bisector(t, incident, v) for v in verts)


def _polygon_vertices(t: Tessellation, cell: Cell) -> Optional[list[int]]:
    """Vertex ids of a bounded cell's polygon; None when the chain is broken.

    Entry ``i`` is the vertex shared by ridge ``i`` and ridge ``i+1`` (cyclic).
    """
    rids = cell.ridges
    m = len(rids)
    shared = []
    for i in range(m):
        s = _ridge_vertex_set(t.ridges[rids[i]]) & _ridge_vertex_set(t.ridges[rids[(i + 1) % m]])
        if len(s) != 1:
            return None
        shared.append(s.pop())
    return shared


def _validate_polygon(t: Tessellation, cid: int, cell: Cell) -> list[str]:
    if len(cell.ridges) < 3:
        return [f"bounded cell {cid} has only {len(cell.ridges)} ridges"]
    verts = _polygon_vertices(t, cell)
    if verts is None:
        return [f"cell {cid} ridges do not chain into a closed polygon"]
    if len(set(verts)) != len(verts):
        return [f"cell {cid} polygon revisits a vertex"]
    pts = [t.vertices[v] for v in verts]
    m = len(pts)
    area2 = 0.0
    for i in range(m):
        a = pts[i]
        b = pts[(i + 1) % m]
        c = pts[(i + 2) % m]
        e1x, e1y = b.x - a.x, b.y - a.y
        e2x, e2y = c.x - b.x, c.y - b.y
        cross = e1x * e2y - e1y * e2x
        norm = math.hypot(e1x, e1y) * math.hypot(e2x, e2y)
        if norm > 0.0 and cross < -1e-9 * norm:
            return [f"cell {cid} polygon is not convex at vertex {verts[(i + 1) % m]}"]
        area2 += a.x * b.y - b.x * a.y
    if area2 <= 0.0:
        return [f"cell {cid} polygon is not counter-clockwise"]
    return []


# -- serialization ------------------------------------------------------------


def _num(x: float) -> str:
    return format(float(x), ".17g")


def dumps(t: Tessellation, gt: Optional[GroundTruth] = None) -> str:
    """Deterministic textual form of a tessellation (17 significant digits)."""

    def pt(p) -> str:
        return f"[{_num(p[0])}, {_num(p[1])}]"

    rparts = []
    for r in t.ridges:
        if r.is_finite:
            rparts.append(f'{{"cells": [{r.cells[0]}, {r.cells[1]}], "finite": [{r.v0}, {r.v1}]}}')
        else:
            rparts.append(
                f'{{"cells": [{r.cells[0]}, {r.cells[1]}],'
                f' "ray": {{"v": {r.v0}, "dir": {pt(r.ray_dir)}}}}}'
            )
    cparts = []
    for c in t.cells:
        rid_list = ", ".join(str(rid) for rid in c.ridges)
        cparts.append(f'{{"ridges": [{rid_list}], "bounded": {"true" if c.bounded else "false"}}}')
    lines = ["{"]
    lines.append(f'  "version": {FORMAT_VERSION},')
    lines.append('  "vertices": [' + ", ".join(pt(p) for p in t.vertices) + "],")
    lines.append('  "ridges": [' + ", ".join(rparts) + "],")
    tail = '  "cells": [' + ", ".join(cparts) + "]"
    if gt is not None:
        lines.append(tail + ",")
        lines.append('  "generators": [' + ", ".join(pt(g) for g in gt.generators) + "]")
    else:
        lines.append(tail)
    lines.append("}")
    return "\n".join(lines) + "\n"


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
    x, y = float(obj[0]), float(obj[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ParseError(f"{where}: coordinates must be finite")
    return x, y


def _parse_cell_pair(obj, where: str) -> tuple[int, int]:
    if (
        not isinstance(obj, list)
        or len(obj) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in obj)
    ):
        raise ParseError(f"{where}: expected a [cell, cell] integer pair, got {obj!r}")
    return obj[0], obj[1]


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
    vertices = [_parse_point(v, f"vertices[{i}]") for i, v in enumerate(doc["vertices"])]
    ridges = []
    for i, robj in enumerate(doc["ridges"]):
        where = f"ridges[{i}]"
        if not isinstance(robj, dict):
            raise ParseError(f"{where}: expected an object")
        cells = _parse_cell_pair(robj.get("cells"), f"{where}.cells")
        has_finite = "finite" in robj
        has_ray = "ray" in robj
        if has_finite == has_ray:
            raise ParseError(f"{where}: exactly one of 'finite' or 'ray' is required")
        if has_finite:
            fin = robj["finite"]
            if (
                not isinstance(fin, list)
                or len(fin) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in fin)
            ):
                raise ParseError(f"{where}.finite: expected a [v0, v1] integer pair")
            ridges.append(Ridge(cells=cells, v0=fin[0], v1=fin[1]))
        else:
            ray = robj["ray"]
            if not isinstance(ray, dict) or "v" not in ray or "dir" not in ray:
                raise ParseError(f"{where}.ray: expected an object with 'v' and 'dir'")
            if not isinstance(ray["v"], int) or isinstance(ray["v"], bool):
                raise ParseError(f"{where}.ray.v: expected an integer vertex id")
            dx, dy = _parse_point(ray["dir"], f"{where}.ray.dir")
            d = UnitVec2(dx, dy)
            if not geom.is_unit(d):
                raise ParseError(f"{where}.ray.dir: direction must be unit length")
            ridges.append(Ridge(cells=cells, v0=ray["v"], ray_dir=d))
    cells = []
    for i, cobj in enumerate(doc["cells"]):
        where = f"cells[{i}]"
        if not isinstance(cobj, dict):
            raise ParseError(f"{where}: expected an object")
        rid_list = cobj.get("ridges")
        if not isinstance(rid_list, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in rid_list
        ):
            raise ParseError(f"{where}.ridges: expected an array of ridge ids")
        bounded = cobj.get("bounded")
        if not isinstance(bounded, bool):
            raise ParseError(f"{where}.bounded: expected a boolean")
        cells.append(Cell(ridges=tuple(rid_list), bounded=bounded))
    t = Tessellation(vertices, ridges, cells)
    gt = None
    if "generators" in doc:
        gens = doc["generators"]
        if not isinstance(gens, list):
            raise ParseError("field 'generators' must be an array")
        if len(gens) != len(cells):
            raise ParseError(
                f"field 'generators' has {len(gens)} entries for {len(cells)} cells"
            )
        pts = [_parse_point(g, f"generators[{i}]") for i, g in enumerate(gens)]
        gt = GroundTruth(tuple(Point2(x, y) for x, y in pts))
    return t, gt


def load(path) -> tuple[Tessellation, Optional[GroundTruth]]:
    """Read a tessellation file; OSError propagates for missing/unreadable paths."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return loads(text)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from e
