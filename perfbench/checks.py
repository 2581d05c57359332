"""Correctness checks made apart from the program.

Each check takes plain arrays (or file paths) and returns a list of failure
messages; an empty list is a pass. None of them reads the program's own
``rmse``/``max_rse``: the references are the sampled sites, the bisector
property of a Voronoi ridge and ``scipy.spatial.Voronoi``.
"""

from __future__ import annotations

import json
import math

import numpy as np

# The paper's worst single-generator error at n = 10^4.
PAPER_WORST = 1e-8
# Criterion 08's bound for the angle-rotation (cprime) baseline.
BASELINE_WORST = 1e-6
# Criterion 05's relative tolerance for a ridge vertex equidistant from two sites.
BISECTOR_REL = 1e-10


def site_errors(generators, sites) -> np.ndarray:
    """Distance of each recovered generator from its sampled site."""
    g = np.asarray(generators, float).reshape(-1, 2)
    s = np.asarray(sites, float).reshape(-1, 2)
    if g.shape != s.shape:
        raise ValueError(f"{len(g)} generators for {len(s)} sites")
    return np.hypot(g[:, 0] - s[:, 0], g[:, 1] - s[:, 1])


def rmse(errors: np.ndarray) -> float:
    return math.sqrt(float(np.mean(errors * errors)))


def near_sites(generators, sites, tol: float) -> list[str]:
    """Every generator lies within ``tol`` of its sampled site."""
    err = site_errors(generators, sites)
    bad = np.flatnonzero(~(err <= tol))
    if not len(bad):
        return []
    worst = int(bad[np.argmax(err[bad])])
    return [
        f"{len(bad)} generators farther than {tol:g} from their sites"
        f" (cell {worst}: {err[worst]:.3e})"
    ]


def bisectors(vertices, ridge_cells, ridge_vertices, generators) -> list[str]:
    """Every ridge endpoint is equidistant from the ridge's two generators.

    ``ridge_vertices`` is (R, 2) with -1 for the missing end of a ray.
    """
    v = np.asarray(vertices, float).reshape(-1, 2)
    g = np.asarray(generators, float).reshape(-1, 2)
    cells = np.asarray(ridge_cells, np.intp).reshape(-1, 2)
    ends = np.asarray(ridge_vertices, np.intp).reshape(-1, 2)
    rid, col = np.nonzero(ends >= 0)
    p = v[ends[rid, col]]
    ga = g[cells[rid, 0]]
    gb = g[cells[rid, 1]]
    da = np.hypot(p[:, 0] - ga[:, 0], p[:, 1] - ga[:, 1])
    db = np.hypot(p[:, 0] - gb[:, 0], p[:, 1] - gb[:, 1])
    scale = np.maximum(np.maximum(da, db), 1.0)
    bad = np.flatnonzero(~(np.abs(da - db) <= BISECTOR_REL * scale))
    if not len(bad):
        return []
    return [
        f"{len(bad)} ridge endpoints not equidistant from their two generators"
        f" (first: ridge {int(rid[bad[0]])})"
    ]


def ridges_match_scipy(sites, ridge_cells) -> list[str]:
    """The ridges' cell pairs equal those of ``scipy.spatial.Voronoi(sites)``."""
    from scipy.spatial import Voronoi

    ref = np.sort(Voronoi(np.asarray(sites, float)).ridge_points, axis=1)
    got = np.sort(np.asarray(ridge_cells, np.intp).reshape(-1, 2), axis=1)
    ref_set = set(map(tuple, ref.tolist()))
    got_set = set(map(tuple, got.tolist()))
    out = []
    if len(got_set) != len(got):
        out.append(f"{len(got) - len(got_set)} duplicated ridge cell pairs")
    if got_set != ref_set:
        out.append(
            f"ridge cell pairs differ from scipy: {len(got_set - ref_set)} extra,"
            f" {len(ref_set - got_set)} missing of {len(ref_set)}"
        )
    return out


# -- tessellation files ---------------------------------------------------------


def read_doc(path) -> dict:
    """A tessellation file parsed with the standard JSON reader alone."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def doc_arrays(doc: dict):
    """(vertices, ridge cell pairs, ridge end vertices) of a parsed file."""
    vertices = np.array(doc["vertices"], float).reshape(-1, 2)
    cells = np.array([r["cells"] for r in doc["ridges"]], np.intp).reshape(-1, 2)
    ends = np.array(
        [r["finite"] if "finite" in r else [r["ray"]["v"], -1] for r in doc["ridges"]],
        np.intp,
    ).reshape(-1, 2)
    return vertices, cells, ends


def same_geometry(doc_in: dict, doc_out: dict) -> list[str]:
    """Vertices, ridges and cells of two parsed files are equal, number for number.

    Both files are written with 17 significant digits, which round-trip every
    double, so equal parsed values mean the output kept the input's bits.
    """
    return [
        f"field {key!r} of the output differs from the input"
        for key in ("vertices", "ridges", "cells")
        if doc_in.get(key) != doc_out.get(key)
    ]


def report_rmse(report_path, expected: float, rel: float = 1e-9) -> list[str]:
    """The ``--report`` file's ``rmse`` equals ``expected`` to rounding."""
    got = read_doc(report_path).get("rmse")
    if not isinstance(got, float) or not abs(got - expected) <= rel * expected:
        return [f"report rmse {got!r} differs from the recomputed {expected!r}"]
    return []
