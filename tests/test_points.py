"""A whole point set travels as one read-only float64 (n, 2) array, row c
for cell c: the sample's sites, the ground truth (built or loaded) and the
generators every reconstruction method reports; a patch solution's are
one row per member. The errors reported from them keep the bits of a
per-cell loop."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from helpers import hypot
from vorogen.anchor import select_anchor
from vorogen.forward import SiteSample, build_voronoi
from vorogen.pipeline import METHODS, _errors, reconstruct
from vorogen.solver import assemble_patch, solve_patch
from vorogen.tessellation import GroundTruth, dumps, loads


def assert_frozen_points(xy, n: int) -> None:
    assert isinstance(xy, np.ndarray)
    assert xy.dtype == np.float64 and xy.shape == (n, 2)
    assert not xy.flags.writeable
    with pytest.raises(ValueError):
        xy[0, 0] = 1.0


def test_point_sets_are_read_only_float64_arrays(built):
    sites, t, gt = built(200, 0)
    _, loaded = loads(dumps(t, gt))
    for xy in (sites.points, gt.generators, loaded.generators):
        assert_frozen_points(xy, 200)
    for method in METHODS:
        assert_frozen_points(reconstruct(t, method, gt).generators, 200)
    sol = solve_patch(assemble_patch(t, select_anchor(t)))
    assert_frozen_points(sol.generators, len(sol.members))


def test_array_likes_are_copied_into_frozen_arrays(built):
    own = np.array([[0.0, 0.0], [2.0, 1.0]])
    for value in (own, [(0.0, 0.0), (2.0, 1.0)], ((0, 0), (2, 1))):
        sample = SiteSample(value, 2.0)
        assert_frozen_points(sample.points, 2)
        assert sample.points.tolist() == [[0.0, 0.0], [2.0, 1.0]]
    assert own.flags.writeable and own is not SiteSample(own, 2.0).points
    _, gt = build_voronoi(SiteSample(own, 2.0))
    assert_frozen_points(gt.generators, 2)

    _, t, gt = built(200, 0)
    rep = reconstruct(t, "anchor", gt)
    rows = tuple(map(tuple, rep.generators.tolist()))
    moved = dataclasses.replace(rep, generators=rows)
    assert_frozen_points(moved.generators, 200)
    assert np.array_equal(moved.generators, rep.generators)


def test_point_sets_must_be_pairs():
    with pytest.raises(ValueError):
        GroundTruth([(0.0, 0.0, 0.0)])
    assert GroundTruth(()).generators.shape == (0, 2)


def test_reports_compare_by_identity(built):
    """Equality of an array field would be ambiguous, so the dataclasses
    holding point sets compare as objects."""
    sites, t, gt = built(200, 0)
    rep = reconstruct(t, "anchor", gt)
    assert rep == rep and rep != dataclasses.replace(rep)
    assert sites == sites and gt == gt


def test_errors_add_the_squares_left_to_right():
    """rmse and max_rse equal a loop's: ``helpers.hypot`` per cell, squares
    added in cell order. One error of 1 then a thousand of 1e-8 tells the
    orders apart: added left to right the small squares vanish, added
    pairwise (``np.sum``) they do not."""
    truth = np.zeros((1001, 2))
    found = np.full((1001, 2), [0.6e-8, 0.8e-8])
    found[0] = (0.6, 0.8)
    sq = worst = 0.0
    for (x, y), (tx, ty) in zip(found.tolist(), truth.tolist()):
        e = hypot(x - tx, y - ty)
        sq += e * e
        worst = max(worst, e)
    assert sq != float(np.sum(np.hypot(*found.T) ** 2))
    assert _errors(found, GroundTruth(truth)) == (math.sqrt(sq / 1001), worst)
