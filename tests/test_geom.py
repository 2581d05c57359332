"""Reflection and line primitives: pinned examples plus property tests.

``unit_vec`` and ``is_unit`` are the package's; the reflection and line
functions are the tests' scalar references, kept in ``helpers``."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    NoIntersectionError,
    distance_to_line,
    intersect_lines,
    line_from_two_points,
    reflect_point,
    same_line,
)
from vorogen.errors import DegenerateRidgeError
from vorogen.geom import Point2, RidgeLine, UnitVec2, is_unit, unit_vec

coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)


def direction(theta: float) -> UnitVec2:
    return UnitVec2(math.cos(theta), math.sin(theta))


def test_reflect_across_vertical_line():
    line = RidgeLine(Point2(1.0, 0.0), UnitVec2(0.0, 1.0))
    assert reflect_point(Point2(0.0, 0.0), line) == Point2(2.0, 0.0)


def test_reflect_fixed_point_on_line():
    line = RidgeLine(Point2(1.0, 0.0), UnitVec2(0.0, 1.0))
    assert reflect_point(Point2(1.0, 5.0), line) == Point2(1.0, 5.0)


def test_reflect_across_main_diagonal_swaps_coordinates():
    line = RidgeLine(Point2(0.0, 0.0), unit_vec(1.0, 1.0))
    got = reflect_point(Point2(3.0, 1.0), line)
    assert got.x == pytest.approx(1.0, abs=1e-12)
    assert got.y == pytest.approx(3.0, abs=1e-12)


@given(px=coords, py=coords, ax=coords, ay=coords, theta=angles)
@settings(max_examples=200)
def test_reflection_involution(px, py, ax, ay, theta):
    line = RidgeLine(Point2(ax, ay), direction(theta))
    p = Point2(px, py)
    back = reflect_point(reflect_point(p, line), line)
    assert abs(back.x - p.x) <= 1e-12
    assert abs(back.y - p.y) <= 1e-12


@given(px=coords, py=coords, ax=coords, ay=coords, theta=angles)
@settings(max_examples=200)
def test_reflection_preserves_distance_to_line(px, py, ax, ay, theta):
    line = RidgeLine(Point2(ax, ay), direction(theta))
    p = Point2(px, py)
    assert distance_to_line(p, line) == pytest.approx(
        distance_to_line(reflect_point(p, line), line), abs=1e-12
    )


@given(px=coords, py=coords, ax=coords, ay=coords, theta=angles)
@settings(max_examples=200)
def test_midpoint_of_reflection_pair_lies_on_line(px, py, ax, ay, theta):
    line = RidgeLine(Point2(ax, ay), direction(theta))
    p = Point2(px, py)
    q = reflect_point(p, line)
    mid = Point2(0.5 * (p.x + q.x), 0.5 * (p.y + q.y))
    assert distance_to_line(mid, line) <= 1e-12


@given(x=coords, y=coords)
@example(x=5e-324, y=5e-324)  # hypot of two subnormals rounds to a subnormal
@settings(max_examples=200)
def test_unit_vec_normalizes(x, y):
    if math.hypot(x, y) == 0.0:
        with pytest.raises(DegenerateRidgeError):
            unit_vec(x, y)
    else:
        assert is_unit(unit_vec(x, y))


def test_unit_vec_zero_raises():
    with pytest.raises(DegenerateRidgeError):
        unit_vec(0.0, 0.0)


def test_line_from_two_points_examples():
    l1 = line_from_two_points(Point2(0.0, 0.0), Point2(2.0, 0.0))
    assert l1.anchor == Point2(0.0, 0.0)
    assert l1.dir == UnitVec2(1.0, 0.0)
    l2 = line_from_two_points(Point2(1.0, 1.0), Point2(1.0, 3.0))
    assert l2.anchor == Point2(1.0, 1.0)
    assert l2.dir == UnitVec2(0.0, 1.0)


def test_line_from_two_points_coincident_raises():
    with pytest.raises(DegenerateRidgeError):
        line_from_two_points(Point2(0.0, 0.0), Point2(0.0, 0.0))


def test_line_from_two_points_enforces_min_length():
    with pytest.raises(DegenerateRidgeError):
        line_from_two_points(Point2(0.0, 0.0), Point2(1e-13, 0.0), min_length=1e-9)


@given(ax=coords, ay=coords, bx=coords, by=coords)
@settings(max_examples=200)
def test_line_contains_both_defining_points(ax, ay, bx, by):
    a, b = Point2(ax, ay), Point2(bx, by)
    if math.hypot(bx - ax, by - ay) < 1e-6:
        return
    line = line_from_two_points(a, b)
    assert distance_to_line(a, line) <= 1e-9
    assert distance_to_line(b, line) <= 1e-9


def test_intersect_axes():
    x_axis = RidgeLine(Point2(0.0, 0.0), UnitVec2(1.0, 0.0))
    y_axis = RidgeLine(Point2(0.0, 0.0), UnitVec2(0.0, 1.0))
    assert intersect_lines(x_axis, y_axis) == Point2(0.0, 0.0)


def test_intersect_diagonal_with_vertical():
    diag = RidgeLine(Point2(0.0, 0.0), unit_vec(1.0, 1.0))
    vert = RidgeLine(Point2(2.0, 0.0), UnitVec2(0.0, 1.0))
    got = intersect_lines(diag, vert)
    assert got.x == pytest.approx(2.0, abs=1e-12)
    assert got.y == pytest.approx(2.0, abs=1e-12)


def test_intersect_parallel_raises_with_sine():
    l1 = RidgeLine(Point2(0.0, 0.0), UnitVec2(1.0, 0.0))
    l2 = RidgeLine(Point2(0.0, 1.0), UnitVec2(1.0, 0.0))
    with pytest.raises(NoIntersectionError) as exc:
        intersect_lines(l1, l2)
    assert exc.value.sine == 0.0


@given(ax=coords, ay=coords, t1=angles, bx=coords, by=coords, t2=angles)
@settings(max_examples=200)
def test_intersection_lies_on_both_lines(ax, ay, t1, bx, by, t2):
    l1 = RidgeLine(Point2(ax, ay), direction(t1))
    l2 = RidgeLine(Point2(bx, by), direction(t2))
    sine = l1.dir.x * l2.dir.y - l1.dir.y * l2.dir.x
    if abs(sine) < 1e-3:
        return
    p = intersect_lines(l1, l2)
    scale = max(1.0, abs(p.x), abs(p.y))
    assert distance_to_line(p, l1) <= 1e-9 * scale
    assert distance_to_line(p, l2) <= 1e-9 * scale


def test_same_line_tolerates_anchor_slide_and_flip():
    l1 = RidgeLine(Point2(0.0, 0.0), unit_vec(1.0, 1.0))
    l2 = RidgeLine(Point2(3.0, 3.0), unit_vec(-1.0, -1.0))
    assert same_line(l1, l2)
    assert not same_line(l1, RidgeLine(Point2(0.0, 1.0), unit_vec(1.0, 1.0)))
    assert not same_line(l1, RidgeLine(Point2(0.0, 0.0), unit_vec(1.0, -1.0)))


def test_perp_rotates_ccw():
    assert UnitVec2(1.0, 0.0).perp() == UnitVec2(0.0, 1.0)
    assert UnitVec2(0.0, 1.0).perp() == UnitVec2(-1.0, 0.0)
