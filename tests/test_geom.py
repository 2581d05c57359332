"""Reflection and line primitives: pinned examples plus property tests.

``unit_vec`` and ``is_unit`` are the package's; the reflection and line
functions are the tests' scalar references, kept in ``helpers``. The float
kernels (``hypot``, ``cmul``, ``mirror``, ``row_sum``) are checked bit for
bit against their Python-float formulas."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    NoIntersectionError,
    distance_to_line,
    hypot as twin,
    intersect_lines,
    line_from_two_points,
    reflect_point,
    same_line,
)
from vorogen.errors import DegenerateRidgeError
from vorogen import geom
from vorogen.geom import (
    Point2,
    RidgeLine,
    UnitVec2,
    cmul,
    hypot,
    is_unit,
    mirror,
    row_sum,
    unit_vec,
    unit_vecs,
)

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


# ------------------------------------------------------------ float kernels

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 2.0**-500, 2.0**500, -(2.0**500),
           1.0, -3.0, math.inf, -math.inf, math.nan]


def _draws(seed: int, shape=500) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)


def _bits(x) -> bytes:
    return np.asarray(x, float).tobytes()


def test_hypot_is_the_twin_bit_for_bit_and_within_an_ulp_of_math_hypot():
    """``hypot`` gives the bits of its Python-float twin, ``helpers.hypot``,
    on the special values, normal draws, 10^6 pairs with exponents in [-300,
    300], 2 * 10^5 pairs of subnormals and tiny normals, 10^5 pairs one
    2**-60 to 2**60 times the other, and in a broadcast grid. On the draws of
    normal floats it is within 1 ulp of ``math.hypot``, whose bits it does
    not follow: CPython 3.12 changed that function's rounding."""
    s = np.array(SPECIAL)
    nx, ny = np.random.default_rng(2).standard_normal((2, 20_000))
    rng = np.random.default_rng(25)
    ex = rng.integers(-300, 301, 10**6)
    tiny = 2.0**-1022 * rng.choice([4.0, 1.0, 2.0**-20, 2.0**-52], (2, 2 * 10**5))
    x = np.concatenate((np.repeat(s, len(s)), _draws(0), nx,
                        np.ldexp(rng.uniform(-1.0, 1.0, 10**6), ex),
                        rng.uniform(-1.0, 1.0, 2 * 10**5) * tiny[0],
                        np.ldexp(rng.uniform(-1.0, 1.0, 10**5), rng.integers(-60, 61, 10**5))))
    y = np.concatenate((np.tile(s, len(s)), _draws(1), ny,
                        np.ldexp(rng.uniform(-1.0, 1.0, 10**6), ex),
                        rng.uniform(-1.0, 1.0, 2 * 10**5) * tiny[1],
                        rng.uniform(-1.0, 1.0, 10**5)))
    want = np.fromiter(map(twin, x.tolist(), y.tolist()), float, len(x))
    got = hypot(x, y)
    assert _bits(got) == _bits(want)
    grid = hypot(x[:600].reshape(20, 30), y[:600].reshape(20, 30))
    assert grid.shape == (20, 30) and _bits(grid) == _bits(want[:600])
    for a, b in ((3e-309, -4e-309), (3.0, 4.0), (-0.0, 0.0), (math.nan, -math.inf), (1.7e308, -1.7e308)):
        assert _bits(hypot(a, b)) == _bits(twin(a, b))
    normal = slice(len(s) ** 2, len(s) ** 2 + 500 + 20_000 + 10**6)
    std = np.fromiter(map(math.hypot, x[normal].tolist(), y[normal].tolist()), float)
    assert np.abs(got[normal].view(np.int64) - std.view(np.int64)).max() <= 1


def test_cmul_and_mirror_round_each_real_product():
    ar, ai, br, bi = (_draws(seed) for seed in range(4))
    rows = list(zip(ar.tolist(), ai.tolist(), br.tolist(), bi.tolist()))
    assert _bits(cmul(ar, ai, br, bi)) == _bits(
        [[a * c - b * d for a, b, c, d in rows], [a * d + b * c for a, b, c, d in rows]]
    )
    assert _bits(mirror(ar, ai, br, bi)) == _bits(
        [[a * c + b * d for a, b, c, d in rows], [b * c - a * d for a, b, c, d in rows]]
    )


def test_row_sum_adds_left_to_right_from_zero():
    x = _draws(4, (60, 40))
    use = np.random.default_rng(5).random((60, 40)) < 0.6
    for mask in (None, use):
        keep = np.ones(x.shape, bool) if mask is None else mask
        want = []
        for row, kept in zip(x.tolist(), keep.tolist()):
            total = 0.0
            for v, k in zip(row, kept):
                if k:
                    total += v
            want.append(total)
        assert _bits(row_sum(x, mask)) == _bits(want)


def test_unit_vec_is_the_unit_vecs_row():
    x, y = _draws(6), _draws(7)
    x[:4], y[:4] = [5e-324, 0.0, 3.0, math.nan], [5e-324, 0.0, -4.0, 1.0]
    ux, uy, ok = unit_vecs(x, y)
    assert ok[[0, 2]].all() and not ok[[1, 3]].any()
    for k, (a, b) in enumerate(zip(x.tolist(), y.tolist())):
        if ok[k]:
            assert _bits(unit_vec(a, b)) == _bits((ux[k], uy[k]))
        else:
            with pytest.raises(DegenerateRidgeError):
                unit_vec(a, b)
    assert is_unit((ux[ok], uy[ok])).all()
    assert is_unit(np.array([[1.0, math.nan, 2.0], [0.0, 0.0, 0.0]])).tolist() == [True, False, False]


def test_only_geom_maps_math_hypot():
    """The rounding decision has one home: no other module computes
    ``math.hypot`` per element itself."""
    package = Path(geom.__file__).parent
    copies = [p.name for p in sorted(package.glob("*.py")) if p.name != "geom.py" and "map(math.hypot" in p.read_text()]
    assert copies == []
