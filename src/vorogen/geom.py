"""Flat 2D primitives: points, directions and lines.

Everything here is an immutable value type plus pure functions, all in
double precision. The program reflects with ``solver.mirror_terms``' map
z -> e conj(z) + b; ``reflect_point`` serves the tests as its reference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DegenerateRidgeError, NoIntersectionError

# Two directions count as parallel when the |sin| of their angle falls below
# PARALLEL_TOL. Length degeneracy cutoffs are taken relative to the diagram
# diameter (DEGENERACY_REL) by the callers that know that diameter. A
# direction is unit when |x^2 + y^2 - 1| <= UNIT_TOL; loading, validating and
# the ridge arrays use this one bound for a ray, so a file that loads is
# never refused later for its ray directions.
PARALLEL_TOL = 1e-10
DEGENERACY_REL = 1e-12
UNIT_TOL = 1e-12


class Point2(NamedTuple):
    x: float
    y: float


class UnitVec2(NamedTuple):
    x: float
    y: float

    def perp(self) -> "UnitVec2":
        """Counter-clockwise perpendicular."""
        return UnitVec2(-self.y, self.x)


class RidgeLine(NamedTuple):
    """Infinite line through ``anchor`` with unit direction ``dir``."""

    anchor: Point2
    dir: UnitVec2


def unit_vec(x: float, y: float) -> UnitVec2:
    """Normalize ``(x, y)``; raises DegenerateRidgeError on a zero vector."""
    # rescale by an exact power of two first: hypot of two subnormals rounds
    # to a subnormal with too few bits left for x / n to be unit length
    _, e = math.frexp(max(abs(x), abs(y)))
    sx, sy = math.ldexp(x, -e), math.ldexp(y, -e)
    n = math.hypot(sx, sy)
    if n <= 0.0 or not math.isfinite(n):
        raise DegenerateRidgeError(f"cannot normalize direction ({x}, {y})")
    return UnitVec2(sx / n, sy / n)


def is_unit(v, tol: float = UNIT_TOL) -> bool:
    return abs(v[0] * v[0] + v[1] * v[1] - 1.0) <= tol


def reflect_point(p, line: RidgeLine) -> Point2:
    """Mirror image of ``p`` across ``line``; points on the line are fixed.

    ``2 (a + ((p - a) . d) d) - p`` is evaluated in exact rational arithmetic
    and rounded once per coordinate, so reflecting twice returns ``p`` up to
    those roundings and the direction's own.
    """
    (ax, ay), (dx, dy), (px, py) = (map(Fraction, v) for v in (line.anchor, line.dir, p))
    t = (px - ax) * dx + (py - ay) * dy
    return Point2(float(2 * (ax + t * dx) - px), float(2 * (ay + t * dy) - py))


def line_from_two_points(a, b, min_length: float = 0.0) -> RidgeLine:
    """Line through ``a`` and ``b`` anchored at ``a``.

    Raises DegenerateRidgeError when the two points are closer than
    ``min_length`` (or coincide exactly).
    """
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    n = math.hypot(dx, dy)
    if n <= min_length or n == 0.0:
        raise DegenerateRidgeError(
            f"points ({a[0]}, {a[1]}) and ({b[0]}, {b[1]}) are {n:.3e} apart"
            f" (minimum {min_length:.3e})"
        )
    return RidgeLine(Point2(float(a[0]), float(a[1])), UnitVec2(dx / n, dy / n))


def intersect_lines(l1: RidgeLine, l2: RidgeLine) -> Point2:
    """Unique intersection point; near-parallel lines raise NoIntersectionError."""
    d1 = l1.dir
    d2 = l2.dir
    sine = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(sine) <= PARALLEL_TOL:
        raise NoIntersectionError(
            f"lines are parallel within tolerance (|sin| = {abs(sine):.3e})", sine=sine
        )
    wx = l2.anchor[0] - l1.anchor[0]
    wy = l2.anchor[1] - l1.anchor[1]
    t = (wx * d2[1] - wy * d2[0]) / sine
    return Point2(l1.anchor[0] + t * d1[0], l1.anchor[1] + t * d1[1])


def distance_to_line(p, line: RidgeLine) -> float:
    """Perpendicular distance from ``p`` to ``line``."""
    wx = p[0] - line.anchor[0]
    wy = p[1] - line.anchor[1]
    return abs(wx * line.dir[1] - wy * line.dir[0])


def same_line(l1: RidgeLine, l2: RidgeLine, tol: float = 1e-9) -> bool:
    """True when the two lines coincide (direction up to sign, shared points)."""
    cross = l1.dir[0] * l2.dir[1] - l1.dir[1] * l2.dir[0]
    return abs(cross) <= tol and distance_to_line(l2.anchor, l1) <= tol
