"""Flat 2D primitives: points, directions and lines.

Everything here is an immutable value type plus pure functions, all in
double precision. The program reflects with the map z -> e conj(z) + b of
``solver.build_mirror_terms``, kept per diagram in ``RidgeArrays.mirrors``,
and works on lines as arrays (``tessellation.RidgeArrays``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateRidgeError

# Two directions count as parallel when the |sin| of their angle falls below
# PARALLEL_TOL. Length degeneracy cutoffs are taken relative to the diagram
# diameter (DEGENERACY_REL) by the callers that know that diameter. A
# direction is unit when |x^2 + y^2 - 1| <= UNIT_TOL; loading, validating and
# the ridge arrays use this one bound for a ray, so a file that loads is
# never refused later for its ray directions.
PARALLEL_TOL = 1e-10
DEGENERACY_REL = 1e-12
UNIT_TOL = 1e-12
# Loading refuses a coordinate beyond COORD_MAX in magnitude: the program
# squares coordinates and their differences, which overflow past about 2**511.
COORD_MAX = 2.0**500
# A diagram whose vertices span a diagonal below EXTENT_MIN (but above 0) is
# refused: the squares of errors of 2**-52 times the extent then stay normal
# floats, so sums of squared residuals neither underflow nor lose bits.
EXTENT_MIN = 2.0**-400


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


def unit_vecs(x: np.ndarray, y: np.ndarray):
    """``unit_vec`` of each (x, y): the direction, and whether it exists."""
    _, e = np.frexp(np.maximum(np.abs(x), np.abs(y)))
    sx, sy = np.ldexp(x, -e), np.ldexp(y, -e)
    n = np.fromiter(map(math.hypot, sx, sy), float, len(sx))
    ok = (n > 0.0) & np.isfinite(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        return sx / n, sy / n, ok


def is_unit(v, tol: float = UNIT_TOL) -> bool:
    return abs(v[0] * v[0] + v[1] * v[1] - 1.0) <= tol
