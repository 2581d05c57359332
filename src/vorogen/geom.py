"""Flat 2D primitives: points, directions and lines, and the float kernels.

Everything here is an immutable value type plus pure functions, all in
double precision. The program reflects with the map z -> e conj(z) + b of
``solver.build_mirror_terms``, kept per diagram in ``RidgeArrays.mirrors``,
and works on lines as arrays (``tessellation.RidgeArrays``).

The array kernels ``hypot``, ``cmul``, ``mirror`` and ``row_sum`` fix the
rounding of anything that reaches a result, so it has the same bits on every
CPU and under every Python version: each is a fixed sequence of IEEE 754
operations that are exact or correctly rounded (products, sums, square
roots, scaling by powers of two), whose results the standard defines to the
bit. numpy's ``hypot``, complex modulus and complex product round by SIMD
path, ``np.sum`` adds pairwise, and ``math.hypot`` changed its algorithm in
CPython 3.12. numpy's own stay only where no result reads them: in
tolerance bounds with slack (``delaunay.circumcenter_error``,
``forward._unresolved``) and in the message of ``solver._describe_null``.
"""

from __future__ import annotations

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


def hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The length of each (x, y), in their broadcast shape, within 1 ulp of
    ``math.hypot``; inf where either coordinate is inf, even against NaN.

    Both coordinates are scaled by the power of two that puts the larger
    magnitude in [0.5, 1), so the squares neither overflow nor underflow
    below the bits that count, and scaled back after the square root. Every
    step (``frexp``, ``ldexp``, product, sum, square root) is exact or
    correctly rounded in IEEE 754, so the length has the same bits on every
    CPU and under every Python version, unlike ``math.hypot``, whose
    algorithm changed in CPython 3.12.
    """
    (sx, sy), e = _scaled(x, y)
    with np.errstate(over="ignore"):
        out = np.ldexp(np.sqrt(sx * sx + sy * sy), e)
    return np.where(np.isinf(x) | np.isinf(y), np.inf, out)


def _scaled(x, y):
    """(x, y) times 2**-e, where 2**-e puts the larger magnitude in [0.5, 1), and e."""
    v = np.array(np.broadcast_arrays(x, y), float)
    _, e = np.frexp(np.maximum(np.abs(v[0]), np.abs(v[1])))
    return np.ldexp(v, -e), e


def cmul(ar: np.ndarray, ai: np.ndarray, br: np.ndarray, bi: np.ndarray):
    """The real and imaginary parts of (ar + i ai)(br + i bi)."""
    return ar * br - ai * bi, ar * bi + ai * br


def mirror(er: np.ndarray, ei: np.ndarray, x: np.ndarray, y: np.ndarray):
    """The real and imaginary parts of e conj(z), e = er + i ei, z = x + i y."""
    return er * x + ei * y, ei * x - er * y


def row_sum(x: np.ndarray, use: np.ndarray | None = None) -> np.ndarray:
    """Each row's sum of its entries (where ``use``), left to right from 0.0."""
    total = np.zeros(len(x))
    for col in range(x.shape[1]):
        np.add(total, x[:, col], out=total, where=True if use is None else use[:, col])
    return total


def unit_vec(x: float, y: float) -> UnitVec2:
    """Normalize ``(x, y)``; raises DegenerateRidgeError on a zero vector."""
    ux, uy, ok = unit_vecs(np.array([x], float), np.array([y], float))
    if not ok[0]:
        raise DegenerateRidgeError(f"cannot normalize direction ({x}, {y})")
    return UnitVec2(float(ux[0]), float(uy[0]))


def unit_vecs(x: np.ndarray, y: np.ndarray):
    """Each (x, y) normalized: the direction, and whether it exists."""
    # divide the scaled coordinates: the length of two subnormals rounds to a
    # subnormal with too few bits left for x / n to be unit length
    (sx, sy), _ = _scaled(x, y)
    n = np.sqrt(sx * sx + sy * sy)
    ok = (n > 0.0) & np.isfinite(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        return sx / n, sy / n, ok


def is_unit(v):
    """|x^2 + y^2 - 1| <= UNIT_TOL for v = (x, y) of floats or arrays (NaN is not unit)."""
    return abs(v[0] * v[0] + v[1] * v[1] - 1.0) <= UNIT_TOL
