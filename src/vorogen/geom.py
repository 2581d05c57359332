"""Flat 2D primitives: points, directions and lines, and the float kernels.

Everything here is an immutable value type plus pure functions, all in
double precision. The program reflects with the map z -> e conj(z) + b of
``solver.build_mirror_terms``, kept per diagram in ``RidgeArrays.mirrors``,
and works on lines as arrays (``tessellation.RidgeArrays``).

The array kernels ``hypot``, ``cmul``, ``mirror`` and ``row_sum`` fix the
rounding of anything that reaches a result, so it has the same bits on every
CPU: numpy's ``hypot``, complex modulus and complex product round by SIMD
path, and ``np.sum`` adds pairwise. numpy's own stay only in tolerance
bounds with slack (``delaunay.circumcenter_error``, ``forward._unresolved``).
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
    """``math.hypot`` of each (x, y), bit for bit, in their broadcast shape:
    the float operations of CPython 3.11's ``vector_norm`` on arrays, its
    branch for a larger magnitude m below 2**-1024 and its inf, NaN and 0."""

    def split(x):  # Veltkamp: hi + lo == x, each of 26 bits
        t = x * 134217729.0  # 2**27 + 1
        hi = t - (t - x)
        return hi, x - hi

    def add(total, comp, x):  # Neumaier: total + x, and comp plus its error
        s = total + x
        return s, comp + ((total - s) + x)

    v = np.abs(np.array(np.broadcast_arrays(x, y), float))
    m = np.maximum(v[0], v[1])
    with np.errstate(all="ignore"):
        _, e = np.frexp(m)
        scale = np.ldexp(1.0, -e)
        hi, lo = split(v * scale)
        sq, cross = hi * hi, 2.0 * hi * lo
        csum, f1 = add(1.0, 0.0, sq[0])
        csum, f2 = add(csum, 0.0, cross[0])
        csum, f1 = add(csum, f1, sq[1])
        csum, f2 = add(csum, f2, cross[1])
        f3 = lo[0] * lo[0] + lo[1] * lo[1]
        h = np.sqrt(csum - 1.0 + (f1 + f2 + f3))
        hi, lo = split(h)
        csum, f1 = add(csum, f1, -hi * hi)
        csum, f2 = add(csum, f2, -2.0 * hi * lo)
        csum, f3 = add(csum, f3, -lo * lo)
        out = np.asarray((h + (csum - 1.0 + (f1 + f2 + f3)) / (2.0 * h)) / scale)
        k = np.flatnonzero(e < -1023)
        if len(k):
            c = v.reshape(2, -1)[:, k] / m.ravel()[k]
            tiny, f = add(*add(1.0, 0.0, c[0] * c[0]), c[1] * c[1])
            out.ravel()[k] = m.ravel()[k] * np.sqrt(tiny - 1.0 + f)
        k = np.flatnonzero(np.isnan(out))  # an inf or NaN coordinate, or two zeros
        if len(k):
            a, b = v.reshape(2, -1)[:, k]
            out.ravel()[k] = np.where(np.isinf(a) | np.isinf(b), np.inf, a + b)
    return out


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
    # rescale by an exact power of two first: hypot of two subnormals rounds
    # to a subnormal with too few bits left for x / n to be unit length
    _, e = np.frexp(np.maximum(np.abs(x), np.abs(y)))
    sx, sy = np.ldexp(x, -e), np.ldexp(y, -e)
    n = hypot(sx, sy)
    ok = (n > 0.0) & np.isfinite(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        return sx / n, sy / n, ok


def is_unit(v):
    """|x^2 + y^2 - 1| <= UNIT_TOL for v = (x, y) of floats or arrays (NaN is not unit)."""
    return abs(v[0] * v[0] + v[1] * v[1] - 1.0) <= UNIT_TOL
