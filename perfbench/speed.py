"""Times rescaled to a fixed machine speed, measured beside each timed interval.

The benchmark runs on a few cores of a shared host, whose speed changes by a
factor of two within minutes as other tenants come and go: the same 10^3-cell
build took 52 to 153 ms within one minute, and a 10^4-cell operation 1.5 to
3.1 s within five. Wall times taken minutes apart then differ more than any
change to the program would move them.

``Clock`` therefore runs a fixed reference kernel (interpreted float loops
over tuples and dicts, parsing, walking and writing a JSON document, small
numpy work: the kind of work the program does, and none of its code) after
every timed interval, and rescales the interval's wall time by the mean of
the kernel's times just before and just after it:

    ref_s = wall_s * REF_KERNEL_S / mean(kernel_s before, kernel_s after)

A ``ref_s`` is the wall time the interval would take on a machine on which
the kernel takes ``REF_KERNEL_S`` seconds, about this 2-vCPU host's speed
when it is quiet. A faster program lowers it as it lowers wall time; a
busier machine changes it far less.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

REF_KERNEL_S = 0.4

# The kernel's input: 3,000 points and ridge records as a JSON text. It is
# kept small, so that the kernel adds about 2 MB to the process's peak
# resident memory, far below what an operation of the program adds.
_POINTS = np.random.default_rng(12345).random((3_000, 2))
_DOC = json.dumps({
    "vertices": _POINTS.tolist(),
    "ridges": [{"cells": [i, i + 1], "finite": [i, i + 2]} for i in range(3_000)],
})


def _loops() -> float:
    """Interpreted float arithmetic over a list of tuples and a small dict."""
    table = {}
    pts = []
    x, y = 0.1, 0.2
    for i in range(20_000):
        x, y = (x * 1.0000001 + 0.3) % 1.0, (y * 0.9999999 + 0.7) % 1.0
        pts.append((x, y))
        table[i & 1023] = math.hypot(x, y)
    a = np.array(pts)
    acc = sum(table.values())
    for j in range(40):
        acc += float(np.dot(a[j * 100:(j + 1) * 100, 0], a[j * 100:(j + 1) * 100, 1]))
    return acc


def _records() -> float:
    """Parsing, walking and writing a JSON document of points and ridges."""
    doc = json.loads(_DOC)
    pts = [tuple(p) for p in doc["vertices"]]
    adjacent = {}
    for r in doc["ridges"]:
        a, b = r["cells"]
        adjacent.setdefault(a, []).append(b)
    length = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        length += math.hypot(x1 - x0, y1 - y0)
    a = np.array(pts)
    order = np.argsort(a[:, 0] * 3.0 + a[:, 1])
    return length + float(a[order[:100]].sum()) + len(adjacent) + len(json.dumps(doc["ridges"][:500]))


def kernel() -> float:
    """Fixed work of about 0.4 s on this host when it is quiet."""
    return sum(_loops() + _records() for _ in range(10))


class Clock:
    """Times intervals in wall seconds and in reference seconds.

    Use ``start()`` and ``stop()`` around the interval; ``stop`` runs the
    kernel, whose time also serves as the "before" of the next interval.
    """

    def __init__(self) -> None:
        kernel()  # warm the interpreter's caches and numpy's first-call paths
        self.kernel_times: list[float] = []
        self._last = self._calibrate()
        self._t0 = 0.0

    def _calibrate(self) -> float:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.kernel_times.append(dt)
        return dt

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """(wall seconds, reference seconds) since ``start``."""
        wall = time.perf_counter() - self._t0
        before, self._last = self._last, self._calibrate()
        return wall, wall * REF_KERNEL_S / ((before + self._last) / 2)
