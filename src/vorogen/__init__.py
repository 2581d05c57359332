"""Recover the generator points of a planar Voronoi tessellation.

The tessellation alone (vertices, ridges, cells) determines its generators:
each ridge is the perpendicular bisector of the two generators it separates,
so one small least-squares solve around a well-shaped anchor cell pins down
the anchor's generator and its neighbors, and every remaining generator
follows by reflecting an already-known one across the shared ridge line.

Only the names of the README's library example are re-exported here; every
other name is imported from its own module (``vorogen.solver``, ...).
"""

from .errors import VorogenError
from .forward import sample_and_build
from .pipeline import ReconstructionReport, reconstruct
from .tessellation import Tessellation

__version__ = "0.1.0"

__all__ = ["ReconstructionReport", "Tessellation", "VorogenError", "reconstruct", "sample_and_build"]
