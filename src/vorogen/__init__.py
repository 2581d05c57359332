"""Recover the generator points of a planar Voronoi tessellation.

The tessellation alone (vertices, ridges, cells) determines its generators:
each ridge is the perpendicular bisector of the two generators it separates,
so one small least-squares solve around a well-shaped anchor cell pins down
the anchor's generator and its neighbors, and every remaining generator
follows by reflecting an already-known one across the shared ridge line.
"""

from .errors import (
    AnchorIneligibleError,
    ConstructionError,
    DegenerateRidgeError,
    InconsistentSystemError,
    NoEligibleAnchorError,
    NoIntersectionError,
    OutOfRangeIdError,
    ParseError,
    SingularSystemError,
    UnderdeterminedError,
    UnreachableCellsError,
    UnsupportedVersionError,
    VorogenError,
)
from .geom import Point2, Reflector2, RidgeLine, UnitVec2
from .tessellation import (
    Cell,
    GroundTruth,
    Ridge,
    Tessellation,
    load,
    loads,
    neighbors,
    ring_pairs,
    save,
    validate,
)
from .forward import SiteSample, build_voronoi, jitter_degenerate, sample_and_build, sample_sites
from .anchor import AnchorScore, eligible_cells, score_cell, select_anchor
from .solver import PatchSolution, PatchSystem, assemble_patch, solve_patch
from .propagate import PropagationTrace, reconstruct_all, reflect_into
from .baselines import CPrimeEstimate, brute_force_all, c_prime_all, c_prime_cell
from .pipeline import ReconstructionReport, reconstruct
from .bench import CampaignRow, SimResult, derive_seed, export_csv, run_campaign, run_simulation

__version__ = "0.1.0"

__all__ = [
    "AnchorIneligibleError",
    "AnchorScore",
    "CampaignRow",
    "Cell",
    "ConstructionError",
    "CPrimeEstimate",
    "DegenerateRidgeError",
    "GroundTruth",
    "InconsistentSystemError",
    "NoEligibleAnchorError",
    "NoIntersectionError",
    "OutOfRangeIdError",
    "ParseError",
    "PatchSolution",
    "PatchSystem",
    "Point2",
    "PropagationTrace",
    "ReconstructionReport",
    "Reflector2",
    "Ridge",
    "RidgeLine",
    "SimResult",
    "SingularSystemError",
    "SiteSample",
    "Tessellation",
    "UnderdeterminedError",
    "UnitVec2",
    "UnreachableCellsError",
    "UnsupportedVersionError",
    "VorogenError",
    "assemble_patch",
    "brute_force_all",
    "build_voronoi",
    "c_prime_all",
    "c_prime_cell",
    "derive_seed",
    "eligible_cells",
    "export_csv",
    "jitter_degenerate",
    "load",
    "loads",
    "neighbors",
    "reconstruct",
    "reconstruct_all",
    "reflect_into",
    "ring_pairs",
    "run_campaign",
    "run_simulation",
    "sample_and_build",
    "sample_sites",
    "save",
    "score_cell",
    "select_anchor",
    "solve_patch",
    "validate",
]
