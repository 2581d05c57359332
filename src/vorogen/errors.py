"""Exception types shared across the package."""

from __future__ import annotations


class VorogenError(Exception):
    """Base class for all package-specific errors."""


class DegenerateRidgeError(VorogenError):
    """A ridge (or direction vector) is too short to define a line."""


class ParseError(VorogenError):
    """A tessellation file is malformed; message carries line/field context."""


class UnsupportedVersionError(VorogenError):
    """A tessellation file declares a format version we do not understand."""


class ConstructionError(VorogenError):
    """Voronoi construction failed (duplicate or degenerate site configuration).

    ``site_groups`` lists the site-index clusters that participate in the
    degeneracy, when known; ``threshold`` is the tolerance that rejected the
    build (0 when none was applied).
    """

    def __init__(
        self, message: str, site_groups: tuple[tuple[int, ...], ...] = (), threshold: float = 0.0
    ):
        super().__init__(message)
        self.site_groups = site_groups
        self.threshold = threshold


class InconsistentSystemError(VorogenError):
    """Mirror equations disagree beyond tolerance; the input is not a Voronoi tessellation.

    An exact tessellation makes the patch system consistent, so a large
    least-squares residual is evidence the ridges are not perpendicular
    bisectors of any generator set.
    """

    def __init__(self, message: str, residual: float = 0.0, threshold: float = 0.0):
        super().__init__(message)
        self.residual = residual
        self.threshold = threshold


class OutOfRangeIdError(InconsistentSystemError):
    """A ridge or cell refers to a cell, ridge or vertex id that does not exist."""


class NoEligibleAnchorError(VorogenError):
    """No cell satisfies the hard anchor eligibility criteria."""


class AnchorIneligibleError(VorogenError):
    """The requested anchor cell fails the hard eligibility criteria."""


class SingularSystemError(VorogenError):
    """The patch system is rank deficient; carries an approximate null direction."""

    def __init__(self, message: str, null_direction: tuple[float, ...] = ()):
        super().__init__(message)
        self.null_direction = null_direction


class UnderdeterminedError(VorogenError):
    """Too few independent constraints to locate a generator."""


class UnreachableCellsError(VorogenError):
    """Some cells cannot be reached from the solved patch via shared ridges."""

    def __init__(self, message: str, cells: tuple[int, ...] = ()):
        super().__init__(message)
        self.cells = cells
