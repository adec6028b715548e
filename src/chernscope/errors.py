"""Exception types shared across the package.

Every error carries a short stable ``code`` used by the CLI to map
failures to process exit codes without string matching.
"""

from __future__ import annotations


class ChernscopeError(Exception):
    """Base class for all package-specific failures."""

    code = "error"


class GaplessPoint(ChernscopeError):
    """The two bands touch (or nearly touch) at the requested momentum.

    The eigenvector gauge is not deterministic there, so every consumer
    of gauge-fixed states must refuse to proceed.
    """

    code = "gapless-point"


class NotReciprocal(ChernscopeError):
    """A vector expected to lie on the reciprocal lattice does not."""

    code = "not-reciprocal"


class NotQuantized(ChernscopeError):
    """A lattice field-strength total strayed too far from an integer."""

    code = "not-quantized"


class PlaquetteSaturated(ChernscopeError):
    """A plaquette flux reached +-pi, so the grid is too coarse to trust."""

    code = "plaquette-saturated"


class NoClosure(ChernscopeError):
    """Open-path endpoints are not reciprocal-equivalent, so the path has
    no boundary match to close it."""

    code = "no-closure"


class StepTooLarge(ChernscopeError):
    """The integrator's norm drift exceeded tolerance for the given dt."""

    code = "step-too-large"


class DegenerateScan(ChernscopeError):
    """A fringe scan has too few points (or no variance) to fit."""

    code = "degenerate-scan"
