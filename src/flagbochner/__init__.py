"""Exact coordinate charts and Bochner classification on classical flag
manifolds.

The package namespace carries the names of the README's library
quickstart; everything else is imported from its own submodule.
"""

from .bochner import BochnerStatus, classify, forbidden_report, render_constraint
from .expansion import diastasis, forbidden_jet
from .lie_core import Family, GroupSpec, PaintedDiagram, PaintingError
from .matrices import build_Z

__version__ = "0.1.0"

__all__ = [
    "BochnerStatus",
    "Family",
    "GroupSpec",
    "PaintedDiagram",
    "PaintingError",
    "build_Z",
    "classify",
    "diastasis",
    "forbidden_jet",
    "forbidden_report",
    "render_constraint",
]
