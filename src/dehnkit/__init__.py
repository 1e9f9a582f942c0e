"""Exact combinatorics of simple closed curves on oriented surfaces.

Core layers:
  surface    cell decompositions, embedded curves, homology flows
  overlay    exact curve arrangements, minimal position, isotopy
  presets    built-in surfaces with curve systems
  calculus   essentiality, algebraic intersection, pair classes
  twisting   Dehn twists and twist words
  reduction  positive-twist reduction of curve pairs
  factorization  positive factorization of mapping classes
"""

from .errors import (
    BudgetExceededError,
    ComputationError,
    DehnkitError,
    PreconditionError,
    ValidationError,
)
from .presets import (
    PRESET_NAMES,
    PantsSystem,
    PresetSurface,
    build_preset,
    homology_class,
    torus_curve,
)
from .surface import CellSurface, EmbeddedCurve, Flow

__all__ = [
    "BudgetExceededError",
    "CellSurface",
    "ComputationError",
    "DehnkitError",
    "EmbeddedCurve",
    "Flow",
    "PRESET_NAMES",
    "PantsSystem",
    "PreconditionError",
    "PresetSurface",
    "ValidationError",
    "build_preset",
    "homology_class",
    "torus_curve",
]

__version__ = "0.1.0"
