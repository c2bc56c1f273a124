"""Numerical laboratory for two-parameter Carnot-Caratheodory balls and
curve-integration Radon transforms on polynomial model geometries."""

from . import errors
from .ccball import ComparabilityWindow, mc_ball, reach_ball
from .exponents import c_from_pq, c_from_pqr, classify_triple, estimate_region
from .geometry import ModelFamily, builtin_models, load_model
from .lattice import LatticeSet

__version__ = "0.1.0"

__all__ = [
    "errors",
    "ModelFamily",
    "builtin_models",
    "load_model",
    "LatticeSet",
    "ComparabilityWindow",
    "reach_ball",
    "mc_ball",
    "c_from_pq",
    "c_from_pqr",
    "estimate_region",
    "classify_triple",
    "__version__",
]
