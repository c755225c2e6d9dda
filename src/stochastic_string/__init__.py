"""Stochastic dynamics of an open bosonic string's normal modes.

Per-mode Ornstein-Uhlenbeck-type diffusions whose stationary statistics
reproduce the first-quantized string: SDE and Fokker-Planck engines,
Madelung-pair residual checks, mode correlators and the level spectrum,
plus an exact light-cone operator algebra certifying the critical
dimension D = 26.
"""

from .core import ModeStateSpec, StringParams, ValidationError, validate
from .drift import StationaryModeState
from .fpe import GridField
from .sde import Ensemble

__version__ = "0.1.0"

__all__ = [
    "Ensemble",
    "GridField",
    "ModeStateSpec",
    "StationaryModeState",
    "StringParams",
    "ValidationError",
    "validate",
    "__version__",
]
