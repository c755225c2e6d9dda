"""Exact symbolic engine for normal-ordered ladder-operator polynomials."""

from .brackets import bracket_from_commutator, stochastic_bracket
from .lorentz import (
    AlgebraConsistencyError,
    anomaly_coefficient,
    anomaly_report,
    anomaly_value_direct,
    format_anomaly_report,
)
from .operators import (
    OperatorExpr,
    annihilation,
    commutator,
    creation,
    identity,
    momentum,
    position,
)
from .scalars import PolyDA, solve_affine_system

__all__ = [
    "AlgebraConsistencyError",
    "OperatorExpr",
    "PolyDA",
    "annihilation",
    "anomaly_coefficient",
    "anomaly_report",
    "anomaly_value_direct",
    "bracket_from_commutator",
    "commutator",
    "creation",
    "format_anomaly_report",
    "identity",
    "momentum",
    "position",
    "solve_affine_system",
    "stochastic_bracket",
]
