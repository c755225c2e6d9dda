"""Stochastic brackets on grid functionals and the commutator correspondence.

The density and phase form a canonical pair, so functionals of (rho, S)
carry the bracket
    {A, B}_s = integral (dA/drho dB/dS - dA/dS dB/drho) dx,
evaluated here by grid quadrature. On the operator side the matching
object is [A_q, B_q] / i, read exactly: for the canonical pair x, p the
commutator normal-orders to i times the identity, so the operator side is
exactly +1 in every state, and {<x>, <p>}_s is +1 up to quadrature error.
(With the standard commutator [x_i, p_j] = i delta_ij the i sits in the
denominator; this fixes the sign convention of the correspondence once
and for all.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core import ValidationError
from ..fpe import GridField
from .operators import OperatorExpr, commutator


@dataclass(frozen=True)
class BracketFunctional:
    """Functional of (rho, S) with evaluable functional derivatives."""

    d_rho: Callable[[GridField], np.ndarray]
    d_S: Callable[[GridField], np.ndarray]


def mean_position() -> BracketFunctional:
    """A[rho, S] = integral rho x dx."""
    return BracketFunctional(
        d_rho=lambda field: field.x,
        d_S=lambda field: np.zeros(field.points),
    )


def mean_momentum() -> BracketFunctional:
    """B[rho, S] = integral rho S' dx; dB/dS = -rho' by parts."""
    return BracketFunctional(
        d_rho=lambda field: np.gradient(field.S, field.h),
        d_S=lambda field: -np.gradient(field.rho, field.h),
    )


def stochastic_bracket(
    A: BracketFunctional, B: BracketFunctional, field: GridField
) -> float:
    """{A, B}_s evaluated by trapezoidal quadrature on the field's grid."""
    integrand = A.d_rho(field) * B.d_S(field) - A.d_S(field) * B.d_rho(field)
    return float(np.trapezoid(integrand, dx=field.h))


def bracket_from_commutator(A: OperatorExpr, B: OperatorExpr) -> complex:
    """Operator-side value matching {A, B}_s: [A_q, B_q] / i, for a
    commutator that is c times the identity; any other word is rejected."""
    comm = commutator(A, B)
    for word in comm.terms:
        if word:
            raise ValidationError(f"commutator is not a scalar: it holds the word {word!r}")
    return comm.coefficient(()).to_complex() / 1j
