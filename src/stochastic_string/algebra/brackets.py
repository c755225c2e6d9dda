"""Stochastic brackets on grid functionals and the commutator correspondence.

The density and phase form a canonical pair, so functionals of (rho, S)
carry the bracket
    {A, B}_s = integral (dA/drho dB/dS - dA/dS dB/drho) dx,
evaluated here by grid quadrature. On the operator side the matching
object is <[A_q, B_q]> / i: for the canonical pair <x>, <p> both sides
equal +1. (The raw expectation <[x, p]> is +i with the standard
commutator [x_i, p_j] = i delta_ij, so the i sits in the denominator;
this fixes the sign convention of the correspondence once and for all.)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from ..core import ModeStateSpec, ValidationError
from ..fpe import GridField
from .operators import OperatorExpr, Word, commutator


class UnsupportedExpectationError(ValidationError):
    """Expectation value not computable with the supplied state data."""


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


def _split_word(word):
    ladder, zero = [], []
    for tok in word:
        (ladder if tok[0] in ("c", "a") else zero).append(tok)
    return tuple(ladder), tuple(zero)


def diagonal_ladder_expectation(word: Word, occupations: dict[tuple[int, int], int]):
    """<K| word |K> for a canonical pure-ladder word in a number state.

    Per (mode, direction) the word contributes a falling factorial
    k (k-1) ... (k-r+1) when it holds r matched creator/annihilator pairs,
    and zero when the counts differ.
    """
    creators: Counter = Counter()
    annihilators: Counter = Counter()
    for tok in word:
        if tok[0] == "c":
            creators[(tok[1], tok[2])] += 1
        elif tok[0] == "a":
            annihilators[(tok[1], tok[2])] += 1
        else:
            raise ValueError(f"not a pure ladder word: {word!r}")
    if set(creators) != set(annihilators):
        return Fraction(0)
    value = Fraction(1)
    for key, r in annihilators.items():
        if creators[key] != r:
            return Fraction(0)
        k = occupations.get(key, 0)
        for step in range(r):
            value *= k - step
        if value == 0:
            return Fraction(0)
    return value


def _zero_mode_expectation(zero_word, field: GridField) -> complex:
    """<psi| x^alpha p^beta |psi> for psi = sqrt(rho) e^{iS} on the grid."""
    directions = {tok[1] for tok in zero_word}
    if len(directions) > 1:
        raise UnsupportedExpectationError(
            "zero-mode words across several directions need separate fields"
        )
    h = field.h
    psi = np.sqrt(field.rho) * np.exp(1j * field.S)
    value = psi.copy()
    for tok in reversed(zero_word):
        if tok[0] == "x":
            value = field.x * value
        else:
            value = -1j * np.gradient(value, h)
    return complex(np.trapezoid(np.conj(psi) * value, dx=h))


def expectation(
    expr: OperatorExpr,
    state: ModeStateSpec | None = None,
    field: GridField | None = None,
) -> complex:
    """<state| expr |state> for a product state (occupations x grid psi).

    Ladder factors are evaluated exactly on the occupation-number state;
    single-direction zero-mode factors by grid quadrature against the
    supplied field. Words mixing several zero-mode directions are
    rejected rather than approximated.
    """
    occupations = dict(state.occupations) if state is not None else {}
    total = 0j
    for word, coeff in expr.terms.items():
        ladder, zero = _split_word(word)
        ladder_value = complex(diagonal_ladder_expectation(ladder, occupations))
        if ladder_value == 0:
            continue
        if zero:
            if field is None:
                raise UnsupportedExpectationError(
                    f"word {word!r} has zero-mode factors but no field was given"
                )
            zero_value = _zero_mode_expectation(zero, field)
        else:
            zero_value = 1.0 + 0j
        total += coeff.to_complex() * ladder_value * zero_value
    return total


def commutator_expectation(
    A: OperatorExpr,
    B: OperatorExpr,
    state: ModeStateSpec | None = None,
    field: GridField | None = None,
) -> complex:
    """<[A_q, B_q]> in the given product state."""
    return expectation(commutator(A, B), state=state, field=field)


def bracket_from_commutator(
    A: OperatorExpr,
    B: OperatorExpr,
    state: ModeStateSpec | None = None,
    field: GridField | None = None,
) -> complex:
    """Operator-side value matching {A, B}_s: <[A_q, B_q]> / i."""
    return commutator_expectation(A, B, state=state, field=field) / 1j
