import numpy as np
import pytest

from stochastic_string.core import ValidationError
from stochastic_string.drift import StationaryModeState
from stochastic_string.fpe import GridField, stationary_field
from stochastic_string.algebra import (
    bracket_from_commutator,
    momentum,
    position,
    stochastic_bracket,
)


@pytest.fixture
def ground_field(params):
    state = StationaryModeState(params, 1, 0)
    return stationary_field(state, -6, 6, 2001)


def test_canonical_pair_bracket(ground_field):
    value = stochastic_bracket(ground_field)
    assert value == pytest.approx(1.0, abs=1e-4)


def test_bracket_on_moving_state(params):
    # zero-mode-like field with S = kappa x still gives {<x>, <p>} = 1
    x = np.linspace(-8, 8, 2001)
    rho = np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)
    field = GridField(-8, 8, rho, 3.0 * x)
    value = stochastic_bracket(field)
    assert value == pytest.approx(1.0, abs=1e-4)


def test_bracket_grid_convergence(params):
    # functional-derivative quadrature converges at O(h^2)
    state = StationaryModeState(params, 1, 0)
    errors = []
    for points in (251, 501, 1001):
        field = stationary_field(state, -8, 8, points)
        value = stochastic_bracket(field)
        errors.append(abs(value - 1.0))
    assert errors[2] < errors[0]
    assert errors[2] < 1e-4


def test_commutator_expectation_canonical_pair():
    # [x, p] = i times the identity, so [x, p] / i = [-i y, alpha_0] is exactly 1
    assert bracket_from_commutator(position(1), momentum(1)) == 1


def test_correspondence_matches_bracket(ground_field):
    bracket = stochastic_bracket(ground_field)
    operator_side = bracket_from_commutator(position(1), momentum(1))
    assert bracket == pytest.approx(float(operator_side), abs=1e-4)


def test_commutator_expectation_same_operator():
    assert bracket_from_commutator(position(1), position(1)) == 0


def test_non_scalar_commutator_rejected():
    # [x, p^2] = 2i p is an operator, not a number
    with pytest.raises(ValidationError, match=r"\('p', 1\)"):
        bracket_from_commutator(position(1), momentum(1) * momentum(1))
