import numpy as np
import pytest

from stochastic_string.core import ModeStateSpec, StringParams
from stochastic_string.drift import StationaryModeState
from stochastic_string.fpe import GridField, stationary_field
from stochastic_string.algebra import (
    BracketFunctional,
    annihilation,
    bracket_from_commutator,
    commutator_expectation,
    creation,
    expectation,
    mean_momentum,
    mean_position,
    momentum,
    position,
    stochastic_bracket,
)
from stochastic_string.algebra.brackets import UnsupportedExpectationError


@pytest.fixture
def ground_field(params):
    state = StationaryModeState(params, 1, 0)
    return stationary_field(state, -6, 6, 2001)


def test_canonical_pair_bracket(ground_field):
    value = stochastic_bracket(mean_position(), mean_momentum(), ground_field)
    assert value == pytest.approx(1.0, abs=1e-4)


def test_bracket_antisymmetry_and_constants(ground_field):
    A = mean_position()
    assert stochastic_bracket(A, A, ground_field) == 0.0
    shifted = BracketFunctional(
        d_rho=lambda f: A.d_rho(f),
        d_S=lambda f: np.zeros(f.points),
    )
    assert stochastic_bracket(A, shifted, ground_field) == pytest.approx(0.0, abs=1e-12)


def test_bracket_on_moving_state(params):
    # zero-mode-like field with S = kappa x still gives {<x>, <p>} = 1
    x = np.linspace(-8, 8, 2001)
    rho = np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)
    field = GridField(-8, 8, rho, 3.0 * x)
    value = stochastic_bracket(mean_position(), mean_momentum(), field)
    assert value == pytest.approx(1.0, abs=1e-4)


def test_bracket_grid_convergence(params):
    # functional-derivative quadrature converges at O(h^2)
    state = StationaryModeState(params, 1, 0)
    errors = []
    for points in (251, 501, 1001):
        field = stationary_field(state, -8, 8, points)
        value = stochastic_bracket(mean_position(), mean_momentum(), field)
        errors.append(abs(value - 1.0))
    assert errors[2] < errors[0]
    assert errors[2] < 1e-4


def test_commutator_expectation_canonical_pair(ground_field):
    value = commutator_expectation(position(1), momentum(1), field=ground_field)
    assert value == pytest.approx(1j, abs=1e-6)
    assert bracket_from_commutator(position(1), momentum(1), field=ground_field).real == pytest.approx(1.0, abs=1e-6)


def test_correspondence_matches_bracket(ground_field):
    bracket = stochastic_bracket(mean_position(), mean_momentum(), ground_field)
    operator_side = bracket_from_commutator(position(1), momentum(1), field=ground_field)
    assert bracket == pytest.approx(operator_side.real, abs=1e-4)
    assert operator_side.imag == pytest.approx(0.0, abs=1e-9)


def test_commutator_expectation_same_operator(ground_field):
    assert commutator_expectation(position(1), position(1), field=ground_field) == 0


def test_ladder_expectations():
    spec = ModeStateSpec(occupations={(1, 1): 2})
    number = creation(1, 1) * annihilation(1, 1)
    assert expectation(number, state=spec) == pytest.approx(2.0)
    # vacuum expectation of a creation operator vanishes
    vac = ModeStateSpec()
    assert expectation(creation(1, 1), state=vac) == 0
    value = commutator_expectation(number, creation(1, 1), state=vac)
    assert value == 0


def test_commutator_expectation_number_state():
    spec = ModeStateSpec(occupations={(2, 3): 4})
    value = commutator_expectation(annihilation(2, 3), creation(2, 3), state=spec)
    assert value == pytest.approx(1.0)


def test_mixed_words_need_field():
    expr = position(1) * creation(1, 1) * annihilation(1, 1)
    with pytest.raises(UnsupportedExpectationError):
        expectation(expr, state=ModeStateSpec(occupations={(1, 1): 1}))


def test_zero_mode_moments_on_grid(params):
    # n = 1 ground state: <x^2> = sigma^2 = 1, <p^2> = 1 / (4 sigma^2); a phase
    # S = 0.7 x boosts <p> to 0.7
    field = stationary_field(StationaryModeState(params, 1, 0), -8, 8, 2001)
    x, p = position(1), momentum(1)
    assert expectation(x * x, field=field).real == pytest.approx(1.0, abs=1e-4)
    assert expectation(p * p, field=field).real == pytest.approx(0.25, abs=1e-4)
    moving = GridField(-8, 8, field.rho, 0.7 * field.x)
    assert expectation(p, field=moving).real == pytest.approx(0.7, abs=1e-4)


def test_multi_direction_zero_mode_rejected(ground_field):
    expr = position(1) * position(2)
    with pytest.raises(UnsupportedExpectationError):
        expectation(expr, field=ground_field)
