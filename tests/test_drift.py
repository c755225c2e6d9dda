import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermder, hermval
from scipy.integrate import quad

from stochastic_string import drift as drift_module
from stochastic_string.core import StringParams, ValidationError
from stochastic_string.drift import StationaryModeState


def quad_moment(state, power):
    return quad(lambda x: x**power * state.density(x), -14, 14, limit=300)[0]


def test_ground_state_variance_matches_quadrature(params):
    # oracle: numeric quadrature of |psi_0|^2
    state = StationaryModeState(params, 1, 0)
    assert quad_moment(state, 0) == pytest.approx(1.0, abs=1e-10)
    assert quad_moment(state, 2) == pytest.approx(1.0, abs=1e-9)

    state2 = StationaryModeState(params, 2, 0)
    assert quad_moment(state2, 2) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_density_normalized(params, n, k):
    state = StationaryModeState(params, n, k)
    assert quad_moment(state, 0) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("k", [100, 140, 170])
def test_density_mass_at_high_occupation(k):
    # the tails must not underflow before the node factors multiply them back up
    state = StationaryModeState(StringParams(alpha_prime=0.5, dims=26, mode_cutoff=4), 1, k)
    x = np.linspace(-40.0, 40.0, 400_001)
    assert abs(np.trapezoid(state.density(x), x) - 1.0) <= 1e-9


def test_first_excited_state_node_at_origin(params):
    state = StationaryModeState(params, 1, 1)
    assert state.density(0.0) == 0.0


def test_zero_mode_has_no_density(params):
    state = StationaryModeState(params, 0, momentum=2.0)
    with pytest.raises(ValidationError, match="zero mode has no normalizable stationary density"):
        state.density(1.0)


def drift_at(state, x):
    drift, _ = state.forward_drift_array(np.array([x]))
    return drift[0]


def test_drift_ground_state(params):
    # u = -n x; oracle: finite difference of log rho
    state = StationaryModeState(params, 1, 0)
    for x in (-1.3, 0.2, 2.4):
        assert drift_at(state, x) == pytest.approx(-x, abs=1e-12)
        h = 1e-6
        fd = (
            math.log(state.density(x + h)) - math.log(state.density(x - h))
        ) / (2 * h)
        assert drift_at(state, x) == pytest.approx(state.nu * fd, abs=1e-5)


def test_drift_symmetric_zero(params):
    assert drift_at(StationaryModeState(params, 3, 0), 0.0) == 0.0


def test_drift_antisymmetry(params):
    state = StationaryModeState(params, 2, 2)
    for x in (0.3, 0.9, 1.7):
        assert drift_at(state, -x) == pytest.approx(-drift_at(state, x))


def test_drift_near_node_diverges(params):
    # rho ~ x^2 near the node: u ~ nu * 2/x; oracle: log-density finite difference
    state = StationaryModeState(params, 1, 1)
    for x in (1e-3, -1e-3):
        expected = state.nu * 2.0 / x
        assert drift_at(state, x) == pytest.approx(expected, rel=5e-3)


def test_drift_current_part(params):
    # current part v = 2 alpha' kappa for the zero mode; real oscillator
    # states carry none, so their drift is the osmotic part alone
    state = StationaryModeState(params, 2, 0)
    assert drift_at(state, 0.7) == state.nu * state.log_density_gradient(0.7)
    zero = StationaryModeState(params, 0, momentum=3.0)
    assert drift_at(zero, 10.0) == pytest.approx(3.0)
    assert drift_at(StationaryModeState(params, 0, momentum=0.0), 1.0) == 0.0


def test_forward_drift_linear_for_ground_states(params):
    # v_+ = -n x exactly for every k = 0 state
    grid = np.linspace(-3, 3, 41)
    for n in range(1, 7):
        state = StationaryModeState(params, n, 0)
        drift, _ = state.forward_drift_array(grid)
        np.testing.assert_allclose(drift, -n * grid, atol=1e-12)
    state4 = StationaryModeState(StringParams(alpha_prime=1.0), 4, 0)
    assert drift_at(state4, 0.5) == pytest.approx(-2.0)


def test_forward_drift_zero_mode(params):
    state = StationaryModeState(params, 0, momentum=3.0)
    for x in (-5.0, 0.0, 2.0):
        assert drift_at(state, x) == pytest.approx(3.0)


def test_forward_drift_array_clamps_and_counts(params, monkeypatch):
    monkeypatch.setattr(drift_module, "_DRIFT_CAP", 100.0)
    state = StationaryModeState(params, 1, 1)
    drift, clamped = state.forward_drift_array(np.array([0.0, 1e-9, 1.0]))
    assert clamped == 2
    assert np.all(np.abs(drift) <= 100.0)
    assert np.all(np.isfinite(drift))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_ground_state_drift_bit_identical_to_log_gradient(params, monkeypatch, n):
    state = StationaryModeState(params, n, 0)
    x = np.random.default_rng(n).normal(0.0, 3.0, 5000)
    x[:2] = (0.0, -0.0)
    drift, clamped = state.forward_drift_array(x)
    assert clamped == 0
    assert drift.tobytes() == (state.nu * state.log_density_gradient(x)).tobytes()
    # no node, so no pole: the Gaussian's own expressions, bit for bit
    beta = state.scale
    xi = beta * x
    norm = beta / math.sqrt(math.pi)
    assert drift.tobytes() == (state.nu * (beta * (0.0 - 2.0 * (beta * x)))).tobytes()
    assert state.density(x).tobytes() == (norm * np.exp(-(xi**2))).tobytes()
    monkeypatch.setattr(drift_module, "_DRIFT_CAP", 1e6)
    drift, clamped = state.forward_drift_array(np.array([0.5, 1e7, -1e7, np.nan]))
    assert clamped == 3
    assert drift[0] == state.nu * state.log_density_gradient(0.5)
    assert np.array_equal(drift[1:], [-1e6, 1e6, 1e6])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_excited_drift_and_density_match_hermite_series(params, k):
    # oracle: numpy's Hermite series for H_k and H_k', away from the nodes
    state = StationaryModeState(params, 2, k)
    beta = state.scale
    x = np.linspace(-6.0, 6.0, 12_001) / beta
    x = x[np.min(np.abs(x[:, None] - state.nodes()), axis=1) >= 1e-3]
    xi = beta * x
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    h = hermval(xi, coeffs)
    dh = hermval(xi, hermder(coeffs))
    norm = beta / (math.sqrt(math.pi) * 2.0**k * math.factorial(k))
    expected_density = norm * h**2 * np.exp(-(xi**2))
    expected_drift = state.nu * beta * (2.0 * dh / h - 2.0 * xi)
    drift, clamped = state.forward_drift_array(x)
    assert clamped == 0
    for got, expected in ((drift, expected_drift), (state.density(x), expected_density)):
        bound = np.where(expected == 0.0, 1e-12, 1e-9 * np.abs(expected))
        assert np.all(np.abs(got - expected) <= bound)


def test_energy(params):
    assert StationaryModeState(params, 2, 1).energy() == pytest.approx(3.0)
    assert StationaryModeState(params, 1, 0).energy() == pytest.approx(0.5)


def test_nodes_match_density_zeros(params):
    state = StationaryModeState(params, 2, 3)
    for node in state.nodes():
        assert state.density(node) == pytest.approx(0.0, abs=1e-12)


def test_stationary_sampler_moments(params):
    rng = np.random.default_rng(1)
    state = StationaryModeState(params, 1, 1)
    samples = state.sample_stationary(rng, 200_000)
    # k=1 oscillator: <x^2> = (2k+1) * sigma^2 / ... oracle: quadrature
    expected = quad_moment(state, 2)
    assert samples.var() == pytest.approx(expected, rel=0.02)
    assert samples.mean() == pytest.approx(0.0, abs=0.02)
