import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stochastic_string.core import ValidationError
from stochastic_string.drift import StationaryModeState
from stochastic_string import fpe
from stochastic_string.fpe import (
    GridField,
    continuity_residual,
    evolve_fokker_planck,
    gaussian_field,
    l1_distance_to_samples,
    madelung_residual,
    stationary_field,
)


def test_identity_evolution(params):
    field = gaussian_field(-6, 6, 201, 0.0, 1.0)
    out = evolve_fokker_planck(field, lambda x: -x, nu=1.0, d_tau=0.0, steps=10)
    assert np.array_equal(out.rho, field.rho)
    out2 = evolve_fokker_planck(field, lambda x: -x, nu=1.0, d_tau=1e-4, steps=0)
    assert np.array_equal(out2.rho, field.rho)


def test_ou_relaxes_to_stationary_gaussian(params):
    # oracle: the analytic stationary solution of the OU Fokker-Planck equation
    field = gaussian_field(-6, 6, 401, 1.5, 0.8)
    d_tau = 0.4 * field.h**2
    steps = int(10.0 / d_tau)
    out = evolve_fokker_planck(field, lambda x: -x, nu=1.0, d_tau=d_tau, steps=steps)
    target = np.exp(-0.5 * out.x**2) / np.sqrt(2 * np.pi)
    assert np.abs(out.rho - target).sum() * out.h < 1e-3


def test_free_diffusion_variance_growth():
    field = gaussian_field(-20, 20, 801, 0.0, 1.0)
    d_tau = 0.4 * field.h**2
    steps = int(0.5 / d_tau)
    delta = steps * d_tau
    out = evolve_fokker_planck(field, lambda x: np.zeros_like(x), nu=1.0, d_tau=d_tau, steps=steps)
    var0 = np.sum(field.rho * field.x**2) * field.h
    var1 = np.sum(out.rho * out.x**2) * out.h
    assert var1 - var0 == pytest.approx(2.0 * delta, rel=0.01)


def test_mass_conserved_every_step():
    field = gaussian_field(-6, 6, 201, 1.0, 0.7)
    out = field
    for _ in range(50):
        out = evolve_fokker_planck(out, lambda x: -x, nu=1.0, d_tau=2e-4, steps=1)
        assert out.mass() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("nu", [0.0, -1.0])
def test_nonpositive_nu_rejected(nu):
    field = gaussian_field(-6, 6, 101, 0.0, 1.0)
    with pytest.raises(ValidationError):
        evolve_fokker_planck(field, lambda x: -x, nu=nu, d_tau=1e-4, steps=1)


def test_negative_start_rejected():
    field = gaussian_field(-6, 6, 101, 0.0, 1.0)
    rho = field.rho.copy()
    rho[50] = -1e-3
    with pytest.raises(ValidationError):
        evolve_fokker_planck(GridField(-6, 6, rho, field.S), lambda x: -x, nu=1.0, d_tau=0.1, steps=10)


def test_nan_start_rejected():
    # the negativity and mass checks must fail on NaN, not let it through
    field = gaussian_field(-6, 6, 101, 0.0, 1.0)
    rho = field.rho.copy()
    rho[50] = np.nan
    with pytest.raises(ValidationError, match="not finite"):
        evolve_fokker_planck(GridField(-6, 6, rho, field.S), lambda x: -x, nu=1.0, d_tau=1e-3, steps=10)


def test_drift_must_be_finite():
    field = gaussian_field(-6, 6, 101, 0.0, 1.0)
    bad = lambda x: np.where(np.abs(x) < 0.1, np.inf, -x)
    with pytest.raises(ValidationError):
        evolve_fokker_planck(field, bad, nu=1.0, d_tau=1e-4, steps=1)


def test_continuity_residual_stationary(params):
    state = StationaryModeState(params, 1, 0)
    field = stationary_field(state, -6, 6, 2001)
    assert continuity_residual(field, state) < 1e-4


def test_continuity_residual_uniform_flux(params):
    x = np.linspace(-6, 6, 1001)
    field = GridField(-6, 6, np.full_like(x, 1 / 12), 3.0 * x)
    assert continuity_residual(field, StationaryModeState(params, 0)) < 1e-10


def test_continuity_residual_detects_perturbation(params):
    # a perturbed zero-mode density with uniform current is not stationary
    x = np.linspace(-6, 6, 1001)
    rho = (1 + 0.1 * np.sin(x)) / 12.0
    field = GridField(-6, 6, rho, 3.0 * x)
    assert continuity_residual(field, StationaryModeState(params, 0)) > 1e-3


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_madelung_residual_stationary_states(params, n, k):
    state = StationaryModeState(params, n, k)
    field = stationary_field(state, -6, 6, 2001)
    assert madelung_residual(field, state).max_residual < 1e-3


def test_madelung_residual_ground_state_tight(params):
    state = StationaryModeState(params, 1, 0)
    field = stationary_field(state, -6, 6, 2001)
    assert madelung_residual(field, state).max_residual < 1e-4


def test_madelung_wrong_energy_offset(params):
    state = StationaryModeState(params, 1, 0)
    field = stationary_field(state, -6, 6, 2001)
    residual = madelung_residual(field, state, energy=state.energy() + 0.1).max_residual
    assert residual == pytest.approx(0.1, abs=1e-3)


def test_madelung_node_window_reported(params):
    state = StationaryModeState(params, 2, 1)
    field = stationary_field(state, -6, 6, 2001)
    result = madelung_residual(field, state)
    assert result.excluded_points > 0
    assert result.max_residual < 1e-3


def test_madelung_zero_mode_rejected(params):
    state = StationaryModeState(params, 0, momentum=1.0)
    field = stationary_field(state, -6, 6, 101)
    with pytest.raises(ValidationError):
        madelung_residual(field, state)


def test_node_windows_covering_the_grid_name_points(params):
    # k = 12 at 101 points: every interior point lies within 5h of a node
    state = StationaryModeState(params, 1, 12)
    field = stationary_field(state, -6, 6, 101)
    with pytest.raises(ValidationError, match="points = 101"):
        madelung_residual(field, state)


def test_l1_distance_statistics(params):
    rng = np.random.default_rng(0)
    state = StationaryModeState(params, 1, 0)
    field = stationary_field(state, -6, 6, 401)
    samples = rng.normal(0.0, 1.0, 100_000)
    assert l1_distance_to_samples(field, samples) < 0.02
    shifted = rng.normal(0.5, 1.0, 100_000)
    assert l1_distance_to_samples(field, shifted) > 0.1


def test_field_export_import(tmp_path, params):
    state = StationaryModeState(params, 1, 0)
    field = stationary_field(state, -3, 3, 31)
    path = tmp_path / "field.txt"
    fpe.export_field(field, path, header_lines=["note = demo"])
    body = path.read_text().split("x rho S\n", 1)[1]
    assert body == "".join(
        f"{float(x)!r} {float(r)!r} {float(s)!r}\n"
        for x, r, s in zip(field.x, field.rho, field.S)
    )


def test_sharp_kink_stays_nonnegative():
    x = np.linspace(-1, 1, 201)
    rho = np.where(np.abs(x) < 0.05, 1.0, 0.0)
    rho /= rho.sum() * (x[1] - x[0])
    field = GridField(-1, 1, rho, np.zeros_like(x))
    out = evolve_fokker_planck(
        field, lambda x: np.zeros_like(x), nu=1.0, d_tau=0.4 * field.h**2, steps=200
    )
    assert out.mass() == pytest.approx(1.0, abs=1e-9)
    assert out.rho.min() >= 0.0


def test_discrete_stationary_density_is_fixed():
    # for drift -x the cell integral of v is -h * (cell midpoint), exactly
    x = np.linspace(-6, 6, 201)
    h = x[1] - x[0]
    delta = -h * 0.5 * (x[1:] + x[:-1])
    rho = np.exp(np.concatenate(([0.0], np.cumsum(delta))))
    field = GridField(-6, 6, rho / (rho.sum() * h), np.zeros_like(x))
    out = evolve_fokker_planck(field, lambda x: -x, nu=1.0, d_tau=0.01, steps=100)
    assert np.abs(out.rho - field.rho).sum() * h < 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_excited_stationary_density_is_kept(params, k):
    state = StationaryModeState(params, 1, k)
    start = stationary_field(state, -6, 6, 401)
    out = evolve_fokker_planck(
        start, lambda x: state.forward_drift_array(x)[0], state.nu,
        d_tau=0.4 * start.h**2 / state.nu, steps=2000,
    )
    assert np.abs(out.rho - start.rho).sum() * start.h <= 0.02
    assert out.mass() == pytest.approx(start.mass(), abs=1e-9)
    assert out.rho.min() >= 0.0


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_relaxation_rates_are_level_spacings(params, n, j):
    # rho_s (1 + eps He_j(x / sigma)) relaxes at rate n * j, the spacing of
    # the oscillator levels; the scheme is linear, so evolving rho_s alongside
    # isolates the perturbation
    state = StationaryModeState(params, n, 0)
    rho_s = stationary_field(state, -6, 6, 401)
    coeffs = np.zeros(j + 1)
    coeffs[j] = 1.0
    he = np.polynomial.hermite_e.hermeval(rho_s.x / state.sigma, coeffs)
    perturbed = replace(rho_s, rho=rho_s.rho * (1 + 1e-3 * he))
    drift = lambda x: state.forward_drift_array(x)[0]
    base, moved = rho_s, perturbed
    amplitudes = [np.sum((moved.rho - base.rho) * he)]
    for _ in range(5):
        base = evolve_fokker_planck(base, drift, state.nu, d_tau=0.1, steps=1)
        moved = evolve_fokker_planck(moved, drift, state.nu, d_tau=0.1, steps=1)
        amplitudes.append(np.sum((moved.rho - base.rho) * he))
    taus = np.linspace(0.0, 0.5, 6)
    rate = -np.polyfit(taus, np.log(amplitudes), 1)[0]
    assert rate == pytest.approx(n * j, rel=1e-3)


def _face_rates(field, drift, nu):
    """The scheme's face rates, restated: 3-point Gauss-Legendre cell integral
    of the drift, then the Bernoulli weights B(-D) and B(D)."""
    h = field.h
    mid = 0.5 * (field.x[1:] + field.x[:-1])
    offset = 0.5 * h * np.sqrt(0.6)
    delta = (h / nu) * (5 * drift(mid - offset) + 8 * drift(mid) + 5 * drift(mid + offset)) / 18
    with np.errstate(over="ignore", invalid="ignore"):
        bernoulli = lambda z: np.where(z == 0.0, 1.0, z / np.expm1(z))
        return bernoulli(-delta), bernoulli(delta)


def _sequential_reference(field, drift, nu, substeps):
    """A horizon the scheme covers in exactly ``substeps`` sub-steps, and the
    density after them, stepped one sub-step at a time."""
    forward, backward = _face_rates(field, drift, nu)
    out_rate = np.zeros(field.points)
    out_rate[:-1] += forward
    out_rate[1:] += backward
    tau = (substeps - 0.5) * 0.8 * field.h**2 / (nu * out_rate.max())
    scale = (tau / substeps) * nu / field.h**2
    rho = field.rho.copy()
    for _ in range(substeps):
        flux = scale * forward * rho[:-1] - scale * backward * rho[1:]
        rho[:-1] -= flux
        rho[1:] += flux
    return tau, rho


def _count_band_builds(monkeypatch):
    built = []
    band_power = fpe._band_power

    def counted(*args):
        built.append(args)
        return band_power(*args)

    monkeypatch.setattr(fpe, "_band_power", counted)
    return built


@pytest.mark.parametrize("runs, rest", [(0, 7), (20, 0), (20, 7)])
@pytest.mark.parametrize("points", [41, 101, 401])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_band_matches_sequential_substeps(params, monkeypatch, k, points, runs, rest):
    # runs * _BAND + rest sub-steps: the band is built once when there is a
    # run of _BAND to apply it to, and the rest step one sub-step at a time
    state = StationaryModeState(params, 1, k)
    drift = lambda x: state.forward_drift_array(x)[0]
    field = gaussian_field(-6, 6, points, 0.5, 1.0)
    tau, expected = _sequential_reference(field, drift, state.nu, runs * fpe._BAND + rest)
    built = _count_band_builds(monkeypatch)
    out = evolve_fokker_planck(field, drift, state.nu, d_tau=tau, steps=1)
    assert len(built) == (runs > 0)
    assert np.abs(out.rho - expected).max() <= 1e-12 * np.abs(expected).max()
    assert abs(out.mass() - field.mass()) <= 1e-12
    assert out.rho.min() >= -1e-12


def test_band_memory_independent_of_steps(monkeypatch):
    field = gaussian_field(-6, 6, 401, 1.0, 0.7)
    d_tau = 0.4 * field.h**2
    built = _count_band_builds(monkeypatch)
    peaks = []
    for steps in (1000, 10_000):
        tracemalloc.start()
        try:
            evolve_fokker_planck(field, lambda x: -x, nu=1.0, d_tau=d_tau, steps=steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(built) == 2
    assert peaks[1] == pytest.approx(peaks[0], rel=0.1)
    # the band holds (2 * _BAND + 1) * points values, and building it three
    # arrays of that size at once
    assert max(peaks) < 4 * (2 * fpe._BAND + 1) * field.points * 8
