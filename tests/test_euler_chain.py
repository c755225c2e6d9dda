"""The streamed estimators against the exact Euler chain, and the check that pins nu.

``chain.EulerChain`` gives the moments of the discrete process ``simulate``
runs for a ground-state mode, so these tests hold at finite d_tau with
|z| bounds instead of continuum tolerances.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from chain import EulerChain, z_bound
from stochastic_string import sde
from stochastic_string.core import ModeStateSpec, StringParams
from stochastic_string.drift import StationaryModeState
from stochastic_string.observables import LagProducts, fit_log_slope

PARAMS = StringParams(alpha_prime=0.5, dims=26, mode_cutoff=6)
STEPS, COUNT = 200, 4000


@pytest.mark.parametrize("n, d_tau", [
    # the chain's stationary variance lies 3% above the continuum 2 alpha'/n
    (6, 1e-2),
    # slow decay: the longest lags, averaged over the fewest origins, keep a
    # third of the equal-time value
    (1, 5e-3),
])
def test_lag_products_equal_the_chain_at_every_lag(monkeypatch, n, d_tau):
    monkeypatch.setattr(sde, "_CHUNK", 1500)  # chunks of 1334, 1334, 1332
    state = StationaryModeState(PARAMS, n)
    chain = EulerChain.of(state, d_tau)
    # stride 3 records t = 0, 3, .., 198: the last two steps are never recorded
    recorded = {stride: STEPS // stride + 1 for stride in (1, 3)}
    products = {s: LagProducts(state, d_tau, s, range(r)) for s, r in recorded.items()}
    sde.simulate(
        PARAMS, ModeStateSpec(), n, 1, d_tau=d_tau, steps=STEPS, count=COUNT, seed=31,
        record_stride=STEPS, observe=lambda t, col: [p(t, col) for p in products.values()],
    )
    bound = z_bound(sum(recorded.values()))
    for stride, columns in recorded.items():
        for lag in range(columns):
            est = products[stride].estimate(lag)
            # the stationary start draws q_0 from the continuum density
            expected = chain.lag_product_mean(lag, stride, columns, state.sigma**2)
            z = (est.value - expected) / est.standard_error
            assert abs(z) <= bound, f"stride {stride}, lag {lag}: z = {z:.2f}"
            assert est.delta_tau == pytest.approx(lag * stride * d_tau, rel=1e-12)


# n = 6 at d_tau = 1e-2
N, D_TAU = 6, 1e-2


def test_rate_bins_equal_the_chain():
    state = StationaryModeState(PARAMS, N)
    chain = EulerChain.of(state, D_TAU)
    sd = math.sqrt(chain.stationary_variance)
    probe = np.linspace(-2.0, 2.0, 9) * sd
    bins = sde.RateBins(lambda x: x, probe, 0.2 * sd, D_TAU, backward=True)
    # started in the chain's own stationary law, so that both conditional
    # rates are the same linear function of q_t at every step
    sde.simulate(
        PARAMS, ModeStateSpec(), N, 1, init=lambda rng, size: rng.normal(0.0, sd, size),
        d_tau=D_TAU, steps=STEPS, count=COUNT, seed=32, record_stride=STEPS, observe=bins,
    )
    bound = z_bound(2 * len(probe))
    noise = math.sqrt(chain.rate_noise_variance())
    slopes = (chain.forward_rate_slope(), chain.backward_rate_slope())
    for direction, (rates, at, counts), slope in zip(("forward", "backward"), bins.rates(1), slopes):
        z = (rates - slope * at) * np.sqrt(counts) / noise
        assert np.all(np.abs(z) <= bound), f"{direction}: z = {np.round(z, 2)}"


def test_transport_deviation_mean_equals_the_chain():
    # F(q) = q under a linear drift: bin b's error, its rate estimate minus the
    # drift at its mean, is the mean of its c_b noise increments over d_tau,
    # N(0, 2 nu / (d_tau c_b)) given the counts, so transport_deviation is the
    # largest |error| of 7 independent bins
    state = StationaryModeState(PARAMS, N)
    chain = EulerChain.of(state, D_TAU)
    runs, steps = 40, 50
    excess = []
    for seed in range(36, 36 + runs):
        bins = sde.transport_bins(state, lambda x: x, D_TAU)
        sde.simulate(
            PARAMS, ModeStateSpec(), N, 1, d_tau=D_TAU, steps=steps, count=500, seed=seed,
            record_stride=steps, observe=bins,
        )
        deviation = sde.transport_deviation(bins, state, np.ones_like, np.zeros_like)
        excess.append(deviation - chain.max_rate_error_mean(bins.counts[0]))
    z = np.mean(excess) / (np.std(excess, ddof=1) / math.sqrt(runs))
    assert abs(z) <= z_bound(1), f"mean excess {np.mean(excess):.4f}: z = {z:.2f}"


@dataclass(frozen=True)
class _ScaledDiffusion(StringParams):
    """Every diffusion constant ``scale`` times the paper's: nu_n != 2 alpha' unless scale = 1."""

    scale: float = 1.0

    def diffusion(self, n: int) -> float:
        return self.scale * super().diffusion(n)


def _log_slope_standard_error(q: np.ndarray, lags, estimates) -> float:
    """Delta-method standard error of ``fit_log_slope(estimates)`` over the
    independent trajectories of the stored recorded columns ``q``."""
    x = np.array([est.delta_tau for est in estimates])
    x -= x.mean()
    influence = sum(
        w / est.value * (q[:, : q.shape[1] - lag] * q[:, lag:]).mean(axis=1)
        for w, lag, est in zip(x / (x @ x), lags, estimates)
    )
    return float(influence.std(ddof=1) / math.sqrt(len(influence)))


@pytest.mark.parametrize("scale", [0.8, 1.0, 1.25])
def test_correlator_slope_pins_nu(scale):
    # nu enters the drift nu (log rho)' and the noise alike, so the stationary
    # density is |psi|^2 for any nu; the correlator decays at scale * n
    params = _ScaledDiffusion(alpha_prime=0.5, dims=26, mode_cutoff=6, scale=scale)
    n, d_tau, stride = 1, 1e-2, 10
    lags = range(11)  # delta_tau = 0 .. 1
    state = StationaryModeState(params, n)
    chain = EulerChain.of(state, d_tau)  # a = 1 - scale * n * d_tau
    # the chain's own slope is within 1% of the continuum -scale * n here
    assert abs(chain.log_slope / (-scale * n) - 1.0) < 0.01
    products = LagProducts(state, d_tau, stride, lags)
    q = sde.simulate(
        params, ModeStateSpec(), n, 1, d_tau=d_tau, steps=300, count=40_000, seed=33,
        record_stride=stride, observe=products,
    ).samples
    estimates = [products.estimate(lag) for lag in lags]
    slope = fit_log_slope(estimates)
    se = _log_slope_standard_error(q, lags, estimates)
    assert abs(slope - chain.log_slope) <= z_bound(1) * se, f"slope {slope} vs {chain.log_slope}"
    # criterion 2's check: only nu = 2 alpha' reproduces the decay rate n
    assert (abs(slope + n) <= 0.03 * n) == (scale == 1.0), f"slope {slope} vs -{n}"


def test_euler_residuals_independent_across_noise_blocks(monkeypatch):
    # blocks of 4 steps: a stream that restarted, or a block drawn once and
    # reused, would correlate residual i of one block with residual i of the
    # next
    block = 4
    monkeypatch.setattr(sde, "_NOISE_VALUES", block * sde._CHUNK)
    state = StationaryModeState(PARAMS, N)
    chain = EulerChain.of(state, D_TAU)
    q = sde.simulate(
        PARAMS, ModeStateSpec(), N, 1, d_tau=D_TAU, steps=3 * block, count=COUNT, seed=34,
    ).samples
    # q_{t+1} - a q_t = s xi_t: the noise of step t + 1
    residuals = (q[:, 1:] - chain.a * q[:, :-1]) / math.sqrt(chain.noise_variance)
    assert np.allclose(residuals.std(axis=0), 1.0, atol=0.05)
    bound = z_bound(2 * block**2)
    for boundary in (block, 2 * block):
        before = residuals[:, boundary - block : boundary]
        after = residuals[:, boundary : boundary + block]
        # sqrt(COUNT) times each sample correlation of a step before with one after
        z = (before - before.mean(0)).T @ (after - after.mean(0)) / (
            np.outer(before.std(0), after.std(0)) * math.sqrt(COUNT)
        )
        assert np.all(np.abs(z) <= bound), f"boundary {boundary}: z = {np.round(z, 2)}"


@pytest.mark.parametrize("scale", [0.8, 1.25])
def test_second_law_acceleration_scales_as_nu_squared(scale):
    # u = nu (log rho)' scales with nu, and the mean acceleration
    # -(u^2/2 + nu u')' with nu^2: only nu = 2 alpha' gives -n^2 q. The
    # scale = 1 side is criterion 6, at 300 000 trajectories.
    params = _ScaledDiffusion(alpha_prime=0.5, dims=26, mode_cutoff=6, scale=scale)
    n, d_tau, steps = 1, 1e-3, 500
    state = StationaryModeState(params, n)
    bins = sde.second_law_bins(state, d_tau)
    sde.simulate(
        params, ModeStateSpec(), n, 1, d_tau=d_tau, steps=steps, count=20_000, seed=35,
        record_stride=steps, observe=bins,
    )
    deviation, probe, acceleration = sde.second_law_check(bins, state)
    # criterion 6's check
    assert deviation >= 0.10, f"second-law deviation {deviation}"
    ratio = float(np.median(acceleration / (-(n**2) * probe)))
    # over seeds 0..11, ratio / scale^2 spread with a standard deviation of
    # 0.031 at scale 0.8 and 0.025 at 1 and 1.25; the bound is four of the larger
    assert abs(ratio / scale**2 - 1.0) <= 4 * 0.031, f"ratio {ratio} vs {scale**2}"
