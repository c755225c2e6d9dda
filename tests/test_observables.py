import math

import pytest
from scipy.integrate import quad

from stochastic_string.core import ModeStateSpec, StringParams, ValidationError
from stochastic_string.drift import StationaryModeState
from stochastic_string import observables, sde
from stochastic_string.observables import (
    CorrelatorEstimate,
    LagProducts,
    MAX_LEVEL,
    fit_log_slope,
    level_spectrum,
    zeta_intercept,
    summed_correlator,
)


GROUND_PARAMS = StringParams(alpha_prime=0.5, dims=26, mode_cutoff=6)


@pytest.fixture(scope="module")
def ground_products():
    # 31 recorded columns 0.1 apart; lag 31 spans more than the run records
    products = LagProducts(StationaryModeState(GROUND_PARAMS, 1), 1e-3, 100, range(32))
    sde.simulate(
        GROUND_PARAMS, ModeStateSpec(), 1, 1, d_tau=1e-3, steps=3000, count=20_000,
        seed=101, record_stride=3000, observe=products,
    )
    return products


def test_equal_time_correlator_matches_quadrature(ground_products):
    # oracle: quadrature of x^2 rho_0(x)
    state = StationaryModeState(GROUND_PARAMS, 1, 0)
    expected = quad(lambda x: x**2 * state.density(x), -12, 12)[0]
    est = ground_products.estimate(0)
    assert est.value == pytest.approx(expected, abs=3 * est.standard_error)


def test_correlator_decay_one_unit(ground_products):
    est0 = ground_products.estimate(0)
    est1 = ground_products.estimate(10)  # lag 10 * 0.1 = 1.0
    assert est1.value / est0.value == pytest.approx(math.exp(-1.0), rel=0.03)


def test_correlator_long_lag_decays(ground_products):
    est = ground_products.estimate(30)  # lag 3.0
    assert abs(est.value) < 3 * est.standard_error + 0.06


def test_log_slope(ground_products):
    ests = [ground_products.estimate(lag) for lag in range(0, 21, 2)]
    slope = fit_log_slope(ests)
    assert slope == pytest.approx(-1.0, rel=0.03)


def test_mode_correlator_validation(ground_products, params):
    with pytest.raises(ValidationError, match="correlator contract holds for k = 0"):
        LagProducts(StationaryModeState(params, 1, 1), 1e-3, 1, [0])
    with pytest.raises(ValidationError, match="zero mode n = 0 is excluded from correlators"):
        LagProducts(StationaryModeState(params, 0, momentum=0.0), 1e-3, 1, [0])
    with pytest.raises(ValidationError, match="lag -1"):
        LagProducts(ground_products.state, 1e-3, 100, [-1])
    with pytest.raises(ValidationError, match="lag 31 outside recorded range"):
        ground_products.estimate(31)
    with pytest.raises(ValidationError, match="lag 32 outside recorded range"):
        ground_products.estimate(32)


@pytest.mark.parametrize("stride", [0, -1])
def test_lag_products_reject_record_stride_below_one(stride):
    with pytest.raises(ValidationError, match=f"record_stride must be >= 1, got {stride}"):
        LagProducts(StationaryModeState(GROUND_PARAMS, 1), 1e-3, stride, [0, 1])


@pytest.mark.parametrize("spacing", [0.0, -1e-3, math.nan, math.inf, -math.inf, 1e-320])
def test_recorded_lag_rejects_bad_spacing(spacing):
    # 1e-320 is finite and positive, but its reciprocal overflows
    with pytest.raises(ValidationError, match=r"d_tau \* record_stride"):
        observables.recorded_lag(1.0, spacing)


def test_recorded_lag_rejects_lag_of_overflowing_column_count():
    with pytest.raises(ValidationError, match="dtau_lag = 1e"):
        observables.recorded_lag(1e300, 1e-10)


def test_correlators_need_two_trajectories(params):
    # one trajectory has no spread to take a standard error from
    single = LagProducts(StationaryModeState(params, 1), 1e-3, 1, [0, 2])
    sde.simulate(params, ModeStateSpec(), 1, 1, d_tau=1e-3, steps=10, count=1, seed=1,
                 record_stride=10, observe=single)
    for lag in (0, 2):
        with pytest.raises(ValidationError, match="count = 1"):
            single.estimate(lag)


def test_summed_correlator_matches_partial_sum():
    # oracle: scalar arithmetic, independent of simulation; the per-(mode,
    # direction) analytic values criterion 3 sums add up to the partial sum
    params = StringParams(alpha_prime=0.5, dims=26, mode_cutoff=6)

    def summed(delta_tau, n_max):
        return sum(observables.analytic_correlator(params, n, delta_tau)
                   for n in range(1, n_max + 1) for _ in range(params.transverse_count))

    expected = 24.0 * sum(math.exp(-n) / n for n in range(1, 7))
    assert summed(1.0, 6) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(11.0, abs=0.02)
    # long-lag limit and the single-mode equal-time value (D - 2) * 2 alpha'
    assert summed(60.0, 6) == pytest.approx(0.0, abs=1e-20)
    assert summed(0.0, 1) == pytest.approx(24.0)


def test_summed_correlator_sums_parts_exactly(monkeypatch):
    params = StringParams(alpha_prime=0.5, dims=4, mode_cutoff=2)
    spec = ModeStateSpec()
    # every estimate is the estimator's definition on the same run's stored
    # samples, and streaming in chunks of 134, 134, 132 equals streaming in
    # one chunk bit for bit, from lag 0 to the largest recorded lag
    for stride in (1, 10):
        lags = [0, 100 // stride, 200 // stride]  # 0, delta_tau = 1 and the last column
        runs = []
        for chunk in (sde._CHUNK, 150):
            monkeypatch.setattr(sde, "_CHUNK", chunk)
            estimates = {}
            for n in (1, 2):
                for i in (1, 2):
                    products = LagProducts(StationaryModeState(params, n), 1e-2, stride, lags)
                    q = sde.simulate(
                        params, spec, n, i, d_tau=1e-2, steps=200, count=400,
                        seed=sde.spawn_seed(3, n, i), record_stride=stride, observe=products,
                    ).samples
                    estimates[n, i] = [products.estimate(lag) for lag in lags]
                    for lag, est in zip(lags, estimates[n, i]):
                        # summed in numpy's order
                        per_traj = (q[:, : q.shape[1] - lag] * q[:, lag:]).mean(axis=1)
                        assert est.value == pytest.approx(per_traj.mean(), rel=1e-12)
                        se = per_traj.std(ddof=1) / math.sqrt(len(per_traj))
                        assert est.standard_error == pytest.approx(se, rel=1e-12)
                        assert est.delta_tau == pytest.approx(lag * 1e-2 * stride, rel=1e-12)
            runs.append(estimates)
        whole, chunked = runs
        assert chunked == whole
        at_one = {key: ests[1] for key, ests in whole.items()}
        total, err = summed_correlator(params, at_one)
        assert total == sum(est.value for est in at_one.values())
        assert err > 0


def test_summed_correlator_missing_mode():
    params = StringParams(alpha_prime=0.5, dims=4, mode_cutoff=2)
    with pytest.raises(ValidationError, match=r"missing \(mode, direction\) runs"):
        summed_correlator(params, {(1, i): CorrelatorEstimate(1, 0.5, 1.0, 0.1) for i in (1, 2)})
    with pytest.raises(ValidationError, match=r"missing \(mode, direction\) runs"):
        summed_correlator(params, {})


def test_summed_correlator_rejects_mixed_lags():
    params = StringParams(alpha_prime=0.5, dims=4, mode_cutoff=2)
    estimates = {(n, i): CorrelatorEstimate(n, 0.5, 1.0, 0.1) for n in (1, 2) for i in (1, 2)}
    estimates[2, 2] = CorrelatorEstimate(2, 0.6, 1.0, 0.1)
    with pytest.raises(ValidationError, match="delta_tau"):
        summed_correlator(params, estimates)


def brute_force_degeneracy(transverse, level):
    # enumerate occupation maps {(n, i) -> k} with sum n*k == level
    if level == 0:
        return 1
    slots = [(n, i) for n in range(1, level + 1) for i in range(1, transverse + 1)]
    count = 0
    def recurse(idx, remaining):
        nonlocal count
        if remaining == 0:
            count += 1
            return
        if idx == len(slots):
            return
        n, _ = slots[idx]
        for k in range(0, remaining // n + 1):
            recurse(idx + 1, remaining - n * k)
    recurse(0, level)
    return count


def test_level_spectrum_d26():
    params = StringParams(alpha_prime=0.5, dims=26, mode_cutoff=6)
    levels = level_spectrum(params, 2)
    assert [(lv.level, lv.degeneracy) for lv in levels] == [(0, 1), (1, 24), (2, 324)]
    assert levels[2].energy_offset == 2.0


@pytest.mark.parametrize("dims", [4, 5, 26])
def test_level_spectrum_matches_brute_force(dims):
    params = StringParams(alpha_prime=0.5, dims=dims, mode_cutoff=6)
    levels = level_spectrum(params, 4 if dims < 26 else 3)
    for lv in levels:
        assert lv.degeneracy == brute_force_degeneracy(dims - 2, lv.level)


def test_level_spectrum_matches_generating_function():
    # coefficient of q^N in prod (1 - q^n)^{-(D-2)}
    dims, L = 26, 6
    t = dims - 2
    coeffs = [1] + [0] * L
    for n in range(1, L + 1):
        # multiply by 1/(1-q^n)^t one power series factor at a time
        for _ in range(t):
            for j in range(n, L + 1):
                coeffs[j] += coeffs[j - n]
    params = StringParams(alpha_prime=0.5, dims=dims, mode_cutoff=6)
    for lv in level_spectrum(params, L):
        assert lv.degeneracy == coeffs[lv.level]


def test_level_spectrum_admits_d26_at_max_level():
    levels = level_spectrum(StringParams(alpha_prime=0.5, dims=26), MAX_LEVEL)
    assert [lv.level for lv in levels] == list(range(MAX_LEVEL + 1))


def test_level_spectrum_zeta_intercept():
    params = StringParams(alpha_prime=0.5, dims=26, mode_cutoff=4)
    assert zeta_intercept(params) == pytest.approx(1.0)
    params4 = StringParams(alpha_prime=0.5, dims=4, mode_cutoff=4)
    assert zeta_intercept(params4) == pytest.approx(2.0 / 24.0)


def test_report_rows(ground_products):
    rows = observables.correlator_report_rows(GROUND_PARAMS, [ground_products.estimate(0)])
    assert set(rows[0]) == {"n", "delta_tau", "value", "stderr", "analytic", "z_score"}
    text = observables.format_report(rows)
    assert text.splitlines()[0] == "n delta_tau value stderr analytic z_score"
    assert observables.report_json(rows).startswith("[")
