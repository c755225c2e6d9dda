import math
import os
import tracemalloc

import numpy as np
import pytest

from stochastic_string.core import ModeStateSpec, ValidationError
from stochastic_string.observables import LagProducts
from stochastic_string.drift import StationaryModeState
from stochastic_string import drift, sde
from stochastic_string.sde import (
    InsufficientSamplesError,
    simulate,
    spawn_seed,
    transport_derivative_check,
)


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(a)
    b = np.sort(b)
    both = np.concatenate((a, b))
    cdf_a = np.searchsorted(a, both, side="right") / len(a)
    cdf_b = np.searchsorted(b, both, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical_value(n_a: int, n_b: int, alpha: float = 0.01) -> float:
    """Critical two-sample KS distance at significance ``alpha``."""
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((n_a + n_b) / (n_a * n_b))


@pytest.fixture
def ground_spec():
    return ModeStateSpec()


def test_driftless_single_step_variance(params, ground_spec):
    # zero drift, nu_0 = alpha' = 0.5, one step: Var[q_1 - q_0] = 2 nu_0 d_tau = 0.01
    spec = ModeStateSpec(zero_mode_momentum={1: 0.0})
    ens = simulate(
        params, spec, 0, 1, init=0.0, d_tau=0.01, steps=1, count=100_000, seed=2,
    )
    var = np.var(ens.samples[:, 1] - ens.samples[:, 0], ddof=1)
    assert var == pytest.approx(2 * params.diffusion(0) * 0.01, rel=0.05)


def test_driftless_msd_grows_linearly(params):
    spec = ModeStateSpec(zero_mode_momentum={1: 0.0})
    ens = simulate(params, spec, 0, 1, init=0.0, d_tau=0.01, steps=100, count=100_000, seed=3)
    nu = params.diffusion(0)
    for t in (25, 50, 100):
        msd = np.var(ens.samples[:, t] - ens.samples[:, 0])
        assert msd == pytest.approx(2 * nu * t * 0.01, rel=0.05)


def test_stationary_ground_state_variance(params, ground_spec):
    # OU stationary variance 2 alpha'/n at every recorded time
    ens = simulate(
        params, ground_spec, 1, 1, d_tau=1e-3, steps=1000, count=50_000,
        seed=4, record_stride=100,
    )
    for t in range(ens.samples.shape[1]):
        column = ens.samples[:, t]
        se = np.sqrt(2.0 / len(column))  # var of sample variance of a Gaussian
        assert column.var() == pytest.approx(1.0, abs=3 * se)


def test_bit_identical_reruns(params, ground_spec):
    kwargs = dict(d_tau=1e-3, steps=50, count=500, seed=11)
    a = simulate(params, ground_spec, 2, 3, **kwargs)
    b = simulate(params, ground_spec, 2, 3, **kwargs)
    assert np.array_equal(a.samples, b.samples)
    c = simulate(params, ground_spec, 2, 3, d_tau=1e-3, steps=50, count=500, seed=12)
    assert not np.array_equal(a.samples, c.samples)


def test_trajectory_streams_independent_of_ensemble_size(params, ground_spec):
    big = simulate(params, ground_spec, 1, 1, d_tau=1e-3, steps=20, count=64, seed=9)
    small = simulate(params, ground_spec, 1, 1, d_tau=1e-3, steps=20, count=8, seed=9)
    assert np.array_equal(big.samples[:8], small.samples)


def test_stationarity_ks(params, ground_spec):
    ens = simulate(
        params, ground_spec, 1, 1, d_tau=1e-3, steps=5000, count=20_000,
        seed=6, record_stride=1000,
    )
    d = ks_distance(ens.samples[:, 0], ens.samples[:, -1])
    assert d < ks_critical_value(ens.count, ens.count, alpha=0.01)


def test_increment_moments_zero_mode_drift(params):
    spec = ModeStateSpec(zero_mode_momentum={1: 3.0})
    d_tau = 0.01
    ens = simulate(params, spec, 0, 1, init=0.0, d_tau=d_tau, steps=1, count=100_000, seed=8)
    dq = ens.samples[:, 1] - ens.samples[:, 0]
    mean, var = dq.mean(), dq.var(ddof=1)
    se = np.sqrt(var / ens.count)
    assert mean == pytest.approx(3.0 * d_tau, abs=3 * se)
    assert var == pytest.approx(2 * params.diffusion(0) * d_tau, rel=0.05)


def test_increment_moments_symmetric_state(params, ground_spec):
    ens = simulate(params, ground_spec, 1, 1, d_tau=1e-3, steps=5, count=50_000, seed=10)
    dq = ens.samples[:, 3] - ens.samples[:, 2]
    mean, var = dq.mean(), dq.var(ddof=1)
    se = np.sqrt(var / ens.count)
    assert mean == pytest.approx(0.0, abs=3.5 * se)
    assert var == pytest.approx(2 * params.diffusion(1) * 1e-3, rel=0.05)


def test_transport_derivative_constant_function(params, ground_spec):
    ens = simulate(params, ground_spec, 1, 1, d_tau=1e-3, steps=30, count=20_000, seed=13)
    dev = transport_derivative_check(
        ens,
        lambda x: np.ones_like(x),
        dF=lambda x: np.zeros_like(x),
        d2F=lambda x: np.zeros_like(x),
    )
    assert dev == 0.0


def test_transport_derivative_linear_and_quadratic(params, ground_spec):
    ens = simulate(params, ground_spec, 1, 1, d_tau=1e-3, steps=400, count=100_000, seed=14)
    dev_x = transport_derivative_check(
        ens, lambda x: x, dF=lambda x: np.ones_like(x), d2F=lambda x: np.zeros_like(x)
    )
    assert dev_x < 0.05
    # F = x^2: D+ F = -2x^2 + 2 nu, within 10% of its scale on |x| <= 1.5 sigma
    dev_x2 = transport_derivative_check(
        ens, lambda x: x**2, dF=lambda x: 2 * x, d2F=lambda x: 2 * np.ones_like(x)
    )
    assert dev_x2 < 0.6


def test_transport_derivative_occupancy_guard(params, ground_spec):
    # 250 conditioned samples on 7 probe bins leave some bin under 30
    ens = simulate(params, ground_spec, 1, 1, d_tau=1e-3, steps=5, count=50, seed=15)
    with pytest.raises(InsufficientSamplesError):
        transport_derivative_check(ens, lambda x: x, np.ones_like, np.zeros_like)


def _per_query_reference(blocks, d_tau, queries, probe, bin_half_width):
    """Binned rates with one searchsorted and masked bincounts per step and
    per (F, forward) query, over the stored ``(trajectories, columns)``
    blocks in turn: the arithmetic ``RateBins`` must reproduce bit for bit
    when streamed one block per chunk."""
    n_probe = len(probe)
    edges = np.concatenate((probe - bin_half_width, [probe[-1] + bin_half_width]))
    sums = [np.zeros(n_probe) for _ in queries]
    pos_sums = [np.zeros(n_probe) for _ in queries]
    counts = [np.zeros(n_probe, dtype=np.int64) for _ in queries]
    for block in blocks:
        for t in range(block.shape[1] - 1):
            prev_col = block[:, t]
            next_col = block[:, t + 1]
            for qi, (values, forward) in enumerate(queries):
                cond = prev_col if forward else next_col
                rate = (values(next_col) - values(prev_col)) / d_tau
                idx = np.searchsorted(edges, cond, side="right") - 1
                ok = (idx >= 0) & (idx < n_probe) & np.isfinite(rate)
                near = np.abs(cond[ok] - probe[idx[ok]]) <= bin_half_width
                idx_ok = idx[ok][near]
                sums[qi] += np.bincount(idx_ok, weights=rate[ok][near], minlength=n_probe)
                pos_sums[qi] += np.bincount(idx_ok, weights=cond[ok][near], minlength=n_probe)
                counts[qi] += np.bincount(idx_ok, minlength=n_probe)
    return [(s / c, p / c, c) for s, p, c in zip(sums, pos_sums, counts)]


# two small ground-state runs with different steps and d_tau
_PAIR = (
    dict(d_tau=1e-3, steps=40, count=3000, seed=21),
    dict(d_tau=2e-3, steps=30, count=2000, seed=22),
)


def _inf_above(x):
    # inside the outer bin, so that bin sees finite and non-finite rates
    return np.where(x > 1.6, np.inf, x)


@pytest.mark.parametrize(
    "F, probe, w, backward",
    [
        (lambda x: x, np.linspace(-1.5, 1.5, 7), 0.25, False),
        (lambda x: x**2, np.linspace(-2, 2, 9), 0.3, False),
        # the second-law fit grid: w = 0.15 sigma exceeds half the 0.24 sigma spacing
        (lambda x: x, np.linspace(-2.4, 2.4, 21), 0.15, True),
        (_inf_above, np.linspace(-1.5, 1.5, 7), 0.25, True),
        (lambda x: x, np.array([0.3]), 0.1, True),
        # narrow bins leave gaps between them whose samples count nowhere
        (lambda x: x, np.linspace(-2, 2, 9), 0.1, True),
        # 202 edges: a sample's edge count passes int8's 127 above x = 0.54
        (lambda x: x, np.linspace(-2, 2, 201), 0.01, True),
    ],
    ids=["x-default-probe", "x2", "fit-grid-overlapping", "inf-part", "one-point", "gaps",
         "long-probe"],
)
def test_conditional_rates_equal_per_query_reference(params, ground_spec, F, probe, w, backward):
    queries = [(F, True), (F, False)] if backward else [(F, True)]
    for kwargs in _PAIR:
        calls = []

        def counted(x):
            calls.append(len(x))
            return F(x)

        bins = sde.RateBins(counted, probe, w, kwargs["d_tau"], backward)
        with np.errstate(invalid="ignore"):
            ens = simulate(params, ground_spec, 1, 1, observe=bins, **kwargs)
            expected = _per_query_reference([ens.samples], ens.d_tau, queries, probe, w)
        # one F call per column of the run
        assert calls == [kwargs["count"]] * (kwargs["steps"] + 1)
        got = bins.rates(1)
        assert len(got) == len(expected)
        for got_stats, expected_stats in zip(got, expected):
            for a, b in zip(got_stats, expected_stats):
                assert np.array_equal(a, b)


def test_rate_bins_reject_a_probe_beyond_int16():
    limit = np.iinfo(np.int16).max
    bins = sde.RateBins(lambda x: x, np.linspace(-1, 1, limit - 1), 1e-5, 1e-3)
    assert len(bins.edges) == limit
    with pytest.raises(ValidationError, match=f"probe of {limit} points"):
        sde.RateBins(lambda x: x, np.linspace(-1, 1, limit), 1e-5, 1e-3)


def _edge_columns(bins):
    """Three columns of values on and around every bin boundary, the
    infinities and NaN, each a shuffle of the same values."""
    probe, w = bins.centres[:-1], bins.bin_half_width
    values = np.concatenate([
        bins.edges, np.nextafter(bins.edges, -np.inf), np.nextafter(bins.edges, np.inf),
        probe - w, probe + w, probe, [-np.inf, np.inf, np.nan, 0.0, -50.0, 50.0],
    ])
    rng = np.random.default_rng(5)
    return [rng.permutation(values) for _ in range(3)]


@pytest.mark.parametrize("kind", ["transport", "second-law"])
def test_rate_bins_on_edges_equal_searchsorted_reference(params, ground_spec, kind):
    state = sde._resolve_state(params, ground_spec, 1, 1)
    if kind == "transport":
        # finite at +-inf, so those samples reach the binning; inf on one probe point
        def F(x):
            return np.where(x == 0.0, np.inf, np.tanh(x))

        bins = sde.transport_bins(state, F, 1e-3)
        queries = [(F, True)]
    else:
        bins = sde.second_law_bins(state, 1e-3)
        queries = [(bins.F, True), (bins.F, False)]
    columns = _edge_columns(bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        for t, col in enumerate(columns):
            bins(t, col)
        got = bins.rates(0)
        expected = _per_query_reference(
            [np.column_stack(columns)], 1e-3, queries, bins.centres[:-1], bins.bin_half_width
        )
    assert bins.counts.sum() > 0
    for got_stats, expected_stats in zip(got, expected):
        for a, b in zip(got_stats, expected_stats):
            np.testing.assert_array_equal(a, b)


def test_second_law_guards(params, ground_spec):
    zero_mode = StationaryModeState(params, 0, momentum=0.0)
    with pytest.raises(ValidationError, match="n >= 1"):
        sde.second_law_bins(zero_mode, 1e-3)
    # the cubic fits cannot follow the drift's pole at an excited state's node
    with pytest.raises(ValidationError, match="k = 1"):
        sde.second_law_bins(StationaryModeState(params, 1, 1), 1e-3)
    # 250 conditioned samples per direction on 21 fit-grid bins: each under 200
    state = sde._resolve_state(params, ground_spec, 1, 1)
    bins = sde.second_law_bins(state, 1e-3)
    simulate(params, ground_spec, 1, 1, d_tau=1e-3, steps=5, count=50, seed=15,
             record_stride=5, observe=bins)
    with pytest.raises(InsufficientSamplesError, match="below required 200"):
        sde.second_law_check(bins, state)


def test_second_law_memory_independent_of_steps(params, ground_spec, monkeypatch):
    # a small noise buffer, so the ensemble would dominate if it were stored;
    # its blocks of 32 steps make it the same size at both step counts
    monkeypatch.setattr(sde, "_NOISE_VALUES", 2**17)
    state = sde._resolve_state(params, ground_spec, 1, 1)
    peaks = []
    for steps in (400, 3200):
        tracemalloc.start()
        try:
            bins = sde.second_law_bins(state, 1e-3)
            simulate(params, ground_spec, 1, 1, d_tau=1e-3, steps=steps, count=330, seed=16,
                     record_stride=steps, observe=bins)
            deviation, _, _ = sde.second_law_check(bins, state)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert math.isfinite(deviation)
    # a stored (330, steps + 1) ensemble would add 7.4 MB at 3200 steps
    assert abs(peaks[1] - peaks[0]) < 1e6


@pytest.mark.parametrize(
    "spec", [ModeStateSpec(), ModeStateSpec(occupations={(1, 1): 1})], ids=["k0", "k1"]
)
def test_simulate_independent_of_noise_buffer_size(params, monkeypatch, spec):
    # a low cap and a coarse step make both counters fire (k=1: 94 clamps, 2 crossings)
    monkeypatch.setattr(drift, "_DRIFT_CAP", 0.5)
    kwargs = dict(d_tau=0.1, steps=12, count=10, seed=3)
    whole = simulate(params, spec, 1, 1, **kwargs)
    assert whole.clamp_events > 0
    monkeypatch.setattr(sde, "_CHUNK", 3)  # chunks of 3, 3, 3, 1 trajectories
    rows = simulate(params, spec, 1, 1, **kwargs)
    assert np.array_equal(rows.samples, whole.samples)
    assert rows.clamp_events == whole.clamp_events
    assert rows.node_crossings == whole.node_crossings


# seed -1 reads the stream of seed 2**64 - 1
@pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1, -1])
@pytest.mark.parametrize("index", [0, 1, 4095, 4096, 4100, 12_345])
def test_rekeyed_stream_equals_fresh_philox(seed, index):
    # the row of trajectory ``index`` in the freshly keyed table of its chunk:
    # 4096 and 4100 sit in the chunk that starts at 4096
    start = index - index % sde._CHUNK
    streams = np.empty((sde._CHUNK, sde._STREAM_WORDS), dtype=np.uint64)
    sde._key_streams(streams, seed, start)
    fresh = np.random.Generator(
        np.random.Philox(key=np.array([seed % 2**64, index], dtype=np.uint64))
    )
    rng = np.random.Generator(np.random.Philox())
    # a float32 draw leaves half of a 64-bit output pending in the state
    rng.random(dtype=np.float32)
    sde._resume_stream(rng, streams[index - start])
    assert rng.random(dtype=np.float32) == fresh.random(dtype=np.float32)
    assert np.array_equal(rng.standard_normal(9), fresh.standard_normal(9))
    assert np.array_equal(rng.integers(0, 2**40, 5), fresh.integers(0, 2**40, 5))


def _fresh_stream_reference(params, spec, n, i, *, init, d_tau, steps, count, seed):
    """Euler-Maruyama with a freshly built Philox stream per trajectory and
    the forward drift clamped at ``drift._DRIFT_CAP``: the arithmetic
    ``simulate`` must reproduce."""
    cap = drift._DRIFT_CAP
    state = sde._resolve_state(params, spec, n, i)
    q = np.empty(count)
    noise = np.empty((count, steps))
    for j in range(count):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, j], dtype=np.uint64)))
        if init == "stationary":
            q[j] = state.sample_stationary(rng, 1)[0]
        elif callable(init):
            q[j] = np.asarray(init(rng, 1)).reshape(-1)[0]
        else:
            q[j] = init
        noise[j] = rng.standard_normal(steps)
    samples = [q]
    scale = np.sqrt(2.0 * state.nu * d_tau)
    for t in range(steps):
        if n == 0:
            v = np.full_like(q, 2.0 * params.alpha_prime * state.momentum)
        else:
            v = state.nu * state.log_density_gradient(q)
            v = np.nan_to_num(v, nan=cap, posinf=cap, neginf=-cap)
            v = np.clip(v, -cap, cap)
        q = q + v * d_tau + scale * noise[:, t]
        samples.append(q)
    return np.column_stack(samples)


@pytest.mark.parametrize(
    "n, spec, init",
    [
        (1, ModeStateSpec(), "stationary"),
        (2, ModeStateSpec(occupations={(2, 1): 1}), "stationary"),
        (0, ModeStateSpec(zero_mode_momentum={1: 0.4}), 0.25),
        (1, ModeStateSpec(), lambda rng, size: rng.normal(1.5, 0.7, size)),
        (1, ModeStateSpec(), lambda rng, size: rng.random(size, dtype=np.float32)),
    ],
    ids=["k0", "k1", "n0", "callable", "callable-float32"],
)
def test_simulate_equals_fresh_stream_reference(params, n, spec, init):
    kwargs = dict(init=init, d_tau=1e-2, steps=12, count=4100, seed=2**64 - 3)
    ens = simulate(params, spec, n, 1, **kwargs)
    expected = _fresh_stream_reference(params, spec, n, 1, **kwargs)
    assert ens.samples.tobytes() == expected.tobytes()


# (_CHUNK, _NOISE_VALUES, _TILE) against 40 trajectories of 12 steps
_LAYOUTS = {
    "one-chunk-one-block": (64, 64 * 12, 64),
    "chunks": (16, 16 * 12, 5),  # chunks of 14, 14, 12 in tiles of 5
    "blocks": (64, 64 * 5, 64),  # blocks of 5, 5, 2 steps
    "chunks-and-blocks": (16, 16 * 5, 5),
    "tile-of-one": (64, 64 * 5, 1),  # single-row tiles across blocks of 5, 5, 2 steps
}


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize(
    "spec, init",
    [
        (ModeStateSpec(), "stationary"),
        (ModeStateSpec(occupations={(1, 1): 1}), "stationary"),
        # a float32 draw leaves half a Philox output pending across the blocks
        (ModeStateSpec(), lambda rng, size: rng.random(size, dtype=np.float32)),
    ],
    ids=["k0", "k1", "callable-float32"],
)
def test_simulate_equals_fresh_stream_reference_in_every_layout(params, monkeypatch, spec, init,
                                                                 layout):
    # a low cap and a coarse step: clamps and (k = 1) node crossings on both
    # sides of each block boundary
    monkeypatch.setattr(drift, "_DRIFT_CAP", 0.5)
    kwargs = dict(init=init, d_tau=0.1, steps=12, count=40, seed=2**64 - 3)
    whole = simulate(params, spec, 1, 1, **kwargs)
    for name, value in zip(("_CHUNK", "_NOISE_VALUES", "_TILE"), _LAYOUTS[layout]):
        monkeypatch.setattr(sde, name, value)
    ens = simulate(params, spec, 1, 1, **kwargs)
    expected = _fresh_stream_reference(params, spec, 1, 1, **kwargs)
    assert ens.samples.tobytes() == expected.tobytes()

    state = sde._resolve_state(params, spec, 1, 1)
    clamped = [int(np.count_nonzero(~(np.abs(state.nu * state.log_density_gradient(col)) <= 0.5)))
               for col in expected[:, :-1].T]
    crossed = np.count_nonzero(np.signbit(expected[:, 1:]) != np.signbit(expected[:, :-1]), axis=0)
    assert (ens.clamp_events, whole.clamp_events) == (sum(clamped), sum(clamped))
    assert min(sum(clamped[:5]), sum(clamped[5:10]), sum(clamped[10:])) > 0
    if spec.occupations:
        assert ens.node_crossings == whole.node_crossings == crossed.sum()
        assert min(crossed[:5].sum(), crossed[5:10].sum(), crossed[10:].sum()) > 0
    else:
        assert ens.node_crossings == whole.node_crossings == 0


def test_non_finite_sample_named_alike_in_a_later_block(params, ground_spec, monkeypatch):
    # q -> -9 q + noise per step: from 1e290 trajectory 5 overflows near step
    # 20, every other one stays finite for the 30 steps
    monkeypatch.setattr(drift, "_DRIFT_CAP", np.inf)
    starts = iter([1.0] * 5 + [1e290] + [1.0] * 4)
    kwargs = dict(init=lambda rng, size: np.full(size, next(starts)),
                  d_tau=10.0, steps=30, count=10, seed=1)
    with pytest.raises(sde.NonFiniteSampleError) as whole:
        simulate(params, ground_spec, 1, 1, **kwargs)
    starts = iter([1.0] * 5 + [1e290] + [1.0] * 4)
    monkeypatch.setattr(sde, "_CHUNK", 4)
    monkeypatch.setattr(sde, "_NOISE_VALUES", 4 * 8)  # blocks of 8 steps
    with pytest.raises(sde.NonFiniteSampleError) as blocked:
        simulate(params, ground_spec, 1, 1, **kwargs)
    assert (blocked.value.trajectory, blocked.value.step) == (whole.value.trajectory,
                                                              whole.value.step)
    assert whole.value.trajectory == 5
    assert 16 < whole.value.step <= 24  # in the chunk's third block
    assert str(blocked.value) == str(whole.value)


def test_noise_memory_bounded_for_any_steps(params, ground_spec, monkeypatch):
    # one trajectory at 10 x _NOISE_VALUES steps: its noise is drawn in blocks
    # of _NOISE_VALUES // _CHUNK steps, not all at once
    monkeypatch.setattr(sde, "_CHUNK", 4)
    monkeypatch.setattr(sde, "_NOISE_VALUES", 2**12)
    steps = 10 * sde._NOISE_VALUES
    tracemalloc.start()
    try:
        ens = simulate(params, ground_spec, 1, 1, d_tau=1e-3, steps=steps, count=1, seed=2,
                       record_stride=steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(ens.samples).all()
    # drawn at once, the noise alone would take 10 times this
    assert peak <= 8 * sde._NOISE_VALUES


def test_noise_sized_to_the_widest_chunk(params, ground_spec, monkeypatch):
    # one trajectory over the cap: chunks of 129 and 128, so the noise block,
    # tile and stream table hold 129 trajectories, not the cap's 256
    monkeypatch.setattr(sde, "_CHUNK", 256)
    monkeypatch.setattr(sde, "_NOISE_VALUES", 256 * 512)  # blocks of 512 steps
    monkeypatch.setattr(sde, "_TILE", 8)
    count, steps = sde._CHUNK + 1, 512
    width = sde._chunk_width(count)
    assert width == math.ceil(count / 2)
    widths = set()
    tracemalloc.start()
    try:
        simulate(params, ground_spec, 1, 1, d_tau=1e-3, steps=steps, count=count, seed=7,
                 record_stride=steps, observe=lambda t, col: widths.add(len(col)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert widths == {width, count - width}
    noise = 8 * width * steps
    # noise for a full chunk would add 8 x 127 x 512 bytes (0.52 MB)
    assert noise <= peak < noise + 4 * (sde._CHUNK - width) * steps


def test_node_crossings_counted(params):
    excited = ModeStateSpec(occupations={(1, 1): 1})
    ens = simulate(params, excited, 1, 1, d_tau=1e-2, steps=500, count=5000, seed=0)
    s = ens.samples
    # the k = 1 density has its only node at q = 0
    sign_changes = int(np.count_nonzero(np.signbit(s[:, 1:]) != np.signbit(s[:, :-1])))
    assert ens.node_crossings > 0
    assert ens.node_crossings == sign_changes
    ground = simulate(params, ModeStateSpec(), 1, 1, d_tau=1e-2, steps=100, count=500, seed=0)
    assert ground.node_crossings == 0


def test_start_on_node_names_first_trajectory(params):
    excited = ModeStateSpec(occupations={(1, 1): 1})
    with pytest.raises(ValidationError, match=r"q_0=0\.0 \(density node\), trajectory 0$"):
        simulate(params, excited, 1, 1, init=0.0, d_tau=1e-3, steps=2, count=5)

    draws = []

    def third_on_node(rng, size):
        draws.append(size)
        return np.full(size, 0.0 if len(draws) == 3 else 0.5)

    with pytest.raises(ValidationError, match=r"trajectory 2$"):
        simulate(params, excited, 1, 1, init=third_on_node, d_tau=1e-3, steps=2, count=5)

    nan_draws = []

    def second_nan(rng, size):
        nan_draws.append(size)
        return np.full(size, np.nan if len(nan_draws) == 2 else 0.5)

    with pytest.raises(ValidationError, match=r"^init gives non-finite q_0=nan, trajectory 1$"):
        simulate(params, excited, 1, 1, init=second_nan, d_tau=1e-3, steps=2, count=5)


def test_non_finite_detection(params, ground_spec, monkeypatch):
    monkeypatch.setattr(drift, "_DRIFT_CAP", np.inf)
    with pytest.raises(sde.NonFiniteSampleError) as err:
        simulate(
            params, ground_spec, 1, 1, init=1e300, d_tau=10.0, steps=50, count=2, seed=1,
        )
    assert err.value.trajectory >= 0
    assert err.value.step > 0


def test_spawn_seed_distinct():
    seeds = {spawn_seed(7, n, i) for n in range(1, 7) for i in range(1, 25)}
    assert len(seeds) == 6 * 24


def test_trajectory_view(params, ground_spec):
    ens = simulate(
        params, ground_spec, 2, 3, d_tau=1e-3, steps=40, count=5, seed=6,
        record_stride=4,
    )
    assert ens.state.params == params and ens.state.n == 2
    assert ens.recorded_steps == 10
    taus = ens.recorded_taus()
    assert len(taus) == ens.samples.shape[1] == 11
    np.testing.assert_allclose(np.diff(taus), 4e-3)
    assert taus[0] == 0.0
    assert taus[-1] == pytest.approx(0.04)


def test_export_round_trip(tmp_path, params, ground_spec):
    ens = simulate(params, ground_spec, 1, 2, d_tau=0.01, steps=3, count=2, seed=77)
    path = tmp_path / "ens.txt"
    sde.export_ensemble(ens, path, header_lines=["run = demo"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# run = demo"
    assert lines[1] == "trajectory_id step tau q"
    rows = [line.split() for line in lines[2:]]
    assert len(rows) == 2 * 4
    assert float(rows[1][3]) == ens.samples[0, 1]


def test_export_matches_row_by_row_format(tmp_path, params, ground_spec):
    ens = simulate(
        params, ground_spec, 1, 2, d_tau=0.01, steps=12, count=3, seed=5, record_stride=3
    )
    path = tmp_path / "ens.txt"
    sde.export_ensemble(ens, path)
    taus = ens.recorded_taus()
    rows = [
        f"{j} {t * 3} {float(taus[t])!r} {float(q)!r}\n"
        for j in range(ens.count)
        for t, q in enumerate(ens.samples[j])
    ]
    assert path.read_text() == "trajectory_id step tau q\n" + "".join(rows)

    # 12 trajectories, so ids 10 and 11 have two digits, of every float edge
    values = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-5, 1e16, 1.0, -2.5e-300]
    samples = np.resize(np.array(values), (12, 5))
    samples[11] = [0.1, 0.2, 0.3, -1e-7, 12345.678]
    ens = sde.Ensemble(StationaryModeState(params, 1), d_tau=0.01, steps=8, record_stride=2,
                       samples=samples)
    sde.export_ensemble(ens, path)
    rows = [
        f"{j} {step} {tau!r} {q!r}\n"
        for j in range(12)
        for step, tau, q in zip(range(0, 9, 2), ens.recorded_taus().tolist(), samples[j].tolist())
    ]
    assert path.read_text() == "trajectory_id step tau q\n" + "".join(rows)


def test_simulate_validation(params, ground_spec):
    with pytest.raises(ValidationError):
        simulate(params, ground_spec, 1, 1, d_tau=-0.1, steps=5, count=5, seed=0)
    with pytest.raises(ValidationError):
        simulate(params, ground_spec, 1, 1, d_tau=0.1, steps=0, count=5, seed=0)
    with pytest.raises(ValidationError):
        simulate(params, ground_spec, 0, 1, init="stationary", d_tau=0.1, steps=5, count=5, seed=0)
    with pytest.raises(ValidationError):
        simulate(params, ground_spec, 1, 1, init="bogus", d_tau=0.1, steps=5, count=5, seed=0)


@pytest.mark.parametrize("backward", [False, True], ids=["forward", "both"])
@pytest.mark.parametrize("F", [lambda x: x, lambda x: x**2], ids=["x", "x2"])
def test_streamed_rates_equal_replayed(params, ground_spec, monkeypatch, F, backward):
    # streamed in chunks, the sums equal the per-query reference replaying
    # the stored run one chunk slice at a time
    monkeypatch.setattr(sde, "_CHUNK", 150)  # chunks of 125, 125, 125, 125
    kwargs = dict(d_tau=1e-3, steps=40, count=500, seed=23)
    probe = np.linspace(-1.5, 1.5, 7)
    streamed = sde.RateBins(F, probe, 0.25, 1e-3, backward)
    ens = simulate(params, ground_spec, 1, 1, observe=streamed, **kwargs)
    queries = [(F, True), (F, False)] if backward else [(F, True)]
    width = sde._chunk_width(500)
    blocks = [ens.samples[start : start + width] for start in range(0, 500, width)]
    expected = _per_query_reference(blocks, 1e-3, queries, probe, 0.25)
    for got_stats, expected_stats in zip(streamed.rates(1), expected):
        for a, b in zip(got_stats, expected_stats):
            assert np.array_equal(a, b)
    assert streamed.counts.sum() > 0
    # an observer's d_tau must be the run's
    with pytest.raises(ValidationError, match="d_tau"):
        simulate(params, ground_spec, 1, 1, observe=sde.RateBins(F, probe, 0.25, 2e-3, backward),
                 **kwargs)


def test_streamed_transport_deviation_equals_check(params, ground_spec, monkeypatch):
    monkeypatch.setattr(sde, "_CHUNK", 700)  # chunks of 667, 667, 666
    kwargs = dict(d_tau=1e-3, steps=30, count=2000, seed=24)
    state = sde._resolve_state(params, ground_spec, 1, 1)
    bins = sde.transport_bins(state, lambda x: x, 1e-3)
    simulate(params, ground_spec, 1, 1, record_stride=30, observe=bins, **kwargs)
    streamed = sde.transport_deviation(bins, state, np.ones_like, np.zeros_like)
    ens = simulate(params, ground_spec, 1, 1, **kwargs)
    assert streamed == transport_derivative_check(ens, lambda x: x, np.ones_like, np.zeros_like)
    strided = simulate(params, ground_spec, 1, 1, record_stride=2, **kwargs)
    with pytest.raises(ValidationError, match="record_stride == 1"):
        transport_derivative_check(strided, lambda x: x, np.ones_like, np.zeros_like)


def test_observer_sees_every_step_of_each_chunk(params, ground_spec, monkeypatch):
    monkeypatch.setattr(sde, "_CHUNK", 3)  # chunks of 3, 3, 3, 1 trajectories
    seen = []

    def observe(t, col):
        seen.append((t, col.copy()))

    ens = simulate(
        params, ground_spec, 1, 1, d_tau=1e-2, steps=12, count=10, seed=5,
        record_stride=4, observe=observe,
    )
    assert [(t, len(col)) for t, col in seen] == [
        (t, block) for block in (3, 3, 3, 1) for t in range(13)
    ]
    chunks = [np.column_stack([col for _, col in seen[i : i + 13]]) for i in range(0, 52, 13)]
    assert np.array_equal(np.concatenate(chunks)[:, ::4], ens.samples)


@pytest.mark.parametrize(
    "spec", [ModeStateSpec(), ModeStateSpec(occupations={(1, 1): 1})], ids=["k0", "k1"]
)
def test_observer_leaves_run_unchanged(params, monkeypatch, spec):
    monkeypatch.setattr(drift, "_DRIFT_CAP", 0.5)
    kwargs = dict(d_tau=0.1, steps=12, count=10, seed=3)
    monkeypatch.setattr(sde, "_CHUNK", 3)
    plain = simulate(params, spec, 1, 1, **kwargs)
    observed = simulate(params, spec, 1, 1, observe=lambda t, col: None, **kwargs)
    assert plain.clamp_events > 0
    assert np.array_equal(observed.samples, plain.samples)
    assert observed.clamp_events == plain.clamp_events
    assert observed.node_crossings == plain.node_crossings


# ---------------------------------------------------------------- noise helper


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def helper(monkeypatch):
    """Turns on the forked noise helper for every block of two tiles or more,
    whatever its size and the machine's CPU count, and turns it off again:
    ``helper(True)`` returns the list that every fork's pid is appended to."""
    fork = os.fork
    forks = []

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)

    def switch(on: bool) -> list[int]:
        monkeypatch.setattr(sde, "_SHARED_VALUES", 1 if on else 2**62)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        forks.clear()
        return forks

    yield switch
    _assert_no_child()


def _trajectory(rng: np.random.Generator) -> int:
    """The trajectory whose freshly keyed stream ``rng`` is: a pure function of it."""
    return rng.bit_generator.state["state"]["key"][1]


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize(
    "spec, init",
    [
        (ModeStateSpec(), "stationary"),
        (ModeStateSpec(occupations={(1, 1): 1}), "stationary"),
        (ModeStateSpec(), lambda rng, size: rng.random(size, dtype=np.float32)),
    ],
    ids=["k0", "k1", "callable-float32"],
)
def test_helper_equals_one_process_in_every_layout(params, monkeypatch, helper, spec, init,
                                                   layout):
    monkeypatch.setattr(drift, "_DRIFT_CAP", 0.5)
    for name, value in zip(("_CHUNK", "_NOISE_VALUES", "_TILE"), _LAYOUTS[layout]):
        monkeypatch.setattr(sde, name, value)
    kwargs = dict(init=init, d_tau=0.1, steps=12, count=40, seed=2**64 - 3)
    helper(False)
    alone = simulate(params, spec, 1, 1, **kwargs)
    forks = helper(True)
    split = simulate(params, spec, 1, 1, **kwargs)
    _assert_no_child()
    chunk = sde._chunk_width(40)
    # one helper per run, and none for a block of one tile
    assert len(forks) == (chunk > min(sde._TILE, chunk))
    expected = _fresh_stream_reference(params, spec, 1, 1, **kwargs)
    assert split.samples.tobytes() == alone.samples.tobytes() == expected.tobytes()
    assert (split.clamp_events, split.node_crossings) == (alone.clamp_events, alone.node_crossings)
    assert split.clamp_events > 0


def test_helper_observers_equal_one_process(params, ground_spec, monkeypatch, helper):
    # chunks of 234, 234, 232 in tiles of 16, blocks of 25, 25, 10 steps
    monkeypatch.setattr(sde, "_CHUNK", 300)
    monkeypatch.setattr(sde, "_NOISE_VALUES", 300 * 25)
    monkeypatch.setattr(sde, "_TILE", 16)
    state = sde._resolve_state(params, ground_spec, 1, 1)
    results = []
    for on in (False, True):
        forks = helper(on)
        rates = sde.transport_bins(state, lambda x: x**2, 1e-2)
        second = sde.second_law_bins(state, 1e-2)
        products = LagProducts(state, 1e-2, 2, [0, 3, 10])
        for observer in (rates, second, products):
            simulate(params, ground_spec, 1, 1, d_tau=1e-2, steps=60, count=700, seed=31,
                     observe=observer)
        assert len(forks) == 3 * on
        results.append([
            (bins.rate_sums.tobytes(), bins.pos_sums.tobytes(), bins.counts.tobytes())
            for bins in (rates, second)
        ] + [products.estimate(lag) for lag in products.lags])
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "argv, artifacts",
    [
        (["transport-check", "-M", "700", "--steps", "40"], ["transport.txt"]),
        (["fpe-check", "-M", "300", "--steps", "40", "--points", "101"],
         ["fpe_check.txt", "fpe_density.txt"]),
        (["correlate", "-M", "300", "--d-tau", "0.1", "--dtau-lag", "0.2"],
         ["correlator.txt", "correlator.json"]),
    ],
    ids=["transport-check", "fpe-check", "correlate"],
)
def test_helper_artifacts_byte_identical(tmp_path, monkeypatch, helper, argv, artifacts):
    from stochastic_string.cli import EXIT_OK, run

    monkeypatch.setattr(sde, "_TILE", 16)
    written = []
    for on in (False, True):
        forks = helper(on)
        out = tmp_path / str(on)
        assert run([*argv, "--out", str(out), "--no-timestamp"]) == EXIT_OK
        assert len(forks) == on
        written.append([(out / name).read_bytes() for name in artifacts])
    assert written[0] == written[1]


def test_helper_gone_after_non_finite_sample_in_a_later_block(params, ground_spec, monkeypatch,
                                                             helper):
    # as in test_non_finite_sample_named_alike_in_a_later_block, from a start
    # that is a function of the stream alone
    monkeypatch.setattr(drift, "_DRIFT_CAP", np.inf)
    monkeypatch.setattr(sde, "_CHUNK", 4)
    monkeypatch.setattr(sde, "_NOISE_VALUES", 4 * 8)
    monkeypatch.setattr(sde, "_TILE", 2)
    kwargs = dict(init=lambda rng, size: np.full(size, 1e290 if _trajectory(rng) == 5 else 1.0),
                  d_tau=10.0, steps=30, count=10, seed=1)
    raised = []
    for on in (False, True):
        forks = helper(on)
        with pytest.raises(sde.NonFiniteSampleError) as error:
            simulate(params, ground_spec, 1, 1, **kwargs)
        _assert_no_child()
        assert len(forks) == on
        raised.append((error.value.trajectory, error.value.step, str(error.value)))
    assert raised[0] == raised[1]
    assert raised[0][0] == 5 and 16 < raised[0][1] <= 24


def test_helper_gone_after_an_observer_raises(params, ground_spec, monkeypatch, helper):
    monkeypatch.setattr(sde, "_TILE", 4)

    def observe(t, col):
        if t == 3:
            raise KeyError("observer")

    forks = helper(True)
    with pytest.raises(KeyError, match="observer"):
        simulate(params, ground_spec, 1, 1, d_tau=1e-2, steps=10, count=20, seed=2, observe=observe)
    _assert_no_child()
    assert len(forks) == 1


@pytest.mark.parametrize("first_bad", [3, 17], ids=["helper-tiles", "parent-tiles"])
def test_init_error_in_either_half_reaches_the_caller(params, ground_spec, monkeypatch, helper,
                                                      first_bad):
    # tiles of 4 over 20 trajectories: the helper draws 0-7, the parent 8-19;
    # every trajectory from ``first_bad`` on fails, so at 3 both halves raise
    # and the error is trajectory 3's, as in one process
    monkeypatch.setattr(sde, "_TILE", 4)

    def init(rng, size):
        if _trajectory(rng) >= first_bad:
            raise ValidationError(f"no start for trajectory {_trajectory(rng)}")
        return np.zeros(size)

    for on in (False, True):
        forks = helper(on)
        with pytest.raises(ValidationError) as error:
            simulate(params, ground_spec, 1, 1, init=init, d_tau=1e-2, steps=10, count=20, seed=2)
        _assert_no_child()
        assert len(forks) == on
        assert type(error.value) is ValidationError
        assert str(error.value) == f"no start for trajectory {first_bad}"


def test_helper_error_that_cannot_be_rebuilt_keeps_its_message(params, ground_spec, monkeypatch,
                                                               helper):
    # NonFiniteSampleError pickles but does not unpickle (its __init__ takes
    # two arguments): it reaches the caller as a RuntimeError with its text
    monkeypatch.setattr(sde, "_TILE", 4)

    def init(rng, size):
        raise sde.NonFiniteSampleError(_trajectory(rng), 0)

    forks = helper(True)
    with pytest.raises(RuntimeError) as error:
        simulate(params, ground_spec, 1, 1, init=init, d_tau=1e-2, steps=10, count=20, seed=2)
    _assert_no_child()
    assert len(forks) == 1
    assert str(error.value) == "NonFiniteSampleError: non-finite sample in trajectory 0 at step 0"


def test_helper_that_dies_is_a_numerical_failure(tmp_path, params, ground_spec, monkeypatch,
                                                 helper, capsys):
    from stochastic_string.cli import EXIT_NUMERICAL, run

    parent = os.getpid()
    resume = sde._resume_stream

    def resume_or_die(rng, row):
        if os.getpid() != parent:
            os._exit(3)
        resume(rng, row)

    monkeypatch.setattr(sde, "_resume_stream", resume_or_die)
    monkeypatch.setattr(sde, "_TILE", 16)
    forks = helper(True)
    with pytest.raises(RuntimeError, match=r"noise helper \(process \d+\) ended"):
        simulate(params, ground_spec, 1, 1, d_tau=1e-2, steps=10, count=100, seed=2)
    _assert_no_child()
    code = run(["transport-check", "-M", "100", "--steps", "10", "--out", str(tmp_path),
                "--no-timestamp"])
    assert code == EXIT_NUMERICAL
    assert f"noise helper (process {forks[-1]}) ended" in capsys.readouterr().err
    assert len(forks) == 2


def test_one_cpu_never_forks(params, ground_spec, monkeypatch):
    monkeypatch.setattr(sde, "_SHARED_VALUES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    ens = simulate(params, ground_spec, 1, 1, d_tau=1e-2, steps=10, count=500, seed=2)
    assert np.isfinite(ens.samples).all()


def test_helper_shared_arrays_sized_to_the_widest_chunk(params, ground_spec, monkeypatch, helper):
    # tracemalloc does not see shared memory, so the shared arrays are
    # measured as made: chunks of 129 and 128 in blocks of 512 steps, the
    # same at both step counts; the in-process sizes of
    # test_noise_sized_to_the_widest_chunk
    monkeypatch.setattr(sde, "_CHUNK", 256)
    monkeypatch.setattr(sde, "_NOISE_VALUES", 256 * 512)
    monkeypatch.setattr(sde, "_TILE", 8)
    shared = sde._shared
    made = []
    monkeypatch.setattr(sde, "_shared", lambda *a: made.append(shared(*a)) or made[-1])
    width = sde._chunk_width(sde._CHUNK + 1)
    sizes = []
    for steps in (1024, 4096):
        made.clear()
        helper(True)
        simulate(params, ground_spec, 1, 1, d_tau=1e-3, steps=steps, count=sde._CHUNK + 1, seed=7,
                 record_stride=steps)
        sizes.append([(a.shape, a.dtype, a.nbytes) for a in made])
    assert sizes[0] == sizes[1]
    noise, table, q0 = sizes[0]
    assert noise == ((width * 512,), np.float64, 8 * width * 512)
    assert table == ((width, sde._STREAM_WORDS), np.uint64, 8 * width * sde._STREAM_WORDS)
    assert q0 == ((width,), np.float64, 8 * width)


def test_helper_noise_within_its_budget(params, ground_spec, monkeypatch, helper):
    # at the default sizes a full chunk's shared noise is the 32 MiB budget
    shared = sde._shared
    made = []
    monkeypatch.setattr(sde, "_shared", lambda *a: made.append(shared(*a)) or made[-1])
    forks = helper(True)
    simulate(params, ground_spec, 1, 1, d_tau=1e-3, steps=sde._NOISE_VALUES // sde._CHUNK,
             count=sde._CHUNK, seed=8, record_stride=sde._NOISE_VALUES // sde._CHUNK)
    assert len(forks) == 1
    assert made[0].nbytes == 8 * sde._NOISE_VALUES == 32 * 2**20
