"""Forward-SDE Monte Carlo engine for single mode amplitudes.

Integrates dq = v_plus(q) dtau + dw with Euler-Maruyama, where the noise
increment satisfies <dw> = 0 and <dw dw> = 2 nu_n dtau. Trajectory j is
driven by the counter-based Philox stream keyed by (seed, j) from counter 0,
so runs are bit-identical regardless of chunking or execution order. One
``Generator`` serves a whole ``simulate`` call: before each trajectory its
bit generator is re-keyed in place, which yields exactly the draws of a
freshly built ``Generator(Philox(key=[seed, j]))`` without the cost of
building one per trajectory.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import ModeStateSpec, StringParams, ValidationError, write_artifact
from .drift import StationaryModeState

InitSampler = Callable[[np.random.Generator, int], np.ndarray]

_CHUNK = 4096
# float64 noise values drawn ahead per trajectory chunk (32 MiB), so the
# buffer stays bounded however large ``steps`` is
_NOISE_VALUES = 2**22


class NonFiniteSampleError(RuntimeError):
    """A trajectory produced a non-finite amplitude."""

    def __init__(self, trajectory: int, step: int):
        self.trajectory = trajectory
        self.step = step
        super().__init__(
            f"non-finite sample in trajectory {trajectory} at step {step}"
        )


class InsufficientSamplesError(RuntimeError):
    """A probe bin holds too few samples for a conditional estimate."""


@dataclass
class Ensemble:
    """Monte Carlo ensemble of trajectories for one (mode, direction).

    ``samples[j, t]`` is trajectory j at recorded index t; recorded indices
    are ``record_stride`` integration steps apart. ``clamp_events`` counts
    drift evaluations limited by the configured cap; ``node_crossings``
    counts (trajectory, step) pairs whose amplitude moved across a node of
    the stationary density between consecutive integration steps (the
    continuous diffusion never does; the discrete integrator can).
    """

    params: StringParams
    state: StationaryModeState
    mode: int
    direction: int
    d_tau: float
    steps: int
    record_stride: int
    samples: np.ndarray
    clamp_events: int = 0
    node_crossings: int = 0

    @property
    def count(self) -> int:
        return self.samples.shape[0]

    @property
    def recorded_steps(self) -> int:
        return self.samples.shape[1] - 1

    def recorded_taus(self) -> np.ndarray:
        return self.d_tau * self.record_stride * np.arange(self.samples.shape[1])

    def sample_at(self, t: int) -> np.ndarray:
        return self.samples[:, t]


def _rekey(rng: np.random.Generator, seed: int, index: int) -> None:
    """Reset ``rng``'s Philox bit generator to the stream of trajectory ``index``.

    Key ``[seed mod 2**64, index]``, counter 0 and an empty output buffer:
    the state of ``Philox(key=...)`` when freshly built.
    """
    zeros = np.zeros(4, dtype=np.uint64)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": zeros,
            "key": np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64),
        },
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def spawn_seed(seed: int, n: int, i: int) -> int:
    """Derive a per-(mode, direction) sub-seed from a master seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(n, i))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _resolve_state(
    params: StringParams, state: ModeStateSpec, n: int, i: int
) -> StationaryModeState:
    state.validate(params)
    if not 0 <= n <= params.mode_cutoff:
        raise ValidationError(f"mode n = {n} outside 0..mode_cutoff {params.mode_cutoff}")
    if not 1 <= i <= params.transverse_count:
        raise ValidationError(f"direction = {i} outside 1..{params.transverse_count}")
    if n == 0:
        return StationaryModeState(params, 0, momentum=state.momentum_component(i))
    return StationaryModeState(params, n, k=state.occupation(n, i))


def simulate(
    params: StringParams,
    state: ModeStateSpec,
    n: int,
    i: int,
    *,
    init: str | float | InitSampler = "stationary",
    d_tau: float = 1.0e-3,
    steps: int = 1000,
    count: int = 1000,
    seed: int = 0,
    record_stride: int = 1,
    drift_cap: float = 1.0e6,
) -> Ensemble:
    """Euler-Maruyama ensemble for mode ``n``, transverse direction ``i``.

    ``init`` is either the string ``"stationary"`` (draw q_0 from the
    stationary density of the state), a number (all trajectories start
    there), or a callable ``(rng, size) -> array``. Each trajectory consumes
    its own Philox stream keyed by (seed, trajectory index): the first draws
    initialize q_0, the rest drive the noise, so results do not depend on
    chunk boundaries. The noise scale is the mode's diffusion constant
    nu_n, fixed by alpha'. Mode ``n`` must lie in 0..mode_cutoff and the
    direction ``i`` in 1..D-2.
    """
    params.validate()
    if d_tau <= 0:
        raise ValidationError(f"d_tau must be positive, got {d_tau}")
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    if record_stride < 1:
        raise ValidationError(f"record_stride must be >= 1, got {record_stride}")
    if steps % record_stride != 0:
        raise ValidationError("record_stride must divide steps")
    mode_state = _resolve_state(params, state, n, i)

    draw_initial = _initial_sampler(mode_state, init)
    nodes = mode_state.nodes()
    n_recorded = steps // record_stride + 1
    samples = np.empty((count, n_recorded), dtype=float)
    noise_scale = math.sqrt(2.0 * mode_state.nu * d_tau)
    clamp_events = 0
    node_crossings = 0
    rng = np.random.Generator(np.random.Philox())

    chunk = min(_CHUNK, max(1, _NOISE_VALUES // steps))
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        block = stop - start
        noise = np.empty((block, steps))
        q0 = np.empty(block)
        for j in range(block):
            _rekey(rng, seed, start + j)
            q0[j] = draw_initial(rng)
            rng.standard_normal(out=noise[j])
        _check_initial_drift(nodes, q0, start)
        q = q0
        samples[start:stop, 0] = q
        if nodes.size:
            domain = np.searchsorted(nodes, q)
        # finiteness is checked explicitly each step; let overflows reach it
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(steps):
                drift, clamped = mode_state.forward_drift_array(q, cap=drift_cap)
                clamp_events += clamped
                q = q + drift * d_tau + noise_scale * noise[:, t]
                bad = ~np.isfinite(q)
                if bad.any():
                    j = int(np.argmax(bad))
                    raise NonFiniteSampleError(start + j, t + 1)
                if nodes.size:
                    next_domain = np.searchsorted(nodes, q)
                    node_crossings += int(np.count_nonzero(next_domain != domain))
                    domain = next_domain
                if (t + 1) % record_stride == 0:
                    samples[start:stop, (t + 1) // record_stride] = q

    return Ensemble(
        params=params,
        state=mode_state,
        mode=n,
        direction=i,
        d_tau=d_tau,
        steps=steps,
        record_stride=record_stride,
        samples=samples,
        clamp_events=clamp_events,
        node_crossings=node_crossings,
    )


def _initial_sampler(
    mode_state: StationaryModeState, init
) -> Callable[[np.random.Generator], float]:
    """``rng -> q_0`` for one trajectory, with ``init`` dispatched once."""
    if isinstance(init, str):
        if init != "stationary":
            raise ValidationError(f"unknown init mode {init!r}")
        if mode_state.n == 0:
            raise ValidationError(
                "zero mode has no stationary density; give a numeric init"
            )
        if mode_state.k == 0:
            # the draw sample_stationary makes for the ground state
            sigma = mode_state.sigma
            return lambda rng: float(rng.normal(0.0, sigma))
        return lambda rng: float(mode_state.sample_stationary(rng, 1)[0])
    if callable(init):
        return lambda rng: float(np.asarray(init(rng, 1)).reshape(-1)[0])
    q0 = float(init)
    return lambda rng: q0


def _check_initial_drift(nodes: np.ndarray, q0: np.ndarray, offset: int) -> None:
    on_node = np.isin(q0, nodes)
    if on_node.any():
        j = int(np.argmax(on_node))
        raise ValidationError(
            f"drift undefined at q_0={q0[j]} (density node), trajectory {offset + j}"
        )


def increment_moments(ensemble: Ensemble, t: int) -> tuple[float, float]:
    """Mean and variance of q_{t+1} - q_t across the ensemble.

    As the ensemble grows the mean tends to v_plus * d_tau and the variance
    to 2 nu_n d_tau + O(d_tau^2). Requires full-resolution recording.
    """
    if ensemble.count == 0:
        raise InsufficientSamplesError("empty ensemble")
    if ensemble.record_stride != 1:
        raise ValidationError("increment moments need record_stride == 1")
    if not 0 <= t < ensemble.recorded_steps:
        raise ValidationError(f"step {t} out of range 0..{ensemble.recorded_steps - 1}")
    dq = ensemble.samples[:, t + 1] - ensemble.samples[:, t]
    return float(dq.mean()), float(dq.var(ddof=1))


def _pool(ensemble: Ensemble | Iterable[Ensemble]) -> tuple[Ensemble, Iterator[Ensemble]]:
    """The first ensemble of a pool and an iterator over the whole pool."""
    it = iter([ensemble] if isinstance(ensemble, Ensemble) else ensemble)
    lead = next(it, None)
    if lead is None:
        raise InsufficientSamplesError("empty ensemble")
    return lead, itertools.chain([lead], it)


def _conditional_rates(
    ensembles: Iterable[Ensemble],
    F: Callable[[np.ndarray], np.ndarray],
    probe: np.ndarray,
    bin_half_width: float,
    min_occupancy: int,
    backward: bool = False,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Binned transport rates of ``F``: forward, then backward if asked.

    Forward: E[(F(q_{t+1}) - F(q_t)) / d_tau | q_t in bin].
    Backward: E[(F(q_t) - F(q_{t-1})) / d_tau | q_t in bin].
    Returns per direction (rates, bin means, counts); comparing analytics
    at the empirical bin means removes the first-order binning skew under
    a sloped density. One pass over an iterable of ensembles, column by
    column, so full trajectories never need flattening and ensembles may
    come from a generator. Each column is binned once: its bin index
    conditions the forward rate of the step leaving it and the backward
    rate of the step entering it. Samples outside every bin, or with a
    non-finite rate, go to the overflow bin ``len(probe)``, dropped at
    the end.
    """
    n = len(probe)
    edges = np.concatenate((probe - bin_half_width, [probe[-1] + bin_half_width]))
    # bin indices -1 and n both read an infinite centre: never within reach
    centres = np.append(probe, np.inf)
    directions = 2 if backward else 1
    rate_sums = np.zeros((directions, n))
    pos_sums = np.zeros((directions, n))
    counts = np.zeros((directions, n), dtype=np.int64)
    for ens in ensembles:
        if ens.record_stride != 1:
            raise ValidationError("transport derivatives need record_stride == 1")
        for t in range(ens.samples.shape[1]):
            col = ens.samples[:, t]
            idx = np.searchsorted(edges, col, side="right") - 1
            bins = np.where(np.abs(col - centres[idx]) <= bin_half_width, idx, n)
            values = F(col)
            if t:
                rate = (values - last_values) / ens.d_tau
                conditions = ((last_col, last_bins), (col, bins))[:directions]
                finite = np.isfinite(rate)
                if not finite.all():
                    conditions = [(cond, np.where(finite, b, n)) for cond, b in conditions]
                for d, (cond, cond_bins) in enumerate(conditions):
                    rate_sums[d] += np.bincount(cond_bins, weights=rate, minlength=n + 1)[:n]
                    pos_sums[d] += np.bincount(cond_bins, weights=cond, minlength=n + 1)[:n]
                    counts[d] += np.bincount(cond_bins, minlength=n + 1)[:n]
            last_col, last_bins, last_values = col, bins, values
    if np.any(counts < min_occupancy):
        raise InsufficientSamplesError(
            f"probe bin occupancy {int(counts.min())} below required {min_occupancy}"
        )
    return [(r / c, x / c, c) for r, x, c in zip(rate_sums, pos_sums, counts)]


def transport_derivative_check(
    ensemble: Ensemble | Iterable[Ensemble],
    F: Callable[[np.ndarray], np.ndarray],
    dF: Callable[[np.ndarray], np.ndarray],
    d2F: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Max deviation of the empirical forward transport derivative.

    Compares the conditional forward difference estimate of D_plus F with
    v_plus F' + nu F'' on 7 probe points spanning +-1.5 sigma (+-1.5 for
    the zero mode), each bin half the probe spacing wide, and returns the
    largest absolute deviation. ``dF`` and ``d2F`` are the exact
    derivatives of ``F``. Accepts one full-resolution ensemble or an
    iterable to pool; the first ensemble fixes the reference state.
    """
    lead, ensembles = _pool(ensemble)
    w = 1.5 * (lead.state.sigma if lead.mode >= 1 else 1.0)
    probe = np.linspace(-w, w, 7)
    ((est, at, _),) = _conditional_rates(ensembles, F, probe, 0.5 * (probe[1] - probe[0]), 30)
    drift, _ = lead.state.forward_drift_array(at)
    analytic = drift * dF(at) + lead.state.nu * d2F(at)
    return float(np.max(np.abs(est - analytic)))


def second_law_check(
    ensemble: Ensemble | Iterable[Ensemble],
) -> tuple[float, np.ndarray, np.ndarray]:
    """Empirical mean stochastic acceleration (D+D- + D-D+)q / 2.

    The forward and backward velocities v_+(x), v_-(x) are estimated from
    conditional increment rates and smoothed by cubic fits; the outer
    transport derivatives then follow from their defining form
    D_(+/-) G = v_(+/-) G' +/- nu G'' with the engine's known diffusion
    constant. Returns (max relative deviation from -n^2 x, probe grid,
    acceleration estimates). Accepts one ensemble or an iterable to pool
    (a generator keeps only one in memory at a time).
    """
    lead, ensembles = _pool(ensemble)
    if lead.mode < 1:
        raise ValidationError("stochastic acceleration check targets n >= 1 modes")
    sigma = lead.state.sigma
    probe = np.concatenate((np.linspace(-2, -0.4, 5), np.linspace(0.4, 2, 5))) * sigma

    # fit window extends past the probe so every probe point sits in the
    # well-constrained interior of the polynomial fits
    fit_grid = np.linspace(1.2 * probe.min(), 1.2 * probe.max(), 21)
    v_plus, v_minus = (
        np.polynomial.Polynomial.fit(at, rates, 3, w=np.sqrt(counts))
        for rates, at, counts in _conditional_rates(
            ensembles, lambda x: x, fit_grid, 0.15 * sigma, 200, backward=True
        )
    )
    nu = lead.state.nu
    d_plus_of_vminus = v_plus(probe) * v_minus.deriv()(probe) + nu * v_minus.deriv(2)(probe)
    d_minus_of_vplus = v_minus(probe) * v_plus.deriv()(probe) - nu * v_plus.deriv(2)(probe)
    acceleration = 0.5 * (d_plus_of_vminus + d_minus_of_vplus)
    expected = -lead.mode**2 * probe
    deviation = float(np.max(np.abs(acceleration - expected) / np.abs(expected)))
    return deviation, probe, acceleration


def export_ensemble(ensemble: Ensemble, path: str | Path, header_lines: Sequence[str] = ()) -> None:
    """Write the ensemble as columnar text: trajectory_id, step, tau, q."""
    stride = ensemble.record_stride
    columns = [
        f" {t * stride} {tau!r} " for t, tau in enumerate(ensemble.recorded_taus().tolist())
    ]
    # one trajectory at a time: converting the whole ensemble to Python
    # floats at once would hold every sample as an object
    rows = (
        "".join([f"{j}{col}{q!r}\n" for col, q in zip(columns, ensemble.samples[j].tolist())])
        for j in range(ensemble.count)
    )
    write_artifact(path, header_lines, itertools.chain(["trajectory_id step tau q\n"], rows))
