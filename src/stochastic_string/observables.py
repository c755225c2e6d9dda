"""Physics outputs: mode correlators and the level spectrum.

The two-point function of a ground-state mode n decays as
(2 alpha'/n) exp(-n dtau) in the Euclidean evolution parameter, and the
transverse-summed correlator is (D-2) * 2 alpha' * sum_n exp(-n dtau)/n.
The zero mode is excluded throughout (infrared divergence).
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import StringParams, ValidationError
from .drift import StationaryModeState


@dataclass(frozen=True)
class CorrelatorEstimate:
    mode: int
    delta_tau: float
    value: float
    standard_error: float


def _require_ground_state(state: StationaryModeState) -> None:
    if state.n < 1:
        raise ValidationError(f"zero mode n = {state.n} is excluded from correlators")
    if state.k != 0:
        raise ValidationError(
            f"correlator contract holds for k = 0, ensemble has k = {state.k}"
        )


def _standard_error(values: np.ndarray) -> float:
    """Standard error of the mean over independent trajectories."""
    if values.size < 2:
        raise ValidationError(
            f"count = {values.size} trajectories give no standard error; need count >= 2"
        )
    return float(values.std(ddof=1) / math.sqrt(values.size))


def recorded_lag(delta_tau: float, spacing: float) -> int:
    """Recorded columns spanning the lag ``delta_tau``, ``spacing`` apart.

    The lag must be a non-negative whole multiple of the spacing, to 1e-9,
    spanning a finite number of columns, and the spacing finite and
    positive with a finite reciprocal (none below about 5.6e-309).
    """
    if not (0 < spacing < math.inf and 1.0 / spacing < math.inf):
        raise ValidationError(
            f"recorded spacing d_tau * record_stride must be finite and positive, "
            f"with a finite reciprocal, got {spacing}"
        )
    columns = delta_tau / spacing
    if 0 <= columns < math.inf:
        lag_steps = round(columns)
        if abs(lag_steps * spacing - delta_tau) <= 1.0e-9:
            return lag_steps
    raise ValidationError(
        f"dtau_lag = {delta_tau} must be a non-negative multiple of the recorded spacing {spacing}"
    )


class LagProducts:
    """Per-trajectory sums of q_t q_{t+lag}: the correlators' ``simulate`` observer.

    ``products(t, column)`` takes one trajectory chunk after t steps (t = 0
    starts a chunk) and records every ``record_stride``-th column into a
    ring buffer of the last max(lags) + 1; each recorded column adds its
    product with the one ``lag`` columns back to that lag's sums. Memory
    does not grow with ``steps``: the ring's ``held_columns`` narrow the
    chunk ``simulate`` runs (``sde._noise_blocks``). Fill it by streaming
    ``simulate``.
    """

    def __init__(self, state: StationaryModeState, d_tau: float, record_stride: int,
                 lags: Sequence[int]):
        _require_ground_state(state)
        if record_stride < 1:
            raise ValidationError(f"record_stride must be >= 1, got {record_stride}")
        if min(lags) < 0:
            raise ValidationError(f"lag {min(lags)} outside recorded range")
        self.state = state
        self.d_tau = d_tau
        self.record_stride = record_stride
        self.lags = list(lags)
        self.recorded = 0
        # one (lags, trajectories) array of sums per chunk
        self._sums: list[np.ndarray] = []

    @property
    def held_columns(self) -> int:
        return max(self.lags) + 1

    def __call__(self, t: int, col: np.ndarray) -> None:
        if t == 0:
            self._recent = deque(maxlen=self.held_columns)
            self._sums.append(np.zeros((len(self.lags), len(col))))
        if t % self.record_stride:
            return
        self.recorded = t // self.record_stride + 1
        self._recent.appendleft(col)
        for sums, lag in zip(self._sums[-1], self.lags):
            if lag < len(self._recent):
                sums += self._recent[lag] * col

    def estimate(self, lag: int) -> CorrelatorEstimate:
        """Stationarity-averaged correlator at ``lag`` recorded columns, one of ``lags``.

        Each trajectory contributes the time average of q_t q_{t+lag} over all
        recorded origins; the standard error is taken across trajectories,
        which are independent by construction.
        """
        if lag not in self.lags or lag >= self.recorded:
            raise ValidationError(f"lag {lag} outside recorded range or the summed {self.lags}")
        row = self.lags.index(lag)
        per_traj = np.concatenate([sums[row] for sums in self._sums]) / (self.recorded - lag)
        lag_tau = lag * self.d_tau * self.record_stride
        return CorrelatorEstimate(
            self.state.n, lag_tau, float(per_traj.mean()), _standard_error(per_traj)
        )


def analytic_correlator(params: StringParams, n: int, delta_tau: float) -> float:
    """Per-mode, per-direction stationary correlator (2 alpha'/n) e^{-n dtau}."""
    return 2.0 * params.alpha_prime / n * math.exp(-n * delta_tau)


def fit_log_slope(estimates: Sequence[CorrelatorEstimate]) -> float:
    """Least-squares slope of log correlator value against lag."""
    lags = np.array([e.delta_tau for e in estimates])
    values = np.array([e.value for e in estimates])
    if np.any(values <= 0):
        raise ValidationError("correlator values must be positive for a log fit")
    return float(np.polyfit(lags, np.log(values), 1)[0])


def summed_correlator(
    params: StringParams, estimates: Mapping[tuple[int, int], CorrelatorEstimate]
) -> tuple[float, float]:
    """Sum of per-(mode, direction) correlator estimates at one lag.

    ``estimates`` maps every (mode n = 1..mode_cutoff, transverse
    direction) to the estimate of its ground-state run, all at the same
    lag ``delta_tau``; returns (value, standard_error) with the errors of
    independent runs combined in quadrature.
    """
    required = {
        (n, i)
        for n in range(1, params.mode_cutoff + 1)
        for i in range(1, params.transverse_count + 1)
    }
    missing = sorted(required - set(estimates))
    if missing:
        raise ValidationError(f"missing (mode, direction) runs: {missing[:8]}")
    taus = sorted({est.delta_tau for est in estimates.values()})
    if taus[-1] - taus[0] > 1.0e-9:
        raise ValidationError(f"estimates at different delta_tau {taus[0]} and {taus[-1]}")

    total = 0.0
    variance = 0.0
    for est in estimates.values():
        total += est.value
        variance += est.standard_error**2
    return total, math.sqrt(variance)


# largest max_level of level_spectrum, checked before any work: the pass is
# quadratic in max_level, about 1 s at 1000 and 5 s at 2000 for D = 26
MAX_LEVEL = 1000
# the pass also slows as its integers lengthen with D. max_level * log10(D - 2)
# stands in for that length (it is not the degeneracies' digit count: 153
# digits at D = 26 and level 1000, 1192 at D = 10^12 and level 115) and is
# checked before any work against its value at D = 26 and MAX_LEVEL. Passes on
# that edge take 1.1 s at D = 26, 0.5 s at 10^2, 0.3 s at 10^3, 0.15 s at 10^6
# and 0.04 s at 10^12 on a 2-vCPU VM
_MAX_DIGITS = MAX_LEVEL * math.log10(24)


@dataclass(frozen=True)
class SpectrumLevel:
    level: int
    energy_offset: float
    degeneracy: int


def level_spectrum(params: StringParams, max_level: int) -> list[SpectrumLevel]:
    """Degeneracies of oscillator levels N = 0..max_level.

    Counts occupation patterns {k_{n,i}} with sum of n*k_{n,i} = N over
    D-2 transverse directions; the energy above the ground state is N in
    units where mode n has frequency n.
    """
    if max_level < 0:
        raise ValidationError("max_level must be >= 0")
    if max_level > MAX_LEVEL:
        raise ValidationError(
            f"max_level must be <= {MAX_LEVEL}, as the time grows as about max_level^2.2; "
            f"got max_level = {max_level}; lower --max-level"
        )
    if max_level * math.log10(params.transverse_count) > _MAX_DIGITS:
        raise ValidationError(
            f"max_level * log10(dims - 2) must be <= {MAX_LEVEL} * log10(24), as longer "
            f"degeneracies slow every product; got dims = {params.dims}, "
            f"max_level = {max_level}; lower --dims or --max-level"
        )
    # coefficients of prod_n (1 - q^n)^-(D-2), one pass per mode n with the
    # binomial series (1 - q^n)^-T = sum_j C(T + j - 1, j) q^(jn), T = D - 2
    ways = [1] + [0] * max_level
    for n in range(1, max_level + 1):
        weights = [math.comb(params.transverse_count + j - 1, j) for j in range(max_level // n + 1)]
        ways = [
            sum(weights[j] * ways[level - j * n] for j in range(level // n + 1))
            for level in range(max_level + 1)
        ]
    return [SpectrumLevel(N, float(N), ways[N]) for N in range(max_level + 1)]


def zeta_intercept(params: StringParams) -> float:
    """Zeta-regularized normal-ordering constant (D-2)/24 of the transverse modes."""
    return params.transverse_count / 24.0


def correlator_report_rows(
    params: StringParams, estimates: Sequence[CorrelatorEstimate]
) -> list[dict]:
    """Machine-readable correlator table with analytic values and z-scores."""
    rows = []
    for est in estimates:
        analytic = analytic_correlator(params, est.mode, est.delta_tau)
        z = (est.value - analytic) / est.standard_error if est.standard_error else 0.0
        rows.append(
            {
                "n": est.mode,
                "delta_tau": est.delta_tau,
                "value": est.value,
                "stderr": est.standard_error,
                "analytic": analytic,
                "z_score": z,
            }
        )
    return rows


def format_report(rows: Sequence[dict]) -> str:
    if not rows:
        return ""
    columns = list(rows[0])
    lines = [" ".join(columns)]
    for row in rows:
        lines.append(" ".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def report_json(rows: Sequence[dict]) -> str:
    return json.dumps(rows, indent=2, sort_keys=True)
