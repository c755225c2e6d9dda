"""Exact moments of the Euler chain of a ground-state mode: the oracle at finite d_tau.

For k = 0 the forward drift is linear, -r q with r = nu / sigma^2 (r = n
when nu = 2 alpha'), so the Euler-Maruyama update of ``simulate`` is the
Gaussian AR(1) chain

    q_{t+1} = a q_t + s xi_t,    a = 1 - r d_tau,    s^2 = 2 nu d_tau,

whose second moments have closed forms at every finite step. An estimator
checked against them is checked against the engine's own discretization,
not the continuum limit, whose O(d_tau) weak-order bias would read as a
defect at small samples (Kloeden & Platen, *Numerical Solution of
Stochastic Differential Equations*, ch. 14).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from stochastic_string.drift import StationaryModeState


@dataclass(frozen=True)
class EulerChain:
    rate: float
    nu: float
    d_tau: float

    @classmethod
    def of(cls, state: StationaryModeState, d_tau: float) -> "EulerChain":
        """The chain ``simulate`` runs for the ground state ``state`` at step ``d_tau``."""
        return cls(state.nu / state.sigma**2, state.nu, d_tau)

    @property
    def a(self) -> float:
        return 1.0 - self.rate * self.d_tau

    @property
    def noise_variance(self) -> float:
        """s^2 = 2 nu d_tau."""
        return 2.0 * self.nu * self.d_tau

    @property
    def stationary_variance(self) -> float:
        """s^2 / (1 - a^2): above the continuum nu / r by a factor 1 / (1 - r d_tau / 2)."""
        return self.noise_variance / (1.0 - self.a**2)

    @property
    def log_slope(self) -> float:
        """d log Cov(q_t, q_{t+l}) / d(l d_tau) = ln(1 - r d_tau) / d_tau."""
        return math.log(self.a) / self.d_tau

    def variance(self, t, start_variance: float) -> np.ndarray:
        """Var q_t from q_0 ~ N(0, ``start_variance``)."""
        decay = self.a ** (2 * np.asarray(t))
        return decay * start_variance + (1.0 - decay) * self.stationary_variance

    def lag_product_mean(self, lag: int, stride: int, recorded: int, start_variance: float) -> float:
        """Expected ``LagProducts.estimate(lag)``: Cov(q_{r s}, q_{(r + lag) s}) averaged
        over the origins r = 0 .. recorded - 1 - lag, s the record stride."""
        origins = stride * np.arange(recorded - lag)
        return float(np.mean(self.a ** (lag * stride) * self.variance(origins, start_variance)))

    def forward_rate_slope(self) -> float:
        """E[(q_{t+1} - q_t) / d_tau | q_t] / q_t = -r, at every t."""
        return (self.a - 1.0) / self.d_tau

    def backward_rate_slope(self) -> float:
        """E[(q_t - q_{t-1}) / d_tau | q_t] / q_t = r in the stationary chain, which is
        reversible: the regression of q_{t-1} on q_t is a q_t."""
        return (1.0 - self.a) / self.d_tau

    def rate_noise_variance(self) -> float:
        """Variance of a forward rate about its conditional mean, s^2 / d_tau^2; also of a
        backward rate in the stationary chain, where Var(q_{t-1} | q_t) = s^2."""
        return self.noise_variance / self.d_tau**2

    def max_rate_error_mean(self, counts) -> float:
        """E max_b |e_b| over independent e_b ~ N(0, rate_noise_variance / counts[b]):
        the mean of the largest forward-rate error of F(q) = q over bins that hold
        ``counts`` samples, each bin's error the mean of its samples' rate noise.

        E max_b |e_b| = int_0^inf (1 - prod_b erf(x / (sd_b sqrt 2))) dx.
        """
        sd = np.sqrt(self.rate_noise_variance() / np.asarray(counts, dtype=float))
        x = np.linspace(0.0, 10.0 * sd.max(), 1001)
        below = np.prod([[math.erf(v) for v in x / (s * math.sqrt(2.0))] for s in sd], axis=0)
        return float(np.trapezoid(1.0 - below, x))


def z_bound(comparisons: int, single: float = 4.0) -> float:
    """|z| bound for ``comparisons`` tests with the family-wise false-alarm rate of
    one |z| <= ``single`` test (Bonferroni)."""
    normal = NormalDist()
    alpha = 2.0 * (1.0 - normal.cdf(single))
    return normal.inv_cdf(1.0 - alpha / (2.0 * comparisons))
