"""Stationary per-mode wave data and the drift fields derived from it.

Each non-zero mode n behaves as an independent harmonic oscillator with
effective mass 1/(4*alpha') and frequency n, so the stationary density of
excitation level k is a Gaussian times a squared Hermite polynomial with
ground-state variance 2*alpha'/n. The zero mode is a free momentum
eigenstate: it has no normalizable stationary density and contributes a
constant current velocity 2*alpha'*kappa.

An excited state is its nodes: with xi = beta*q, H_k(xi) = 2^k prod_i (xi - xi_i)
over the zeros xi_i of H_k, so (log rho)' has one pole per node (Nelson,
Phys. Rev. 150, 1079 (1966)).

The drift decomposes into an osmotic part u = nu * rho'/rho and a current
part v = 2*nu * S'; the forward drift entering the SDE is v + u, evaluated
by ``StationaryModeState.forward_drift_array``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import StringParams, ValidationError


# |forward drift| beyond this is clamped and counted; read at every call
_DRIFT_CAP = 1.0e6


@dataclass(frozen=True)
class StationaryModeState:
    """One mode of the string in a stationary state.

    For n >= 1 the state is the k-th oscillator level with energy
    n*(k + 1/2). For n = 0 it is a momentum eigenstate with momentum
    ``momentum`` (occupation is meaningless there and must stay 0).
    """

    params: StringParams
    n: int
    k: int = 0
    momentum: float = 0.0

    def __post_init__(self):
        if self.n < 0:
            raise ValidationError(f"mode index must be >= 0, got {self.n}")
        if self.n == 0 and self.k != 0:
            raise ValidationError("zero mode has no occupation number")
        # the density's normalization holds k! as a float only up to k = 170
        if self.n >= 1 and not 0 <= self.k <= 170:
            raise ValidationError(f"occupation k must lie in 0..170, got k = {self.k}")
        if not math.isfinite(self.momentum):
            raise ValidationError(f"momentum must be finite, got {self.momentum}")
        if self.n >= 1 and self.momentum != 0.0:
            raise ValidationError("only the zero mode carries momentum")

    @property
    def nu(self) -> float:
        return self.params.diffusion(self.n)

    def energy(self) -> float:
        if self.n == 0:
            return self.params.alpha_prime * self.momentum**2
        return self.n * (self.k + 0.5)

    @property
    def scale(self) -> float:
        """Inverse oscillator length sqrt(m_eff * omega) = sqrt(n/(4*alpha'))."""
        if self.n == 0:
            raise ValidationError("zero mode has no oscillator length")
        return math.sqrt(self.n / (4.0 * self.params.alpha_prime))

    @property
    def sigma(self) -> float:
        """Ground-state standard deviation sqrt(2*alpha'/n)."""
        return math.sqrt(2.0 * self.params.alpha_prime / self.n)

    @cached_property
    def _roots(self) -> np.ndarray:
        """Zeros xi_i of H_k in increasing order, in the scaled coordinate xi = beta*q."""
        if self.k == 0:
            # H_0 = 1 has none; a ground-state run then never loads numpy.polynomial
            return np.empty(0)
        coeffs = np.zeros(self.k + 1)
        coeffs[-1] = 1.0
        roots = np.sort(np.polynomial.hermite.hermroots(coeffs))
        if self.k % 2:
            # H_k is odd, so its middle zero is exactly 0, where hermroots is
            # ~1e-16 off for k >= 3 (and gives -0.0 for k = 1)
            roots[self.k // 2] = -0.0
        return roots

    def nodes(self) -> np.ndarray:
        """Zeros of the stationary density, in increasing order."""
        if self.n == 0:
            return np.empty(0)
        return self._roots / self.scale

    def density(self, x):
        """Stationary probability density, normalized to 1 on the line."""
        if self.n == 0:
            raise ValidationError(
                "zero mode has no normalizable stationary density"
            )
        beta = self.scale
        xi = beta * np.asarray(x, dtype=float)
        norm = beta * 2.0**self.k / (math.sqrt(math.pi) * math.factorial(self.k))
        # the node factors go into the exponent: multiplied in after exp(-xi^2)
        # they meet an underflowed tail at high k
        log_nodes = 0.0
        for root in self._roots:
            with np.errstate(divide="ignore"):  # -inf exactly at the node
                log_nodes = log_nodes + np.log(np.abs(xi - root))
        out = norm * np.exp(-(xi**2) + 2.0 * log_nodes)
        return out if out.ndim else float(out)

    def log_density_gradient(self, x):
        """d(log rho)/dx = beta (2 sum_i 1/(xi - xi_i) - 2 xi): one pole per node."""
        if self.n == 0:
            raise ValidationError("zero mode density is uniform")
        beta = self.scale
        xi = beta * np.asarray(x, dtype=float)
        poles = 0.0
        for root in self._roots:
            with np.errstate(divide="ignore"):  # infinite exactly at the node
                poles = poles + 1.0 / (xi - root)
        grad = beta * (2.0 * poles - 2.0 * xi)
        return grad if grad.ndim else float(grad)

    def forward_drift_array(self, x: np.ndarray):
        """Forward drift v_plus = v + u feeding the mode SDE, clamped.

        Real oscillator states carry no current, so for n >= 1 this is the
        osmotic part nu * (log rho)'; the zero mode has only the current
        part 2*alpha'*kappa. Returns ``(drift, n_clamped)``, ``drift`` a new
        array that the caller may overwrite (``sde.simulate`` steps in it):
        values outside [-_DRIFT_CAP, _DRIFT_CAP] (including the infinities
        produced exactly at nodes) are clamped and counted.
        Nelson diffusions never cross a node, so the clamp only regularizes
        rare near-node evaluations in a discrete-time integrator (which can
        still step across a node; ``sde.simulate`` counts those crossings).
        """
        x = np.asarray(x, dtype=float)
        if self.n == 0:
            return np.full_like(x, 2.0 * self.params.alpha_prime * self.momentum), 0
        cap = _DRIFT_CAP
        drift = self.nu * self.log_density_gradient(x)
        if np.all(np.abs(drift) <= cap):
            return drift, 0
        n_clamped = int(np.count_nonzero(~(np.abs(drift) <= cap)))
        drift = np.nan_to_num(drift, nan=cap, posinf=cap, neginf=-cap)
        return np.clip(drift, -cap, cap), n_clamped

    @cached_property
    def _inverse_cdf_table(self) -> tuple[np.ndarray, np.ndarray]:
        half_width = (math.sqrt(2.0 * self.k + 1.0) + 6.0) / self.scale
        grid = np.linspace(-half_width, half_width, 8193)
        pdf = self.density(grid)
        cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))))
        cdf /= cdf[-1]
        # strictly increasing knots only, so interpolation is well posed
        keep = np.concatenate(([True], np.diff(cdf) > 0))
        return cdf[keep], grid[keep]

    def sample_stationary(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` points from the stationary density.

        The ground state samples its exact Gaussian; excited states use
        inverse-CDF interpolation on a fine grid spanning the support.
        """
        if self.n == 0:
            raise ValidationError(
                "zero mode has no normalizable stationary density"
            )
        if self.k == 0:
            return rng.normal(0.0, self.sigma, size=size)
        cdf, grid = self._inverse_cdf_table
        return np.interp(rng.uniform(0.0, 1.0, size=size), cdf, grid)
