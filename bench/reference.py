"""Reference values computed apart from the package, for the workload checks.

Nothing here imports ``stochastic_string``: each function restates a
textbook result, so a check that compares the program against it does not
compare the program with itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def anomaly_formula(m: int, dims, intercept) -> Fraction:
    """Light-cone anomaly Delta_m(D, a) of [M^{i-}, M^{j-}].

    Goddard, Goldstone, Rebbi and Thorn (1973):
    Delta_m = m (26 - D)/12 + (1/m) ((D - 26)/12 + 2 (1 - a)).
    """
    D, a = Fraction(dims), Fraction(intercept)
    return m * (26 - D) / 12 + ((D - 26) / 12 + 2 * (1 - a)) / m


def anomaly_coefficients(m: int) -> dict[tuple[int, int], Fraction]:
    """Nonzero coefficients of Delta_m as {(power of D, power of a): value}."""
    const = anomaly_formula(m, 0, 0)
    coeffs = {
        (0, 0): const,
        (1, 0): anomaly_formula(m, 1, 0) - const,
        (0, 1): anomaly_formula(m, 0, 1) - const,
    }
    return {k: v for k, v in coeffs.items() if v}


def level_degeneracies(max_level: int, directions: int = 24) -> list[int]:
    """Coefficients of prod_{n >= 1} (1 - q^n)^(-directions) up to q^max_level."""
    series = [1] + [0] * max_level
    for n in range(1, max_level + 1):
        for _ in range(directions):
            # multiply by 1 / (1 - q^n) = 1 + q^n + q^2n + ...
            for level in range(n, max_level + 1):
                series[level] += series[level - n]
    return series


def ou_density(x, mean0: float, var0: float, n: int, alpha_prime: float, tau: float):
    """Exact density at time tau of dq = -n q dtau + dw, <dw dw> = 4 alpha' dtau.

    A Gaussian start N(mean0, var0) stays Gaussian with mean mean0 e^{-n tau}
    and variance s2 + (var0 - s2) e^{-2 n tau}, where s2 = 2 alpha'/n.
    """
    stationary = 2.0 * alpha_prime / n
    mean = mean0 * math.exp(-n * tau)
    var = stationary + (var0 - stationary) * math.exp(-2.0 * n * tau)
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def binomial_mean_abs_dev(trials: int, p: float) -> float:
    """E|X - trials p| for X ~ Binomial(trials, p), by De Moivre's closed form."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    v = math.floor(trials * p) + 1
    if v > trials:
        return 0.0
    log_term = (
        math.lgamma(trials + 1) - math.lgamma(v + 1) - math.lgamma(trials - v + 1)
        + v * math.log(p) + (trials - v + 1) * math.log1p(-p)
    )
    return 2.0 * v * math.exp(log_term)


def histogram_l1_noise(masses, samples: int) -> tuple[float, float]:
    """Mean and standard deviation of sum_i |X_i/samples - p_i| for a multinomial.

    The standard deviation adds the per-bin variances, which overstates it
    a little because multinomial bins are negatively correlated.
    """
    mean = 0.0
    variance = 0.0
    for p in masses:
        mad = binomial_mean_abs_dev(samples, float(p)) / samples
        mean += mad
        variance += max(p * (1.0 - p) / samples - mad**2, 0.0)
    return mean, math.sqrt(variance)


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
