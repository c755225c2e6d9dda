"""1-D grid evolution and residual checks for the PDE side of the engine.

The same stationary data that drives the SDE must solve, on a grid, the
Fokker-Planck equation, the continuity equation, and the single-mode
Madelung (Hamilton-Jacobi) equation. For the polar-form wave function
psi = sqrt(rho) e^{iS}, the continuity and Madelung equations are the
imaginary and real parts of H psi = E psi divided by psi, so together
they check the eigenvalue relation.
The Fokker-Planck equation is stepped explicitly with exponentially
fitted Scharfetter-Gummel fluxes (Scharfetter & Gummel, IEEE TED 16,
1969; Chang & Cooper, J. Comput. Phys. 6, 1970) and reflecting (no-flux)
boundaries. The tridiagonal sub-step matrix M is composed into its banded
power M^_BAND once per call, so each product with that band advances
_BAND sub-steps. The residuals use second-order central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import MAX_FLOATS, ValidationError, write_artifact
from .drift import StationaryModeState

# sub-steps one evolve_fokker_planck call may take: 45 times the most any
# check needs, and 0.6 to 1.0 s at 401 to 801 points on a 2-vCPU VM
_MAX_SUBSTEPS = 10**6
# sub-steps composed into one banded matrix power B = M^_BAND
_BAND = 24


@dataclass
class GridField:
    """Discretized Madelung pair (rho, S) on a uniform grid."""

    x_min: float
    x_max: float
    rho: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.S = np.asarray(self.S, dtype=float)
        if self.rho.shape != self.S.shape or self.rho.ndim != 1:
            raise ValidationError("rho and S must be 1-D arrays of equal length")
        _check_grid(self.x_min, self.x_max, len(self.rho))

    @property
    def points(self) -> int:
        return len(self.rho)

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.points - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.points)

    def mass(self) -> float:
        return float(self.rho.sum() * self.h)

    def normalized(self) -> "GridField":
        return replace(self, rho=self.rho / self.mass())


def _check_grid(x_min: float, x_max: float, points: int) -> None:
    """Reject a grid span that is not finite or not increasing, fewer than 3
    points or more than numpy can hold, or a spacing h whose h^2 or 1/h^2
    is not finite, before any grid is built."""
    for name, value in (("x_min", x_min), ("x_max", x_max)):
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
    if not math.isfinite(x_max - x_min):
        raise ValidationError(f"x_max - x_min overflows: x_min = {x_min}, x_max = {x_max}")
    if x_max <= x_min:
        raise ValidationError("x_max must exceed x_min")
    if points < 3:
        raise ValidationError(f"grid needs at least 3 points, got points = {points}")
    if points > MAX_FLOATS:
        raise MemoryError(f"points = {points} is more floats than any machine holds")
    h = (x_max - x_min) / (points - 1)
    # h * h, not h**2: a Python float's ** raises OverflowError where * gives inf
    h2 = h * h
    if not (0 < h2 < math.inf and math.isfinite(1.0 / h2)):
        raise ValidationError(
            f"grid spacing h = {h} needs a finite h^2 and 1/h^2: "
            f"x_min = {x_min}, x_max = {x_max}, points = {points}"
        )


def _field_with_mass(x_min: float, x_max: float, rho: np.ndarray, S: np.ndarray) -> GridField:
    """GridField of (rho, S), rejected when rho has no finite, positive mass on
    the grid, as when the grid lies where the density underflows to 0."""
    field = GridField(x_min, x_max, rho, S)
    mass = field.mass()
    if not 0 < mass < math.inf:
        raise ValidationError(
            f"the density has mass {mass} on the grid x_min = {x_min}, x_max = {x_max}; "
            "move the grid to where the density lies"
        )
    return field


def check_ends(field: GridField, bound: float) -> None:
    """Reject a field whose density at either grid end exceeds ``bound`` of its peak."""
    end = max(field.rho[0], field.rho[-1]) / field.rho.max()
    if not end <= bound:
        raise ValidationError(f"density {end:.3g} of its peak at a grid end, over {bound:g}: widen "
                              f"x_min = {field.x_min}, x_max = {field.x_max} or lower alpha_prime")


def gaussian_field(x_min: float, x_max: float, points: int, mean: float, std: float) -> GridField:
    _check_grid(x_min, x_max, points)
    x = np.linspace(x_min, x_max, points)
    rho = np.exp(-0.5 * ((x - mean) / std) ** 2) / (std * math.sqrt(2 * math.pi))
    return _field_with_mass(x_min, x_max, rho, np.zeros_like(x)).normalized()


def stationary_field(
    state: StationaryModeState, x_min: float, x_max: float, points: int
) -> GridField:
    """GridField holding the analytic stationary (rho, S) of a mode state.

    An oscillator mode whose ground-state width sqrt(2 alpha'/n) is below the
    grid spacing h is rejected: the grid cannot resolve its density.
    """
    _check_grid(x_min, x_max, points)
    h = (x_max - x_min) / (points - 1)
    if state.n >= 1 and state.sigma < h:
        raise ValidationError(
            f"the mode n = {state.n} width sqrt(2 alpha'/n) = {state.sigma:.3g} at "
            f"alpha_prime = {state.params.alpha_prime} is below the grid spacing h = {h:.3g} "
            f"of points = {points} on [{x_min}, {x_max}]; raise points or alpha_prime"
        )
    x = np.linspace(x_min, x_max, points)
    if state.n == 0:
        rho = np.full_like(x, 1.0 / (x_max - x_min))
        S = state.momentum * x
    else:
        rho = state.density(x)
        S = np.zeros_like(x)
    return _field_with_mass(x_min, x_max, rho, S)


def _second_difference(y: np.ndarray, h: float) -> np.ndarray:
    """Central second difference on the interior points."""
    return (y[2:] - 2 * y[1:-1] + y[:-2]) / h**2


def _off_node_windows(field: GridField, state: StationaryModeState) -> np.ndarray:
    """Mask of the interior grid points at least 5h from every density node."""
    xin = field.x[1:-1]
    keep = np.ones(field.points - 2, dtype=bool)
    for node in state.nodes():
        keep &= np.abs(xin - node) >= 5 * field.h
    if not keep.any():
        raise ValidationError(
            f"points = {field.points} leaves no grid point 5h away from a node; raise points"
        )
    return keep


def _bernoulli(z: np.ndarray) -> np.ndarray:
    """B(z) = z / (e^z - 1), with B(0) = 1."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(z == 0.0, 1.0, z / np.expm1(z))


def _substep(rho: np.ndarray, forward: np.ndarray, backward: np.ndarray) -> None:
    """One explicit sub-step in place along axis 0 of rho: each face's flux
    forward * rho_i - backward * rho_{i+1} leaves cell i and enters cell i + 1."""
    flux = forward * rho[:-1]
    flux -= backward * rho[1:]
    rho[:-1] -= flux
    rho[1:] += flux


def _band_power(forward: np.ndarray, backward: np.ndarray, points: int) -> np.ndarray:
    """The band of B = M^_BAND for the sub-step matrix M, as a
    (points, 2 * _BAND + 1) array: band[i, d] = B[i, i + d - _BAND], zero
    where that column lies off the grid.

    B is banded: its column j, the image of e_j after _BAND sub-steps, lies
    on rows j - _BAND..j + _BAND. So the 2 * _BAND + 1 combs, each the sum of
    e_j over j = c mod (2 * _BAND + 1), stepped side by side give all of B at
    once: the images within one comb never overlap, and row i of comb c's
    image holds B[i, j] for the one j = c mod (2 * _BAND + 1) within the band.
    """
    width = 2 * _BAND + 1
    combs = (np.arange(points)[:, None] % width == np.arange(width)).astype(float)
    for _ in range(_BAND):
        _substep(combs, forward[:, None], backward[:, None])
    columns = np.arange(points)[:, None] + np.arange(-_BAND, _BAND + 1)
    columns %= width
    return np.take_along_axis(combs, columns, axis=1)


def evolve_fokker_planck(
    field: GridField,
    drift: Callable[[np.ndarray], np.ndarray],
    nu: float,
    d_tau: float,
    steps: int,
) -> GridField:
    """Advance rho by d_tau rho = -(v rho)' + nu rho'' to tau = d_tau * steps.

    Scharfetter-Gummel fluxes J = (nu/h) [B(-D) rho_i - B(D) rho_{i+1}],
    where D = (1/nu) * integral of v over the cell (3-point Gauss-Legendre)
    is the step in log rho_s across the face, so J vanishes on the discrete
    stationary density exp(cumsum D). Zero flux through both boundaries
    conserves sum(rho) * h up to roundoff. The horizon is covered in the
    fewest equal sub-steps dt with dt * r_i <= 0.8 for every cell's
    out-rate r_i, so each new value is a non-negative mix of old ones.
    A horizon that needs more than ``_MAX_SUBSTEPS`` sub-steps is rejected
    before the first one.

    Each run of ``_BAND`` sub-steps is one product with the band of
    B = M^_BAND (see ``_band_power``), built once per call from the
    sub-steps themselves; the remainder steps one sub-step at a time. B is a
    product of the same non-negative, mass-conserving sub-steps, so the
    result agrees with stepping one at a time up to roundoff. Memory does
    not grow with ``steps``: building the band holds three
    (points, 2 * _BAND + 1) arrays, about 1.3 kB per grid point, where
    stepping one sub-step at a time holds about 0.1 kB per point.
    """
    if not 0 <= d_tau < math.inf or steps < 0:
        raise ValidationError(f"need a finite d_tau >= 0 and steps >= 0, got {d_tau} and {steps}")
    if not nu > 0:
        raise ValidationError(f"nu must be positive, got {nu}")
    h = field.h
    mid = 0.5 * (field.x[1:] + field.x[:-1])
    offset = 0.5 * h * math.sqrt(0.6)
    v = np.asarray(drift(np.concatenate((mid - offset, mid, mid + offset))), dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValidationError("drift is not finite on the grid")
    v = v.reshape(3, -1)
    delta = (h / nu) * (5.0 * v[0] + 8.0 * v[1] + 5.0 * v[2]) / 18.0
    forward, backward = _bernoulli(-delta), _bernoulli(delta)
    out_rate = np.zeros(field.points)
    out_rate[:-1] += forward
    out_rate[1:] += backward
    tau = d_tau * steps
    substeps = tau * (nu / h**2) * out_rate.max() / 0.8
    if not substeps <= _MAX_SUBSTEPS:
        raise ValidationError(
            f"horizon d_tau * steps = {d_tau} * {steps} needs {substeps:.3g} sub-steps, over "
            f"the budget of {_MAX_SUBSTEPS}: they grow as nu = {nu:.3g} (alpha_prime) over h^2 "
            f"(points = {field.points}); lower d_tau, steps, alpha_prime or points"
        )
    substeps = math.ceil(substeps)
    scale = (tau / max(substeps, 1)) * nu / h**2
    forward, backward = scale * forward, scale * backward

    padded = np.zeros(field.points + 2 * _BAND)
    rho = padded[_BAND:-_BAND]
    rho[:] = field.rho
    mass0 = rho.sum() * h
    runs, rest = divmod(substeps, _BAND)
    if runs:
        band = _band_power(forward, backward, field.points)
        # windows[i, d] = padded[i + d] = rho[i + d - _BAND], the cells row i reads
        windows = sliding_window_view(padded, 2 * _BAND + 1)
        for _ in range(runs):
            rho[:] = np.einsum("id,id->i", band, windows)
    for _ in range(rest):
        _substep(rho, forward, backward)
    # written to fail on NaN, for which every comparison is False
    lowest = np.minimum(field.rho.min(), rho.min())
    if not lowest >= -1.0e-12:
        raise ValidationError(f"density fell below -1e-12 or is not finite (min {lowest:.3e})")
    mass_error = abs(rho.sum() * h - mass0)
    if not mass_error <= 1.0e-6:
        raise ValidationError(f"probability mass drifted by {mass_error:.3e}")
    return replace(field, rho=rho)


def continuity_residual(field: GridField, state: StationaryModeState) -> float:
    """Max-norm of d(rho v)/dx with v = 2 nu_n S', nu_n the diffusion of ``state``'s mode.

    A stationary Madelung pair satisfies the continuity equation with
    d_tau rho = 0, so this must vanish to O(h^2) for exact inputs.
    """
    h = field.h
    v = 2.0 * state.nu * np.gradient(field.S, h)
    flux = field.rho * v
    divergence = np.gradient(flux, h)[1:-1]
    return float(np.max(np.abs(divergence)))


@dataclass(frozen=True)
class MadelungResult:
    max_residual: float
    node_window_residual: float
    excluded_points: int


def madelung_residual(
    field: GridField, state: StationaryModeState, energy: float | None = None
) -> MadelungResult:
    """Residual of the single-mode Madelung equation on the interior grid.

    With R = log(rho)/2 and a stationary phase d_tau S = -E, the equation
    reads  E = 2 alpha' [(R')^2 + R''] - 2 alpha' (S')^2 - n^2 x^2 / (8 alpha')
    up to sign, and the residual is its pointwise violation. Grid points
    within 5h of a density node are excluded from the reported max-norm
    (the polar decomposition, not the state, is singular there) and
    reported separately.
    """
    if state.n < 1:
        raise ValidationError("Madelung residual targets n >= 1 modes")
    if energy is None:
        energy = state.energy()
    ap = state.params.alpha_prime
    h = field.h
    # Two equivalent second-order discretizations of the osmotic term
    # (R')^2 + R'' == sqrt(rho)''/sqrt(rho): the log form is exact for
    # Gaussian tails, the amplitude form keeps the 1/x^2 cancellations
    # near nodes out of the finite differences. A point satisfies the
    # equation when either stencil does.
    with np.errstate(divide="ignore", invalid="ignore"):
        R = 0.5 * np.log(field.rho)
        dR = np.gradient(R, h)[1:-1]
        log_form = dR**2 + _second_difference(R, h)
        amp = np.sqrt(field.rho)
        amp_form = _second_difference(amp, h) / amp[1:-1]
    dS = np.gradient(field.S, h)[1:-1]
    xin = field.x[1:-1]
    rest = -energy + 2.0 * ap * dS**2 + state.n**2 * xin**2 / (8.0 * ap)
    residual = np.minimum(
        np.abs(rest - 2.0 * ap * log_form), np.abs(rest - 2.0 * ap * amp_form)
    )
    residual[~np.isfinite(residual)] = np.inf

    keep = (field.rho[1:-1] > 1.0e-200) & _off_node_windows(field, state)
    if not keep.any():
        raise ValidationError(
            f"no interior grid point off the node windows has a density above 1e-200 on "
            f"x_min = {field.x_min}, x_max = {field.x_max}; move the grid to where the density lies"
        )
    # the second difference of R carries a float noise of about eps max|log rho| / h^2;
    # below 1e-3 of R's curvature n/(4 alpha'), it moves the residual by under 1e-3 of
    # the osmotic term 2 alpha' R'' = n/2 that the residual balances
    noise = np.finfo(float).eps * np.max(np.abs(2.0 * R[1:-1][keep])) / h**2
    curvature = state.n / (4.0 * ap)
    if not noise <= 1.0e-3 * curvature:
        raise ValidationError(
            f"the float noise {noise:.3g} of the log-density stencil is over 1e-3 of its "
            f"curvature n/(4 alpha') = {curvature:.3g} at alpha_prime = {ap} with "
            f"points = {field.points}; lower alpha_prime or points"
        )
    finite_excluded = residual[~keep]
    finite_excluded = finite_excluded[np.isfinite(finite_excluded)]
    return MadelungResult(
        max_residual=float(np.max(residual[keep])),
        node_window_residual=float(finite_excluded.max()) if finite_excluded.size else 0.0,
        excluded_points=int(np.count_nonzero(~keep)),
    )


def l1_distance_to_samples(field: GridField, samples: np.ndarray) -> float:
    """L1 distance between a grid density and a sample histogram.

    Both are reduced to probability masses on 61 equal cells spanning the
    grid, which keeps the statistical noise floor of the comparison
    well below the 0.02 agreement target at ensemble sizes around 1e5.
    """
    edges = np.linspace(field.x_min, field.x_max, 62)
    hist, _ = np.histogram(samples, bins=edges)
    hist_mass = hist / len(samples)
    cdf = np.concatenate(
        ([0.0], np.cumsum(0.5 * (field.rho[1:] + field.rho[:-1]) * field.h))
    )
    cdf_at_edges = np.interp(edges, field.x, cdf)
    grid_mass = np.diff(cdf_at_edges)
    grid_mass /= grid_mass.sum()
    return float(np.abs(hist_mass - grid_mass).sum())


def export_field(field: GridField, path: str | Path, header_lines: Sequence[str] = ()) -> None:
    """Write the field as columnar text: x, rho, S."""
    rows = zip(field.x.tolist(), field.rho.tolist(), field.S.tolist())
    write_artifact(path, header_lines, ["x rho S\n"] + [f"{x!r} {r!r} {s!r}\n" for x, r, s in rows])
