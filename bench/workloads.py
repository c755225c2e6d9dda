"""The benchmark's workloads: inputs built from a seed, operations, checks.

``build(workload, seed, workdir)`` is the set-up of one pass: it derives
every input from the seed and returns the operations in the order the pass
runs them. Each operation is a call into the package (a ``cli.run`` with
generated arguments, or a library function) and a check of what it
produced, run after the timed pass. A check compares against
``reference`` or against a property the method must have; none compares
against a stored copy of an earlier output.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from stochastic_string import algebra, cli, fpe, sde
from stochastic_string.core import ModeStateSpec, StringParams
from stochastic_string.drift import StationaryModeState

import reference

# Standard errors allowed between a Monte Carlo estimate and its exact value.
Z_BOUND = 5.0
# L1(FPE density, exact Ornstein-Uhlenbeck density) <= C h^2; the scheme
# measures about 0.1 h^2 on every grid from 201 to 1601 points.
FPE_L1_PER_H2 = 0.5
# Allowance on top of histogram noise for the Euler and grid bias, both
# below 1e-3 at the sizes used.
HISTOGRAM_BIAS = 0.005
# An excited stationary density evolved by the FPE must stay this close to
# its start; a scheme that keeps the stationary state fixed does so to
# roundoff.
EXCITED_L1 = 0.02
MASS_TOL = 1.0e-9

ALPHA_PRIME = 0.5
D_TAU = 1.0e-3  # the CLI default
FPE_CHECK_START = (1.5, 0.7)  # mean and std of the fpe-check initial Gaussian

SIZES = {
    "simulate_export": {"count": 300, "steps": 1000},
    "transport_check": {"count": 12000, "steps": 400},
    "relaxation": {
        "count": 6000, "steps": 2000, "points": 801,
        "excited_points": 401, "excited_steps": 2000,
    },
    "exact_checks": {"anomaly_modes": (1, 2, 3), "direct_m": 1, "points": 2001, "max_level": 4},
}


class OperationFailed(RuntimeError):
    """A CLI command returned a nonzero exit code."""


@dataclass
class Operation:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def build(workload: str, seed: int, workdir: Path, sizes: dict | None = None) -> list[Operation]:
    """Inputs and operations of one pass of ``workload``."""
    builder = {
        "simulate_export": _simulate_export,
        "transport_check": _transport_check,
        "relaxation": _relaxation,
        "exact_checks": _exact_checks,
    }[workload]
    # one program seed per (workload, benchmark seed), independent across workloads
    program_seed = random.Random(f"{workload}:{seed}").getrandbits(32)
    return builder(program_seed, Path(workdir), **(sizes or SIZES[workload]))


def _cli(argv: list[str]) -> Callable[[], int]:
    def run() -> int:
        code = cli.run(argv)
        if code != 0:
            raise OperationFailed(f"stochastic-string {argv[0]} exited with {code}")
        return code

    return run


def _values(path: Path) -> dict[str, str]:
    """``key = value`` lines of an artifact body (header lines skipped)."""
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, _, value = line.partition(" = ")
        out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------- simulate_export

def _simulate_export(seed: int, workdir: Path, count: int, steps: int) -> list[Operation]:
    out = workdir / "simulate"
    argv = [
        "simulate", "--n", "1", "--direction", "1", "-M", str(count),
        "--steps", str(steps), "--seed", str(seed), "--out", str(out),
    ]
    ran = cli.RunConfig(command="simulate", n=1, direction=1, count=count, steps=steps, seed=seed)
    return [Operation("cli simulate", _cli(argv), lambda _: check_simulate_export(out / "ensemble.txt", ran))]


def check_simulate_export(path: Path, ran: "cli.RunConfig") -> list[str]:
    """Row count, header round trip, lossless values and stationary moments."""
    problems = []
    with open(path) as fh:
        header = 0
        for line in fh:
            if not line.startswith("#"):
                break
            header += 1
    if line.split() != ["trajectory_id", "step", "tau", "q"]:
        return [f"unexpected column line {line.strip()!r}"]
    table = np.loadtxt(path, skiprows=header + 1, ndmin=2)
    recorded = ran.steps // ran.record_stride + 1
    if table.shape != (ran.count * recorded, 4):
        return [f"artifact has {table.shape} values, expected {ran.count * recorded} rows of 4"]

    if cli.RunConfig.from_header(path) != ran:
        problems.append("RunConfig.from_header does not give back the config that was run")

    ens = sde.simulate(
        ran.params(), ModeStateSpec(), ran.n, ran.direction, d_tau=ran.d_tau,
        steps=ran.steps, count=ran.count, seed=ran.seed, record_stride=ran.record_stride,
    )
    expected = np.column_stack((
        np.repeat(np.arange(ran.count), recorded),
        np.tile(np.arange(recorded) * ran.record_stride, ran.count),
        np.tile(ens.recorded_taus(), ran.count),
        ens.samples.ravel(),
    ))
    if not np.array_equal(table.view(np.int64), expected.view(np.int64)):
        problems.append("exported values differ from an in-process sde.simulate (export is lossy)")

    q_end = table[:, 3].reshape(ran.count, recorded)[:, -1]
    var = 2.0 * ran.alpha_prime / ran.n
    mean_bound = Z_BOUND * math.sqrt(var / ran.count)
    var_bound = Z_BOUND * var * math.sqrt(2.0 / (ran.count - 1))
    if abs(q_end.mean()) > mean_bound:
        problems.append(f"end-step mean {q_end.mean():.4g} outside +-{mean_bound:.4g} of 0")
    if abs(q_end.var(ddof=1) - var) > var_bound:
        problems.append(f"end-step variance {q_end.var(ddof=1):.4g} outside {var} +- {var_bound:.4g}")
    return problems


# ---------------------------------------------------------------- transport_check

def _transport_check(seed: int, workdir: Path, count: int, steps: int) -> list[Operation]:
    out = workdir / "transport"
    argv = [
        "transport-check", "--n", "1", "-M", str(count), "--steps", str(steps),
        "--seed", str(seed), "--out", str(out),
    ]
    bound = transport_bound(samples=count * steps)
    return [Operation(
        "cli transport-check", _cli(argv),
        lambda _: check_transport(float(_values(out / "transport.txt")["max_deviation"]), bound),
    )]


def transport_bound(samples: int, d_tau: float = D_TAU) -> float:
    """Z_BOUND standard errors of the binned estimate of D+ q = v+ = -n q.

    The program bins stationary samples on 7 probe points spanning
    +-1.5 sigma, each bin half a probe spacing wide. A bin holding c samples
    estimates the rate with standard error sqrt(2 nu / d_tau / c); the bound
    uses the expected count of the emptiest bin.
    """
    nu = 2.0 * ALPHA_PRIME
    probe = np.linspace(-1.5, 1.5, 7)  # in units of sigma
    half = 0.5 * (probe[1] - probe[0])
    least = min(
        reference.normal_cdf(p + half) - reference.normal_cdf(p - half) for p in probe
    )
    return Z_BOUND * math.sqrt(2.0 * nu / d_tau / (samples * least))


def check_transport(max_deviation: float, bound: float) -> list[str]:
    if not max_deviation <= bound:
        return [f"max_deviation {max_deviation:.4g} exceeds {bound:.4g}"]
    return []


# ---------------------------------------------------------------- relaxation

def _relaxation(
    seed: int, workdir: Path, count: int, steps: int, points: int,
    excited_points: int, excited_steps: int,
) -> list[Operation]:
    out = workdir / "fpe"
    argv = [
        "fpe-check", "--n", "1", "-M", str(count), "--steps", str(steps),
        "--points", str(points), "--seed", str(seed), "--out", str(out),
    ]
    ops = [Operation(
        "cli fpe-check", _cli(argv), lambda _: check_fpe_check(out, count, steps * D_TAU)
    )]
    params = StringParams(alpha_prime=ALPHA_PRIME)
    for k in (1, 2):
        state = StationaryModeState(params, 1, k)
        start = fpe.stationary_field(state, -6.0, 6.0, excited_points)
        d_tau = 0.4 * start.h**2 / state.nu
        ops.append(Operation(
            f"fpe.evolve_fokker_planck from the stationary n=1 k={k} density",
            _evolve(start, state, d_tau, excited_steps),
            lambda evolved, start=start: check_excited(start, evolved),
        ))
    return ops


def _evolve(start, state, d_tau, steps):
    return lambda: fpe.evolve_fokker_planck(
        start, lambda x: state.forward_drift_array(x)[0], state.nu, d_tau, steps
    )


def check_fpe_check(out: Path, count: int, tau: float) -> list[str]:
    """FPE density against the exact OU density; SDE histogram against noise."""
    problems = []
    table = np.loadtxt(out / "fpe_density.txt", comments=["#", "x "], ndmin=2)
    x, rho = table[:, 0], table[:, 1]
    h = (x[-1] - x[0]) / (len(x) - 1)
    mean0, std0 = FPE_CHECK_START
    exact = reference.ou_density(x, mean0, std0**2, 1, ALPHA_PRIME, tau)
    l1 = float(np.abs(rho - exact).sum() * h)
    if l1 > FPE_L1_PER_H2 * h**2:
        problems.append(f"L1(FPE, exact OU) = {l1:.3g} exceeds {FPE_L1_PER_H2} h^2 = {FPE_L1_PER_H2 * h**2:.3g}")
    mass = float(rho.sum() * h)
    if abs(mass - 1.0) > MASS_TOL:
        problems.append(f"FPE mass {mass!r} is not 1")

    distance = float(_values(out / "fpe_check.txt")["l1_distance"])
    bound = histogram_l1_bound(x[0], x[-1], count, tau)
    if not distance <= bound:
        problems.append(f"SDE-vs-FPE l1_distance {distance:.4g} exceeds {bound:.4g}")
    return problems


def histogram_l1_bound(x_min: float, x_max: float, count: int, tau: float, bins: int = 61) -> float:
    """Noise of a count-sample histogram of the exact OU law on the program's bins."""
    mean0, std0 = FPE_CHECK_START
    stationary = 2.0 * ALPHA_PRIME
    mean = mean0 * math.exp(-tau)
    std = math.sqrt(stationary + (std0**2 - stationary) * math.exp(-2.0 * tau))
    cdf = [reference.normal_cdf((e - mean) / std) for e in np.linspace(x_min, x_max, bins + 1)]
    masses = np.diff(cdf)
    noise_mean, noise_sd = reference.histogram_l1_noise(masses / masses.sum(), count)
    return noise_mean + Z_BOUND * noise_sd + HISTOGRAM_BIAS


def check_excited(start, evolved) -> list[str]:
    problems = []
    l1 = float(np.abs(evolved.rho - start.rho).sum() * start.h)
    if l1 > EXCITED_L1:
        problems.append(f"excited density moved L1 {l1:.3g} from its stationary start")
    if abs(evolved.mass() - start.mass()) > MASS_TOL:
        problems.append(f"excited evolution changed the mass by {evolved.mass() - start.mass():.3g}")
    return problems


# ---------------------------------------------------------------- exact_checks

INTERCEPTS = [Fraction(k, 4) for k in range(-8, 13)]


def _exact_checks(
    seed: int, workdir: Path, anomaly_modes: tuple[int, ...], direct_m: int,
    points: int, max_level: int,
) -> list[Operation]:
    rng = random.Random(seed)
    dims, intercept = rng.randint(3, 40), rng.choice(INTERCEPTS)
    direct_intercept = rng.choice([a for a in INTERCEPTS if a != 1])
    ops = []
    for m in anomaly_modes:
        out = workdir / f"anomaly_m{m}"
        argv = [
            "anomaly", "--m", str(m), "--mode-cutoff", str(max(4, 2 * m)),
            "--dims", str(dims), "--intercept", str(float(intercept)), "--out", str(out),
        ]
        ops.append(Operation(
            f"cli anomaly --m {m}", _cli(argv),
            lambda _, m=m, out=out: check_anomaly(
                (out / "anomaly.txt").read_text(), m, dims, intercept
            ),
        ))
    direct_params = StringParams(alpha_prime=ALPHA_PRIME, dims=26, mode_cutoff=max(4, 2 * direct_m))
    ops.append(Operation(
        f"algebra.anomaly_value_direct m={direct_m} at D=26",
        lambda: algebra.anomaly_value_direct(direct_m, direct_params, direct_intercept),
        lambda value: check_direct(value, direct_m, 26, direct_intercept),
    ))

    bracket = workdir / "bracket"
    ops.append(Operation(
        "cli bracket-check", _cli(["bracket-check", "--points", str(points), "--out", str(bracket)]),
        lambda _: check_bracket(_values(bracket / "bracket.txt")),
    ))
    spectrum = workdir / "spectrum"
    ops.append(Operation(
        "cli spectrum", _cli(["spectrum", "--max-level", str(max_level), "--out", str(spectrum)]),
        lambda _: check_spectrum((spectrum / "spectrum.txt").read_text(), max_level),
    ))
    for k in (0, 1, 2):
        out = workdir / f"madelung_k{k}"
        argv = ["madelung-check", "--n", "2", "--k", str(k), "--points", str(points), "--out", str(out)]
        ops.append(Operation(
            f"cli madelung-check --k {k}", _cli(argv),
            lambda _, out=out: check_madelung(_values(out / "madelung.txt")),
        ))
    return ops


_DELTA = re.compile(r"^Delta_(\d+)\(([^,]+), ([^)]+)\) = (.+)$")


def parse_poly(text: str) -> dict[tuple[int, int], Fraction]:
    """Parse the package's ``PolyDA`` notation, e.g. ``17/4 + -1*a + -1/8*D``."""
    coeffs: dict[tuple[int, int], Fraction] = {}
    if text.strip() == "0":
        return coeffs
    for term in text.split(" + "):
        factor, *symbols = term.split("*")
        powers = [0, 0]
        for symbol in symbols:
            name, _, power = symbol.partition("^")
            powers["Da".index(name)] += int(power or 1)
        coeffs[tuple(powers)] = Fraction(factor)
    return coeffs


def check_anomaly(report: str, m: int, dims: int, intercept: Fraction) -> list[str]:
    """Every polynomial, evaluation and joint solution of an ``anomaly`` report."""
    problems = []
    modes = []
    evaluated = set()
    for line in report.splitlines():
        match = _DELTA.match(line)
        if match is None:
            continue
        mode, d, a, value = int(match[1]), match[2], match[3], match[4]
        if (d, a) == ("D", "a"):
            modes.append(mode)
            if parse_poly(value) != reference.anomaly_coefficients(mode):
                problems.append(f"Delta_{mode}(D, a) = {value} differs from the GGRT formula")
        elif Fraction(value) != reference.anomaly_formula(mode, Fraction(d), Fraction(a)):
            problems.append(f"{line!r} differs from the GGRT formula")
        elif (Fraction(d), Fraction(a)) == (dims, intercept):
            evaluated.add(mode)
    if m not in modes:
        problems.append(f"report has no Delta_{m}(D, a)")
    if m not in evaluated:
        problems.append(f"report does not evaluate Delta_{m} at ({dims}, {intercept})")
    solution = "D = 26, a = 1" if len(modes) >= 2 else "underdetermined"
    if f"joint solution: {solution}" not in report.splitlines():
        problems.append(f"joint solution is not {solution!r}")
    return problems


def check_direct(value, m: int, dims: int, intercept: Fraction) -> list[str]:
    expected = reference.anomaly_formula(m, dims, intercept)
    if value != expected:
        return [f"direct Delta_{m}({dims}, {intercept}) = {value}, formula gives {expected}"]
    return []


def check_bracket(values: dict[str, str]) -> list[str]:
    problems = []
    for key in ("stochastic_bracket", "commutator_side"):
        if not abs(float(values[key]) - 1.0) <= 1.0e-4:
            problems.append(f"{key} = {values[key]} is not 1 within 1e-4")
    return problems


def check_spectrum(text: str, max_level: int) -> list[str]:
    rows = [line.split() for line in text.splitlines() if not line.startswith("#")][1:]
    got = [int(row[2]) for row in rows]
    expected = reference.level_degeneracies(max_level, directions=24)
    if got != expected:
        return [f"degeneracies {got} differ from prod (1 - q^n)^-24: {expected}"]
    return []


def check_madelung(values: dict[str, str]) -> list[str]:
    problems = []
    for key in ("madelung_residual", "continuity_residual"):
        if not float(values[key]) < 1.0e-3:
            problems.append(f"{key} = {values[key]} is not below 1e-3")
    return problems
