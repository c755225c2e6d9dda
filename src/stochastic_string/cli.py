"""Batch front-end: subcommands orchestrating the engine modules.

Every run writes columnar text artifacts whose header embeds the full run
configuration as ``# key = value`` lines; parsing the header back yields a
RunConfig that reproduces the run byte-for-byte (the timestamp line is
suppressible for that purpose). Exit codes: 0 success, 1 validation
error or out of memory, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, algebra, fpe, observables, sde
from .core import ModeStateSpec, StringParams, ValidationError, load_config, write_artifact
from .drift import StationaryModeState

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


@dataclass
class RunConfig:
    """Flat, fully serializable record of one CLI run."""

    command: str
    alpha_prime: float = 0.5
    dims: int = 26
    mode_cutoff: int = 4
    p_plus: float = 1.0
    seed: int = 0
    count: int = 10000
    d_tau: float = 1.0e-3
    steps: int = 1000
    record_stride: int = 1
    x_min: float = -6.0
    x_max: float = 6.0
    points: int = 401
    n: int = 1
    direction: int = 1
    k: int = 0
    momentum: float = 0.0
    dtau_lag: float = 1.0
    m: int = 1
    max_level: int = 2
    energy_offset: float = 0.0
    intercept: float = 1.0
    zeta_intercept: bool = False
    init: str = "stationary"
    timestamp: bool = True

    def params(self) -> StringParams:
        return StringParams(
            alpha_prime=self.alpha_prime,
            dims=self.dims,
            mode_cutoff=self.mode_cutoff,
            p_plus=self.p_plus,
        )

    def header_lines(self) -> list[str]:
        lines = [f"config.{f.name} = {getattr(self, f.name)!r}" for f in fields(self)]
        if self.timestamp:
            lines.append(f"timestamp = {datetime.now(timezone.utc).isoformat()}")
        return lines

    @staticmethod
    def from_header(path: str | Path) -> "RunConfig":
        values: dict[str, str] = {}
        for raw in Path(path).read_text().splitlines():
            if not raw.startswith("# config."):
                continue
            key, _, val = raw[len("# config.") :].partition(" = ")
            values[key.strip()] = val.strip()
        kwargs = {}
        for f in fields(RunConfig):
            if f.name not in values:
                continue
            raw_val = values[f.name]
            if f.type in ("int", int):
                kwargs[f.name] = int(raw_val)
            elif f.type in ("float", float):
                kwargs[f.name] = float(raw_val)
            elif f.type in ("bool", bool):
                kwargs[f.name] = raw_val == "True"
            else:
                kwargs[f.name] = raw_val.strip("'\"")
        return RunConfig(**kwargs)


class _Parser(argparse.ArgumentParser):
    # unknown flags and malformed values are configuration mistakes: exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stochastic-string", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=str, help="key = value parameter file")
        p.add_argument("--alpha-prime", type=float, dest="alpha_prime")
        p.add_argument("--dims", type=int)
        p.add_argument("--mode-cutoff", type=int, dest="mode_cutoff")
        p.add_argument("--p-plus", type=float, dest="p_plus")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", type=str, default=".", help="output directory")
        p.add_argument("--no-timestamp", action="store_true")

    p = sub.add_parser("simulate", help="run a mode-amplitude ensemble")
    add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--direction", type=int)
    p.add_argument("--k", type=int, help="occupation of the simulated mode")
    p.add_argument("--momentum", type=float, help="zero-mode momentum")
    p.add_argument("-M", "--count", type=int, dest="count")
    p.add_argument("--d-tau", type=float, dest="d_tau")
    p.add_argument("--steps", type=int)
    p.add_argument("--record-stride", type=int, dest="record_stride")
    p.add_argument("--init", type=str, help='"stationary" or a number')

    p = sub.add_parser("correlate", help="two-point mode correlator vs analytic decay")
    add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--direction", type=int)
    p.add_argument("--dtau-lag", type=float, dest="dtau_lag")
    p.add_argument("-M", "--count", type=int, dest="count")
    p.add_argument("--d-tau", type=float, dest="d_tau")
    p.add_argument("--record-stride", type=int, dest="record_stride")

    p = sub.add_parser("fpe-check", help="SDE histogram vs Fokker-Planck density")
    add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("-M", "--count", type=int, dest="count")
    p.add_argument("--d-tau", type=float, dest="d_tau")
    p.add_argument("--steps", type=int)
    p.add_argument("--x-min", type=float, dest="x_min")
    p.add_argument("--x-max", type=float, dest="x_max")
    p.add_argument("--points", type=int)

    p = sub.add_parser("madelung-check", help="Madelung and continuity residuals")
    add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--energy-offset", type=float, dest="energy_offset")
    p.add_argument("--x-min", type=float, dest="x_min")
    p.add_argument("--x-max", type=float, dest="x_max")
    p.add_argument("--points", type=int)

    p = sub.add_parser("spectrum", help="oscillator level degeneracies")
    add_common(p)
    p.add_argument("--max-level", type=int, dest="max_level")
    p.add_argument("--zeta-intercept", action="store_true", dest="zeta_intercept")

    p = sub.add_parser("anomaly", help="Lorentz anomaly polynomial and solution set")
    add_common(p)
    p.add_argument("--m", type=int)
    p.add_argument("--intercept", type=float)

    p = sub.add_parser("bracket-check", help="stochastic bracket vs commutator")
    add_common(p)
    p.add_argument("--x-min", type=float, dest="x_min")
    p.add_argument("--x-max", type=float, dest="x_max")
    p.add_argument("--points", type=int)

    p = sub.add_parser("transport-check", help="forward transport derivative residual")
    add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("-M", "--count", type=int, dest="count")
    p.add_argument("--d-tau", type=float, dest="d_tau")
    p.add_argument("--steps", type=int)
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if getattr(args, "config", None):
        params, seed = load_config(args.config)
        cfg.alpha_prime = params.alpha_prime
        cfg.dims = params.dims
        cfg.mode_cutoff = params.mode_cutoff
        cfg.p_plus = params.p_plus
        if seed is not None:
            cfg.seed = seed
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None and f.name not in ("command", "timestamp"):
            setattr(cfg, f.name, value)
    if getattr(args, "no_timestamp", False):
        cfg.timestamp = False
    return cfg


def _write(cfg: RunConfig, out_dir: str, name: str, body_lines: list[str]) -> Path:
    return write_artifact(Path(out_dir) / name, cfg.header_lines(), [s + "\n" for s in body_lines])


def _mode_state_spec(cfg: RunConfig, params: StringParams) -> ModeStateSpec:
    occupations = {}
    if cfg.n >= 1 and cfg.k:
        occupations[(cfg.n, cfg.direction)] = cfg.k
    momentum = ()
    if cfg.n == 0 and cfg.momentum:
        momentum = tuple(
            cfg.momentum if i == cfg.direction else 0.0
            for i in range(1, params.transverse_count + 1)
        )
    return ModeStateSpec(occupations=occupations, zero_mode_momentum=momentum)


def _cmd_simulate(cfg: RunConfig, out: str) -> int:
    params = cfg.params()
    state = _mode_state_spec(cfg, params)
    init = cfg.init if cfg.init == "stationary" else float(cfg.init)
    ensemble = sde.simulate(
        params, state, cfg.n, cfg.direction,
        init=init, d_tau=cfg.d_tau, steps=cfg.steps, count=cfg.count,
        seed=cfg.seed, record_stride=cfg.record_stride,
    )
    path = Path(out) / "ensemble.txt"
    sde.export_ensemble(ensemble, path, header_lines=cfg.header_lines())
    print(
        f"wrote {path} ({ensemble.count} trajectories, clamp events: {ensemble.clamp_events}, "
        f"node crossings: {ensemble.node_crossings})"
    )
    return EXIT_OK


def _cmd_correlate(cfg: RunConfig, out: str) -> int:
    params = cfg.params()
    if cfg.n < 1:
        raise ValidationError(
            "zero mode is excluded from correlators (infrared divergence); use n >= 1"
        )
    state = ModeStateSpec()
    lag_steps = round(cfg.dtau_lag / (cfg.d_tau * cfg.record_stride))
    steps = max(2 * lag_steps, lag_steps + round(1.0 / (cfg.d_tau * cfg.record_stride)))
    steps = max(steps * cfg.record_stride, cfg.record_stride)
    ensemble = sde.simulate(
        params, state, cfg.n, cfg.direction,
        d_tau=cfg.d_tau, steps=steps, count=cfg.count,
        seed=cfg.seed, record_stride=cfg.record_stride,
    )
    estimates = [
        observables.correlator_at_lag(ensemble, 0),
        observables.correlator_at_lag(ensemble, lag_steps),
    ]
    rows = observables.correlator_report_rows(params, estimates)
    path = _write(cfg, out, "correlator.txt", observables.format_report(rows).splitlines())
    json_path = Path(out) / "correlator.json"
    json_path.write_text(observables.report_json(rows) + "\n")
    worst = max(abs(r["z_score"]) for r in rows)
    print(f"wrote {path} and {json_path}; max |z| = {worst:.2f}")
    return EXIT_OK


def _cmd_fpe_check(cfg: RunConfig, out: str) -> int:
    params = cfg.params()
    nu = params.diffusion(cfg.n)
    mode_state = StationaryModeState(params, cfg.n, 0)
    mean0, std0 = 1.5, 0.7
    field = fpe.gaussian_field(cfg.x_min, cfg.x_max, cfg.points, mean0, std0)
    evolved = fpe.evolve_fokker_planck(
        field, lambda x: mode_state.forward_drift_array(x)[0], nu, cfg.d_tau, cfg.steps
    )
    state = ModeStateSpec()
    rng_init = lambda rng, size: rng.normal(mean0, std0, size)
    ensemble = sde.simulate(
        params, state, cfg.n, cfg.direction, init=rng_init,
        d_tau=cfg.d_tau, steps=cfg.steps, count=cfg.count, seed=cfg.seed,
        record_stride=cfg.steps,
    )
    distance = fpe.l1_distance_to_samples(evolved, ensemble.sample_at(-1))
    body = [f"l1_distance = {distance!r}"]
    path = _write(cfg, out, "fpe_check.txt", body)
    fpe.export_field(evolved, Path(out) / "fpe_density.txt", header_lines=cfg.header_lines())
    print(f"wrote {path}; L1(histogram, grid density) = {distance:.4f}")
    return EXIT_OK


def _cmd_madelung_check(cfg: RunConfig, out: str) -> int:
    params = cfg.params()
    mode_state = StationaryModeState(params, cfg.n, cfg.k)
    field = fpe.stationary_field(mode_state, cfg.x_min, cfg.x_max, cfg.points)
    energy = mode_state.energy() + cfg.energy_offset
    result = fpe.madelung_residual(field, params, mode_state, energy=energy, detail=True)
    continuity = fpe.continuity_residual(field, params, cfg.n)
    body = [
        f"madelung_residual = {result.max_residual!r}",
        f"node_window_residual = {result.node_window_residual!r}",
        f"excluded_points = {result.excluded_points}",
        f"continuity_residual = {continuity!r}",
        f"energy = {energy!r}",
    ]
    path = _write(cfg, out, "madelung.txt", body)
    print(f"wrote {path}; madelung residual = {result.max_residual:.3e}")
    return EXIT_OK


def _cmd_spectrum(cfg: RunConfig, out: str) -> int:
    params = cfg.params()
    result = observables.level_spectrum(params, cfg.max_level, zeta_intercept=cfg.zeta_intercept)
    if cfg.zeta_intercept:
        levels, intercept = result
    else:
        levels, intercept = result, None
    body = ["level energy_offset degeneracy"]
    body += [f"{lv.level} {lv.energy_offset!r} {lv.degeneracy}" for lv in levels]
    if intercept is not None:
        body.append(f"# zeta_intercept = {intercept!r}")
    path = _write(cfg, out, "spectrum.txt", body)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_anomaly(cfg: RunConfig, out: str) -> int:
    params = cfg.params()
    poly = algebra.anomaly_coefficient(cfg.m, params)
    value = poly.evaluate(cfg.dims, cfg.intercept)
    # Delta_1 and Delta_2 fix (D, a) jointly; Delta_2 needs mode_cutoff >= 4
    modes = (cfg.m,) if cfg.m > 2 else (1, 2) if cfg.mode_cutoff >= 4 else (1,)
    report = algebra.format_anomaly_report(
        [(m, poly if m == cfg.m else algebra.anomaly_coefficient(m, params)) for m in modes]
    )
    body = report.splitlines()
    body.append(f"Delta_{cfg.m}({cfg.dims}, {cfg.intercept}) = {value}")
    path = _write(cfg, out, "anomaly.txt", body)
    print(f"Delta_{cfg.m} = {value}")
    return EXIT_OK


def _cmd_bracket_check(cfg: RunConfig, out: str) -> int:
    params = cfg.params()
    mode_state = StationaryModeState(params, 1, 0)
    field = fpe.stationary_field(mode_state, cfg.x_min, cfg.x_max, cfg.points)
    bracket = algebra.stochastic_bracket(algebra.mean_position(), algebra.mean_momentum(), field)
    operator_side = algebra.bracket_from_commutator(
        algebra.position(1), algebra.momentum(1), field=field
    )
    body = [
        f"stochastic_bracket = {bracket!r}",
        f"commutator_side = {operator_side.real!r}",
        f"difference = {abs(bracket - operator_side.real)!r}",
    ]
    path = _write(cfg, out, "bracket.txt", body)
    print(f"wrote {path}; {{<x>,<p>}}_s = {bracket:.6f}, <[x,p]>/i = {operator_side.real:.6f}")
    return EXIT_OK


def _cmd_transport_check(cfg: RunConfig, out: str) -> int:
    params = cfg.params()
    state = ModeStateSpec()
    ensemble = sde.simulate(
        params, state, cfg.n, cfg.direction,
        d_tau=cfg.d_tau, steps=cfg.steps, count=cfg.count, seed=cfg.seed,
    )
    deviation = sde.transport_derivative_check(
        ensemble, lambda x: x,
        dF=lambda x: np.ones_like(x), d2F=lambda x: np.zeros_like(x),
    )
    body = [f"max_deviation = {deviation!r}"]
    path = _write(cfg, out, "transport.txt", body)
    print(f"wrote {path}; max |D+ x - v+| = {deviation:.4f}")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "correlate": _cmd_correlate,
    "fpe-check": _cmd_fpe_check,
    "madelung-check": _cmd_madelung_check,
    "spectrum": _cmd_spectrum,
    "anomaly": _cmd_anomaly,
    "bracket-check": _cmd_bracket_check,
    "transport-check": _cmd_transport_check,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _merge_config(args)
        cfg.params().validate()
        try:
            return _COMMANDS[args.command](cfg, getattr(args, "out", "."))
        except MemoryError:
            raise ValidationError(
                f"out of memory for count = {cfg.count} trajectories and "
                f"steps = {cfg.steps}; lower -M/--count or --steps"
            ) from None
        except sde.InsufficientSamplesError as exc:
            raise ValidationError(
                f"{exc} with count = {cfg.count} trajectories; raise -M/--count"
            ) from None
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
