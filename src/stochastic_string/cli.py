"""Batch front-end: subcommands orchestrating the engine modules.

Every subcommand takes ``--config FILE``, ``--out DIR``, ``--no-timestamp``
and the four common fields (``alpha_prime``, ``dims``, ``mode_cutoff``,
``seed``), plus the RunConfig fields listed in its
``_COMMANDS`` row. A field's flag is its name with dashes (``--d-tau``);
``-M`` is ``--count``. Every run writes columnar text artifacts whose
header embeds the full run configuration as ``# key = value`` lines;
parsing the header back yields a RunConfig that reproduces the run
byte-for-byte (the timestamp line is suppressible for that purpose).
Exit codes: 0 success, 1 validation error or out of memory, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, algebra, fpe, observables, sde
from .core import ModeStateSpec, StringParams, ValidationError, write_artifact
from .drift import StationaryModeState

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

# the fields a --config file may set, each also a flag of every subcommand
CONFIG_KEYS = ("alpha_prime", "dims", "mode_cutoff", "seed")
# text -> value for each RunConfig field type: argparse values, config files and header lines
_FROM_TEXT = {"int": int, "float": float, "str": str, "bool": "True".__eq__}


@dataclass
class RunConfig:
    """Flat, fully serializable record of one CLI run."""

    command: str
    alpha_prime: float = 0.5
    dims: int = 26
    mode_cutoff: int = 4
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
        return StringParams(**{f.name: getattr(self, f.name) for f in fields(StringParams)})

    def header_lines(self) -> list[str]:
        lines = [f"config.{f.name} = {getattr(self, f.name)!r}" for f in fields(self)]
        if self.timestamp:
            lines.append(f"timestamp = {datetime.now(timezone.utc).isoformat()}")
        return lines

    @staticmethod
    def from_header(path: str | Path) -> "RunConfig":
        values: dict[str, str] = {}
        for raw in Path(path).read_text().splitlines():
            if raw.startswith("# config."):
                key, _, val = raw[len("# config.") :].partition(" = ")
                values[key.strip()] = val.strip().strip("'\"")
        return RunConfig(**{
            f.name: _FROM_TEXT[f.type](values[f.name])
            for f in fields(RunConfig) if f.name in values
        })

    @staticmethod
    def config_file_values(path: str | Path) -> dict[str, object]:
        """``key = value`` lines of a config file, each typed as its field.

        Blank and ``#`` lines are skipped. A key outside ``CONFIG_KEYS`` or a
        value not of its field's type is a ValidationError naming the line;
        the values are validated with the run's config, after the flags.
        """
        types = {f.name: f.type for f in fields(RunConfig)}
        values: dict[str, object] = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, text = (part.strip() for part in line.partition("="))
            if key not in CONFIG_KEYS:
                raise ValidationError(f"config line {lineno}: unknown key {key!r}, "
                                      f"not one of {', '.join(CONFIG_KEYS)}")
            try:
                values[key] = _FROM_TEXT[types[key]](text)
            except ValueError:
                raise ValidationError(
                    f"config line {lineno}: {key} = {text!r} is not a valid {types[key]}"
                ) from None
        return values


class _Parser(argparse.ArgumentParser):
    # unknown flags and malformed values are configuration mistakes: exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


_HELP = {
    "k": "occupation of the simulated mode",
    "momentum": "zero-mode momentum",
    "init": '"stationary" or a number',
}


# built once per process: parsing leaves the parser unchanged
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stochastic-string", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    types = {f.name: f.type for f in fields(RunConfig)}

    def add_fields(p, names):
        for name in names:
            flags = ("-M",) * (name == "count") + ("--" + name.replace("_", "-"),)
            kind = types[name]
            how = {"action": "store_true"} if kind == "bool" else {"type": _FROM_TEXT[kind]}
            p.add_argument(*flags, **how, help=_HELP.get(name))

    for command, (_, text, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="key = value parameter file")
        add_fields(p, CONFIG_KEYS)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--no-timestamp", action="store_true")
        add_fields(p, names.split())
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(
        command=args.command, timestamp=not args.no_timestamp,
        **(RunConfig.config_file_values(args.config) if args.config else {}),
    )
    for f in fields(RunConfig):
        if getattr(args, f.name, None) is not None:
            setattr(cfg, f.name, getattr(args, f.name))
    return cfg


def _write(cfg: RunConfig, out_dir: str, name: str, body_lines: list[str]) -> Path:
    return write_artifact(Path(out_dir) / name, cfg.header_lines(), [s + "\n" for s in body_lines])


def _mode_state_spec(cfg: RunConfig) -> ModeStateSpec:
    occupations = {(cfg.n, cfg.direction): cfg.k} if cfg.k else {}
    if cfg.momentum and cfg.n != 0:
        raise ValidationError(
            f"momentum = {cfg.momentum} needs the zero mode n = 0, got n = {cfg.n}"
        )
    momentum = {cfg.direction: cfg.momentum} if cfg.momentum else {}
    return ModeStateSpec(occupations=occupations, zero_mode_momentum=momentum)


def _unclamped(ensemble: sde.Ensemble) -> sde.Ensemble:
    """``ensemble`` of a ground-state run, or a numerical failure if any of its
    drift evaluations was clamped: the exact drift -n q is then not the one
    the run followed, so no comparison with it means anything."""
    if ensemble.clamp_events:
        raise RuntimeError(
            f"{ensemble.clamp_events} drift evaluations were clamped at alpha_prime = "
            f"{ensemble.state.params.alpha_prime}: the ground-state drift -n q passed "
            "the cap, so the run is not the process its reference describes"
        )
    return ensemble


def _cmd_simulate(cfg: RunConfig, out: str) -> int:
    params = cfg.params()
    state = _mode_state_spec(cfg)
    try:
        init = cfg.init if cfg.init == "stationary" else float(cfg.init)
    except ValueError:
        raise ValidationError(f'init must be "stationary" or a number, got {cfg.init!r}') from None
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
    state = ModeStateSpec()
    lag_steps = observables.recorded_lag(cfg.dtau_lag, cfg.d_tau * cfg.record_stride)
    steps = max(2 * lag_steps, lag_steps + round(1.0 / (cfg.d_tau * cfg.record_stride)))
    steps = max(steps * cfg.record_stride, cfg.record_stride)
    # lag products summed inside the Euler loop: only the end points are stored
    products = observables.LagProducts(
        sde._resolve_state(params, state, cfg.n, cfg.direction),
        cfg.d_tau, cfg.record_stride, [0, lag_steps],
    )
    _unclamped(sde.simulate(
        params, state, cfg.n, cfg.direction,
        d_tau=cfg.d_tau, steps=steps, count=cfg.count, seed=cfg.seed,
        record_stride=steps, observe=products,
    ))
    estimates = [products.estimate(0), products.estimate(lag_steps)]
    rows = observables.correlator_report_rows(params, estimates)
    path = _write(cfg, out, "correlator.txt", observables.format_report(rows).splitlines())
    json_path = write_artifact(
        Path(out) / "correlator.json", (), [observables.report_json(rows) + "\n"]
    )
    worst = max(abs(r["z_score"]) for r in rows)
    print(f"wrote {path} and {json_path}; max |z| = {worst:.2f}")
    return EXIT_OK


def _cmd_fpe_check(cfg: RunConfig, out: str) -> int:
    params = cfg.params()
    state = ModeStateSpec()
    mode_state = sde._resolve_state(params, state, cfg.n, cfg.direction)
    mean0, std0 = 1.5, 0.7
    field = fpe.gaussian_field(cfg.x_min, cfg.x_max, cfg.points, mean0, std0)
    drift = lambda x: mode_state.forward_drift_array(x)[0]
    evolved = fpe.evolve_fokker_planck(field, drift, mode_state.nu, cfg.d_tau, cfg.steps)
    # the reflecting walls fold back the tail mass T that the free SDE carries past
    # an end, which moves the L1 distance by about 2T = 0.8 r / sqrt(2 ln(1/r)) for
    # an end-to-peak ratio r: 5.7e-3 at r = 0.02, so that with the 0.013 noise of a
    # -M 100000 histogram a correct solver stays under the 0.02 target
    fpe.check_ends(evolved, 0.02)
    rng_init = lambda rng, size: rng.normal(mean0, std0, size)
    ensemble = _unclamped(sde.simulate(
        params, state, cfg.n, cfg.direction, init=rng_init,
        d_tau=cfg.d_tau, steps=cfg.steps, count=cfg.count, seed=cfg.seed,
        record_stride=cfg.steps,
    ))
    distance = fpe.l1_distance_to_samples(evolved, ensemble.sample_at(-1))
    body = [f"l1_distance = {distance!r}"]
    path = _write(cfg, out, "fpe_check.txt", body)
    fpe.export_field(evolved, Path(out) / "fpe_density.txt", header_lines=cfg.header_lines())
    print(f"wrote {path}; L1(histogram, grid density) = {distance:.4f}")
    return EXIT_OK


def _cmd_madelung_check(cfg: RunConfig, out: str) -> int:
    params = cfg.params()
    if not math.isfinite(cfg.energy_offset):
        raise ValidationError(f"energy_offset must be finite, got {cfg.energy_offset}")
    mode_state = sde._resolve_state(params, _mode_state_spec(cfg), cfg.n, cfg.direction)
    field = fpe.stationary_field(mode_state, cfg.x_min, cfg.x_max, cfg.points)
    energy = mode_state.energy() + cfg.energy_offset
    result = fpe.madelung_residual(field, mode_state, energy=energy)
    continuity = fpe.continuity_residual(field, mode_state)
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
    levels = observables.level_spectrum(params, cfg.max_level)
    body = ["level energy_offset degeneracy"]
    body += [f"{lv.level} {lv.energy_offset!r} {lv.degeneracy}" for lv in levels]
    if cfg.zeta_intercept:
        body.append(f"# zeta_intercept = {observables.zeta_intercept(params)!r}")
    path = _write(cfg, out, "spectrum.txt", body)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_anomaly(cfg: RunConfig, out: str) -> int:
    params = cfg.params()
    if not math.isfinite(cfg.intercept):
        raise ValidationError(f"intercept must be finite, got {cfg.intercept}")
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
    bracket = algebra.stochastic_bracket(field)
    operator_side = float(algebra.bracket_from_commutator(algebra.position(1), algebra.momentum(1)))
    body = [
        f"stochastic_bracket = {bracket!r}",
        f"commutator_side = {operator_side!r}",
        f"difference = {abs(bracket - operator_side)!r}",
    ]
    path = _write(cfg, out, "bracket.txt", body)
    print(f"wrote {path}; {{<x>,<p>}}_s = {bracket:.6f}, <[x,p]>/i = {operator_side:.6f}")
    return EXIT_OK


def _cmd_transport_check(cfg: RunConfig, out: str) -> int:
    params = cfg.params()
    if cfg.n < 1:
        raise ValidationError(
            f"transport-check needs a mode n >= 1, got n = {cfg.n}: "
            "the zero mode has no stationary density to start from"
        )
    state = ModeStateSpec()
    mode_state = sde._resolve_state(params, state, cfg.n, cfg.direction)
    # binned inside the Euler loop: only the end points are stored
    bins = sde.transport_bins(mode_state, lambda x: x, cfg.d_tau)
    _unclamped(sde.simulate(
        params, state, cfg.n, cfg.direction,
        d_tau=cfg.d_tau, steps=cfg.steps, count=cfg.count, seed=cfg.seed,
        record_stride=cfg.steps, observe=bins,
    ))
    deviation = sde.transport_deviation(bins, mode_state, np.ones_like, np.zeros_like)
    body = [f"max_deviation = {deviation!r}"]
    path = _write(cfg, out, "transport.txt", body)
    print(f"wrote {path}; max |D+ x - v+| = {deviation:.4f}")
    return EXIT_OK


# name: (handler, help, RunConfig fields settable beyond the common four)
_COMMANDS = {
    "simulate": (_cmd_simulate, "run a mode-amplitude ensemble",
                 "n direction k momentum count d_tau steps record_stride init"),
    "correlate": (_cmd_correlate, "two-point mode correlator vs analytic decay",
                  "n direction dtau_lag count d_tau record_stride"),
    "fpe-check": (_cmd_fpe_check, "SDE histogram vs Fokker-Planck density",
                  "n count d_tau steps x_min x_max points"),
    "madelung-check": (_cmd_madelung_check, "Madelung and continuity residuals",
                       "n k energy_offset x_min x_max points"),
    "spectrum": (_cmd_spectrum, "oscillator level degeneracies", "max_level zeta_intercept"),
    "anomaly": (_cmd_anomaly, "Lorentz anomaly polynomial and solution set", "m intercept"),
    "bracket-check": (_cmd_bracket_check, "stochastic bracket vs commutator", "x_min x_max points"),
    "transport-check": (_cmd_transport_check, "forward transport derivative residual",
                        "n count d_tau steps"),
}


def _bind_negative_values(argv: list[str]) -> list[str]:
    """``--flag -1e1`` as ``--flag=-1e1``: argparse alone reads a number such
    as ``-1e1`` or ``-inf`` after a flag that takes a value as another flag."""
    takes_value = {"-M", "--config", "--out"} | {
        "--" + f.name.replace("_", "-") for f in fields(RunConfig) if f.type != "bool"
    }
    bound: list[str] = []
    for token in argv:
        if bound and bound[-1] in takes_value and token.startswith("-") and _is_number(token):
            bound[-1] += "=" + token
        else:
            bound.append(token)
    return bound


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_bind_negative_values(sys.argv[1:] if argv is None else argv))
        cfg = _merge_config(args)
        cfg.params().validate()
        try:
            return _COMMANDS[args.command][0](cfg, args.out)
        except MemoryError:
            # name only the size fields the command takes, with their flags
            taken = _COMMANDS[cfg.command][2].split()
            sizes = [f for f in ("count", "steps", "points") if f in taken]
            message = "out of memory"
            if sizes:
                message += " for " + " and ".join(f"{f} = {getattr(cfg, f)}" for f in sizes)
                flags = ("-M/--count" if f == "count" else "--" + f.replace("_", "-")
                         for f in sizes)
                message += "; lower " + " or ".join(flags)
            raise ValidationError(message) from None
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
