import argparse
import contextlib
import shlex
import signal
import sys
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from stochastic_string.algebra.lorentz import MAX_ANOMALY_MODE
from stochastic_string.cli import (
    _COMMANDS, CONFIG_KEYS, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, RunConfig,
    _bind_negative_values, _build_parser, _merge_config, run,
)
from stochastic_string.core import StringParams
from stochastic_string.drift import StationaryModeState
from stochastic_string.observables import MAX_LEVEL

_COMMON = {
    "-h", "--help", "--config", "--alpha-prime", "--dims", "--mode-cutoff", "--seed", "--out",
    "--no-timestamp",
}
# each subcommand's option strings, as the hand-written parser had them
_OPTIONS = {
    "simulate": _COMMON | {
        "--n", "--direction", "--k", "--momentum", "-M", "--count", "--d-tau", "--steps",
        "--record-stride", "--init",
    },
    "correlate": _COMMON | {
        "--n", "--direction", "--dtau-lag", "-M", "--count", "--d-tau", "--record-stride",
    },
    "fpe-check": _COMMON | {
        "--n", "-M", "--count", "--d-tau", "--steps", "--x-min", "--x-max", "--points",
    },
    "madelung-check": _COMMON | {
        "--n", "--k", "--energy-offset", "--x-min", "--x-max", "--points",
    },
    "spectrum": _COMMON | {"--max-level", "--zeta-intercept"},
    "anomaly": _COMMON | {"--m", "--intercept"},
    "bracket-check": _COMMON | {"--x-min", "--x-max", "--points"},
    "transport-check": _COMMON | {"--n", "-M", "--count", "--d-tau", "--steps"},
}


# more values than any array can hold
_HUGE = str(10**30)


class _Overrun(BaseException):
    """Raised by ``_deadline``; not an Exception, so ``run`` cannot turn it into an exit code."""


@contextlib.contextmanager
def _deadline(seconds):
    """Fail the enclosed call if it is still running after ``seconds``."""
    def overrun(signum, frame):
        raise _Overrun(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _option_strings(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {o for a in p._actions for o in a.option_strings} for name, p in sub.choices.items()
    }


def test_flag_table():
    assert _option_strings(_build_parser()) == _OPTIONS


def test_every_run_config_field_is_settable():
    parser = _build_parser()
    options = _option_strings(parser)
    sample = {"int": ["7"], "float": ["0.25"], "str": ["0.5"], "bool": []}
    for f in fields(RunConfig):
        if f.name in ("command", "timestamp"):
            continue
        flag = "--" + f.name.replace("_", "-")
        command = next((c for c, opts in options.items() if flag in opts), None)
        assert command is not None, f"no subcommand sets {f.name}"
        cfg = _merge_config(parser.parse_args([command, flag, *sample[f.type]]))
        assert getattr(cfg, f.name) != getattr(RunConfig(command), f.name), f.name


@pytest.mark.parametrize("argv, name", [
    (["simulate", "--record-stride", "0"], "record_stride"),
    (["simulate", "--record-stride", "-2"], "record_stride"),
    (["simulate", "--record-stride", "-10", "--steps", "10"], "record_stride"),
    (["correlate", "--record-stride", "0"], "record_stride"),
    (["correlate", "--record-stride", "-1"], "record_stride"),
    (["correlate", "--d-tau", "0"], "d_tau"),
    (["correlate", "--dtau-lag", "0.0004"], "dtau_lag"),
    (["correlate", "--dtau-lag", "0.0015"], "dtau_lag"),
    (["correlate", "--dtau-lag", "-1"], "dtau_lag"),
    (["simulate", "--d-tau", "nan"], "d_tau"),
    (["simulate", "--d-tau", "inf"], "d_tau"),
    (["transport-check", "--d-tau", "nan"], "d_tau"),
    (["transport-check", "--d-tau", "inf"], "d_tau"),
    (["fpe-check", "--d-tau", "nan"], "d_tau"),
    (["fpe-check", "--d-tau", "inf"], "d_tau"),
    (["correlate", "--d-tau", "inf"], "d_tau"),
    # finite and positive, but 1 / d_tau, or the lag in recorded columns, overflows
    (["correlate", "--d-tau", "1e-320"], "d_tau"),
    (["correlate", "--d-tau", "1e-10", "--dtau-lag", "1e300"], "dtau_lag"),
])
def test_bad_step_size_exit_code(tmp_path, capsys, argv, name):
    code = run([*argv, "-M", "5", "--out", str(tmp_path), "--no-timestamp"])
    assert code == EXIT_VALIDATION
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (["simulate", "--direction", "99", "-M", "5", "--steps", "5"], "direction = 99"),
    (["simulate", "--direction", "0", "-M", "5", "--steps", "5"], "direction = 0"),
    (["simulate", "--n", "9", "-M", "5", "--steps", "5"], "n = 9"),
    (["simulate", "--n", "0", "--k", "1", "--init", "0.5", "-M", "5", "--steps", "5"], "k = 1"),
    (["correlate", "--n", "9", "--direction", "40", "--d-tau", "0.01", "--dtau-lag", "0.01",
      "-M", "50"], "n = 9"),
    (["madelung-check", "--n", "9", "--k", "1", "--points", "101"], "n = 9"),
    (["madelung-check", "--k", "12", "--points", "101"], "points = 101"),
    (["simulate", "--n", "1", "--momentum", "0.3", "-M", "5", "--steps", "5"], "momentum = 0.3"),
    (["transport-check", "--n", "0", "-M", "5", "--steps", "5"], "n >= 1"),
    (["simulate", "--n", "0", "--init", "nan", "-M", "5", "--steps", "5"],
     "init gives non-finite q_0=nan, trajectory 0"),
    (["simulate", "--n", "0", "--init", "inf", "-M", "5", "--steps", "5"],
     "init gives non-finite q_0=inf, trajectory 0"),
    (["simulate", "--init", "abc", "-M", "5", "--steps", "5"], "init must be"),
    (["fpe-check", "--points", "2", "-M", "5", "--steps", "5"], "points = 2"),
    (["bracket-check", "--points", "2"], "points = 2"),
    (["madelung-check", "--points", "2"], "points = 2"),
    (["bracket-check", "--points", "-1"], "points = -1"),
    (["simulate", "--k", "-1", "-M", "5", "--steps", "5"], "k = -1"),
    # levels above MAX_LEVEL are refused before any work, also above sys.maxsize
    (["spectrum", "--max-level", "1000000000000000000"],
     "max_level = 1000000000000000000; lower --max-level"),
    (["spectrum", "--max-level", str(10 * sys.maxsize)],
     f"max_level = {10 * sys.maxsize}; lower --max-level"),
    (["spectrum", "--max-level", str(MAX_LEVEL + 1)],
     f"max_level = {MAX_LEVEL + 1}; lower --max-level"),
    # k! of the density's normalization overflows a float from k = 171
    (["simulate", "--n", "1", "--k", "171", "-M", "2", "--steps", "2"], "k = 171"),
    (["madelung-check", "--n", "1", "--k", "171", "--points", "101"], "k = 171"),
    # both ends finite, their difference not
    (["bracket-check", "--x-min", "-1e308", "--x-max", "1e308", "--points", "11"],
     "x_min = -1e+308, x_max = 1e+308"),
    (["madelung-check", "--n", "1", "--x-min", "-1e308", "--x-max", "1e308", "--points", "11"],
     "x_min = -1e+308, x_max = 1e+308"),
    (["fpe-check", "--x-min", "-1e308", "--x-max", "1e308", "--points", "11", "-M", "5",
      "--steps", "5"], "x_min = -1e+308, x_max = 1e+308"),
    # the density underflows to 0 all over the grid: no mass to normalize or compare
    (["fpe-check", "-M", "10", "--steps", "2", "--x-min", "100", "--x-max", "101"],
     "x_min = 100.0, x_max = 101.0"),
    (["bracket-check", "--x-min", "100", "--x-max", "101"], "x_min = 100.0, x_max = 101.0"),
    (["madelung-check", "--points", "11", "--x-min", "100", "--x-max", "101"],
     "x_min = 100.0, x_max = 101.0"),
    # a positive density, but below the residual's 1e-200 floor at every interior point
    (["madelung-check", "--points", "11", "--x-min", "37", "--x-max", "38"],
     "x_min = 37.0, x_max = 38.0"),
    # h^2 underflows, so 1/h^2 is not finite
    (["fpe-check", "-M", "10", "--steps", "2", "--x-min", "0", "--x-max", "1e-300"],
     "x_min = 0.0, x_max = 1e-300, points = 401"),
    (["madelung-check", "--x-min", "0", "--x-max", "1e-300"],
     "x_min = 0.0, x_max = 1e-300, points = 401"),
    # h^2 overflows
    (["bracket-check", "--x-min", "0", "--x-max", "1e200", "--points", "41"],
     "x_min = 0.0, x_max = 1e+200, points = 41"),
    (["madelung-check", "--x-min", "-1e308", "--points", "41"],
     "x_min = -1e+308, x_max = 6.0, points = 41"),
    (["fpe-check", "--x-max", "1e200", "--points", "41", "-M", "5", "--steps", "5"],
     "x_min = -6.0, x_max = 1e+200, points = 41"),
    (["correlate", "--n", "0", "-M", "5"], "n = 0"),
    # sizes no machine holds are out of memory, checked before any allocation
    (["simulate", "-M", "2", "--steps", _HUGE],
     f"out of memory for count = 2 and steps = {_HUGE}"),
    (["simulate", "-M", _HUGE, "--steps", "5"],
     f"out of memory for count = {_HUGE} and steps = 5"),
    (["correlate", "-M", _HUGE], f"out of memory for count = {_HUGE}"),
    (["transport-check", "-M", _HUGE, "--steps", "5"],
     f"out of memory for count = {_HUGE} and steps = 5"),
    (["bracket-check", "--points", _HUGE], f"out of memory for points = {_HUGE}"),
    (["fpe-check", "--points", _HUGE, "-M", "5", "--steps", "5"],
     f"out of memory for count = 5 and steps = 5 and points = {_HUGE}"),
    (["madelung-check", "--points", _HUGE], f"out of memory for points = {_HUGE}"),
], ids=[
    "simulate-direction-99", "simulate-direction-0", "simulate-n-9", "simulate-n0-k1",
    "correlate-n-9", "madelung-n-9", "madelung-k12-points-101", "simulate-n1-momentum",
    "transport-n0", "simulate-init-nan", "simulate-init-inf", "simulate-init-abc",
    "fpe-points-2", "bracket-points-2", "madelung-points-2", "bracket-points-negative",
    "simulate-k-negative", "spectrum-max-level-out-of-memory",
    "spectrum-max-level-above-maxsize", "spectrum-max-level-above-bound",
    "simulate-k-171", "madelung-k-171", "bracket-span-overflow", "madelung-span-overflow",
    "fpe-span-overflow", "fpe-grid-without-mass", "bracket-grid-without-mass",
    "madelung-grid-without-mass", "madelung-grid-below-density-floor",
    "fpe-spacing-underflow", "madelung-spacing-underflow", "bracket-spacing-overflow",
    "madelung-spacing-overflow", "fpe-spacing-overflow", "correlate-n-0",
    "simulate-steps-huge", "simulate-count-huge", "correlate-count-huge",
    "transport-count-huge", "bracket-points-huge", "fpe-points-huge", "madelung-points-huge",
])
def test_mode_state_out_of_range_exit_code(tmp_path, capsys, argv, name):
    code = run([*argv, "--out", str(tmp_path), "--no-timestamp"])
    assert code == EXIT_VALIDATION
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("k", [1, 3, 5])
def test_start_on_middle_node_exit_code(tmp_path, capsys, k):
    # H_k is odd for odd k, so q = 0 is exactly a node
    code = run(["simulate", "--n", "1", "--k", str(k), "--init", "0", "-M", "3", "--steps", "3",
                "--out", str(tmp_path), "--no-timestamp"])
    assert code == EXIT_VALIDATION
    assert "drift undefined at q_0=0.0 (density node), trajectory 0" in capsys.readouterr().err


@pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
def test_odd_state_density_vanishes_at_origin(k):
    state = StationaryModeState(StringParams(alpha_prime=0.5, dims=26, mode_cutoff=6), 1, k)
    assert state.density(0.0) == 0.0
    assert 0.0 in state.nodes()


def test_anomaly_command(tmp_path, capsys):
    code = run([
        "anomaly", "--dims", "26", "--intercept", "1", "--m", "1",
        "--out", str(tmp_path), "--no-timestamp",
    ])
    assert code == EXIT_OK
    assert "Delta_1 = 0" in capsys.readouterr().out
    report = (tmp_path / "anomaly.txt").read_text()
    assert "joint solution: D = 26, a = 1" in report


def test_anomaly_noncritical_dimension(tmp_path, capsys):
    code = run([
        "anomaly", "--dims", "25", "--intercept", "1", "--m", "2",
        "--out", str(tmp_path), "--no-timestamp",
    ])
    assert code == EXIT_OK
    assert "Delta_2 = 1/8" in capsys.readouterr().out


def test_anomaly_reads_intercept_as_typed(tmp_path, capsys):
    code = run(["anomaly", "--m", "2", "--intercept", "0.1", "--out", str(tmp_path),
                "--no-timestamp"])
    assert code == EXIT_OK
    assert "Delta_2 = 9/10" in capsys.readouterr().out
    assert "Delta_2(26, 0.1) = 9/10" in (tmp_path / "anomaly.txt").read_text()


def test_anomaly_decimal_alpha_prime(tmp_path):
    from stochastic_string.algebra.lorentz import exact_fraction

    assert exact_fraction(0.37) == Fraction(37, 100)
    for alpha_prime in ("0.37", "0.3", "0.123456", "1e-3", "500001.5"):
        with _deadline(10):
            code = run(["anomaly", "--m", "1", "--alpha-prime", alpha_prime,
                        "--out", str(tmp_path), "--no-timestamp"])
        assert code == EXIT_OK
        assert "Delta_1(D, a) = 2 + -2*a" in (tmp_path / "anomaly.txt").read_text()


def test_anomaly_reads_no_alpha_prime(tmp_path):
    # the generators are built in alpha-normalized oscillators: alpha' does
    # not enter, however many digits it has
    for alpha_prime in ("0.1234567891234567", "1e200"):
        with _deadline(10):
            code = run(["anomaly", "--m", "1", "--alpha-prime", alpha_prime,
                        "--out", str(tmp_path), "--no-timestamp"])
        assert code == EXIT_OK
        assert "Delta_1(D, a) = 2 + -2*a" in (tmp_path / "anomaly.txt").read_text()


def test_anomaly_mode_bound_exit_code(tmp_path, capsys):
    # m is bounded before any generator is built: the time grows as about m^2
    m = MAX_ANOMALY_MODE + 1
    with _deadline(2):
        code = run(["anomaly", "--m", str(m), "--mode-cutoff", str(2 * m),
                    "--out", str(tmp_path), "--no-timestamp"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"must be <= {MAX_ANOMALY_MODE}" in err and f"got m = {m}" in err


@pytest.mark.parametrize("cutoff", [2, 3])
def test_anomaly_first_mode_below_second_mode_cutoff(tmp_path, capsys, cutoff):
    # Delta_1 needs mode_cutoff >= 2; Delta_2 (>= 4) is left out of the report
    code = run([
        "anomaly", "--m", "1", "--mode-cutoff", str(cutoff),
        "--out", str(tmp_path), "--no-timestamp",
    ])
    assert code == EXIT_OK
    assert "Delta_1 = 0" in capsys.readouterr().out
    report = (tmp_path / "anomaly.txt").read_text()
    assert "Delta_1(D, a) = 2 + -2*a" in report
    assert "Delta_2" not in report
    assert "joint solution: underdetermined" in report


def test_anomaly_computes_each_mode_once(tmp_path, monkeypatch):
    from stochastic_string import algebra
    from stochastic_string.algebra import lorentz

    calls = []
    original = lorentz.anomaly_coefficient

    def counted(m, params):
        calls.append(m)
        return original(m, params)

    monkeypatch.setattr(algebra, "anomaly_coefficient", counted)
    monkeypatch.setattr(lorentz, "anomaly_coefficient", counted)
    for m, cutoff, modes in ((1, 4, [1, 2]), (2, 4, [1, 2]), (3, 6, [3])):
        calls.clear()
        assert run([
            "anomaly", "--m", str(m), "--mode-cutoff", str(cutoff),
            "--out", str(tmp_path / str(m)), "--no-timestamp",
        ]) == EXIT_OK
        assert sorted(calls) == modes


def test_algebra_consistency_failure_exit_code(tmp_path, capsys, monkeypatch):
    from stochastic_string.algebra import lorentz
    from stochastic_string.algebra.operators import OperatorExpr
    from stochastic_string.algebra.scalars import ONE

    # equal, not opposite, coefficients on ad_{m,1} a_{m,2} and its partner
    def not_antisymmetric(A, B, words=()):
        return OperatorExpr({w: ONE for w in words})

    monkeypatch.setattr(lorentz, "commutator", not_antisymmetric)
    code = run(["anomaly", "--m", "1", "--out", str(tmp_path), "--no-timestamp"])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure" in err and "not antisymmetric" in err


def test_correlate_rejects_zero_mode(tmp_path, capsys):
    code = run(["correlate", "--n", "0", "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "zero mode" in capsys.readouterr().err


def test_correlate_writes_table(tmp_path, capsys):
    code = run([
        "correlate", "--n", "1", "-M", "20000", "--record-stride", "10",
        "--dtau-lag", "1.0", "--seed", "9", "--out", str(tmp_path), "--no-timestamp",
    ])
    assert code == EXIT_OK
    table = (tmp_path / "correlator.txt").read_text()
    assert "n delta_tau value stderr analytic z_score" in table
    import json
    import math

    rows = json.loads((tmp_path / "correlator.json").read_text())
    assert {"n", "delta_tau", "value", "stderr", "analytic", "z_score"} == set(rows[0])
    lag_row = next(r for r in rows if r["delta_tau"] == 1.0)
    assert lag_row["analytic"] == pytest.approx(math.exp(-1.0))
    assert abs(lag_row["z_score"]) < 3


def test_correlate_needs_two_trajectories(tmp_path, capsys):
    code = run([
        "correlate", "-M", "1", "--d-tau", "0.01", "--dtau-lag", "0.1",
        "--out", str(tmp_path), "--no-timestamp",
    ])
    assert code == EXIT_VALIDATION
    assert "count = 1" in capsys.readouterr().err


def test_fpe_check_oversized_horizon_exit_code(tmp_path, capsys):
    with _deadline(1):
        code = run(["fpe-check", "--d-tau", "1e9", "--steps", "5", "-M", "5",
                    "--out", str(tmp_path), "--no-timestamp"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "d_tau" in err and "steps" in err


def test_unknown_flag_is_validation_error(capsys):
    assert run(["simulate", "--bogus"]) == EXIT_VALIDATION


def test_invalid_params_rejected(tmp_path):
    assert run(["spectrum", "--alpha-prime", "-1", "--out", str(tmp_path)]) == EXIT_VALIDATION


def test_unreadable_config(tmp_path):
    assert run(["spectrum", "--config", str(tmp_path / "nope.cfg")]) == EXIT_VALIDATION


@pytest.mark.parametrize("flags", [
    ["--d-tau", "0.000504", "--steps", "1"],
    ["--d-tau", "0.0004", "--steps", "3"],
])
def test_fpe_check_grid_ends_at_horizon(tmp_path, monkeypatch, flags):
    from stochastic_string import fpe, sde

    grid, paths = [], []
    evolve, simulate = fpe.evolve_fokker_planck, sde.simulate

    def recorded_evolve(field, drift, nu, d_tau, steps):
        grid.append(d_tau * steps)
        return evolve(field, drift, nu, d_tau, steps)

    def recorded_simulate(*args, **kwargs):
        paths.append(kwargs["d_tau"] * kwargs["steps"])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(fpe, "evolve_fokker_planck", recorded_evolve)
    monkeypatch.setattr(sde, "simulate", recorded_simulate)
    code = run([
        "fpe-check", "--n", "1", "-M", "200", *flags,
        "--out", str(tmp_path), "--no-timestamp",
    ])
    assert code == EXIT_OK
    assert grid == paths == [float(flags[1]) * int(flags[3])]


def test_out_of_memory_exit_code(tmp_path, capsys, monkeypatch):
    from stochastic_string import sde

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(sde, "simulate", no_memory)
    code = run([
        "simulate", "--n", "1", "-M", "50", "--steps", "70",
        "--out", str(tmp_path), "--no-timestamp",
    ])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "count = 50" in err and "steps = 70" in err
    # correlate derives its steps from --dtau-lag, takes no --steps and
    # stores no trajectories: only its count sets its memory
    code = run(["correlate", "--dtau-lag", "5", "-M", "5", "--out", str(tmp_path),
                "--no-timestamp"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "count = 5" in err and "steps =" not in err and "--steps" not in err


def test_out_of_memory_names_only_the_commands_flags(tmp_path, capsys, monkeypatch):
    from stochastic_string import fpe

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(fpe, "stationary_field", no_memory)
    code = run(["madelung-check", "--points", "101", "--out", str(tmp_path), "--no-timestamp"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "out of memory for points = 101; lower --points" in err
    assert "--steps" not in err and "-M" not in err and "count" not in err


@pytest.mark.parametrize("argv, name", [
    (["simulate", "--alpha-prime", "inf", "-M", "5", "--steps", "5"], "alpha_prime"),
    # p+ fixes the gauge x+ = p+ tau and no computation reads it: no flag sets
    # it, so a finite or a non-finite --p-plus is refused as an unknown argument
    pytest.param(["simulate", "--p-plus", "1", "-M", "5", "--steps", "5"],
                 "unrecognized arguments: --p-plus", id="argv1-p_plus"),
    (["anomaly", "--alpha-prime", "inf"], "alpha_prime"),
    pytest.param(["anomaly", "--p-plus", "inf"], "unrecognized arguments: --p-plus inf",
                 id="argv3-p_plus"),
    (["anomaly", "--intercept", "inf"], "intercept"),
    (["anomaly", "--intercept", "nan"], "intercept"),
    (["bracket-check", "--x-min", "nan"], "x_min"),
    (["bracket-check", "--x-max", "inf"], "x_max"),
    (["madelung-check", "--x-min", "nan"], "x_min"),
    (["madelung-check", "--k", "1", "--x-min", "nan"], "x_min"),
    (["fpe-check", "--x-min", "nan", "-M", "5", "--steps", "5"], "x_min"),
    (["fpe-check", "--x-max", "inf", "-M", "5", "--steps", "5"], "x_max"),
    (["madelung-check", "--energy-offset", "nan"], "energy_offset"),
    (["madelung-check", "--energy-offset", "inf"], "energy_offset"),
    (["simulate", "--n", "0", "--momentum", "nan", "--init", "0", "-M", "5", "--steps", "5"],
     "momentum"),
    (["simulate", "--n", "0", "--momentum", "inf", "--init", "0", "-M", "5", "--steps", "5"],
     "momentum"),
    (["bracket-check", "--x-min", "-inf"], "x_min"),
    # finite, but 2 alpha' and 4 alpha' overflow
    (["simulate", "--alpha-prime", "1e308", "-M", "5", "--steps", "5"], "alpha_prime"),
    (["correlate", "--alpha-prime", "1e308", "-M", "5"], "alpha_prime"),
    (["transport-check", "--alpha-prime", "1e308", "-M", "5", "--steps", "5"], "alpha_prime"),
    (["fpe-check", "--alpha-prime", "1e308", "-M", "5", "--steps", "5"], "alpha_prime"),
    (["madelung-check", "--alpha-prime", "1e308"], "alpha_prime"),
    (["bracket-check", "--alpha-prime", "1e308"], "alpha_prime"),
])
def test_non_finite_parameter_exit_code(tmp_path, capsys, argv, name):
    code = run([*argv, "--out", str(tmp_path), "--no-timestamp"])
    assert code == EXIT_VALIDATION
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("argv, expected", [
    # 4 alpha' is subnormal, so the oscillator scale sqrt(n / (4 alpha')) is inf
    (["simulate", "--alpha-prime", "5e-324", "-M", "5", "--steps", "5"], EXIT_VALIDATION),
    (["correlate", "--alpha-prime", "5e-324", "-M", "5"], EXIT_VALIDATION),
    (["fpe-check", "--alpha-prime", "5e-324", "-M", "5", "--steps", "5"], EXIT_VALIDATION),
    (["madelung-check", "--alpha-prime", "1e-310"], EXIT_VALIDATION),
    (["bracket-check", "--alpha-prime", "1e-310"], EXIT_VALIDATION),
    # the lag products' squares overflow (1e200) or underflow (1e-200), so the
    # standard error is inf or 0 and no z-score means anything
    (["correlate", "--alpha-prime", "1e200", "-M", "5"], EXIT_NUMERICAL),
    (["correlate", "--alpha-prime", "1e-200", "-M", "5"], EXIT_NUMERICAL),
    # the ground-state width sqrt(2 alpha') is far below the grid spacing 0.3
    (["bracket-check", "--alpha-prime", "1e-300", "--points", "41"], EXIT_VALIDATION),
    (["madelung-check", "--alpha-prime", "1e-300", "--points", "41"], EXIT_VALIDATION),
    # the drift -q of amplitudes sqrt(2 alpha') ~ 1e75 is clamped at every step
    (["correlate", "--alpha-prime", "1e150", "-M", "5"], EXIT_NUMERICAL),
    (["transport-check", "--alpha-prime", "1e150", "-M", "200", "--steps", "5"], EXIT_NUMERICAL),
    # the Fokker-Planck sub-step count grows as the diffusion 2 alpha' over h^2
    (["fpe-check", "--alpha-prime", "1e150", "-M", "5", "--steps", "5"], EXIT_VALIDATION),
], ids=lambda v: "-".join(v[:3:2]) if isinstance(v, list) else f"exit{v}")
def test_alpha_prime_past_float_range_exit_code(tmp_path, capsys, argv, expected):
    code = run([*argv, "--out", str(tmp_path), "--no-timestamp"])
    assert code == expected
    captured = capsys.readouterr()
    assert "alpha_prime" in captured.err
    assert "wrote" not in captured.out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("points, expected", [(33, EXIT_OK), (32, EXIT_VALIDATION)])
def test_width_against_grid_spacing(tmp_path, capsys, points, expected):
    # n = 1 at alpha' = 1/8 has width sqrt(2 alpha') = 1/2, the spacing of 33
    # points on [-8, 8], where the bracket is still exact to six digits
    code = run(["bracket-check", "--alpha-prime", "0.125", "--x-min", "-8", "--x-max", "8",
                "--points", str(points), "--out", str(tmp_path), "--no-timestamp"])
    assert code == expected
    captured = capsys.readouterr()
    if expected == EXIT_OK:
        assert "{<x>,<p>}_s = 1.000000" in captured.out
    else:
        assert "alpha_prime = 0.125" in captured.err and "points = 32" in captured.err


_EDGE_FLOATS = ["nan", "inf", "-inf", "1e308", "-1e308", "1e200", "-1e200", "5e-324", "-0.0", "0"]
# the size flags of a sweep run, each given where its command takes it
_SWEEP_SIZES = {"count": ["-M", "5"], "steps": ["--steps", "5"], "points": ["--points", "41"],
                "m": ["--m", "1"]}


def _float_fields():
    types = {f.name: f.type for f in fields(RunConfig)}
    return [
        (command, name)
        for command, (_, _, names) in _COMMANDS.items()
        for name in (*CONFIG_KEYS, *names.split())
        if types[name] == "float"
    ]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", _EDGE_FLOATS)
@pytest.mark.parametrize("command, name", _float_fields())
def test_float_edge_value_ends_in_exit_code(tmp_path, command, name, value):
    # every float field of every command at the edges of the float range:
    # the run ends in a documented exit code, never an exception out of run,
    # and no numpy RuntimeWarning escapes it
    taken = _COMMANDS[command][2].split()
    sizes = [arg for field, args in _SWEEP_SIZES.items() if field in taken for arg in args]
    flag = "--" + name.replace("_", "-")
    with _deadline(20):
        code = run([command, flag, value, *sizes, "--out", str(tmp_path), "--no-timestamp"])
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL)


def test_zero_mode_momentum_memory_independent_of_dims(tmp_path):
    # the momentum of one direction is stored, not one component per direction
    tracemalloc.start()
    try:
        code = run([
            "simulate", "--n", "0", "--momentum", "0.3", "--init", "0", "-M", "2", "--steps", "2",
            "--dims", "10000000", "--out", str(tmp_path), "--no-timestamp",
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    # D - 2 stored components would take 80 MB at this D
    assert peak < 10e6


@pytest.mark.parametrize("argv, name, value", [
    (["bracket-check", "--x-min", "-1e1", "--points", "41"], "x_min", -10.0),
    (["madelung-check", "--energy-offset", "-1e-3", "--points", "101"], "energy_offset", -1e-3),
    (["anomaly", "--intercept", "-1e0"], "intercept", -1.0),
    (["simulate", "--n", "0", "--momentum", "-2.5e0", "--init", "0", "-M", "5", "--steps", "5"],
     "momentum", -2.5),
    (["simulate", "--init", "-1e-1", "-M", "5", "--steps", "5"], "init", "-1e-1"),
])
def test_negative_value_as_separate_token(tmp_path, argv, name, value):
    # argparse alone reads -1e1 or -inf after a flag as a flag of its own
    code = run([*argv, "--out", str(tmp_path), "--no-timestamp"])
    assert code == EXIT_OK
    (artifact,) = tmp_path.glob("*.txt")
    assert getattr(RunConfig.from_header(artifact), name) == value


def test_too_small_ensemble_exit_code(tmp_path, capsys):
    code = run([
        "transport-check", "--n", "1", "-M", "50", "--steps", "5",
        "--out", str(tmp_path), "--no-timestamp",
    ])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "occupancy" in err and "count = 50" in err and "-M" in err


def test_spectrum_output(tmp_path):
    code = run([
        "spectrum", "--max-level", "2", "--zeta-intercept",
        "--out", str(tmp_path), "--no-timestamp",
    ])
    assert code == EXIT_OK
    body = (tmp_path / "spectrum.txt").read_text()
    assert "0 0.0 1" in body and "1 1.0 24" in body and "2 2.0 324" in body
    assert body.endswith("\n# zeta_intercept = 1.0\n")


def test_spectrum_time_independent_of_dims(tmp_path):
    with _deadline(2):
        code = run(["spectrum", "--dims", "1000000000000", "--max-level", "3",
                    "--out", str(tmp_path), "--no-timestamp"])
    assert code == EXIT_OK
    assert "\n1 1.0 999999999998\n" in (tmp_path / "spectrum.txt").read_text()


@pytest.mark.parametrize("dims, max_level", [
    ("1000000000000", "1000"), ("1000000000000", "116"), ("1" + "0" * 100, "100"),
])
def test_spectrum_work_bound_exit_code(tmp_path, capsys, dims, max_level):
    # max_level * log10(D - 2) is held to its value at D = 26 and MAX_LEVEL
    # before any work: D = 10^12 at level 1000 took 49 s, and the degeneracies
    # of D = 10^100 at level 100 had too many digits to print
    with _deadline(2):
        code = run(["spectrum", "--dims", dims, "--max-level", max_level,
                    "--out", str(tmp_path), "--no-timestamp"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"dims = {dims}, max_level = {max_level}; lower --dims or --max-level" in err


@pytest.mark.parametrize("dims, max_level", [
    ("100", "693"), ("1000", "460"), ("1000000", "230"), ("1000000000000", "115"),
])
def test_spectrum_work_bound_admits_its_edge(tmp_path, dims, max_level):
    # the largest max_level with max_level * log10(D - 2) under 1000 * log10(24);
    # each pass takes well under the 1 s of D = 26 at level 1000
    with _deadline(5):
        code = run(["spectrum", "--dims", dims, "--max-level", max_level,
                    "--out", str(tmp_path), "--no-timestamp"])
    assert code == EXIT_OK


def test_bracket_check(tmp_path, capsys):
    code = run(["bracket-check", "--points", "1001", "--out", str(tmp_path), "--no-timestamp"])
    assert code == EXIT_OK
    assert "1.000" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--x-min", "0"], ["--alpha-prime", "100", "--points", "41"],
    ["--alpha-prime", "1", "--points", "41"],
], ids=lambda v: "-".join(v[:2]))
def test_bracket_density_at_grid_end_exit_code(tmp_path, capsys, argv):
    # the bracket drops the end terms [rho dS]: these grids end where the
    # density is 1, 0.91 and 1.2e-4 of its peak, and read 0.5, 0.019 and 0.99956
    code = run(["bracket-check", *argv, "--out", str(tmp_path), "--no-timestamp"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "x_min" in err and "x_max" in err and "alpha_prime" in err
    assert not list(tmp_path.iterdir())


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("alpha_prime = 0.5\ndims = 10\nmode_cutoff = 2\nseed = 4\n")
    out = tmp_path / "out"
    code = run([
        "spectrum", "--config", str(cfg), "--dims", "26", "--max-level", "1",
        "--out", str(out), "--no-timestamp",
    ])
    assert code == EXIT_OK
    header = (out / "spectrum.txt").read_text()
    assert "config.dims = 26" in header  # flag wins
    assert "config.seed = 4" in header   # file value survives


def test_config_file_sets_every_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment\nalpha_prime = 0.25\n\ndims = 10\nmode_cutoff = 3\nseed = 99\n"
    )
    assert run(["spectrum", "--config", str(cfg), "--out", str(tmp_path),
                "--no-timestamp"]) == EXIT_OK
    read = RunConfig.from_header(tmp_path / "spectrum.txt")
    assert read.params() == StringParams(alpha_prime=0.25, dims=10, mode_cutoff=3)
    assert read.seed == 99


@pytest.mark.parametrize("text, message", [
    ("alpha = 1\n", "config line 1: unknown key 'alpha'"),
    ("# comment\n\ndims 26\n", "config line 3: unknown key 'dims 26'"),
    ("seed = 1e3\n", "config line 1: seed = '1e3' is not a valid int"),
    ("dims = 26\nalpha_prime = x\n", "config line 2: alpha_prime = 'x' is not a valid float"),
    ("alpha_prime = -2\n", "alpha_prime must be finite and positive, got -2.0"),
    ("dims = 26\np_plus = 1.0\n", "config line 2: unknown key 'p_plus'"),
], ids=["unknown-key", "malformed-line", "seed-not-int", "alpha-prime-not-float",
        "alpha-prime-negative", "retired-p-plus"])
def test_bad_config_file_exit_code(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code = run(["spectrum", "--config", str(cfg), "--out", str(tmp_path), "--no-timestamp"])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err


def test_config_file_value_overridden_by_flag(tmp_path):
    # the merged config is validated once, so a flag can mend a bad file value
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha_prime = -2\n")
    code = run(["spectrum", "--config", str(cfg), "--alpha-prime", "0.5", "--out", str(tmp_path),
                "--no-timestamp"])
    assert code == EXIT_OK


def test_header_round_trips_to_config(tmp_path):
    out = tmp_path / "run"
    assert run([
        "madelung-check", "--n", "2", "--k", "1", "--points", "801",
        "--out", str(out), "--no-timestamp",
    ]) == EXIT_OK
    cfg = RunConfig.from_header(out / "madelung.txt")
    assert cfg.command == "madelung-check"
    assert cfg.n == 2 and cfg.k == 1 and cfg.points == 801
    assert cfg.timestamp is False
    # rerunning the parsed config reproduces the artifact byte for byte
    out2 = tmp_path / "rerun"
    assert run([
        "madelung-check", "--n", str(cfg.n), "--k", str(cfg.k),
        "--points", str(cfg.points), "--out", str(out2), "--no-timestamp",
    ]) == EXIT_OK
    assert (out / "madelung.txt").read_bytes() == (out2 / "madelung.txt").read_bytes()


def test_header_with_retired_grid_d_tau_line(tmp_path):
    # artifacts written before the FPE step count became internal carry
    # a config.grid_d_tau line; reading them still gives the run's config
    assert run([
        "fpe-check", "--n", "1", "-M", "200", "--steps", "5",
        "--out", str(tmp_path), "--no-timestamp",
    ]) == EXIT_OK
    path = tmp_path / "fpe_check.txt"
    cfg = RunConfig.from_header(path)
    text = path.read_text()
    old = text.replace("# config.m = ", "# config.grid_d_tau = 0.0\n# config.m = ")
    assert old != text
    path.write_text(old)
    assert RunConfig.from_header(path) == cfg
    assert cfg.command == "fpe-check" and cfg.steps == 5 and cfg.count == 200


def test_header_with_retired_p_plus_line(tmp_path):
    # artifacts written while p+ was a setting carry a config.p_plus line;
    # the config read from them reruns to the same artifact without it
    assert run(["bracket-check", "--points", "201", "--out", str(tmp_path),
                "--no-timestamp"]) == EXIT_OK
    text = (tmp_path / "bracket.txt").read_text()
    old = text.replace("# config.seed = ", "# config.p_plus = 1.0\n# config.seed = ")
    assert old != text
    (tmp_path / "old.txt").write_text(old)
    cfg = RunConfig.from_header(tmp_path / "old.txt")
    assert cfg == RunConfig.from_header(tmp_path / "bracket.txt")
    rerun = tmp_path / "rerun"
    assert _COMMANDS[cfg.command][0](cfg, str(rerun)) == EXIT_OK
    assert (rerun / "bracket.txt").read_text() == text


def test_simulate_byte_identical_reruns(tmp_path):
    args = [
        "simulate", "--n", "1", "--direction", "1", "-M", "50", "--steps", "20",
        "--seed", "123", "--no-timestamp",
    ]
    assert run(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert run(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
    a = (tmp_path / "a" / "ensemble.txt").read_bytes()
    b = (tmp_path / "b" / "ensemble.txt").read_bytes()
    assert a == b


def test_simulate_zero_mode_with_numeric_init(tmp_path, capsys):
    code = run([
        "simulate", "--n", "0", "--direction", "2", "--momentum", "1.5",
        "--init", "0.0", "-M", "20", "--steps", "10", "--seed", "8",
        "--out", str(tmp_path), "--no-timestamp",
    ])
    assert code == EXIT_OK
    assert (tmp_path / "ensemble.txt").exists()


def test_simulate_zero_mode_needs_numeric_init(tmp_path, capsys):
    code = run([
        "simulate", "--n", "0", "-M", "5", "--steps", "5",
        "--out", str(tmp_path), "--no-timestamp",
    ])
    assert code == EXIT_VALIDATION
    assert "stationary density" in capsys.readouterr().err


def test_transport_check_runs(tmp_path, capsys):
    code = run([
        "transport-check", "--n", "1", "-M", "20000", "--steps", "60",
        "--seed", "3", "--out", str(tmp_path), "--no-timestamp",
    ])
    assert code == EXIT_OK
    assert "transport.txt" in capsys.readouterr().out


def test_transport_check_memory_independent_of_steps(tmp_path, monkeypatch):
    from stochastic_string import sde

    # a small noise buffer, so the ensemble would dominate if it were stored;
    # it is drawn in blocks of _NOISE_VALUES // _CHUNK = 128 steps for the
    # one chunk of each count, so it is the same size at both step counts
    monkeypatch.setattr(sde, "_NOISE_VALUES", 2**19)
    for command, count in (("transport-check", "2000"), ("fpe-check", "1400")):
        peaks = []
        for steps in (400, 3200):
            tracemalloc.start()
            try:
                code = run([
                    command, "--n", "1", "-M", count, "--steps", str(steps),
                    "--out", str(tmp_path), "--no-timestamp",
                ])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK
        # a stored (count, steps + 1) ensemble would add 31 MB (fpe-check) or
        # 45 MB (transport-check) at 3200 steps
        assert abs(peaks[1] - peaks[0]) < 1e6, command


@pytest.mark.parametrize("count, lag", [("2", "1e4"), ("5", "1e300")])
def test_correlate_lag_ring_over_budget_exit_code(tmp_path, capsys, count, lag):
    # 10^7 and about 10^303 recorded columns of lag: a chunk of one trajectory
    # would still hold more than the 2^22 values of its budget
    with _deadline(5):
        code = run(["correlate", "-M", count, "--dtau-lag", lag,
                    "--out", str(tmp_path), "--no-timestamp"])
    assert code == EXIT_VALIDATION
    assert "dtau_lag" in capsys.readouterr().err


def test_readme_command_lines_parse():
    # every example of the README's command-line block names a subcommand
    # and flags that the parser takes, and every subcommand has one
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("stochastic-string ")]
    parser = _build_parser()
    commands = [parser.parse_args(_bind_negative_values(argv[1:])).command for argv in lines]
    assert sorted(commands) == sorted(_COMMANDS)


def test_correlate_memory_independent_of_steps(tmp_path, monkeypatch):
    from stochastic_string import sde

    # a small noise buffer, so a stored ensemble would dominate; 1000
    # trajectories exceed the 648 whose lag ring of 101 columns fits it at
    # lag 1 (163 with 401 columns at lag 4), so the chunks, and with them the
    # lag ring buffer, narrow as the lag grows: 2 of 500, then 7 of 143
    monkeypatch.setattr(sde, "_NOISE_VALUES", 2**16)
    peaks = []
    for lag in ("1", "4"):  # 200 and 800 steps of 0.01
        tracemalloc.start()
        try:
            code = run([
                "correlate", "--n", "1", "-M", "1000", "--d-tau", "0.01", "--dtau-lag", lag,
                "--out", str(tmp_path), "--no-timestamp",
            ])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
    # a stored (1000, steps + 1) ensemble would add 4.8 MB at 800 steps
    assert abs(peaks[1] - peaks[0]) < 1e6
