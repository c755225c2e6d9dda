"""Tests of the benchmark's own references, checks and tracing.

    python3 -m pytest bench
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import reference
import spans
import workloads

SMALL = {
    "simulate_export": {"count": 40, "steps": 100},
    "transport_check": {"count": 2000, "steps": 100},
    "relaxation": {
        "count": 2000, "steps": 200, "points": 201,
        "excited_points": 101, "excited_steps": 100,
    },
    "exact_checks": {"anomaly_modes": (1, 2), "direct_m": 1, "points": 2001, "max_level": 4},
}


def run_ops(ops):
    """(name, problems) of each operation that ran, and names of those that raised."""
    checked, failed = [], []
    for op in ops:
        try:
            value = op.run()
        except Exception:
            failed.append(op.name)
            continue
        checked.append((op.name, op.check(value)))
    return checked, failed


# ---------------------------------------------------------------- references

def test_anomaly_formula_known_polynomials():
    assert reference.anomaly_coefficients(1) == {(0, 0): 2, (0, 1): -2}
    assert reference.anomaly_coefficients(2) == {
        (0, 0): Fraction(17, 4), (1, 0): Fraction(-1, 8), (0, 1): -1,
    }
    assert reference.anomaly_coefficients(3) == {
        (0, 0): Fraction(58, 9), (1, 0): Fraction(-2, 9), (0, 1): Fraction(-2, 3),
    }
    for m in range(1, 7):
        assert reference.anomaly_formula(m, 26, 1) == 0
    assert reference.anomaly_formula(1, 26, 0) == 2


def test_ou_density_limits_and_fokker_planck_equation():
    x = np.linspace(-8.0, 8.0, 3201)
    h = x[1] - x[0]
    start = reference.ou_density(x, 1.5, 0.49, 1, 0.5, 0.0)
    assert start == pytest.approx(np.exp(-0.5 * (x - 1.5) ** 2 / 0.49) / math.sqrt(2 * math.pi * 0.49))
    late = reference.ou_density(x, 1.5, 0.49, 2, 0.5, 50.0)
    assert late == pytest.approx(np.exp(-x**2) / math.sqrt(math.pi))  # variance 2 alpha'/n = 1/2
    assert reference.ou_density(0.0, 0.0, 1.0, 1, 0.5, 0.3) == pytest.approx(1 / math.sqrt(2 * math.pi))

    # d rho / d tau = d(n x rho)/dx + nu d2 rho/dx2 with nu = 2 alpha'
    n, alpha_prime, tau, dt = 2, 0.5, 0.4, 1e-6
    rho = reference.ou_density(x, 1.5, 0.49, n, alpha_prime, tau)
    d_tau = (
        reference.ou_density(x, 1.5, 0.49, n, alpha_prime, tau + dt)
        - reference.ou_density(x, 1.5, 0.49, n, alpha_prime, tau - dt)
    ) / (2 * dt)
    rhs = np.gradient(n * x * rho, h) + 2 * alpha_prime * np.gradient(np.gradient(rho, h), h)
    assert np.max(np.abs(d_tau - rhs)[5:-5]) < 1e-3
    assert rho.sum() * h == pytest.approx(1.0, abs=1e-12)


def test_level_degeneracies_generating_function():
    assert reference.level_degeneracies(5) == [1, 24, 324, 3200, 25650, 176256]
    assert reference.level_degeneracies(8, directions=1) == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_binomial_mean_abs_dev_matches_direct_sum():
    for trials, p in ((1, 0.5), (7, 0.3), (40, 0.02), (200, 0.61)):
        direct = sum(
            math.comb(trials, k) * p**k * (1 - p) ** (trials - k) * abs(k - trials * p)
            for k in range(trials + 1)
        )
        assert reference.binomial_mean_abs_dev(trials, p) == pytest.approx(direct, rel=1e-9)
    assert reference.binomial_mean_abs_dev(10, 0.0) == 0.0


# ---------------------------------------------------------------- workload checks at reduced size

@pytest.mark.parametrize("workload", sorted(SMALL))
def test_checks_pass_at_reduced_size(workload, tmp_path):
    ops = workloads.build(workload, 3, tmp_path, SMALL[workload])
    checked, failed = run_ops(ops)
    assert [problems for _, problems in checked if problems] == []
    if workload == "relaxation":
        # the excited-state FPE runs fail until the advective flux is fixed
        assert all("k=" in name for name in failed)
        assert len(checked) + len(failed) == 3
    else:
        assert failed == []


def test_simulate_export_check_rejects_changed_value_and_config(tmp_path):
    (op,) = workloads.build("simulate_export", 3, tmp_path, SMALL["simulate_export"])
    op.run()
    assert op.check(None) == []
    path = tmp_path / "simulate" / "ensemble.txt"
    lines = path.read_text().splitlines()
    last = lines[-1].split()
    last[3] = repr(float(last[3]) + 1e-15 * max(1.0, abs(float(last[3]))))
    path.write_text("\n".join(lines[:-1] + [" ".join(last)]) + "\n")
    assert any("lossy" in p for p in op.check(None))

    op.run()
    path.write_text(path.read_text().replace("# config.count = 40", "# config.count = 41"))
    assert any("from_header" in p for p in op.check(None))


def test_transport_check_rejects_large_deviation():
    bound = workloads.transport_bound(samples=8_000_000)
    assert 0.1 < bound < 1.0
    assert workloads.check_transport(0.5 * bound, bound) == []
    assert workloads.check_transport(1.01 * bound, bound)
    assert workloads.check_transport(float("nan"), bound)


def test_relaxation_checks_reject_wrong_density_and_distance(tmp_path):
    ops = workloads.build("relaxation", 3, tmp_path, SMALL["relaxation"])
    ops[0].run()
    assert ops[0].check(None) == []
    out = tmp_path / "fpe"
    density = (out / "fpe_density.txt").read_text()
    rows = [line.split() for line in density.splitlines() if line[0] not in "#x"]
    shifted = [f"{float(x) + 0.05!r} {r} {s}" for x, r, s in rows]
    (out / "fpe_density.txt").write_text("x rho S\n" + "\n".join(shifted) + "\n")
    assert any("exact OU" in p for p in ops[0].check(None))

    ops[0].run()
    (out / "fpe_check.txt").write_text("l1_distance = 0.5\n")
    assert any("l1_distance" in p for p in ops[0].check(None))

    start = workloads.fpe.gaussian_field(-6.0, 6.0, 101, 0.0, 1.0)
    moved = workloads.fpe.gaussian_field(-6.0, 6.0, 101, 0.2, 1.0)
    assert workloads.check_excited(start, start) == []
    assert workloads.check_excited(start, moved)
    heavier = workloads.fpe.GridField(-6.0, 6.0, start.rho * (1 + 1e-6), start.S)
    assert any("mass" in p for p in workloads.check_excited(start, heavier))


def test_exact_checks_reject_wrong_outputs(tmp_path):
    ops = workloads.build("exact_checks", 3, tmp_path, SMALL["exact_checks"])
    by_name = {op.name: op for op in ops}
    anomaly = by_name["cli anomaly --m 2"]
    anomaly.run()
    assert anomaly.check(None) == []
    report = tmp_path / "anomaly_m2" / "anomaly.txt"
    text = report.read_text()
    assert "-1/8*D" in text
    report.write_text(text.replace("-1/8*D", "-1/9*D"))
    assert anomaly.check(None)
    report.write_text(text.replace("joint solution: D = 26, a = 1", "joint solution: D = 10, a = 1"))
    assert anomaly.check(None)

    assert workloads.check_direct(Fraction(1, 2), 1, 26, Fraction(3, 4)) == []
    assert workloads.check_direct(Fraction(1, 3), 1, 26, Fraction(3, 4))

    spectrum = "level energy_offset degeneracy\n0 0.0 1\n1 1.0 24\n2 2.0 324\n3 3.0 3200\n4 4.0 25650\n"
    assert workloads.check_spectrum(spectrum, 4) == []
    assert workloads.check_spectrum(spectrum.replace("3200", "3201"), 4)
    assert workloads.check_bracket({"stochastic_bracket": "0.99999", "commutator_side": "1.0"}) == []
    assert workloads.check_bracket({"stochastic_bracket": "0.9998", "commutator_side": "1.0"})
    assert workloads.check_madelung({"madelung_residual": "2e-3", "continuity_residual": "0.0"})


def test_parse_poly_reads_package_notation():
    assert workloads.parse_poly("58/9 + -2/3*a + -2/9*D") == reference.anomaly_coefficients(3)
    assert workloads.parse_poly("0") == {}
    assert workloads.parse_poly("1/2*D*a^2") == {(1, 2): Fraction(1, 2)}


# ---------------------------------------------------------------- tracing

def test_self_times_account_for_the_root_span():
    tracer = spans.Tracer()

    def leaf():
        sum(range(20000))

    traced_leaf = tracer.wrap("sde.leaf", leaf)

    def middle():
        traced_leaf()
        sum(range(20000))
        traced_leaf()

    traced_middle = tracer.wrap("fpe.middle", middle)
    tracer.enter(spans.ROOT_SPAN)
    traced_middle()
    tracer.exit(True)
    assert tracer.calls == {"sde.leaf": 2, "fpe.middle": 1, spans.ROOT_SPAN: 1}
    assert sum(tracer.self_ns.values()) == tracer.total_ns[spans.ROOT_SPAN]
    assert tracer.self_ns["fpe.middle"] == tracer.total_ns["fpe.middle"] - tracer.total_ns["sde.leaf"]
    assert list(tracer.parent) == [-1, 0, 1, 1]
    layers = spans.layer_self_times(tracer)
    assert sum(layers.values()) == pytest.approx(tracer.total_ns[spans.ROOT_SPAN] / 1e9)


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    assert set(spans.layer_metrics(spans.Tracer())) == declared
