"""Every function the traced benchmark wraps still exists on the package.

``bench/spans.py`` wraps public functions and methods by name; deleting or
renaming one of them would break the traced benchmark run. Some targets
also count work read from their arguments or results, so a change to what a
target takes or returns would break the count. The module is loaded
read-only here: its targets are resolved the way ``install`` resolves them,
each counter is evaluated on one small real call, and nothing is wrapped
in this process; ``install`` itself wraps every target once, in a fresh
interpreter. The ``simulate_export`` workload's check in
``bench/workloads.py`` also reads a stored run (``samples``,
``recorded_taus()``), so it runs here once at a small size; the
``transport_check`` and ``relaxation`` checks run at the reduced sizes of
the benchmark's own tests.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stochastic_string import fpe, sde
from stochastic_string.core import ModeStateSpec, StringParams
from stochastic_string.drift import StationaryModeState

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    """``bench/<name>.py`` as an unexecuted module named ``name``."""
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    return importlib.util.module_from_spec(spec)


spans = _bench_module("spans")
spans.__spec__.loader.exec_module(spans)


@pytest.mark.parametrize(
    "module_name, attr",
    [(module_name, attr) for module_name, attr, _ in spans.TARGETS],
    ids=[f"{module_name}.{attr}" for module_name, attr, _ in spans.TARGETS],
)
def test_traced_target_resolves(module_name, attr):
    module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        # install replaces the method in the class's own namespace
        assert callable(vars(getattr(module, cls_name)).get(method))
    else:
        assert callable(getattr(module, attr, None))


_INSTALL_SCRIPT = """
import importlib, sys
import spans
from stochastic_string import cli
tracer = spans.Tracer()
spans.install(tracer)
unwrapped = []
for module_name, attr, _ in spans.TARGETS:
    target = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
    for part in attr.split("."):
        target = getattr(target, part)
    if not hasattr(target, "__wrapped__"):
        unwrapped.append(f"{module_name}.{attr}")
assert not unwrapped, unwrapped
assert cli.run(["spectrum", "--max-level", "2", "--out", sys.argv[1], "--no-timestamp"]) == 0
assert tracer.calls == {"cli.run": 1, "core.StringParams.validate": 1, "core.validate": 1,
                        "observables.level_spectrum": 1}, tracer.calls
"""


def test_install_wraps_every_target(tmp_path):
    # install patches the package for the whole process, so it runs in its own
    # interpreter, as in a traced benchmark pass
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(BENCH_DIR), str(src)])}
    done = subprocess.run([sys.executable, "-c", _INSTALL_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _small_call(name, tmp_path):
    """One small call of a counted target as the package makes it: its
    positional and keyword arguments, and the counts it should report once
    it has run."""
    params = StringParams(alpha_prime=0.5, dims=26, mode_cutoff=6)
    spec = ModeStateSpec()
    if name == "drift.StationaryModeState.forward_drift_array":
        args = (StationaryModeState(params, 1, 0), np.linspace(-1.0, 1.0, 5))
        return args, {}, lambda: {"drift.forward_drift_elems": 5}
    if name == "sde.simulate":
        kwargs = dict(d_tau=1e-3, steps=4, count=3, seed=1)
        return (params, spec, 1, 1), kwargs, lambda: {"sde.sample_steps": 12, "drift.clamp_events": 0}
    if name == "sde.export_ensemble":
        path = tmp_path / "ensemble.txt"
        ens = sde.simulate(params, spec, 1, 1, d_tau=1e-3, steps=4, count=3, seed=1)
        return (ens, path), {}, lambda: {
            "sde.export_rows": 15, "sde.export_bytes": path.stat().st_size,
        }
    if name == "sde.transport_derivative_check":
        ens = sde.simulate(params, spec, 1, 1, d_tau=1e-3, steps=5, count=2000, seed=2)
        args = (ens, lambda x: x, np.ones_like, np.zeros_like)
        return args, {}, lambda: {"sde.binned_samples": 10_000}
    if name == "fpe.evolve_fokker_planck":
        state = StationaryModeState(params, 1, 0)
        field = fpe.gaussian_field(-6.0, 6.0, 41, 0.0, 1.0)
        drift = lambda x: state.forward_drift_array(x)[0]
        return (field, drift, state.nu, 1e-3, 3), {}, lambda: {"fpe.cell_updates": 41 * 3}
    raise KeyError(f"no small call for counted target {name}")


_COUNTED = [target for target in spans.TARGETS if target[2] is not None]


@pytest.mark.parametrize(
    "module_name, attr, counts", _COUNTED, ids=[f"{m}.{a}" for m, a, _ in _COUNTED]
)
def test_traced_counter_reads_its_target(tmp_path, module_name, attr, counts):
    module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
    target = module
    for part in attr.split("."):
        target = getattr(target, part)
    args, kwargs, expected = _small_call(f"{module_name}.{attr}", tmp_path)
    result = target(*args, **kwargs)
    assert counts(args, kwargs, result) == expected()


@pytest.fixture
def bench_modules(monkeypatch):
    """The bench's ``workloads`` and ``test_bench`` modules, loaded as the bench loads them."""
    # workloads imports its sibling ``reference`` by name, and its dataclasses
    # look their own module up in sys.modules; test_bench imports all three
    monkeypatch.setitem(sys.modules, "spans", spans)
    for name in ("reference", "workloads", "test_bench"):
        module = _bench_module(name)
        monkeypatch.setitem(sys.modules, name, module)
        module.__spec__.loader.exec_module(module)
    return sys.modules["workloads"], sys.modules["test_bench"]


def test_simulate_export_check_reads_the_stored_run(tmp_path, bench_modules):
    workloads, _ = bench_modules
    (op,) = workloads.build("simulate_export", 3, tmp_path, {"count": 40, "steps": 100})
    assert op.run() == 0
    assert op.check(None) == []


@pytest.mark.parametrize("workload", ["transport_check", "relaxation"])
def test_workload_checks_pass_at_reduced_size(tmp_path, bench_modules, workload):
    workloads, test_bench = bench_modules
    ops = workloads.build(workload, 3, tmp_path, test_bench.SMALL[workload])
    checked, failed = test_bench.run_ops(ops)
    assert failed == []
    assert [(name, problems) for name, problems in checked if problems] == []
    assert len(checked) == len(ops)
