"""Every function in ``src/`` is called by a command, or is listed with the
reason no command calls it.

A fresh interpreter, so that no cache filled by another test hides a call,
runs ``cli.run`` in-process at tiny sizes under a ``sys.setprofile`` hook
that records every package function entered. The runs cover all eight
commands, occupations k = 0, 1 and 2, the zero mode, a ``--config`` file, a
run of two noise blocks, a Fokker-Planck horizon long enough for the banded
sub-step power, a negative value after its flag, ``cli.main`` and reading a
header back with ``RunConfig.from_header``. An ``ast`` walk of ``src/`` lists
the functions defined; the ones never called must be exactly ``UNREACHED``.
A function that no command reaches any more fails the test until it is
deleted or listed, and a listed one that a command now reaches fails it
until it is unlisted. The same walk finds the settings nothing uses: every
field of ``RunConfig`` and ``StringParams`` must be read by name somewhere
outside ``core.validate``.
"""

import ast
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from stochastic_string.cli import RunConfig
from stochastic_string.core import StringParams

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stochastic_string"

# (module, qualified name): why no command calls it. acceptance: only the
# acceptance criteria call it; bench: only the benchmark calls it; error-path:
# only a failing run calls it; reference: the exact arithmetic and printing
# that tests and error messages compare against
UNREACHED = {
    ("sde.py", "second_law_bins"): "acceptance",
    ("sde.py", "second_law_check"): "acceptance",
    ("sde.py", "_second_law_probe"): "acceptance",
    ("sde.py", "spawn_seed"): "acceptance",
    ("observables.py", "summed_correlator"): "acceptance",
    ("observables.py", "fit_log_slope"): "acceptance",
    ("algebra/lorentz.py", "anomaly_value_direct"): "acceptance",
    ("sde.py", "transport_derivative_check"): "bench",
    ("sde.py", "Ensemble.recorded_steps"): "bench",
    ("cli.py", "_Parser.error"): "error-path",
    ("sde.py", "NonFiniteSampleError.__init__"): "error-path",
    ("algebra/lorentz.py", "anomaly_report"): "reference",
    ("algebra/operators.py", "OperatorExpr.__sub__"): "reference",
    ("algebra/operators.py", "OperatorExpr.__mul__"): "reference",
    ("algebra/operators.py", "OperatorExpr.__eq__"): "reference",
    ("algebra/operators.py", "OperatorExpr.is_zero"): "reference",
    ("algebra/operators.py", "OperatorExpr.__repr__"): "reference",
    ("algebra/operators.py", "_token_name"): "reference",
    ("algebra/operators.py", "identity"): "reference",
    ("algebra/operators.py", "creation"): "reference",
    ("algebra/operators.py", "annihilation"): "reference",
    ("algebra/scalars.py", "Coeff.__repr__"): "reference",
    ("algebra/scalars.py", "PolyDA.__eq__"): "reference",
    ("algebra/scalars.py", "PolyDA.is_zero"): "reference",
}

_PROBE_SCRIPT = """
import json, sys, threading
from pathlib import Path
import stochastic_string
from stochastic_string import cli

root = str(Path(stochastic_string.__file__).parent)
out = Path(sys.argv[1])
config = out / "run.cfg"
config.write_text("# dims and seed\\ndims = 26\\nseed = 3\\n")
runs = [
    ["simulate", "-M", "3", "--steps", "5"],
    ["simulate", "--k", "1", "--init", "0.3", "-M", "3", "--steps", "5"],
    ["simulate", "--k", "2", "-M", "3", "--steps", "5"],
    ["simulate", "--n", "0", "--momentum", "0.3", "--init", "0.1", "-M", "3", "--steps", "5"],
    # 1030 steps: two noise blocks of 1024 steps
    ["simulate", "-M", "2", "--steps", "1030", "--record-stride", "1030"],
    ["correlate", "-M", "4", "--d-tau", "0.1", "--dtau-lag", "0.2"],
    # about 50 Fokker-Planck sub-steps: two banded runs of 24 and a remainder
    ["fpe-check", "-M", "5", "--d-tau", "0.01", "--steps", "30", "--points", "101"],
    ["madelung-check", "--k", "1", "--points", "101"],
    ["spectrum", "--config", str(config), "--zeta-intercept"],
    ["anomaly", "--m", "1"],
    ["bracket-check", "--x-min", "-8", "--points", "41"],
    ["transport-check", "-M", "200", "--steps", "20"],
]
seen = set()

def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(root):
        seen.add((frame.f_code.co_filename[len(root) + 1:], frame.f_code.co_qualname))

sys.setprofile(hook)
threading.setprofile(hook)
codes = [cli.run([*argv, "--out", str(out), "--no-timestamp"]) for argv in runs]
sys.argv = ["stochastic-string", "spectrum", "--out", str(out), "--no-timestamp"]
try:
    cli.main()
except SystemExit as exc:
    codes.append(exc.code)
cli.RunConfig.from_header(out / "bracket.txt")
sys.setprofile(None)
threading.setprofile(None)
(out / "reached.json").write_text(json.dumps({"codes": codes, "reached": sorted(seen)}))
"""


def _walk():
    """(module path, qualified-name prefix, node) for every ``ast`` node under
    ``src/``; a function's ``co_qualname`` is its prefix and its name."""
    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            yield module, prefix, child
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, module, f"{prefix}{child.name}.")
            else:
                yield from walk(child, module, prefix)

    for path in PACKAGE.rglob("*.py"):
        yield from walk(ast.parse(path.read_text()), path.relative_to(PACKAGE).as_posix(), "")


def _defined() -> set[tuple[str, str]]:
    """(module path, ``co_qualname``) of every function defined under ``src/``."""
    return {
        (module, prefix + node.name) for module, prefix, node in _walk()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_every_function_reached_or_listed(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", _PROBE_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    record = json.loads((tmp_path / "reached.json").read_text())
    assert record["codes"] == [0] * 13, done.stderr
    defined = _defined()
    assert set(UNREACHED) <= defined, "listed but not defined"
    never_called = defined - {tuple(r) for r in record["reached"]}
    assert sorted(never_called - set(UNREACHED)) == [], "reached by no command: delete or list"
    assert sorted(set(UNREACHED) - never_called) == [], "reached by a command: unlist"


def test_every_setting_read_by_name():
    # a RunConfig or StringParams field that no code reads as x.field, apart
    # from core.validate checking it, is a setting nothing uses; generic
    # getattr(obj, f.name) loops over the fields do not count as a read
    read = {
        node.attr for module, prefix, node in _walk()
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and (module, prefix.partition(".")[0]) != ("core.py", "validate")
    }
    settings = {f.name for cls in (RunConfig, StringParams) for f in fields(cls)}
    assert sorted(settings - read) == [], "read by no code: delete the setting"
