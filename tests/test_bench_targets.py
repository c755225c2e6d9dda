"""Every function the traced benchmark wraps still exists on the package.

``bench/spans.py`` wraps public functions and methods by name; deleting or
renaming one of them would break the traced benchmark run. The module is
loaded read-only here: its targets are resolved the way ``install`` resolves
them, and nothing is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


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
