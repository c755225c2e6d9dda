"""Span tracing around calls into the package's layers.

``install`` replaces each listed public function or method with a wrapper
that records a span: name, start, end and the enclosing span. Spans stay in
memory as compact arrays; self time (a span's duration minus the part its
child spans cover) is accumulated per span name as spans close. A few
targets also record work counts read from their arguments or results.

Only the targets listed here are wrapped. Dunder methods and the exact
coefficient arithmetic in ``algebra.scalars`` are not: they run hundreds of
thousands of times per pass, so their time counts as the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array

import numpy as np

PACKAGE = "stochastic_string"
LAYERS = ("cli", "core", "drift", "sde", "fpe", "observables", "algebra")
ROOT_SPAN = "bench.pass"


def _as_list(ensemble):
    return ensemble if isinstance(ensemble, (list, tuple)) else [ensemble]


# (module, attribute, counts(args, kwargs, result) -> {counter: increment} or None)
TARGETS = (
    ("cli", "run", None),
    ("core", "validate", None),
    ("core", "StringParams.validate", None),
    ("core", "ModeStateSpec.validate", None),
    ("drift", "StationaryModeState.forward_drift_array",
     lambda a, k, r: {"drift.forward_drift_elems": int(np.size(a[1] if len(a) > 1 else k["x"]))}),
    ("drift", "StationaryModeState.sample_stationary", None),
    ("drift", "StationaryModeState.density", None),
    ("drift", "StationaryModeState.nodes", None),
    ("sde", "simulate",
     lambda a, k, r: {"sde.sample_steps": r.count * r.steps, "drift.clamp_events": r.clamp_events}),
    ("sde", "export_ensemble",
     lambda a, k, r: {
         "sde.export_rows": a[0].samples.size,
         "sde.export_bytes": os.path.getsize(a[1] if len(a) > 1 else k["path"]),
     }),
    ("sde", "transport_derivative_check",
     lambda a, k, r: {"sde.binned_samples": sum(e.count * e.recorded_steps for e in _as_list(a[0]))}),
    ("fpe", "evolve_fokker_planck",
     lambda a, k, r: {"fpe.cell_updates": a[0].points * (a[4] if len(a) > 4 else k["steps"])}),
    ("fpe", "l1_distance_to_samples", None),
    ("fpe", "export_field", None),
    ("fpe", "gaussian_field", None),
    ("fpe", "stationary_field", None),
    ("fpe", "madelung_residual", None),
    ("fpe", "continuity_residual", None),
    ("observables", "level_spectrum", None),
    ("algebra.operators", "normal_order_word", None),
    ("algebra.operators", "commutator", None),
    ("algebra.lorentz", "anomaly_coefficient", None),
    ("algebra.lorentz", "anomaly_value_direct", None),
    ("algebra.lorentz", "anomaly_report", None),
    ("algebra.scalars", "solve_affine_system", None),
    ("algebra.brackets", "stochastic_bracket", None),
    ("algebra.brackets", "bracket_from_commutator", None),
)


class Tracer:
    """In-memory spans of one thread, with per-name totals and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self._stack: list[list[int]] = []  # [span index, start, child time]
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.ok_ns: dict[str, int] = {}  # duration of calls that returned
        self.counters: dict[str, int] = {}

    def enter(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end_ns.append(0)
        start = time.perf_counter_ns()
        self.start_ns.append(start)
        self._stack.append([index, start, 0])

    def exit(self, ok: bool) -> None:
        end = time.perf_counter_ns()
        index, start, child = self._stack.pop()
        self.end_ns[index] = end
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        name = self.names[self.name_id[index]]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + duration
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child
        if ok:
            self.ok_ns[name] = self.ok_ns.get(name, 0) + duration

    def count(self, increments: dict[str, int]) -> None:
        for key, value in increments.items():
            self.counters[key] = self.counters.get(key, 0) + int(value)

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self.exit(ok)
            if counts is not None:
                self.count(counts(args, kwargs, result))
            return result

        return traced

    def write_spans(self, path: str) -> None:
        """Write every span as [name index, parent index, start ns, end ns]."""
        spans = zip(self.name_id, self.parent, self.start_ns, self.end_ns)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": [list(s) for s in spans]}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every target, in every package module that holds a reference to it."""
    modules = [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]
    for module_name, attr, counts in TARGETS:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        name = f"{module_name}.{attr}"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(name, cls.__dict__[method], counts))
            continue
        original = getattr(module, attr)
        traced = tracer.wrap(name, original, counts)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)


def layer_of(span_name: str) -> str:
    head = span_name.split(".")[0]
    return head if head in LAYERS else "bench"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    s = lambda name: tracer.self_ns.get(name, 0) / 1e9
    calls = tracer.calls.get
    c = lambda key: tracer.counters.get(key, 0)

    def per(total_ns: int, work: int) -> float:
        return total_ns / work if work else 0.0

    drift = "drift.StationaryModeState."
    metrics = {
        "sde.simulate_s": s("sde.simulate"),
        "sde.simulate_calls": calls("sde.simulate", 0),
        "sde.sample_steps": c("sde.sample_steps"),
        "sde.ns_per_sample_step": per(tracer.ok_ns.get("sde.simulate", 0), c("sde.sample_steps")),
        "drift.forward_drift_s": s(drift + "forward_drift_array"),
        "drift.forward_drift_calls": calls(drift + "forward_drift_array", 0),
        "drift.forward_drift_elems": c("drift.forward_drift_elems"),
        "drift.sample_stationary_s": s(drift + "sample_stationary"),
        "drift.sample_stationary_calls": calls(drift + "sample_stationary", 0),
        "drift.clamp_events": c("drift.clamp_events"),
        "sde.export_s": s("sde.export_ensemble"),
        "sde.export_rows": c("sde.export_rows"),
        "sde.export_bytes": c("sde.export_bytes"),
        "sde.export_rows_per_s": per(c("sde.export_rows") * 10**9, tracer.ok_ns.get("sde.export_ensemble", 0)),
        "sde.transport_check_s": s("sde.transport_derivative_check"),
        "sde.binned_samples": c("sde.binned_samples"),
        "fpe.evolve_s": s("fpe.evolve_fokker_planck"),
        "fpe.evolve_calls": calls("fpe.evolve_fokker_planck", 0),
        "fpe.cell_updates": c("fpe.cell_updates"),
        "fpe.ns_per_cell_update": per(tracer.ok_ns.get("fpe.evolve_fokker_planck", 0), c("fpe.cell_updates")),
        "fpe.l1_distance_s": s("fpe.l1_distance_to_samples"),
        "fpe.export_field_s": s("fpe.export_field"),
        "observables.level_spectrum_s": s("observables.level_spectrum"),
        "algebra.anomaly_coefficient_s": s("algebra.lorentz.anomaly_coefficient"),
        "algebra.anomaly_value_direct_s": s("algebra.lorentz.anomaly_value_direct"),
        "algebra.commutator_s": s("algebra.operators.commutator"),
        "algebra.commutator_calls": calls("algebra.operators.commutator", 0),
        "algebra.normal_order_word_s": s("algebra.operators.normal_order_word"),
        "algebra.normal_order_word_calls": calls("algebra.operators.normal_order_word", 0),
        "algebra.stochastic_bracket_s": s("algebra.brackets.stochastic_bracket"),
        "trace.wall_s": tracer.total_ns.get(ROOT_SPAN, 0) / 1e9,
    }
    for layer, seconds in layer_self_times(tracer).items():
        metrics[f"{layer}.self_s"] = seconds
    return metrics


def layer_self_times(tracer: Tracer) -> dict[str, float]:
    """Self time per layer; with the root span's own time they sum to the pass."""
    out = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for name, ns in tracer.self_ns.items():
        out[layer_of(name)] += ns / 1e9
    return out
