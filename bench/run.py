"""Benchmark of the stochastic-string package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole passes of one workload, each in a fresh interpreter
(``bench/worker.py``), one at a time, until S seconds have passed and at
least MIN_PASSES passes have run. Every input comes from the seed; every
pass checks the program's outputs. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
medians over the passes of the end-to-end metrics of BENCHMARK.json with
``--trace 0``, of its per-layer metrics with ``--trace 1``. Failed
operations and failed checks are listed on standard error.

It also writes, under ``bench/out/``:
  results/<workload>-seed<N>-trace<T>.json  every pass of the run
  spans/<workload>-seed<N>.json             spans of the first traced pass
  work/<workload>/                          the program's artifacts
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIN_PASSES = 3
PASS_TIMEOUT_S = 150


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_pass(workload: str, seed: int, trace: bool, spans: Path | None) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--workdir", str(OUT / "work" / workload),
    ]
    if trace:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"bench: a {workload} pass exited with {proc.returncode}")
    result = json.loads(lines[-1])
    # both clocks are CLOCK_MONOTONIC, shared by every process of the machine
    result["setup_s"] = result.pop("setup_done") - spawned
    return result


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stochastic_string" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source under {ROOT / 'src'}")
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    spans = None
    if args.trace:
        (OUT / "spans").mkdir(exist_ok=True)
        spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.json"

    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
        passes.append(run_pass(args.workload, args.seed, bool(args.trace), spans if not passes else None))

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in declared:
        name = metric["name"]
        values = [p["layers"][name] if args.trace else p[name] for p in passes]
        metrics[name] = {"value": statistics.median(values), "unit": metric["unit"]}

    failures = sorted({f for p in passes for f in p["failures"]})
    problems = sorted({f for p in passes for f in p["problems"]})
    for line in failures:
        print(f"bench: failed operation: {line}", file=sys.stderr)
    for line in problems:
        print(f"bench: check failed: {line}", file=sys.stderr)
    summary = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "metrics": metrics,
    }
    record = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"args": vars(args), "summary": summary, "passes": passes}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
