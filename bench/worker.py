"""One pass of one workload, in the fresh interpreter that ``run.py`` starts.

Prints one JSON line: the monotonic clock at the end of set-up (package
imported, inputs built), the pass's wall time and peak RSS, each
operation's outcome, the problems its check found and, when traced, the
per-layer metrics. The program's own output goes to standard error.

    python3 bench/worker.py --workload NAME --seed N --workdir DIR [--trace] [--spans FILE]
"""

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, help="write this pass's spans here")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import stochastic_string

    if Path(stochastic_string.__file__).resolve().parent != SRC / "stochastic_string":
        raise SystemExit(f"imported {stochastic_string.__file__}, not the package under {SRC}")
    import spans
    import workloads

    ops = workloads.build(args.workload, args.seed, args.workdir)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    setup_done = time.monotonic()

    outcomes = []
    with contextlib.redirect_stdout(sys.stderr):
        start = time.perf_counter()
        if tracer:
            tracer.enter(spans.ROOT_SPAN)
        for op in ops:
            try:
                outcomes.append((op, True, op.run()))
            except Exception as exc:  # an operation's failure is counted, not fatal
                outcomes.append((op, False, f"{type(exc).__name__}: {exc}"))
        if tracer:
            tracer.exit(True)
        wall = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        # before the checks, which call into the package too
        layers = spans.layer_metrics(tracer) if tracer else None
        if tracer and args.spans:
            tracer.write_spans(str(args.spans))
        problems = [
            f"{op.name}: {problem}"
            for op, ok, value in outcomes if ok
            for problem in op.check(value)
        ]

    result = {
        "setup_done": setup_done,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(outcomes),
        "failures": [f"{op.name}: {error}" for op, ok, error in outcomes if not ok],
        "problems": problems,
    }
    if layers is not None:
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
