"""Summarize the runs recorded under bench/out/results/ as Markdown tables.

    python3 bench/summarize.py

For each workload: every end-to-end metric's median over the recorded runs
(one run per seed), its quartiles and their distance as a share of the
median, the share of failed operations, and, from the traced runs, each
layer's share of the traced pass and the tracing overhead (median traced
pass minus median untraced pass).
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

import spans
from run import OUT, load_spec


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> None:
    spec = load_spec()
    runs = defaultdict(list)
    for path in sorted((OUT / "results").glob("*.json")):
        record = json.loads(path.read_text())
        runs[(record["args"]["workload"], record["args"]["trace"])].append(record["summary"])

    print("| workload | metric | runs | median | Q1 | Q3 | (Q3-Q1)/median | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in (w["name"] for w in spec["workloads"]):
        summaries = runs.get((workload, 0), [])
        for metric in spec["end_to_end"]:
            values = [s["metrics"][metric["name"]]["value"] for s in summaries]
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            print(
                f"| {workload} | {metric['name']} ({metric['unit']}) | {len(values)} | {q2:.4g} "
                f"| {q1:.4g} | {q3:.4g} | {(q3 - q1) / q2:.3f} | {metric['bound']} |"
            )
    print()
    print("| workload | failed / attempted | correct |")
    print("|---|---|---|")
    for (workload, trace), summaries in sorted(runs.items()):
        shares = sorted({f"{s['failed']}/{s['attempted']}" for s in summaries})
        correct = all(s["correct"] for s in summaries)
        print(f"| {workload} (trace {trace}) | {', '.join(shares)} | {correct} |")

    print()
    layers = spans.LAYERS + ("bench",)
    print("| workload | traced pass (s) | untraced pass (s) | overhead (s) | " + " | ".join(layers) + " |")
    print("|---" * (4 + len(layers)) + "|")
    for workload in (w["name"] for w in spec["workloads"]):
        traced = runs.get((workload, 1), [])
        plain = runs.get((workload, 0), [])
        if not traced:
            continue
        wall = statistics.median(s["metrics"]["trace.wall_s"]["value"] for s in traced)
        base = statistics.median(s["metrics"]["wall_s"]["value"] for s in plain) if plain else float("nan")
        shares = [
            statistics.median(s["metrics"][f"{layer}.self_s"]["value"] for s in traced) / wall
            for layer in layers
        ]
        print(
            f"| {workload} | {wall:.3f} | {base:.3f} | {wall - base:+.3f} | "
            + " | ".join(f"{100 * share:.1f}%" for share in shares) + " |"
        )


if __name__ == "__main__":
    main()
