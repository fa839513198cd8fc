#!/usr/bin/env python3
"""Compare two sets of perfbench runs, metric by metric.

Usage:

    python3 scripts/bench_compare.py PARENT.jsonl CHANGE.jsonl

Each file holds perfbench result lines, one JSON object per run (the last
stdout line of `python3 perfbench/run.py ...`), all of one workload.
Blank lines are skipped. For every end-to-end metric named in
BENCHMARK.json the script prints both medians and both spreads, where a
spread is (q3 - q1) / median over that side's runs, and labels the delta:

    noise  |change - parent| / parent is no larger than the larger spread
    win    otherwise, in the metric's `better` direction
    loss   otherwise

It reads BENCHMARK.json only for the metric names and directions; it
gates nothing and its exit status does not depend on the labels.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    runs = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    if not runs:
        sys.exit(f"bench_compare: {path} holds no runs")
    return runs


def values(runs, name):
    out = []
    for run in runs:
        metric = run.get("metrics", {}).get(name)
        if metric is not None:
            out.append(float(metric["value"]))
    return out


def quartiles(xs):
    """q1, median, q3 as perfbench computes them: the 1-based position
    j * (n + 1) / 4, clamped to [1, n] and linearly interpolated."""
    xs = sorted(xs)
    n = len(xs)

    def at(pos):
        pos = min(max(pos, 1.0), float(n))
        lo = int(pos)
        hi = min(lo + 1, n)
        return xs[lo - 1] + (pos - lo) * (xs[hi - 1] - xs[lo - 1])

    return at((n + 1) / 4.0), statistics.median(xs), at(3.0 * (n + 1) / 4.0)


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else 0.0


def label(parent, change, better):
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    if p_med == c_med:
        return "noise", 0.0
    delta = (c_med - p_med) / abs(p_med) if p_med else float("inf")
    if abs(delta) <= max(spread(parent), spread(change)):
        return "noise", delta
    improved = c_med > p_med if better == "higher" else c_med < p_med
    return ("win" if improved else "loss"), delta


def main(argv):
    if len(argv) != 3:
        sys.exit("usage: bench_compare.py PARENT.jsonl CHANGE.jsonl")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    parent = load_runs(argv[1])
    change = load_runs(argv[2])
    print(f"parent: {len(parent)} runs ({argv[1]})")
    print(f"change: {len(change)} runs ({argv[2]})")
    header = ("metric", "unit", "parent median", "spread", "change median",
              "spread", "delta", "label")
    rows = []
    for m in metrics:
        p = values(parent, m["name"])
        c = values(change, m["name"])
        if not p or not c:
            rows.append((m["name"], m["unit"], "-", "-", "-", "-", "-",
                         "missing"))
            continue
        verdict, delta = label(p, c, m["better"])
        rows.append((m["name"], m["unit"], f"{statistics.median(p):.6g}",
                     f"{spread(p):.3f}", f"{statistics.median(c):.6g}",
                     f"{spread(c):.3f}", f"{delta:+.2%}", verdict))
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
