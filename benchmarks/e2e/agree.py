"""Do two sets of benchmark runs agree within the benchmark's bounds?

    python3 benchmarks/e2e/agree.py DIR_A DIR_B

Each directory holds the untraced result files ``run.py --out DIR``
writes (``<workload>.seed<N>.json``), typically one per seed.  For each
workload and end-to-end metric this prints both sets' median and
quartiles, their spread (quartile distance over the median), the
metric's bound from ``BENCHMARK.json`` and a verdict:

* ``agree``: B's median is no worse than A's by more than the bound,
  and both spreads are within it (or every B run beats every A run);
* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: a spread exceeds the bound, so the runs cannot tell.

Exits 0 only if every row agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(directory: Path):
    """``{(workload, metric): [values]}`` from untraced result files."""
    runs = defaultdict(list)
    for path in sorted(directory.glob("*.seed*.json")):
        if path.name.endswith(".traced.json"):
            continue
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        for metric, entry in result["metrics"].items():
            runs[(result["workload"], metric)].append(entry["value"])
    return runs


def summary(values):
    """(median, q1, q3, spread) with ``statistics.quantiles`` quartiles."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def verdict(a, b, better: str, bound: float) -> str:
    med_a, _, _, spread_a = summary(a)
    med_b, _, _, spread_b = summary(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / med_a if med_a else 0.0
    if (max(b) < min(a)) if better == "lower" else (min(b) > max(a)):
        return "agree"  # every B run beats every A run
    if spread_a > bound or spread_b > bound:
        return "unresolved"
    return "worse" if worse_by > bound else "agree"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    parser.add_argument("--benchmark", type=Path, default=BENCHMARK_JSON)
    args = parser.parse_args(argv)

    with open(args.benchmark, encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    runs_a, runs_b = load_runs(args.dir_a), load_runs(args.dir_b)
    workloads = sorted({w for w, _ in runs_a} | {w for w, _ in runs_b})
    if not workloads:
        print("agree: no result files found", file=sys.stderr)
        return 2

    def fmt(values) -> str:
        med, q1, q3, spread = summary(values)
        return f"{med:>10.4g} [{q1:.4g}, {q3:.4g}] {spread:6.1%} n={len(values)}"

    print(f"{'workload':<12} {'metric':<12} {'A: median [q1, q3] spread':>42} "
          f"{'B: median [q1, q3] spread':>42} {'bound':>6}  verdict")
    ok = True
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            a = runs_a.get((workload, name))
            b = runs_b.get((workload, name))
            if not a or not b:
                print(f"{workload:<12} {name:<12} missing in "
                      f"{'A' if not a else 'B'}")
                ok = False
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            ok &= result == "agree"
            print(f"{workload:<12} {name:<12} {fmt(a):>42} {fmt(b):>42} "
                  f"{metric['bound']:>6.0%}  {result}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
