"""Compare two result sets of the benchmark, per workload and metric.

Usage::

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds run records written by ``run.py --out``; untraced runs
are compared on every end-to-end metric of BENCHMARK.json. For each side
the median and quartiles are printed, then the pairs the change won
(runs paired by seed when both sides ran the same seeds, otherwise in
file order), and a flag:

- ``worse``: the change's median is worse than the base's by more than
  the metric's bound;
- ``unresolved``: either side's run-to-run spread (quartile distance over
  median) is wider than the bound, and not every run of the change beats
  every run of the base;
- ``better``: the change won at least nine tenths of the pairs and the
  medians differ by more than the base's quartile distance;
- ``same`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

import summary
from run import load_spec


def load(path: str) -> dict:
    """{workload: [(seed, metrics), ...]} of the untraced runs in `path`."""
    runs = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if not record["trace"]:
                runs[record["workload"]].append(
                    (record["seed"], record["metrics"]))
    return runs


def paired(base: list, change: list):
    """The two sides' runs as aligned lists of metrics."""
    if sorted(s for s, _ in base) == sorted(s for s, _ in change):
        base, change = sorted(base, key=lambda r: r[0]), \
            sorted(change, key=lambda r: r[0])
    return [m for _, m in base], [m for _, m in change]


def verdict(base, change, bound: float, lower_is_better: bool) -> dict:
    """Compare two samples of one metric (see the module docstring)."""
    sign = 1.0 if lower_is_better else -1.0
    b1, b2, b3 = summary.quartiles(base)
    c1, c2, c3 = summary.quartiles(change)
    pairs = list(zip(base, change))
    won = sum(sign * (c - b) < 0 for b, c in pairs)
    worse_by = sign * (c2 - b2) / b2 if b2 else 0.0
    if worse_by > bound:
        flag = "worse"
    elif max(summary.spread(base), summary.spread(change)) > bound and \
            not all(sign * (c - b) < 0 for c in change for b in base):
        flag = "unresolved"
    elif pairs and won >= 0.9 * len(pairs) and abs(c2 - b2) > b3 - b1:
        flag = "better"
    else:
        flag = "same"
    return {"base": (b1, b2, b3), "change": (c1, c2, c3), "won": won,
            "pairs": len(pairs), "flag": flag}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = load_spec()
    base, change = load(args.base), load(args.change)
    flags = []
    for workload in sorted(set(base) & set(change)):
        base_runs, change_runs = paired(base[workload], change[workload])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            result = verdict([run[name] for run in base_runs],
                             [run[name] for run in change_runs],
                             metric["bound"], metric["better"] == "lower")
            flags.append(result["flag"])
            (b1, b2, b3), (c1, c2, c3) = result["base"], result["change"]
            print(f"{workload:<16} {name:<14} "
                  f"base {b2:.4g} [{b1:.4g}, {b3:.4g}]  "
                  f"change {c2:.4g} [{c1:.4g}, {c3:.4g}] {metric['unit']}  "
                  f"won {result['won']}/{result['pairs']}  "
                  f"bound {metric['bound']:.0%}  {result['flag']}")
    return 1 if "worse" in flags else 0


if __name__ == "__main__":
    sys.exit(main())
