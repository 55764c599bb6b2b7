"""Which per-layer counts repeated exactly across a set of traced runs.

Usage::

    python3 perfbench/determinism.py RESULTS.jsonl

Runs are grouped by workload and by their inputs (WebSynth pages depend
on the seed; the other workloads run the same queries on every seed).
For each count metric of BENCHMARK.json the report says ``exact`` when
every run of the group read the same value, and otherwise gives
min / median / max. ``solver.sat.conflicts`` is always given as
min / median / max.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

from run import load_spec


def report(records, count_names) -> list:
    """Lines of the report for traced run `records`."""
    groups = defaultdict(list)
    for record in records:
        if record["trace"]:
            groups[(record["workload"], record["inputs_key"])].append(
                record["metrics"])
    lines = []
    for (workload, inputs), runs in sorted(groups.items()):
        lines.append(f"{workload} (inputs {inputs}, {len(runs)} runs)")
        for name in count_names:
            values = [run[name] for run in runs]
            low, mid, high = min(values), statistics.median(values), \
                max(values)
            if low == high and name != "solver.sat.conflicts":
                lines.append(f"  {name:<28} exact  {low}")
            else:
                state = "exact" if low == high else "varies"
                lines.append(f"  {name:<28} {state:<6} "
                             f"min {low}  median {mid}  max {high}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results")
    args = parser.parse_args(argv)
    counts = [m["name"] for m in load_spec()["per_layer"]
              if m["unit"] == "count"]
    with open(args.results) as handle:
        records = [json.loads(line) for line in handle]
    for line in report(records, counts):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
