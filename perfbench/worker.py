"""One workload in one process: set up, then a closed loop of queries.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the program's
sources. It prints ``ready`` once set-up is done (the parent times process
start to that line), then runs passes over the query set, one caller
issuing each query only after the previous one returned, until
``--seconds`` have passed. Each pass shuffles the query order from the
seed. The last line of its output is a JSON record of every query.

With ``--trace 1`` passes alternate untraced and traced, so the tracing
overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback

import tracer as tracing
import workloads

# Largest share of a query's wall time, or absolute time, that the layer
# self times may leave unattributed.
SPLIT_SLACK_SHARE = 0.05
SPLIT_SLACK_S = 0.001


def run_query(query, trace):
    """Issue one query; returns its record (time, verdict, layer split)."""
    started = time.perf_counter()
    if trace is not None:
        trace.begin("queries")
    try:
        result = query.call()
        error = None
    except Exception:  # a raising query is a failed query, not a crash
        result, error = None, traceback.format_exc(limit=3)
    finally:
        if trace is not None:
            trace.end("queries")
    seconds = time.perf_counter() - started
    record = {"name": query.name, "seconds": seconds}
    if error is not None:
        record["failure"] = f"raised: {error.strip().splitlines()[-1]}"
        if trace is not None:
            trace.take()
        return record
    try:
        failure = query.check(result)
    except Exception as error:  # an oracle that cannot decide fails the query
        failure = f"oracle raised {error!r}"
    if failure is not None:
        record["failure"] = failure
    if trace is not None:
        spans, counts = trace.take()
        stats = result.stats
        counts.update({
            "vm.joins": stats.joins,
            "vm.unions": stats.unions_created,
            "vm.union_card_sum": stats.union_cardinality_sum,
            "vm.union_card_max": stats.max_union_cardinality,
            "queries.cegis_iterations": workloads.cegis_iterations(result),
        })
        record["counts"] = counts
        try:
            record["self_s"] = tracing.self_times(spans)
        except tracing.NestingError as nesting:
            record["failure"] = f"spans do not nest: {nesting}"
            return record
        # The layers' self times must add up to the driver wall time; the
        # remainder is the tracer's own bookkeeping around the root span.
        unattributed = seconds - sum(record["self_s"].values())
        if not 0.0 <= unattributed <= max(SPLIT_SLACK_S,
                                          SPLIT_SLACK_SHARE * seconds):
            record["failure"] = (f"layer split misses the wall time by "
                                 f"{unattributed:.6f} s")
    return record


def closed_loop(workload, seed, seconds, trace):
    """Run passes until `seconds` have passed.

    An untraced run stops at the first query boundary after the deadline,
    once one whole pass is done. A traced run alternates untraced and
    traced passes and ends only at a pass boundary, after at least one of
    each, since its per-layer figures are per-pass totals.
    """
    deadline = time.perf_counter() + seconds
    tracer = tracing.Tracer() if trace else None
    passes = []
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        order = list(workload.queries)
        random.Random(seed * 1000 + len(passes)).shuffle(order)
        if traced:
            tracer.install()
        started = time.perf_counter()
        records = []
        try:
            for query in order:
                if passes and tracer is None and \
                        time.perf_counter() >= deadline:
                    break
                records.append(run_query(query, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced,
                       "wall": time.perf_counter() - started,
                       "queries": records})
        if time.perf_counter() >= deadline and \
                len(passes) >= (2 if tracer is not None else 1):
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    passes = closed_loop(workload, args.seed, args.seconds, bool(args.trace))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"passes": passes, "peak_rss_kb": peak_kb,
                      "inputs_key": workload.inputs_key}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
