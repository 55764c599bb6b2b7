"""Time-to-verdict benchmark over the paper's IFCL, SynthCL and WebSynth
queries.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ifcl-eeni --seed 1 --seconds 50 \
        --trace 0 [--out results.jsonl]
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Each workload runs in a single-threaded child process of its own (see
``worker.py``). This parent times that process's set-up from outside,
several times, checks every verdict the child reports, and prints one
row and then, as the last line, a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. ``--workload
all`` runs the four workloads one after another and prints a table.
``--out`` appends the full record of the run, every query included, to
a JSON-lines file that ``compare.py`` and ``determinism.py`` read.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import summary
from workloads import ENV, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up samples per run: this many set-up-only processes plus the
#: measured one; setup_s is their median.
SETUP_SAMPLES = 7
#: A run stops its worker after this long (the driver allows 180 s).
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    """BENCHMARK.json: the metric names, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def child_env(workload: str) -> dict:
    env = dict(os.environ)
    # Ordering noise is part of what is measured: never pin hashing, and
    # let only this workload's knobs reach the program.
    for name in ("PYTHONHASHSEED", "REPRO_CERTIFY", "REPRO_ANALYZE",
                 "REPRO_TRACE"):
        env.pop(name, None)
    env.update(ENV[workload])
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn(args, workload: str, deadline: float):
    """Start a worker; return (process, seconds from start to ready)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, env=child_env(workload),
        cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        if line.strip() != "ready":
            raise BenchError(f"{workload} worker failed during set-up")
        if time.perf_counter() > deadline:
            raise BenchError(f"{workload} set-up overran the run limit")
    except BaseException:
        _stop(proc)
        raise
    return proc, ready


def _finish(proc, workload: str, deadline: float) -> str:
    """Wait for a worker until `deadline`; return its output. The worker
    is killed and reaped if anything goes wrong."""
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} ran past {RUN_LIMIT_S:.0f} s")
    finally:
        if proc.poll() is None:
            _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    return out


def _stop(proc) -> None:
    proc.kill()
    proc.communicate()


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Run one workload; returns the full record of the run."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, ready = _spawn(base + ["--seconds", "0", "--setup-only"],
                             workload, deadline)
        _finish(proc, workload, deadline)
        setup.append(ready)
    proc, ready = _spawn(base + ["--seconds", str(seconds),
                                 "--trace", str(int(trace))],
                         workload, deadline)
    setup.append(ready)
    record = json.loads(_finish(proc, workload, deadline).splitlines()[-1])
    record.update(workload=workload, seed=seed, seconds=seconds,
                  trace=trace, setup_samples=setup)
    record["metrics"] = metrics(record)
    return record


def metrics(record: dict) -> dict:
    """Every metric of a run record, end-to-end and (if traced) per layer.

    Untraced queries give the end-to-end times. A query may have run more
    than once in a run, so each query counts with its median: run_s is the
    sum of those medians (one pass at each query's median) and
    verdict_s.p50 is their median.
    """
    passes = record["passes"]
    queries = [q for p in passes for q in p["queries"]]
    samples = {}
    for p in passes:
        if not p["traced"]:
            for q in p["queries"]:
                samples.setdefault(q["name"], []).append(q["seconds"])
    per_query = [summary.median_with_count(times)[0]
                 for times in samples.values()]
    failed = sum("failure" in q for q in queries)
    out = {
        "run_s": sum(per_query),
        "verdict_s.p50": summary.median_with_count(per_query)[0],
        "verdict_s.samples": sum(map(len, samples.values())),
        "fail_ratio": failed / len(queries),
        "setup_s": summary.median_with_count(record["setup_samples"])[0],
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
        "attempted": len(queries),
        "failed": failed,
    }
    if record["trace"]:
        out.update(summary.layer_metrics(passes))
    return out


def result_line(record: dict, spec: dict) -> dict:
    """The benchmark's last output line for one run: the metrics that
    BENCHMARK.json lists for a traced or an untraced run."""
    values = record["metrics"]
    listed = spec["per_layer" if record["trace"] else "end_to_end"]
    return {"correct": values["failed"] == 0,
            "attempted": values["attempted"],
            "failed": values["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in listed}}


def row(record: dict) -> str:
    m = record["metrics"]
    return (f"{record['workload']:<16} run_s={m['run_s']:.3f} s  "
            f"verdict_s.p50={m['verdict_s.p50']:.3f} s "
            f"(n={m['verdict_s.samples']})  "
            f"fail_ratio={m['fail_ratio']:.3f} ({m['failed']}/"
            f"{m['attempted']})  setup_s={m['setup_s']:.3f} s  "
            f"peak_rss_mb={m['peak_rss_mb']:.1f} MB")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append run records to this file")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
            for p in record["passes"]:
                for q in p["queries"]:
                    if "failure" in q:
                        print(f"FAILED {name} {q['name']}: {q['failure']}",
                              file=sys.stderr)
            print(row(record), flush=True)
            results[name] = result_line(record, spec)
            if args.out:
                with open(args.out, "a") as sink:
                    sink.write(json.dumps(record) + "\n")
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if args.trace:
        for name, result in results.items():
            for metric, value in result["metrics"].items():
                print(f"  {name:<16} {metric:<28} {value['value']:.6g} "
                      f"{value['unit']}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
