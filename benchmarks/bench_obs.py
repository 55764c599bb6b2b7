#!/usr/bin/env python
"""Micro-benchmark guard: tracing *disabled* must cost (almost) nothing.

The observability layer's contract is that every instrumentation site is
a single ``BUS.enabled`` attribute check when no sink is subscribed. This
guard bounds the end-to-end cost of those checks on a real workload
without relying on flaky wall-clock A/B comparisons:

1. run a representative solve once with a counting sink subscribed, to
   learn how many times instrumentation sites actually fire (events
   emitted, plus the per-conflict milestone guard which runs even when
   no event results);
2. run it again with tracing disabled, timing the solve;
3. measure the cost of one disabled-path guard (`bus.enabled` attribute
   read + branch) with a tight loop;
4. assert   guard_cost × site_executions  <  2% × solve_time.

Step 3 deliberately over-counts (the loop includes its own overhead), so
the bound is conservative. Exits non-zero if the budget is blown.

Runnable directly (CI) or via pytest.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.events import BUS  # noqa: E402

OVERHEAD_BUDGET = 0.02  # fraction of solve wall time


def _workload():
    """A real query that exercises every site family: the bounded EENI
    verification of a leaky IFC machine (joins, unions, encode spans,
    checks, conflicts)."""
    from repro.sdsl.ifcl import BUGGY_MACHINES
    from repro.sdsl.ifcl.verify import eeni_check

    result = eeni_check(BUGGY_MACHINES["B2"], 3)
    assert result.status == "insecure", result.status
    return result


class _CountingSink:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def __call__(self, event):
        self.count += 1


def measure():
    # 1. Count site firings on an enabled run.
    sink = _CountingSink()
    unsubscribe = BUS.subscribe(sink)
    try:
        outcome = _workload()
    finally:
        unsubscribe()
    conflicts = outcome.stats.solver.conflicts
    # Every emitted event came from one guarded site; conflicts execute
    # the milestone guard each time but emit only every 1024th.
    site_executions = sink.count + conflicts

    # 2. Time the disabled run.
    assert not BUS.enabled
    started = time.perf_counter()
    _workload()
    solve_seconds = time.perf_counter() - started

    # 3. Cost of one disabled guard: attribute read + falsy branch.
    bus = BUS
    probes = 200_000
    started = time.perf_counter()
    acc = 0
    for _ in range(probes):
        if bus.enabled:
            acc += 1  # pragma: no cover - bus is disabled here
    guard_seconds = (time.perf_counter() - started) / probes
    assert acc == 0

    overhead = guard_seconds * site_executions
    fraction = overhead / solve_seconds
    print(f"sites fired: {site_executions} "
          f"({sink.count} events + {conflicts} conflict guards)")
    print(f"disabled solve: {solve_seconds * 1000:.1f} ms; "
          f"guard cost: {guard_seconds * 1e9:.0f} ns/site")
    print(f"estimated disabled-tracing overhead: {overhead * 1e6:.0f} µs "
          f"= {fraction * 100:.3f}% (budget {OVERHEAD_BUDGET * 100:.0f}%)")
    return fraction


def test_disabled_tracing_overhead():
    assert measure() < OVERHEAD_BUDGET


if __name__ == "__main__":
    sys.exit(0 if measure() < OVERHEAD_BUDGET else 1)
