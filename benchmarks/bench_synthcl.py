"""Table 1 (SYNTHCL query bounds) and the SYNTHCL rows of Table 4.

Verification rows (MM*v, SF*v, FWT*v) check a refinement against the
reference on every symbolic input within bounds and must come back
``unsat`` with **zero unions** — the paper's signature for these rows
("the operations on these complex data types were all evaluated
concretely"). Synthesis rows (MM2s, SF*s, FWT*s) complete sketches by
CEGIS and do create unions (procedure-choice holes, rule AP2).

Bounds are scaled from Table 1 (see the module table below and
EXPERIMENTS.md); pass REPRO_BENCH_FULL=1 for larger sweeps.
"""

import pytest

from repro.sym import set_default_int_width
from repro.sdsl.synthcl import SYNTHCL_BENCHMARKS, run_benchmark

from conftest import FULL

VERIFY_IDS = ["MM1v", "MM2v", "SF1v", "SF2v", "SF3v", "SF4v", "SF5v",
              "SF6v", "SF7v", "FWT1v", "FWT2v"]
SYNTH_IDS = ["MM2s", "SF3s", "FWT1s", "FWT2s"]
SYNTH_FULL_IDS = ["SF7s"]

FULL_BOUNDS = {
    "MM1v": [(n, p, m) for n in (2, 4) for p in (2, 4) for m in (2, 4)],
    "MM2v": [(n, p, m) for n in (2, 4) for p in (2, 4) for m in (2, 4)],
    "FWT1v": [0, 1, 2, 3, 4],
    "FWT2v": [0, 1, 2, 3, 4],
}


def _print_row(name, outcome):
    stats = outcome.stats
    bench = SYNTHCL_BENCHMARKS[name]
    print(f"\nTable 1/4 row: {name:6s} joins={stats.joins:<8} "
          f"count={stats.unions_created:<6} "
          f"sum={stats.union_cardinality_sum:<7} "
          f"max={stats.max_union_cardinality:<4} "
          f"SVM={stats.svm_seconds:6.2f}s solver={stats.solver_seconds:6.2f}s "
          f"encode={stats.solver.encode_seconds:6.2f}s "
          f"conflicts={stats.solver.conflicts:<6} -> {outcome.status}   "
          f"(paper bounds: {bench.paper_bounds})")


@pytest.mark.parametrize("name", VERIFY_IDS)
def test_synthcl_verification(benchmark, name):
    set_default_int_width(8)
    bounds = FULL_BOUNDS.get(name) if FULL else None

    def run():
        return run_benchmark(name, bounds=bounds)

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    _print_row(name, outcome)
    assert outcome.status == "unsat", f"{name}: refinement must verify"
    # Table 4: all SYNTHCL verification rows have zero unions.
    assert outcome.stats.unions_created == 0


@pytest.mark.parametrize("name", SYNTH_IDS)
def test_synthcl_synthesis(benchmark, name):
    set_default_int_width(8)

    def run():
        return run_benchmark(name)

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    _print_row(name, outcome)
    assert outcome.status == "sat", f"{name}: sketch must be completable"
    # Table 4: unions are used most heavily by SYNTHCL synthesis queries.
    assert outcome.stats.unions_created > 0


@pytest.mark.parametrize("name", SYNTH_FULL_IDS)
@pytest.mark.skipif(not FULL, reason="set REPRO_BENCH_FULL=1")
def test_synthcl_synthesis_deep(benchmark, name):
    set_default_int_width(8)

    def run():
        return run_benchmark(name)

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    _print_row(name, outcome)
    assert outcome.status == "sat"
