"""Self-tests of the benchmark's own arithmetic, tracer and oracles.

Run from the root of a checkout with either of::

    python3 -m pytest -q perfbench/test_perfbench.py
    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import math
import os
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import compare  # noqa: E402
import determinism  # noqa: E402
import run  # noqa: E402
import summary  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _raises(exception, call, *args):
    try:
        call(*args)
    except exception:
        return True
    return False


# -- self time over synthetic nested spans ---------------------------------

def test_self_times_of_nested_spans():
    spans = [
        ("queries", 0.0, 10.0),
        ("vm", 0.5, 2.5),
        ("smt.encode", 3.0, 5.0),
        ("analysis.sanitize", 3.5, 4.0),
        ("smt.check", 5.0, 9.0),           # starts as encode ends: sibling
        ("solver.sat", 5.5, 7.5),
        ("solver.certify", 7.5, 8.5),
    ]
    got = tracer.self_times(spans)
    want = {"queries": 10.0 - 2.0 - 2.0 - 4.0, "vm": 2.0,
            "smt.encode": 1.5, "analysis.sanitize": 0.5, "smt.check": 1.0,
            "solver.sat": 2.0, "solver.certify": 1.0}
    for layer, seconds in want.items():
        assert math.isclose(got[layer], seconds), (layer, got[layer])
    assert math.isclose(sum(got.values()), 10.0)


def test_self_times_sum_repeated_layers_and_any_input_order():
    spans = [("solver.sat", 6.0, 7.0), ("queries", 0.0, 8.0),
             ("smt.check", 1.0, 3.0), ("solver.sat", 1.5, 2.0),
             ("smt.check", 5.0, 7.5)]
    got = tracer.self_times(spans)
    assert math.isclose(got["solver.sat"], 1.5)
    assert math.isclose(got["smt.check"], 2.0 - 0.5 + 2.5 - 1.0)
    assert math.isclose(got["queries"], 8.0 - 2.0 - 2.5)


def test_self_times_rejects_partial_overlap():
    assert _raises(tracer.NestingError, tracer.self_times,
                   [("queries", 0.0, 5.0), ("vm", 4.0, 6.0)])
    assert _raises(tracer.NestingError, tracer.self_times,
                   [("vm", 2.0, 1.0)])


def test_tracer_reports_mismatched_end():
    trace = tracer.Tracer()
    trace.begin("queries")
    trace.begin("vm")
    assert _raises(tracer.NestingError, trace.end, "queries")


# -- medians, quartiles and spreads ----------------------------------------

def test_median_with_its_sample_count():
    assert summary.median_with_count([3.0, 1.0, 2.0]) == (2.0, 3)
    assert summary.median_with_count([4.0, 1.0, 2.0, 3.0]) == (2.5, 4)
    assert summary.median_with_count([7.0]) == (7.0, 1)
    assert _raises(ValueError, summary.median_with_count, [])


def test_quartiles_and_spread():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = summary.quartiles(values)
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert math.isclose(summary.spread(values), (8.25 - 2.75) / 5.5)
    assert summary.quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_compare_flags():
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    slower = [v * 1.2 for v in base]
    faster = [v * 0.8 for v in base]
    noisy = [5.0, 15.0, 10.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0, 10.0]
    assert compare.verdict(base, slower, 0.1, True)["flag"] == "worse"
    assert compare.verdict(base, faster, 0.1, True)["flag"] == "better"
    assert compare.verdict(base, faster, 0.1, True)["won"] == 10
    assert compare.verdict(base, base, 0.1, True)["flag"] == "same"
    assert compare.verdict(base, noisy, 0.1, True)["flag"] == "unresolved"
    assert compare.verdict(base, slower, 0.1, False)["flag"] == "better"


def test_compare_pairs_by_seed_else_by_order():
    base = [(2, "b2"), (1, "b1")]
    assert compare.paired(base, [(1, "c1"), (2, "c2")]) == \
        (["b1", "b2"], ["c1", "c2"])
    assert compare.paired(base, [(9, "c9"), (8, "c8")]) == \
        (["b2", "b1"], ["c9", "c8"])


def test_determinism_report():
    def record(seed, joins, conflicts):
        return {"trace": True, "workload": "w", "inputs_key": "fixed",
                "seed": seed, "metrics": {"vm.joins": joins,
                                          "solver.sat.conflicts": conflicts}}
    lines = determinism.report(
        [record(1, 5, 10), record(2, 5, 30), record(3, 5, 20)],
        ["vm.joins", "solver.sat.conflicts"])
    assert lines[1].split() == ["vm.joins", "exact", "5"]
    assert lines[2].split() == ["solver.sat.conflicts", "varies", "min",
                                "10", "median", "20", "max", "30"]


# -- oracles count a planted wrong verdict ----------------------------------

def _record(passes):
    return {"passes": passes, "setup_samples": [0.2, 0.3, 0.1],
            "peak_rss_kb": 2048, "trace": False}


def test_planted_wrong_verdict_is_counted():
    right = workloads.Query("right", call=lambda: "sat",
                            check=lambda r: None if r == "sat" else "wrong")
    wrong = workloads.Query("planted", call=lambda: "unsat",
                            check=right.check)
    broken = workloads.Query("raises", call=lambda: 1 / 0,
                             check=right.check)
    records = [worker.run_query(q, None) for q in (right, wrong, broken)]
    assert "failure" not in records[0]
    assert records[1]["failure"] == "wrong"
    assert records[2]["failure"].startswith("raised: ZeroDivisionError")
    metrics = run.metrics(_record(
        [{"traced": False, "wall": 1.0, "queries": records}]))
    assert metrics["failed"] == 2 and metrics["attempted"] == 3
    assert math.isclose(metrics["fail_ratio"], 2 / 3)
    assert metrics["setup_s"] == 0.2 and metrics["peak_rss_mb"] == 2.0
    line = run.result_line(dict(_record([]), metrics=metrics),
                           run.load_spec())
    assert line["correct"] is False and line["failed"] == 2


def test_ifcl_oracle_replays_attacks_and_uses_the_frontier():
    from repro.sym import set_default_int_width
    from repro.sdsl.ifcl import BUGGY_MACHINES, eeni_check

    set_default_int_width(5)
    b2 = BUGGY_MACHINES["B2"]
    result = eeni_check(b2, 3)
    assert workloads.check_ifcl(b2, "B2", 3, result) is None
    planted = SimpleNamespace(status="secure", counterexample=None)
    assert "expected insecure" in workloads.check_ifcl(b2, "B2", 3, planted)
    harmless = SimpleNamespace(status="insecure",
                               counterexample=["Noop 0|0@L"] * 3)
    assert "leaks nothing" in workloads.check_ifcl(b2, "B2", 3, harmless)
    b1 = BUGGY_MACHINES["B1"]
    assert "expected secure" in workloads.check_ifcl(
        b1, "B1", 3, SimpleNamespace(status="insecure"))
    assert workloads.ifcl_expected("basic", 4) == "secure"
    assert workloads.ifcl_expected("CR1", 5) == "insecure"


def test_synthcl_oracle():
    clean = SimpleNamespace(unions_created=0)
    assert workloads.check_synthcl(
        "MM1v", SimpleNamespace(status="unsat", stats=clean)) is None
    assert workloads.check_synthcl(
        "MM1v", SimpleNamespace(status="sat", stats=clean))
    assert workloads.check_synthcl(
        "MM1v", SimpleNamespace(status="unsat",
                                stats=SimpleNamespace(unions_created=2)))
    assert workloads.check_synthcl(
        "MM2s", SimpleNamespace(status="unknown", stats=clean))


def test_websynth_oracle_runs_the_xpath():
    from repro.sym import set_default_int_width
    from repro.sdsl.websynth import SITE_SPECS, generate_site, \
        synthesize_xpath

    set_default_int_width(16)
    root, truth, examples = generate_site(SITE_SPECS[0], scale=0.12)
    result = synthesize_xpath(root, examples)
    assert workloads.check_xpath("iTunes", root, examples, result) is None
    planted = SimpleNamespace(status="sat", xpath=tuple(truth[:-1]))
    assert "misses" in workloads.check_xpath("iTunes", root, examples,
                                              planted)


# -- the traced layer split adds up on a real query -------------------------

def test_traced_query_split_adds_up():
    from repro.sym import set_default_int_width
    from repro.smt.solver import SmtSolver

    set_default_int_width(5)
    original = SmtSolver.check
    query = workloads.build("ifcl-certified", seed=0).queries[0]
    trace = tracer.Tracer()
    saved = dict(os.environ)
    os.environ.update(workloads.ENV["ifcl-certified"])
    trace.install()
    try:
        record = worker.run_query(query, trace)
    finally:
        trace.uninstall()
        os.environ.clear()
        os.environ.update(saved)
    assert SmtSolver.check is original
    assert "failure" not in record, record.get("failure")
    layers = record["self_s"]
    assert 0.0 <= record["seconds"] - sum(layers.values()) < 0.001
    assert all(seconds >= 0.0 for seconds in layers.values())
    assert record["counts"]["queries.checks"] == 1
    assert record["counts"]["solver.sat.conflicts"] > 0
    assert record["counts"]["solver.certify.checks"] == 1
    assert layers["solver.certify"] > 0.0 and layers["analysis.sanitize"] > 0


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} passed")
