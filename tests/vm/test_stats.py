"""Tests for evaluation statistics (Table 4's instrumentation)."""

from repro.sym import fresh_bool, fresh_int, merge
from repro.sym.values import UNION_COUNTERS
from repro.vm import VM
from repro.vm.stats import EvalStats


class TestUnionCounters:
    def test_counting(self):
        UNION_COUNTERS.reset()
        merge(fresh_bool(), (1,), (1, 2))
        assert UNION_COUNTERS.created == 1
        assert UNION_COUNTERS.cardinality_sum == 2
        assert UNION_COUNTERS.max_cardinality == 2

    def test_reset(self):
        merge(fresh_bool(), (1,), (1, 2))
        UNION_COUNTERS.reset()
        assert UNION_COUNTERS.created == 0


class TestEvalStats:
    def test_window_captures_only_bracketed_unions(self):
        merge(fresh_bool("before"), (1,), (1, 2))  # outside the window
        stats = EvalStats()
        stats.start()
        merge(fresh_bool("inside"), (1,), (1, 2, 3))
        stats.stop()
        assert stats.unions_created == 1
        assert stats.union_cardinality_sum == 2
        assert stats.svm_seconds > 0

    def test_accumulates_across_windows(self):
        stats = EvalStats()
        for _ in range(2):
            stats.start()
            merge(fresh_bool(), (1,), (1, 2))
            stats.stop()
        assert stats.unions_created == 2

    def test_row_shape(self):
        stats = EvalStats()
        row = stats.row()
        assert set(row) == {"joins", "count", "sum", "max",
                            "svm_sec", "solver_sec"}

    def test_vm_counts_joins(self):
        with VM() as vm:
            vm.stats.start()
            vm.branch(fresh_bool(), lambda: 1, lambda: 2)
            vm.branch(True, lambda: 1, lambda: 2)  # concrete: no join
            vm.stats.stop()
            assert vm.stats.joins == 1

    def test_max_cardinality_tracks_peak(self):
        stats = EvalStats()
        stats.start()
        union = merge(fresh_bool("p1"), (1,), (1, 2))
        merge(fresh_bool("p2"), union, (1, 2, 3))
        stats.stop()
        assert stats.max_union_cardinality == 3

    def test_nested_windows_do_not_clobber_outer_max(self):
        """Regression: start() zeroes the global max counter for its own
        window; stop() must restore the surrounding window's peak, or a
        nested evaluation (a query run from inside another evaluation)
        under-reports the outer `max` column."""
        outer = EvalStats()
        inner = EvalStats()
        outer.start()
        union = merge(fresh_bool("n1"), (1,), (1, 2))
        merge(fresh_bool("n2"), union, (1, 2, 3))  # outer peak: 3
        inner.start()
        merge(fresh_bool("n3"), (1,), (1, 2))      # inner peak: 2
        inner.stop()
        outer.stop()
        assert inner.max_union_cardinality == 2
        assert outer.max_union_cardinality == 3  # not clobbered to 2

    def test_interleaved_windows_keep_global_peak(self):
        outer = EvalStats()
        inner = EvalStats()
        outer.start()
        merge(fresh_bool("i1"), (1,), (1, 2))      # peak 2, before inner
        inner.start()
        inner.stop()                                # inner saw nothing
        outer.stop()
        assert inner.max_union_cardinality == 0
        # The peak predates inner's window, but stop() restores it.
        assert outer.max_union_cardinality == 2


class TestSolverStats:
    """EvalStats.solver is one CheckStats, fed by the queries directly."""

    def test_untraced_queries_keep_the_bus_off_during_search(self,
                                                             monkeypatch):
        from repro.obs.events import BUS
        from repro.queries import solve, verify
        from repro.solver.sat import SatSolver
        from repro.vm import assert_

        seen = []
        original = SatSolver.solve

        def spy(self, *args, **kwargs):
            seen.append(BUS.enabled)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SatSolver, "solve", spy)
        x = fresh_int("bus_off")
        assert solve(lambda: assert_(x * 3 == 12)).status == "sat"
        assert verify(lambda: assert_(x * 2 != 7)).status == "unsat"
        assert seen == [False, False]

    def test_query_stats_equal_the_solver_deltas(self):
        from repro.queries import solve
        from repro.smt.solver import CheckStats
        from repro.vm import assert_

        x = fresh_int("sum_of_deltas")
        outcome = solve(lambda: assert_(x * x == 49))
        assert outcome.status == "sat"
        assert isinstance(outcome.stats.solver, CheckStats)
        assert outcome.stats.solver.checks == 1
        assert outcome.stats.solver.encode_misses > 0

    def test_encode_and_sanitize_time_fit_in_the_query_wall_time(self):
        import time

        from repro.queries import SolveOptions
        from repro.sdsl.synthcl import run_benchmark

        started = time.perf_counter()
        outcome = run_benchmark("FWT2s", options=SolveOptions(analyze=True))
        wall = time.perf_counter() - started
        assert outcome.status == "sat"
        stats = outcome.stats
        assert stats.solver.encode_seconds > 0
        assert stats.solver.sanitize_seconds > 0
        # add_assertion runs outside `check`, so the four layers are
        # disjoint and their sum cannot exceed the query.
        assert (stats.svm_seconds + stats.solver_seconds
                + stats.solver.encode_seconds
                + stats.solver.sanitize_seconds) <= wall

    def test_merge_outcomes_sums_every_check_stats_field(self):
        from dataclasses import fields

        from repro.queries import QueryOutcome
        from repro.sdsl.synthcl.bench import _merge_outcomes
        from repro.smt.solver import CheckStats

        names = [f.name for f in fields(CheckStats)]

        def outcome(base):
            stats = EvalStats(solver=CheckStats(
                **{name: base + i for i, name in enumerate(names)}))
            return QueryOutcome("unsat", stats=stats)

        merged = _merge_outcomes(outcome(1), outcome(100))
        for i, name in enumerate(names):
            assert getattr(merged.stats.solver, name) == 101 + 2 * i, name

    def test_queries_and_drivers_take_one_options_object(self):
        import inspect

        from repro.queries import debug, solve, synthesize, verify
        from repro.sdsl.ifcl import check_attack, eeni_check
        from repro.sdsl.synthcl import run_benchmark
        from repro.sdsl.websynth import synthesize_xpath

        for entry in (solve, verify, debug, synthesize, eeni_check,
                      check_attack, synthesize_xpath, run_benchmark):
            params = inspect.signature(entry).parameters
            assert "options" in params, entry.__name__
            for knob in ("max_conflicts", "budget", "certify", "analyze"):
                assert knob not in params, (entry.__name__, knob)
