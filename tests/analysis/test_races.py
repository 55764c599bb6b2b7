"""The static data-race pre-detector: discharge without the solver.

The acceptance property from the issue: a disjoint-write kernel is
discharged entirely by the static classifier — zero solver checks,
zero residual obligations — and the evidence is visible on the
``analysis.race`` bus counters. The other direction matters equally:
definite overlaps are reported as such, and genuinely symbolic pairs
still reach the dynamic machinery.
"""

import pytest

from repro.analysis.races import (
    DISJOINT,
    OVERLAP,
    UNKNOWN,
    classify_index_pair,
    classify_launch,
)
from repro.obs.metrics import BusMetrics
from repro.sdsl.synthcl.runtime import CLRuntime, KernelRace
from repro.sym import fresh_int, ops
from repro.vm import VM


class TestClassifier:
    def test_concrete_indices(self):
        assert classify_index_pair(3, 3) == (OVERLAP, "concrete")
        assert classify_index_pair(3, 4) == (DISJOINT, "concrete")

    def test_linear_difference(self):
        with VM():
            i = fresh_int("lin_i")
            assert classify_index_pair(ops.add(i, 2),
                                       ops.add(i, 5)) == (DISJOINT, "linear")
            assert classify_index_pair(ops.add(i, 2),
                                       ops.add(2, i)) != (UNKNOWN, "dynamic")

    def test_abstract_parity(self):
        with VM():
            i = fresh_int("par_i")
            even = ops.mul(i, 2)
            odd = ops.add(ops.mul(i, 2), 1)
            verdict, reason = classify_index_pair(even, odd)
            assert verdict is DISJOINT
            assert reason in ("linear", "abstract")

    def test_unrelated_symbolic_is_dynamic(self):
        with VM():
            a = fresh_int("dyn_a")
            b = fresh_int("dyn_b")
            assert classify_index_pair(a, b) == (UNKNOWN, "dynamic")


class _Item:
    """A minimal stand-in for WorkItemContext in classifier-only tests."""

    def __init__(self, gid, accesses):
        self.global_id = gid
        self.accesses = accesses


class TestClassifyLaunch:
    def test_write_read_pairs_and_residual(self):
        with VM():
            sym = fresh_int("launch_sym")
            items = [
                _Item(0, [("buf", 0, True), ("other", 1, True)]),
                _Item(1, [("buf", 0, False), ("buf", sym, False)]),
            ]
            report, residual = classify_launch(items)
            # write(buf,0) vs read(buf,0) overlaps; vs read(buf,sym) is
            # dynamic; the "other" buffer has no second accessor.
            assert report.pairs == 2
            assert report.overlaps == 1
            assert report.residual == 1
            assert len(residual) == 1
            check, condition = residual[0]
            assert check.verdict is UNKNOWN
            assert not isinstance(condition, bool)


class TestRuntimeModes:
    def _disjoint_launch(self, runtime):
        dst = runtime.buffer("dst", [0, 0, 0, 0])
        runtime.launch(
            lambda item: item.write(dst, item.get_global_id(), 1), 4)

    def test_disjoint_kernel_discharges_with_zero_solver_checks(self):
        metrics = BusMetrics()
        with metrics.subscribed():
            with VM() as vm:
                runtime = CLRuntime()
                self._disjoint_launch(runtime)
                # Every pair proven disjoint: no path obligations at all.
                assert vm.assertions == []
        snapshot = metrics.snapshot()
        assert snapshot["analysis.race.launches"] == 1
        assert snapshot["analysis.race.pairs"] == 6
        assert snapshot["analysis.race.discharged"] == 6
        assert snapshot["analysis.race.residual"] == 0
        # The headline acceptance check: the launch triggered no solver
        # work whatsoever — not a single smt.check span on the bus.
        assert snapshot.get("smt.checks", 0) == 0
        report = runtime.race_reports[0]
        assert report.discharged == report.pairs == 6

    def test_linear_symbolic_indices_discharge(self):
        with VM() as vm:
            runtime = CLRuntime()
            base = fresh_int("lin_base")
            dst = runtime.buffer("dst", [0, 0, 0])
            runtime.launch(
                lambda item: item.write(
                    dst, ops.add(base, item.get_global_id()), 1), 3)
            # The symbolic writes leave buffer-bounds obligations in the
            # store; zero residual below means no *race* obligation was
            # added on top of them.
            bounds_only = len(vm.assertions)
        report = runtime.race_reports[0]
        assert bounds_only == 3  # one in-bounds obligation per work item
        assert report.discharged == report.pairs == 3
        assert all(c.reason == "linear" for c in report.checks)

    def test_assert_mode_raises_on_definite_overlap(self):
        with VM():
            runtime = CLRuntime()  # default: assert mode
            dst = runtime.buffer("dst", [0])
            with pytest.raises(KernelRace, match="proven statically"):
                runtime.launch(lambda item: item.write(dst, 0, 1), 2)

    def test_symbolic_mode_models_definite_overlap(self):
        from repro.vm.errors import AssertionFailure

        with VM():
            runtime = CLRuntime(race_mode="symbolic")
            dst = runtime.buffer("dst", [0])
            # On a concretely-true path a definite race is an ordinary
            # failed obligation (AssertionFailure), not the launch-time
            # KernelRace of assert mode — under symbolic guards it would
            # fold into the path condition instead.
            with pytest.raises(AssertionFailure) as failure:
                runtime.launch(lambda item: item.write(dst, 0, 1), 2)
            assert not isinstance(failure.value, KernelRace)

    def test_off_mode_checks_nothing(self):
        with VM() as vm:
            runtime = CLRuntime(race_mode="off")
            dst = runtime.buffer("dst", [0])
            runtime.launch(lambda item: item.write(dst, 0, 1), 2)
            assert vm.assertions == []
            assert runtime.race_reports == []

    def test_race_mode_is_the_only_knob(self):
        assert CLRuntime().race_mode == "assert"
        with pytest.raises(ValueError):
            CLRuntime(race_mode="sometimes")
        with pytest.raises(TypeError):
            CLRuntime(check_races=False)

    def test_residual_pairs_still_reach_the_dynamic_machinery(self):
        with VM() as vm:
            runtime = CLRuntime(race_mode="symbolic")
            sym = fresh_int("resid")
            vm.assert_(ops.and_(ops.ge(sym, 0), ops.lt(sym, 2)))
            dst = runtime.buffer("dst", [0, 0])

            def kernel(item):
                if item.get_global_id() == 0:
                    item.write(dst, sym, 1)
                else:
                    item.write(dst, 1, 1)

            runtime.launch(kernel, 2)
            report = runtime.race_reports[0]
            assert report.residual == 1
            # The distinctness obligation landed in the assertion store.
            assert len(vm.assertions) >= 2


class TestMatrixMultiplySketch:
    def test_mm_sketch_writes_discharge_statically(self):
        """The mm.py fix: holes in *read* indices leave the write set
        concrete, so the pre-detector discharges every pair."""
        from repro.sdsl.synthcl.programs import mm

        with VM():
            a = (1, 2, 3, 4)
            b = (5, 6, 7, 8)
            metrics = BusMetrics()
            with metrics.subscribed():
                mm.mm_sketch(a, b, 2, 2, 2)
            snapshot = metrics.snapshot()
            assert snapshot["analysis.race.pairs"] > 0
            assert (snapshot["analysis.race.discharged"]
                    == snapshot["analysis.race.pairs"])
            assert snapshot["analysis.race.residual"] == 0
