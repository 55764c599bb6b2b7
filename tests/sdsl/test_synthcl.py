"""Tests for the SYNTHCL SDSL: types, runtime, programs, benchmarks."""

import json
import os
import subprocess
import sys

import pytest

import repro

from repro.sym import fresh_bool, fresh_int, merge, ops, set_default_int_width
from repro.sym.values import SymInt, Union
from repro.vm import AssertionFailure, VM
from repro.vm.context import current
from repro.sdsl.synthcl import (
    Buffer,
    CLRuntime,
    IntVec,
    SYNTHCL_BENCHMARKS,
    int4,
    run_benchmark,
)
from repro.sdsl.synthcl.programs import fwt, mm, sobel
from repro.sdsl.synthcl.sketch import choice, hole


@pytest.fixture(autouse=True)
def _width8():
    from repro.sym import default_int_width
    old = default_int_width()
    set_default_int_width(8)
    yield
    set_default_int_width(old)


class TestVectors:
    def test_lanewise_arithmetic(self):
        a = int4(1, 2, 3, 4)
        b = int4(10, 20, 30, 40)
        assert (a + b).lanes == (11, 22, 33, 44)
        assert (b - a).lanes == (9, 18, 27, 36)
        assert (a * 2).lanes == (2, 4, 6, 8)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            IntVec((1, 2)) + IntVec((1, 2, 3))

    def test_reduce_add(self):
        assert int4(1, 2, 3, 4).reduce_add() == 10

    def test_vectors_merge_lanewise(self):
        with VM():
            merged = merge(fresh_bool(), int4(1, 2, 3, 4), int4(5, 6, 7, 8))
            assert isinstance(merged, IntVec)
            assert all(isinstance(lane, SymInt) for lane in merged.lanes)

    def test_different_width_vectors_union(self):
        with VM():
            merged = merge(fresh_bool(), IntVec((1, 2)), int4(1, 2, 3, 4))
            assert isinstance(merged, Union)


class TestRuntime:
    def test_buffers_and_launch(self):
        with VM():
            runtime = CLRuntime()
            src = runtime.buffer("src", [1, 2, 3, 4])
            dst = runtime.buffer("dst", [0, 0, 0, 0])
            runtime.launch(lambda item: item.write(
                dst, item.get_global_id(),
                ops.mul(item.read(src, item.get_global_id()), 2)), 4)
            assert dst.snapshot() == (2, 4, 6, 8)

    def test_concrete_race_is_detected(self):
        with VM():
            runtime = CLRuntime()
            dst = runtime.buffer("dst", [0])
            with pytest.raises(AssertionFailure):
                runtime.launch(lambda item: item.write(dst, 0, 1), 2)

    def test_symbolic_race_becomes_assertion(self):
        with VM() as vm:
            runtime = CLRuntime()
            dst = runtime.buffer("dst", [0, 0])
            offset = fresh_int("race")
            vm.assert_(ops.and_(ops.ge(offset, 0), ops.lt(offset, 2)))
            def kernel(item):
                index = ops.add(item.get_global_id(), offset) \
                    if item.get_global_id() == 0 else item.get_global_id()
                item.write(dst, ops.modulo(index, 2), 1)
            runtime.launch(kernel, 2)
            # The distinctness obligation landed in the assertion store.
            assert len(vm.assertions) >= 2

    def test_races_can_be_disabled(self):
        with VM():
            runtime = CLRuntime(race_mode="off")
            dst = runtime.buffer("dst", [0])
            runtime.launch(lambda item: item.write(dst, 0, 1), 2)

    def test_multidim_ids_rejected(self):
        with VM():
            runtime = CLRuntime()
            with pytest.raises(ValueError):
                runtime.launch(lambda item: item.get_global_id(1), 1)


class TestMatrixMultiply:
    def concrete(self, fn, n, p, m):
        a = tuple(range(1, n * p + 1))
        b = tuple(range(1, p * m + 1))
        with VM():
            return fn(a, b, n, p, m)

    def test_reference_matches_numpy_style(self):
        out = self.concrete(mm.mm_reference, 2, 2, 2)
        # [[1,2],[3,4]] @ [[1,2],[3,4]] = [[7,10],[15,22]]
        assert out == (7, 10, 15, 22)

    def test_v1_matches_reference_concretely(self):
        for dims in ((2, 2, 2), (2, 3, 2), (3, 2, 3)):
            assert self.concrete(mm.mm_parallel_v1, *dims) == \
                self.concrete(mm.mm_reference, *dims)

    def test_v2_matches_reference_concretely(self):
        for dims in ((2, 2, 2), (2, 3, 2), (3, 4, 2)):
            assert self.concrete(mm.mm_parallel_v2, *dims) == \
                self.concrete(mm.mm_reference, *dims)

    def test_symbolic_verification_has_zero_unions(self):
        outcome = run_benchmark("MM1v", bounds=[(2, 2, 2)])
        assert outcome.status == "unsat"
        assert outcome.stats.unions_created == 0


class TestSobel:
    def image(self, w, h):
        return tuple((i * 7 + 3) % 50 for i in range(w * h * sobel.CHANNELS))

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_variants_match_reference_concretely(self, version):
        fn = sobel.SOBEL_VERSIONS[version]
        for w, h in ((1, 1), (2, 2), (3, 2)):
            with VM():
                assert fn(self.image(w, h), w, h) == \
                    sobel.sobel_reference(self.image(w, h), w, h)

    @pytest.mark.parametrize("version", [6, 7])
    def test_interior_variants_match_reference(self, version):
        fn = sobel.SOBEL_VERSIONS[version]
        for w, h in ((3, 3), (4, 3)):
            with VM():
                assert fn(self.image(w, h), w, h) == \
                    sobel.sobel_reference(self.image(w, h), w, h)

    def test_interior_variants_require_3x3(self):
        with pytest.raises(ValueError):
            sobel.sobel_v6(self.image(2, 2), 2, 2)
        with pytest.raises(ValueError):
            sobel.sobel_v7(self.image(1, 3), 1, 3)

    def test_sf_verification_passes(self):
        outcome = run_benchmark("SF1v", bounds=[(2, 2)])
        assert outcome.status == "unsat"

    def test_sketch_with_correct_weights_matches(self):
        with VM():
            # The sketch evaluated under any weights produces symbolic out.
            out = sobel.sobel_sketch(self.image(2, 2), 2, 2)
            assert any(isinstance(v, SymInt) for v in out)


class TestFwt:
    def test_reference_small(self):
        with VM():
            assert fwt.fwt_reference((1, 0, 1, 0)) == (2, 2, 0, 0)
            assert fwt.fwt_reference((1, 2)) == (3, -1)

    def test_reference_requires_power_of_two(self):
        with pytest.raises(ValueError):
            fwt.fwt_reference((1, 2, 3))

    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_v1_matches_reference(self, size):
        data = tuple(range(size))
        with VM():
            assert fwt.fwt_parallel_v1(data) == fwt.fwt_reference(data)

    @pytest.mark.parametrize("size", [1, 2, 4, 8, 16])
    def test_v2_matches_reference(self, size):
        data = tuple((i * 3 - 5) % 11 for i in range(size))
        with VM():
            assert fwt.fwt_parallel_v2(data) == fwt.fwt_reference(data)

    def test_fwt_verification_passes(self):
        outcome = run_benchmark("FWT2v", bounds=[0, 1, 2])
        assert outcome.status == "unsat"


class TestSketching:
    def test_hole_is_symbolic(self):
        assert isinstance(hole("h"), SymInt)

    def test_choice_of_ints_merges_logically(self):
        with VM():
            value = choice([1, 2, 3], "c")
            assert isinstance(value, SymInt)

    def test_choice_of_closures_is_a_union(self):
        with VM():
            value = choice([lambda: 1, lambda: 2], "p")
            assert isinstance(value, Union)

    def test_choice_requires_options(self):
        with pytest.raises(ValueError):
            choice([], "empty")

    def test_mm_synthesis_succeeds(self):
        outcome = run_benchmark("MM2s")
        assert outcome.status == "sat"
        assert outcome.stats.unions_created > 0  # Table 4's synthesis shape

    def test_fwt_synthesis_succeeds(self):
        outcome = run_benchmark("FWT2s")
        assert outcome.status == "sat"


_CHECK_SEARCH_SCRIPT = """
import json
from repro.sym import set_default_int_width
from repro.sdsl.synthcl import run_benchmark
set_default_int_width(8)
rows = {}
for name in ("MM2s", "SF3s", "FWT1s", "FWT2s"):
    outcome = run_benchmark(name)
    rows[name] = [outcome.status, outcome.stats.solver.conflicts]
print(json.dumps(rows))
"""


class TestCegisCheckSearch:
    """CEGIS checks decide the synthesis inputs first, so refuting a wrong
    candidate costs a handful of conflicts, not a SAT search. Two hash
    seeds, each in its own process, so the bound holds across orderings."""

    def test_synthesis_rows_need_few_conflicts(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        procs = [subprocess.Popen(
            [sys.executable, "-c", _CHECK_SEARCH_SCRIPT],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src,
                 "PYTHONHASHSEED": seed})
            for seed in ("0", "1")]
        try:
            outputs = [proc.communicate(timeout=60)[0] for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
                proc.wait()
        for proc, stdout in zip(procs, outputs):
            assert proc.returncode == 0
            rows = json.loads(stdout.splitlines()[-1])
            for name, (status, conflicts) in rows.items():
                assert status == "sat", name
                assert conflicts <= 25, (name, conflicts)


class TestBenchmarkRegistry:
    def test_all_table1_ids_present(self):
        expected = {"MM1v", "MM2v", "MM2s", "SF1v", "SF2v", "SF3v", "SF4v",
                    "SF5v", "SF6v", "SF7v", "SF3s", "SF7s", "FWT1v", "FWT2v",
                    "FWT1s", "FWT2s"}
        assert expected == set(SYNTHCL_BENCHMARKS)

    def test_kinds(self):
        assert SYNTHCL_BENCHMARKS["MM1v"].kind == "verify"
        assert SYNTHCL_BENCHMARKS["SF7s"].kind == "synthesize"

    def test_paper_bounds_recorded(self):
        assert "16" in SYNTHCL_BENCHMARKS["MM1v"].paper_bounds
