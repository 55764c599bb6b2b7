"""Tests for the SmtSolver facade: models, assumptions, minimized cores."""

import pytest

from repro.smt import terms as T
from repro.smt.solver import SmtResult, SmtSolver


def bv(value, width=4):
    return T.bv_const(value, width)


class TestCheck:
    def test_sat_with_model(self):
        x = T.bv_var("fx", 4)
        solver = SmtSolver()
        solver.add_assertion(T.mk_ult(bv(5), x))
        solver.add_assertion(T.mk_ult(x, bv(8)))
        assert solver.check() is SmtResult.SAT
        assert 5 < solver.model([x])[x] < 8

    def test_unsat(self):
        x = T.bv_var("fy", 4)
        solver = SmtSolver()
        solver.add_assertion(T.mk_ult(x, bv(2)))
        solver.add_assertion(T.mk_ult(bv(4), x))
        assert solver.check() is SmtResult.UNSAT

    def test_constant_true_assertion_is_free(self):
        solver = SmtSolver()
        solver.add_assertion(T.TRUE)
        assert solver.check() is SmtResult.SAT

    def test_constant_false_assertion(self):
        solver = SmtSolver()
        solver.add_assertion(T.FALSE)
        assert solver.check() is SmtResult.UNSAT

    def test_non_boolean_assertion_rejected(self):
        solver = SmtSolver()
        with pytest.raises(TypeError):
            solver.add_assertion(T.bv_var("bad", 4))

    def test_model_requires_sat(self):
        solver = SmtSolver()
        solver.add_assertion(T.FALSE)
        solver.check()
        with pytest.raises(RuntimeError):
            solver.model()

    def test_model_evaluate_composite_term(self):
        x = T.bv_var("fz", 4)
        solver = SmtSolver()
        solver.add_assertion(T.mk_eq(x, bv(6)))
        assert solver.check() is SmtResult.SAT
        model = solver.model([x])
        assert model.evaluate(T.mk_add(x, bv(1))) == 7

    def test_model_after_asserting_a_fresh_variable(self):
        # The model predates `x`'s bits: x gets the default value, as a
        # variable that never reached the bit-blaster would.
        y = T.bv_var("fm_old", 4)
        solver = SmtSolver()
        solver.add_assertion(T.mk_eq(y, bv(3)))
        assert solver.check() is SmtResult.SAT
        x = T.bv_var("fm_new", 4)
        solver.add_assertion(T.mk_eq(x, bv(5)))
        model = solver.model()
        assert model[y] == 3
        assert model[x] == 0
        assert solver.check() is SmtResult.SAT
        assert solver.model()[x] == 5


class TestPrefer:
    def test_preferred_variables_are_decided_first(self):
        p, q = T.bool_var("pref_p"), T.bool_var("pref_q")
        x = T.bv_var("pref_x", 2)
        solver = SmtSolver()
        solver.add_assertion(T.mk_or(p, q, T.mk_eq(x, bv(3, 2))))
        solver.prefer([p, q])
        assert solver.check() is SmtResult.SAT
        # A fresh solver decides false first: p and q are decided before
        # anything else, and propagation then forces x = 3.
        assert solver.last_check.decisions == 2
        model = solver.model([p, q, x])
        assert (model[p], model[q], model[x]) == (False, False, 3)

    def test_unencoded_variables_are_skipped_not_encoded(self):
        x = T.bv_var("pref_y", 4)
        solver = SmtSolver()
        solver.add_assertion(T.mk_ult(x, bv(3)))
        variables = solver.sat._num_vars
        misses = solver.blaster.cache_misses
        solver.prefer([T.bv_var("pref_absent", 4), T.bool_var("pref_b"), x])
        assert solver.sat._num_vars == variables
        assert solver.blaster.cache_misses == misses
        assert solver.check() is SmtResult.SAT

    def test_non_variable_terms_are_rejected(self):
        solver = SmtSolver()
        with pytest.raises(TypeError):
            solver.prefer([T.mk_not(T.bool_var("pref_c"))])


class TestAssumptions:
    def test_sat_under_assumptions(self):
        p = T.bool_var("ap")
        solver = SmtSolver()
        assert solver.check([p]) is SmtResult.SAT
        assert solver.model([p])[p] is True

    def test_unsat_under_assumptions_is_recoverable(self):
        p = T.bool_var("aq")
        solver = SmtSolver()
        solver.add_assertion(T.mk_not(p))
        assert solver.check([p]) is SmtResult.UNSAT
        assert solver.check([T.mk_not(p)]) is SmtResult.SAT

    def test_true_assumptions_are_skipped(self):
        solver = SmtSolver()
        assert solver.check([T.TRUE, T.TRUE]) is SmtResult.SAT

    def test_false_assumption_short_circuits(self):
        solver = SmtSolver()
        assert solver.check([T.FALSE]) is SmtResult.UNSAT
        assert solver.unsat_core() == [T.FALSE]


class TestCores:
    def _interval_solver(self):
        x = T.bv_var("core_x", 4)
        low = T.mk_ult(bv(5), x)     # x > 5
        high = T.mk_ult(x, bv(3))    # x < 3
        odd = T.mk_eq(T.mk_bvand(x, bv(1)), bv(1))
        return SmtSolver(), low, high, odd

    def test_core_contains_conflicting_assumptions(self):
        solver, low, high, odd = self._interval_solver()
        assert solver.check([low, high, odd]) is SmtResult.UNSAT
        assert set(solver.unsat_core()) <= {low, high, odd}

    def test_minimized_core_is_minimal(self):
        solver, low, high, odd = self._interval_solver()
        assert solver.check([low, high, odd]) is SmtResult.UNSAT
        core = solver.minimize_core()
        assert set(core) == {low, high}
        # Minimality: every strict subset is satisfiable.
        for i in range(len(core)):
            subset = core[:i] + core[i + 1:]
            assert solver.check(subset) is SmtResult.SAT

    def test_minimize_core_with_explicit_core(self):
        solver, low, high, odd = self._interval_solver()
        assert solver.check([low, high, odd]) is SmtResult.UNSAT
        core = solver.minimize_core([low, high, odd])
        assert set(core) == {low, high}
