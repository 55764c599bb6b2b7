"""Unit and property tests for the CDCL SAT solver."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.solver.budget import REASON_CONFLICTS, Budget
from repro.solver.sat import SatResult, SatSolver, _luby

from golden_cnf import run_golden


def brute_force_sat(num_vars, clauses):
    """Reference decision procedure by exhaustive enumeration."""
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any((bits[abs(l) - 1] if l > 0 else not bits[abs(l) - 1])
                   for l in clause) for clause in clauses):
            return True
    return False


class TestBasics:
    def test_empty_problem_is_sat(self):
        assert SatSolver().solve() is SatResult.SAT

    def test_single_unit_clause(self):
        solver = SatSolver()
        x = solver.new_var()
        solver.add_clause([x])
        assert solver.solve() is SatResult.SAT
        assert solver.model_value(x) is True

    def test_contradicting_units(self):
        solver = SatSolver()
        x = solver.new_var()
        solver.add_clause([x])
        assert not solver.add_clause([-x])
        assert solver.solve() is SatResult.UNSAT

    def test_binary_implication_chain(self):
        solver = SatSolver()
        variables = [solver.new_var() for _ in range(10)]
        for a, b in zip(variables, variables[1:]):
            solver.add_clause([-a, b])
        solver.add_clause([variables[0]])
        assert solver.solve() is SatResult.SAT
        assert all(solver.model_value(v) for v in variables)

    def test_tautology_is_dropped(self):
        solver = SatSolver()
        x = solver.new_var()
        assert solver.add_clause([x, -x])
        assert solver.solve() is SatResult.SAT

    def test_duplicate_literals_collapse(self):
        solver = SatSolver()
        x = solver.new_var()
        solver.add_clause([x, x, x])
        assert solver.solve() is SatResult.SAT
        assert solver.model_value(x) is True

    def test_pigeonhole_3_into_2_unsat(self):
        # Three pigeons, two holes: classic small UNSAT instance.
        solver = SatSolver()
        var = {(p, h): solver.new_var() for p in range(3) for h in range(2)}
        for p in range(3):
            solver.add_clause([var[(p, 0)], var[(p, 1)]])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    solver.add_clause([-var[(p1, h)], -var[(p2, h)]])
        assert solver.solve() is SatResult.UNSAT

    def test_model_satisfies_all_clauses(self):
        solver = SatSolver()
        variables = [solver.new_var() for _ in range(6)]
        clauses = [[1, -2, 3], [-1, 4], [2, -5, 6], [-4, -6], [5, 1]]
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve() is SatResult.SAT
        model = solver.model()
        for clause in clauses:
            assert any(model[abs(l)] == (l > 0) for l in clause)

    def test_solver_reusable_after_unsat_assumptions(self):
        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([-a, -b])
        assert solver.solve([a, b]) is SatResult.UNSAT
        assert solver.solve([a]) is SatResult.SAT
        assert solver.solve() is SatResult.SAT

    def test_max_conflicts_gives_unknown(self):
        solver = SatSolver()
        # A pigeonhole instance: refuting it takes at least one conflict.
        var = {(p, h): solver.new_var() for p in range(5) for h in range(4)}
        for p in range(5):
            solver.add_clause([var[(p, h)] for h in range(4)])
        for h in range(4):
            for p1 in range(5):
                for p2 in range(p1 + 1, 5):
                    solver.add_clause([-var[(p1, h)], -var[(p2, h)]])
        solver.budget = Budget(conflicts=0)
        assert solver.solve() is SatResult.UNKNOWN
        assert solver.interrupt_reason == REASON_CONFLICTS


class TestModelAccess:
    def test_no_model_before_solve(self):
        solver = SatSolver()
        x = solver.new_var()
        assert solver.model_value(x) is None
        assert solver.model() == {}

    def test_variable_newer_than_the_model(self):
        solver = SatSolver()
        x = solver.new_var()
        solver.add_clause([x])
        assert solver.solve() is SatResult.SAT
        y = solver.new_var()
        solver.add_clause([-y, x])
        assert solver.model_value(y) is None
        assert solver.model_value(x) is True
        assert solver.model() == {x: True}

    def test_snapshot_is_the_per_variable_value_list(self):
        solver = SatSolver()
        x, y = solver.new_var(), solver.new_var()
        solver.add_clause([x])
        solver.add_clause([-y])
        assert solver.solve() is SatResult.SAT
        assert solver.model_snapshot() == [1, 0]


class TestAssumptions:
    def test_assumption_forces_value(self):
        solver = SatSolver()
        x = solver.new_var()
        assert solver.solve([-x]) is SatResult.SAT
        assert solver.model_value(x) is False

    def test_core_is_subset_of_assumptions(self):
        solver = SatSolver()
        a, b, c = (solver.new_var() for _ in range(3))
        solver.add_clause([-a, -b])
        assert solver.solve([a, b, c]) is SatResult.UNSAT
        core = solver.unsat_core()
        assert set(core) <= {a, b, c}
        assert set(core) >= {a} or set(core) >= {b}

    def test_conflicting_assumptions(self):
        solver = SatSolver()
        x = solver.new_var()
        assert solver.solve([x, -x]) is SatResult.UNSAT
        assert set(solver.unsat_core()) == {x, -x}

    def test_core_through_propagation_chain(self):
        solver = SatSolver()
        a, b, c, d = (solver.new_var() for _ in range(4))
        solver.add_clause([-a, b])
        solver.add_clause([-b, c])
        solver.add_clause([-c, -d])
        assert solver.solve([a, d]) is SatResult.UNSAT
        assert set(solver.unsat_core()) == {a, d}

    def test_toplevel_unsat_has_empty_core(self):
        solver = SatSolver()
        x = solver.new_var()
        solver.add_clause([x])
        solver.add_clause([-x])
        assert solver.solve([x]) is SatResult.UNSAT
        assert solver.unsat_core() == []


class TestPrefer:
    """`prefer` seeds the VSIDS order. With a ∨ b and every phase saved
    false, whichever variable is decided first comes out false, so the
    model names the first decision."""

    @staticmethod
    def _or_pair():
        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        return solver, a, b

    def test_unpreferred_solver_decides_in_index_order(self):
        solver, a, b = self._or_pair()
        assert solver.solve() is SatResult.SAT
        assert solver.model() == {a: False, b: True}
        assert solver.num_decisions == 1

    def test_first_decision_is_the_preferred_variable(self):
        solver, a, b = self._or_pair()
        solver.prefer([b])
        assert solver.solve() is SatResult.SAT
        assert solver.model() == {a: True, b: False}
        assert solver.num_decisions == 1

    def test_preferred_variables_precede_the_rest(self):
        solver = SatSolver()
        xs = [solver.new_var() for _ in range(6)]
        solver.add_clause(xs)
        solver.prefer(xs[3:])
        assert solver.solve() is SatResult.SAT
        # The three preferred variables are decided false first; the
        # unpreferred lowest index is then the one left to satisfy.
        model = solver.model()
        assert [model[x] for x in xs[3:]] == [False, False, False]
        assert sum(model[x] for x in xs) == 1

    def test_assigned_variable_takes_the_bump_harmlessly(self):
        solver = SatSolver()
        unit, a, b = (solver.new_var() for _ in range(3))
        solver.add_clause([unit])
        solver.add_clause([a, b])
        solver.prefer([unit, b])
        assert solver.solve() is SatResult.SAT
        assert solver.model() == {unit: True, a: True, b: False}

    @pytest.mark.parametrize("bad", [0, 3, -1])
    def test_out_of_range_raises_and_bumps_nothing(self, bad):
        solver, a, b = self._or_pair()
        with pytest.raises(ValueError):
            solver.prefer([b, bad])
        # b was listed before the bad index but took no bump.
        assert solver.solve() is SatResult.SAT
        assert solver.model() == {a: False, b: True}


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(1, 16)] == \
            [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


@st.composite
def cnf_instances(draw):
    num_vars = draw(st.integers(min_value=1, max_value=7))
    num_clauses = draw(st.integers(min_value=1, max_value=20))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(min_value=1, max_value=3))
        clause = [draw(st.integers(min_value=1, max_value=num_vars)) *
                  draw(st.sampled_from([1, -1])) for _ in range(width)]
        clauses.append(clause)
    return num_vars, clauses


class TestAgainstBruteForce:
    @given(cnf_instances())
    @settings(max_examples=200, deadline=None)
    def test_decision_matches_brute_force(self, instance):
        num_vars, clauses = instance
        solver = SatSolver()
        for _ in range(num_vars):
            solver.new_var()
        ok = True
        for clause in clauses:
            if not solver.add_clause(clause):
                ok = False
                break
        result = solver.solve() if ok else SatResult.UNSAT
        assert (result is SatResult.SAT) == brute_force_sat(num_vars, clauses)
        if result is SatResult.SAT:
            model = solver.model()
            for clause in clauses:
                assert any(model.get(abs(l), True) == (l > 0) for l in clause)

    @given(cnf_instances(), st.lists(st.integers(min_value=1, max_value=7),
                                     min_size=0, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_unsat_core_is_really_unsat(self, instance, assumption_vars):
        num_vars, clauses = instance
        assumptions = sorted({v for v in assumption_vars if v <= num_vars})
        solver = SatSolver()
        for _ in range(num_vars):
            solver.new_var()
        ok = all(solver.add_clause(clause) for clause in clauses)
        if not ok:
            return
        if solver.solve(assumptions) is SatResult.UNSAT and \
                brute_force_sat(num_vars, clauses):
            core = solver.unsat_core()
            assert set(core) <= set(assumptions)
            with_core = clauses + [[lit] for lit in core]
            assert not brute_force_sat(num_vars, with_core)


# The exact search effort of the golden workload (golden_cnf.py). A
# change that only makes the solver faster must leave every number here
# unchanged: the same decisions, conflicts, propagations, cores, models
# and proof.
_UNSAT = "dc937b59892604f5"    # digest of the absent model (None)
GOLDEN_ONE_SHOT = {
    "3cnf-3": dict(result="sat", conflicts=674, decisions=844,
                   propagations=22706, model="2f0f387438e1bca4"),
    "3cnf-4": dict(result="unsat", conflicts=2544, decisions=3027,
                   propagations=78618, model=_UNSAT),
    "php-7-6": dict(result="unsat", conflicts=814, decisions=958,
                    propagations=10766, model=_UNSAT),
}
# (result, core, conflicts, decisions, propagations, model), cumulative.
GOLDEN_INCREMENTAL = [
    ("sat", [], 234, 346, 7777, "230ccdb5286f2352"),
    ("sat", [], 769, 1052, 27000, "920951080c286ef2"),
    ("sat", [], 769, 1080, 27150, "910d499d157d149e"),
    ("unsat", [109, 33, -122, -84, 103], 1173, 1587, 40022, _UNSAT),
    ("sat", [], 1187, 1636, 40559, "96bdd2244f988335"),
    ("unsat", [57, -33, 92, 32, -52, -55], 1320, 1818, 45049, _UNSAT),
    ("unsat", [-50, -15, 90, 63, 118, -87, 75, -77], 1375, 1897, 46852,
     _UNSAT),
    ("unsat", [146, -100, -130, -21, 4, -84, 51, -29], 1550, 2139, 52480,
     _UNSAT),
    ("unsat", [45, 4, 14, -113, 35, -143, 48, -144, 33], 1568, 2170, 53035,
     _UNSAT),
    ("unsat", [139, -10, 120, 106, 53, -134, -50, -2, 99, 128, 23], 1588,
     2208, 53575, _UNSAT),
]
GOLDEN_PROOF = dict(steps=2774, proof="3997204abbc3871f")


class TestGoldenSearch:
    """The search itself is pinned, not just the answers."""

    @pytest.fixture(scope="class")
    def records(self):
        return run_golden()

    @pytest.mark.parametrize("name", sorted(GOLDEN_ONE_SHOT))
    def test_one_shot_effort(self, records, name):
        assert records[name] == GOLDEN_ONE_SHOT[name]

    def test_incremental_effort_and_cores(self, records):
        keys = ("result", "core", "conflicts", "decisions", "propagations",
                "model")
        calls = [tuple(call[key] for key in keys)
                 for call in records["incremental"]["calls"]]
        assert calls == GOLDEN_INCREMENTAL

    def test_proof_logging_run(self, records):
        logged = records["incremental-proof"]
        # Logging a proof never changes the search ...
        assert logged["calls"] == records["incremental"]["calls"]
        # ... and the logged steps and hints are pinned too.
        assert {key: logged[key] for key in GOLDEN_PROOF} == GOLDEN_PROOF
