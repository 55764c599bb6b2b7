"""Certification layer: proof logs, the RUP checker, and the certifiers."""

import random

import pytest

from repro.solver.certify import (
    STEP_DELETE,
    STEP_INPUT,
    STEP_LEARN,
    CertificationError,
    ProofLog,
    RupChecker,
    check_model,
    check_proof,
    recheck_unsat,
)
from repro.solver.sat import SatResult, SatSolver


def _pigeonhole(solver, pigeons, holes):
    var = {(p, h): solver.new_var()
           for p in range(pigeons) for h in range(holes)}
    for p in range(pigeons):
        solver.add_clause([var[(p, h)] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([-var[(p1, h)], -var[(p2, h)]])
    return var


class TestProofLog:
    def test_records_inputs_learns_and_deletes(self):
        proof = ProofLog()
        proof.input([1, 2])
        proof.learn([1])
        proof.delete([1, 2])
        assert proof.counts() == {"i": 1, "a": 1, "d": 1}
        assert proof.input_clauses() == [(1, 2)]
        assert len(proof) == 3

    def test_jsonl_round_trip(self, tmp_path):
        proof = ProofLog()
        proof.input([1, -2, 3])
        proof.learn([-1])
        proof.delete([1, -2, 3])
        path = tmp_path / "proof.jsonl"
        proof.to_jsonl(path)
        loaded = ProofLog.from_jsonl(path)
        assert loaded.steps == proof.steps

    def test_jsonl_round_trip_keeps_hints(self, tmp_path):
        solver = SatSolver()
        proof = solver.enable_proof()
        _pigeonhole(solver, 5, 4)
        assert solver.solve() is SatResult.UNSAT
        assert proof.hints
        path = tmp_path / "proof.jsonl"
        proof.to_jsonl(path)
        loaded = ProofLog.from_jsonl(path)
        assert loaded.steps == proof.steps
        assert loaded.hints == proof.hints
        stats = check_proof(loaded)
        assert stats["fallback"] == 0
        assert stats["hinted"] == proof.counts()[STEP_LEARN]

    def test_drup_text_carries_no_hints(self):
        proof = ProofLog()
        proof.input([1, 2])
        proof.input([1, -2])
        proof.learn([1], hints=[1, 0])
        assert proof.hints == {2: (0, 1)}
        assert proof.to_drup() == ProofLog(proof.steps).to_drup() == "1 0\n"

    def test_drup_text_has_no_input_clauses(self):
        proof = ProofLog()
        proof.input([1, 2])
        proof.learn([-1, 2])
        proof.delete([1, 2])
        text = proof.to_drup()
        assert text == "-1 2 0\nd 1 2 0\n"

    def test_enable_proof_requires_pristine_solver(self):
        solver = SatSolver()
        solver.add_clause([solver.new_var()])
        with pytest.raises(RuntimeError):
            solver.enable_proof()


class TestSolverLogging:
    def test_unsat_proof_certifies(self):
        solver = SatSolver()
        proof = solver.enable_proof()
        _pigeonhole(solver, 4, 3)
        assert solver.solve() is SatResult.UNSAT
        stats = check_proof(proof)
        assert stats["rup_checked"] == proof.counts()[STEP_LEARN]
        assert proof.counts()[STEP_LEARN] > 0

    def test_sat_model_certifies(self):
        solver = SatSolver()
        proof = solver.enable_proof()
        a, b, c = (solver.new_var() for _ in range(3))
        solver.add_clause([a, b])
        solver.add_clause([-a, c])
        solver.add_clause([-b, -c])
        assert solver.solve() is SatResult.SAT
        check_model(proof, solver.model())

    def test_assumption_core_certifies(self):
        solver = SatSolver()
        proof = solver.enable_proof()
        a, b, pad = (solver.new_var() for _ in range(3))
        solver.add_clause([-a, -b])
        assert solver.solve([a, b, pad]) is SatResult.UNSAT
        core = solver.unsat_core()
        check_proof(proof, core=core)
        recheck_unsat(proof.input_clauses(), core)

    def test_truncated_core_is_rejected(self):
        solver = SatSolver()
        proof = solver.enable_proof()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([-a, -b])
        assert solver.solve([a, b]) is SatResult.UNSAT
        core = solver.unsat_core()
        assert len(core) == 2
        with pytest.raises(CertificationError):
            check_proof(proof, core=core[:1])
        with pytest.raises(CertificationError):
            recheck_unsat(proof.input_clauses(), core[:1])

    def test_reduce_db_logs_deletions_and_proof_still_checks(self):
        # The reduce threshold (1000+ learnts) is far beyond what a unit
        # test can afford to reach organically, so trigger the reduction
        # directly: the deletion steps it logs must leave a checkable
        # proof (deletions follow every learn, and the derived
        # contradiction is already latched).
        solver = SatSolver()
        proof = solver.enable_proof()
        _pigeonhole(solver, 4, 3)
        assert solver.solve() is SatResult.UNSAT
        solver._reduce_db()
        assert proof.counts()[STEP_DELETE] > 0
        check_proof(proof)

    def test_wrong_model_is_rejected(self):
        solver = SatSolver()
        proof = solver.enable_proof()
        a = solver.new_var()
        solver.add_clause([a])
        assert solver.solve() is SatResult.SAT
        with pytest.raises(CertificationError) as err:
            check_model(proof, {a: False})
        assert err.value.kind == "model"

    def test_false_assumption_in_model_is_rejected(self):
        solver = SatSolver()
        proof = solver.enable_proof()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        assert solver.solve([a]) is SatResult.SAT
        with pytest.raises(CertificationError):
            check_model(proof, {a: False, b: True}, assumptions=[a])


def _solved_php(pigeons=5, holes=4):
    solver = SatSolver()
    proof = solver.enable_proof()
    _pigeonhole(solver, pigeons, holes)
    assert solver.solve() is SatResult.UNSAT
    return solver, proof


def _learn_steps(proof):
    return [i for i, (kind, _) in enumerate(proof.steps) if kind == STEP_LEARN]


class TestHints:
    """Hints are untrusted: they may cost time, never change a verdict."""

    def test_every_solver_lemma_is_accepted_through_its_hints(self):
        _, proof = _solved_php()
        learned = _learn_steps(proof)
        assert set(proof.hints) == set(learned)
        for index in learned:
            hint = proof.hints[index]
            assert hint and all(0 <= h < index for h in hint)
            assert len(set(hint)) == len(hint)
        stats = check_proof(proof)
        assert stats["hinted"] == len(learned)
        assert stats["fallback"] == 0

    def test_hint_less_proof_falls_back_to_full_rup(self):
        _, proof = _solved_php()
        stats = check_proof(ProofLog(proof.steps))
        assert stats["hinted"] == 0
        assert stats["fallback"] == len(_learn_steps(proof))

    @pytest.mark.parametrize("kind", ["garbage", "out-of-range", "negative",
                                      "future", "empty", "input-only"])
    def test_bad_hints_never_change_the_verdict(self, kind):
        _, proof = _solved_php()
        rng = random.Random(kind)
        size = len(proof.steps)
        bad = {}
        for index in _learn_steps(proof):
            if kind == "garbage":
                bad[index] = tuple(rng.randrange(-size, 2 * size)
                                   for _ in range(rng.randint(1, 8)))
            elif kind == "out-of-range":
                bad[index] = (size + index, 10 ** 9)
            elif kind == "negative":
                bad[index] = (-1, -index - 2)
            elif kind == "future":
                bad[index] = tuple(range(index, min(size, index + 4)))
            elif kind == "empty":
                bad[index] = ()
            else:   # a single genuine, live but insufficient input clause
                bad[index] = (0,)
        stats = check_proof(ProofLog(proof.steps, bad))
        assert stats["rup_checked"] == len(_learn_steps(proof))
        assert stats["hinted"] + stats["fallback"] == stats["rup_checked"]
        if kind != "garbage":
            assert stats["hinted"] == 0

    def test_hint_to_a_deleted_clause_falls_back(self):
        proof = ProofLog([
            (STEP_INPUT, (1, 2, 3)),       # 0
            (STEP_INPUT, (1, 2, -3)),      # 1
            (STEP_LEARN, (1, 2)),          # 2
            (STEP_DELETE, (1, 2, 3)),      # 3: step 0 leaves the database
            (STEP_LEARN, (1, 2)),          # 4: RUP via step 2
        ], {2: (0, 1), 4: (0, 1)})
        stats = check_proof(proof, core=[-1, -2])
        assert stats["hinted"] == 1        # step 2
        assert stats["fallback"] == 1      # step 4: its hint names step 0

    def test_non_rup_lemma_with_genuine_hints_is_rejected(self):
        _, proof = _solved_php()
        learned = _learn_steps(proof)
        target = learned[len(learned) // 2]
        fresh = 1 + max(abs(lit) for _, lits in proof.steps for lit in lits)
        steps = list(proof.steps)
        steps.insert(target + 1, (STEP_LEARN, (fresh,)))
        hints = {(i if i <= target else i + 1):
                 tuple(h if h <= target else h + 1 for h in hint)
                 for i, hint in proof.hints.items()}
        hints[target + 1] = proof.hints[target]
        with pytest.raises(CertificationError) as err:
            check_proof(ProofLog(steps, hints))
        assert f"step {target + 1}" in err.value.reason

    def test_proof_logging_does_not_change_the_search(self):
        rng = random.Random(7)
        clauses = [[rng.choice([1, -1]) * rng.randint(1, 40)
                    for _ in range(3)] for _ in range(170)]
        counters = []
        for logging in (False, True):
            solver = SatSolver()
            if logging:
                solver.enable_proof()
            _pigeonhole(solver, 6, 5)
            for clause in clauses:
                solver.add_clause([lit + (30 if lit > 0 else -30)
                                   for lit in clause])
            result = solver.solve()
            counters.append((result, solver.num_conflicts,
                             solver.num_decisions, solver.num_propagations,
                             solver.num_learned))
        assert counters[0] == counters[1]
        assert counters[0][1] > 100


class TestRupChecker:
    def test_learn_delete_then_conclusion_still_follows(self):
        # x1; x1 -> x2; learn [x2] (RUP); delete it; the conclusion -x2
        # still conflicts because the inputs re-derive x2 at root.
        proof = ProofLog([
            (STEP_INPUT, (1,)),
            (STEP_INPUT, (-1, 2)),
            (STEP_LEARN, (2,)),
            (STEP_DELETE, (2,)),
            (STEP_INPUT, (-2,)),
        ])
        check_proof(proof)

    def test_root_reason_deletion_is_guarded(self):
        checker = RupChecker()
        checker.add_clause([1])          # root unit: reason for 1
        checker.add_clause([-1, 2])      # propagates 2 at root
        checker.delete_clause([1])       # drat-trim: must be kept
        checker.delete_clause([-1, 2])   # also a root reason
        assert checker.check_conflict([-2])

    def test_non_rup_learn_is_rejected(self):
        proof = ProofLog([
            (STEP_INPUT, (1, 2)),
            (STEP_LEARN, (1,)),   # not implied: {x1=F, x2=T} satisfies input
        ])
        with pytest.raises(CertificationError) as err:
            check_proof(proof)
        assert err.value.kind == "proof"

    def test_unsupported_conclusion_is_rejected(self):
        proof = ProofLog([(STEP_INPUT, (1, 2))])
        with pytest.raises(CertificationError):
            check_proof(proof)

    def test_tautologies_are_inert(self):
        # A tautological input neither aids propagation toward the
        # conclusion (x2 and -x2 still conflict without it) ...
        check_proof(ProofLog([
            (STEP_INPUT, (1, -1)),
            (STEP_INPUT, (2,)),
            (STEP_INPUT, (-2,)),
        ]))
        # ... nor can a model falsify it, whatever x1 is.
        satisfiable = ProofLog([
            (STEP_INPUT, (1, -1)),
            (STEP_INPUT, (2,)),
        ])
        check_model(satisfiable, {1: False, 2: True})
        check_model(satisfiable, {1: True, 2: True})

    def test_duplicate_literals_are_deduplicated(self):
        checker = RupChecker()
        checker.add_clause([1, 1, 2, 2])
        assert checker.check_conflict([-1, -2])
        assert not checker.check_conflict([-1])

    def test_unknown_step_kind_is_rejected(self):
        proof = ProofLog([("x", (1,))])
        with pytest.raises(CertificationError):
            check_proof(proof)


class TestRecheckUnsat:
    def test_satisfiable_claim_is_rejected_as_core(self):
        with pytest.raises(CertificationError) as err:
            recheck_unsat([(1, 2)], [1])
        assert err.value.kind == "core"

    def test_empty_core_on_unsat_inputs(self):
        stats = recheck_unsat([(1,), (-1,)])
        assert stats["core"] == 0
