"""Property-based differential tests: certified answers vs brute force.

Two oracles, both exhaustive:

- random CNFs (small enough to enumerate all assignments) solved by
  :class:`SatSolver` with proof logging, every answer certified;
- random bitvector formulas (built from a seeded grammar over two 4-bit
  variables) decided by the certified :class:`SmtSolver` and by
  evaluating the term under all 256 assignments.

Certification is on throughout, so these cases double as a
no-false-rejections property: a certifier that wrongly rejected a genuine
answer would raise and fail the test.
"""

import random

import pytest

from repro.smt import terms as T
from repro.smt.solver import SmtResult, SmtSolver, SolveOptions
from repro.solver.certify import (
    STEP_LEARN,
    CertificationError,
    ProofLog,
    check_model,
    check_proof,
)
from repro.solver.sat import SatResult, SatSolver

WIDTH = 4


def _random_cnf(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(1, 3)
        lits = []
        for _ in range(size):
            var = rng.randint(1, num_vars)
            lits.append(var if rng.random() < 0.5 else -var)
        clauses.append(lits)
    return clauses


def _brute_force_sat(clauses, num_vars):
    for bits in range(1 << num_vars):
        assignment = {v: bool((bits >> (v - 1)) & 1)
                      for v in range(1, num_vars + 1)}
        if all(any(assignment[abs(l)] == (l > 0) for l in clause)
               for clause in clauses):
            return True
    return False


@pytest.mark.parametrize("seed", range(40))
def test_random_cnfs_match_brute_force_with_certification(seed):
    rng = random.Random(seed)
    num_vars = rng.randint(3, 8)
    num_clauses = rng.randint(num_vars, 4 * num_vars)
    clauses = _random_cnf(rng, num_vars, num_clauses)

    solver = SatSolver()
    proof = solver.enable_proof()
    for _ in range(num_vars):
        solver.new_var()
    for clause in clauses:
        solver.add_clause(clause)
    result = solver.solve()

    expected = _brute_force_sat(clauses, num_vars)
    if expected:
        assert result is SatResult.SAT
        check_model(proof, solver.model())
    else:
        assert result is SatResult.UNSAT
        check_proof(proof)


def _verdict(proof):
    try:
        check_proof(proof)
        return True
    except CertificationError:
        return False


@pytest.mark.parametrize("seed", range(40))
def test_random_cnf_proofs_same_verdict_with_and_without_hints(seed):
    """Hints only pick which clauses to propagate first: the genuine proof
    and every single-literal mutation of a lemma get the same verdict
    from the hinted replay as from full RUP with the hints stripped."""
    rng = random.Random(seed)
    num_vars = rng.randint(10, 16)
    # Random 3-CNF around the hard ratio, so most instances are UNSAT
    # only after real conflict analysis (and carry hints).
    clauses = [[var if rng.random() < 0.5 else -var
                for var in rng.sample(range(1, num_vars + 1), 3)]
               for _ in range(int(num_vars * rng.uniform(5.0, 7.0)))]
    solver = SatSolver()
    proof = solver.enable_proof()
    for clause in clauses:
        solver.add_clause(clause)
    if solver.solve() is not SatResult.UNSAT:
        return
    proofs = [proof.steps]
    for index, (kind, lits) in enumerate(proof.steps):
        if kind == STEP_LEARN:
            mutated = list(proof.steps)
            flip = rng.randrange(len(lits))
            mutated[index] = (kind, tuple(-lit if k == flip else lit
                                          for k, lit in enumerate(lits)))
            proofs.append(mutated)
    for steps in proofs:
        assert _verdict(ProofLog(steps, proof.hints)) == \
            _verdict(ProofLog(steps))
    assert check_proof(proof)["fallback"] == 0


def _random_bv(rng, depth, x, y):
    if depth <= 0 or rng.random() < 0.3:
        choice = rng.randrange(3)
        if choice == 0:
            return x
        if choice == 1:
            return y
        return T.bv_const(rng.randrange(1 << WIDTH), WIDTH)
    op = rng.choice([T.mk_add, T.mk_sub, T.mk_mul, T.mk_bvand,
                     T.mk_bvor, T.mk_bvxor])
    return op(_random_bv(rng, depth - 1, x, y),
              _random_bv(rng, depth - 1, x, y))


def _random_formula(rng, x, y):
    left = _random_bv(rng, 2, x, y)
    right = _random_bv(rng, 2, x, y)
    relation = rng.choice([T.mk_eq, T.mk_ult, T.mk_ule])
    formula = relation(left, right)
    return T.mk_not(formula) if rng.random() < 0.5 else formula


@pytest.mark.parametrize("seed", range(25))
def test_random_bitvector_terms_match_brute_force_certified(seed):
    rng = random.Random(1000 + seed)
    x = T.bv_var(f"dx{seed}", WIDTH)
    y = T.bv_var(f"dy{seed}", WIDTH)
    formula = _random_formula(rng, x, y)

    expected_sat = any(
        T.evaluate(formula, {x: vx, y: vy})
        for vx in range(1 << WIDTH) for vy in range(1 << WIDTH))

    solver = SmtSolver(SolveOptions(certify=True))
    solver.add_assertion(formula)
    result = solver.check()
    if expected_sat:
        assert result is SmtResult.SAT
        assert solver.last_cert == "model"
        model = solver.model()
        assert T.evaluate(formula, {x: model[x], y: model[y]}) is True
    else:
        assert result is SmtResult.UNSAT
        assert solver.last_cert in ("proof", "trivial")
