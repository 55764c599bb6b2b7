"""A fixed pure-CNF workload for pinning the SAT core's search.

Every instance is built only through the :class:`SatSolver` API from a
seeded generator, so no term or bit-blasting order can leak in: the
solver sees the same clauses, in the same order, on every run. The
golden test (``test_sat.py``) pins the exact search effort each instance
costs, which makes "this change leaves the search identical" a checked
fact; ``benchmarks/bench_solver.py`` times the same workload to compare
solver speed across commits at fixed work.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List

from repro.solver.sat import SatSolver


def random_3cnf(num_vars: int, num_clauses: int, seed: int) -> List[List[int]]:
    """Uniform random 3-CNF: three distinct variables per clause."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


def pigeonhole(pigeons: int, holes: int) -> List[List[int]]:
    """PHP(pigeons, holes): unsatisfiable when pigeons > holes."""
    def var(p, h):
        return p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _effort(solver: SatSolver) -> Dict[str, int]:
    return {"conflicts": solver.num_conflicts,
            "decisions": solver.num_decisions,
            "propagations": solver.num_propagations}


def _one_shot(clauses: List[List[int]], num_vars: int) -> SatSolver:
    solver = SatSolver()
    for _ in range(num_vars):
        solver.new_var()
    for clause in clauses:
        solver.add_clause(clause)
    return solver


# (name, num_vars, clauses): one-shot solves. The random instances sit at
# the 3-SAT threshold (ratio ~4.26); seed 3 is satisfiable, seed 4 not.
ONE_SHOT = [
    (f"3cnf-{seed}", 150, random_3cnf(150, 639, seed)) for seed in (3, 4)
] + [("php-7-6", 42, pigeonhole(7, 6))]

# One solver, then a series of solve(assumptions) calls against it: both
# answers occur, and the learned clauses kept across calls pass the
# reduction threshold, so clause deletion is exercised too.
INCREMENTAL_VARS = 150
INCREMENTAL_CLAUSES = random_3cnf(INCREMENTAL_VARS, 600, 101)


def incremental_assumptions() -> List[List[int]]:
    rng = random.Random(202)
    series = []
    for size in (2, 3, 4, 5, 6, 6, 8, 8, 10, 12):
        variables = rng.sample(range(1, INCREMENTAL_VARS + 1), size)
        series.append([v if rng.random() < 0.5 else -v for v in variables])
    return series


def _incremental(proof: bool) -> Dict:
    solver = SatSolver()
    log = solver.enable_proof() if proof else None
    for _ in range(INCREMENTAL_VARS):
        solver.new_var()
    for clause in INCREMENTAL_CLAUSES:
        solver.add_clause(clause)
    calls = []
    for assumptions in incremental_assumptions():
        result = solver.solve(assumptions)
        calls.append(dict(result=result.value, core=solver.unsat_core(),
                          **_effort(solver),
                          model=_digest(solver.model_snapshot())))
    record: Dict = dict(calls=calls)
    if log is not None:
        record["steps"] = len(log.steps)
        record["proof"] = _digest((log.steps, sorted(log.hints.items())))
    return record


def run_golden() -> Dict[str, Dict]:
    """Solve the whole workload; returns each instance's search record.

    A record holds the answer, the cumulative conflict / decision /
    propagation counts, the unsat cores, and digests of the model and
    (for the proof-logging run of the incremental series) of the DRUP
    steps plus hints.
    """
    records: Dict[str, Dict] = {}
    for name, num_vars, clauses in ONE_SHOT:
        solver = _one_shot(clauses, num_vars)
        result = solver.solve()
        records[name] = dict(result=result.value, **_effort(solver),
                             model=_digest(solver.model_snapshot()))
    records["incremental"] = _incremental(proof=False)
    records["incremental-proof"] = _incremental(proof=True)
    return records


def total_effort(records: Dict[str, Dict]) -> Dict[str, int]:
    """Conflicts and propagations summed over the workload's solvers."""
    finals = [records[name] for name, _, _ in ONE_SHOT]
    finals.append(records["incremental"]["calls"][-1])
    finals.append(records["incremental-proof"]["calls"][-1])
    return {key: sum(record[key] for record in finals)
            for key in ("conflicts", "decisions", "propagations")}
