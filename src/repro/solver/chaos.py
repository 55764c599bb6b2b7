"""Seeded fault injection: prove the certifiers actually certify.

A certification layer that never rejects anything is indistinguishable
from one that works. This module *injects* faults — into proofs, models,
cores, and the bit-blaster — and asserts that the matching certifier
rejects every one of them. All mutation choices are driven by a seeded
:class:`random.Random`, so a failing fault class replays deterministically
from its seed.

Fault taxonomy (``FAULT_CLASSES``):

``flip-learned-literal``
    Negate one literal of a learned clause in a genuine UNSAT proof.
``drop-learned-clause``
    Remove one learned-clause step from a genuine UNSAT proof.
``inject-foreign-clause``
    Splice a non-consequence clause (a unit over a fresh variable) into
    the proof as if the solver had learned it.
``truncate-proof``
    Strip every learned clause, leaving only the inputs — the shape of a
    solver that claims UNSAT without having done the work.
``corrupt-model-bit``
    Flip one variable of a genuine SAT model.
``truncate-core``
    Drop one element of a *minimal* unsat core, making the remainder
    satisfiable.
``corrupt-term-model``
    Corrupt one bit of an extracted SMT-level model value — visible only
    to the term-level certifier, not the CNF one.
``sabotage-encoder``
    Mis-encode one XOR gate in the bit-blaster (wrong output polarity), a
    fault the CNF model check *cannot* see (the model genuinely satisfies
    the corrupted clauses) but the term-level re-evaluation catches.
``corrupt-sanitizer``
    Corrupt one abstract transfer function of the formula sanitizer
    (:mod:`repro.analysis`), making it claim a spurious singleton; the
    certify-mode cross-check must reject the resulting rewrite.

Two fault classes (``flip-learned-literal``, ``drop-learned-clause``)
mutate a *redundant* proof position in unlucky cases — a flipped or
dropped clause the rest of the proof never needed — which is not a fault
at all (the proof still proves UNSAT). For those, the harness scans
candidate positions in seeded order and reports the first mutation the
checker rejects; every class must produce a caught fault or the harness
itself fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.smt import terms as T
from repro.smt.bitblast import BitBlaster
from repro.smt.solver import SmtResult, SmtSolver, SolveOptions
from repro.solver.certify import (
    STEP_LEARN,
    CertificationError,
    ProofLog,
    check_model,
    check_proof,
    recheck_unsat,
)
from repro.solver.sat import SatResult, SatSolver

FAULT_CLASSES = (
    "flip-learned-literal",
    "drop-learned-clause",
    "inject-foreign-clause",
    "truncate-proof",
    "corrupt-model-bit",
    "truncate-core",
    "corrupt-term-model",
    "sabotage-encoder",
    "corrupt-sanitizer",
)


@dataclass
class FaultOutcome:
    """One injected fault and how (whether) a certifier rejected it."""

    fault: str
    caught: bool
    detail: str

    def row(self) -> dict:
        return {"fault": self.fault, "caught": self.caught,
                "detail": self.detail}


# ---------------------------------------------------------------------------
# Crafted instances (small, deterministic, with known structure)
# ---------------------------------------------------------------------------

def _pigeonhole_solver() -> Tuple[SatSolver, ProofLog]:
    """PHP(4, 3): UNSAT, not unit-propagation-trivial, learns clauses."""
    solver = SatSolver()
    proof = solver.enable_proof()
    pigeons, holes = 4, 3
    var = {(p, h): solver.new_var()
           for p in range(pigeons) for h in range(holes)}
    for p in range(pigeons):
        solver.add_clause([var[(p, h)] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([-var[(p1, h)], -var[(p2, h)]])
    return solver, proof


def _unsat_proof() -> ProofLog:
    solver, proof = _pigeonhole_solver()
    result = solver.solve()
    assert result is SatResult.UNSAT, "chaos instance must be UNSAT"
    # Sanity: the genuine proof certifies (no false rejections).
    check_proof(proof)
    return proof


def _forced_chain() -> Tuple[SatSolver, ProofLog, int]:
    """A chain x1, x1→x2, …: SAT with every variable forced true."""
    solver = SatSolver()
    proof = solver.enable_proof()
    n = 12
    variables = [solver.new_var() for _ in range(n)]
    solver.add_clause([variables[0]])
    for a, b in zip(variables, variables[1:]):
        solver.add_clause([-a, b])
    result = solver.solve()
    assert result is SatResult.SAT
    check_model(proof, solver.model())
    return solver, proof, n


def _minimal_core() -> Tuple[SmtSolver, List[T.Term]]:
    """An SMT instance whose minimized core is exactly two assumptions."""
    solver = SmtSolver(SolveOptions(certify=True))
    a = T.bool_var("chaos_a")
    b = T.bool_var("chaos_b")
    pad = [T.bool_var(f"chaos_pad{i}") for i in range(3)]
    solver.add_assertion(T.mk_or(T.mk_not(a), T.mk_not(b)))
    result = solver.check([a, b] + pad)
    assert result is SmtResult.UNSAT
    core = solver.minimize_core()
    assert len(core) == 2
    return solver, core


# ---------------------------------------------------------------------------
# Fault injectors
# ---------------------------------------------------------------------------

def _scan_for_caught(candidates: List[int], rng: random.Random,
                     mutate: Callable[[int], None],
                     describe: Callable[[int], str]) -> FaultOutcome:
    """Apply `mutate` at candidate positions in seeded order until the
    certifier rejects one; a class where no candidate is caught is a
    certification hole and reported as uncaught."""
    order = list(candidates)
    rng.shuffle(order)
    for position in order:
        try:
            mutate(position)
        except CertificationError as rejected:
            return FaultOutcome(fault="", caught=True,
                                detail=f"{describe(position)}: {rejected}")
    return FaultOutcome(fault="", caught=False,
                        detail=f"no rejected mutation among "
                               f"{len(order)} candidate position(s)")


def _edited(proof: ProofLog,
            steps: List[Tuple[Optional[int], Tuple[str, Tuple[int, ...]]]]
            ) -> ProofLog:
    """A proof of edited `steps` that keeps the original's hints.

    Each entry pairs a step with the index it had in `proof` (None for an
    injected step). Hints travel with their step and are re-indexed; a
    hint naming a removed step becomes -1, which the checker treats as
    missing. The faults thus attack the hinted replay production uses.
    """
    new_index = {old: new for new, (old, _) in enumerate(steps)
                 if old is not None}
    hints = {new_index[old]: tuple(new_index.get(h, -1) for h in hint)
             for old, hint in proof.hints.items() if old in new_index}
    return ProofLog([step for _, step in steps], hints)


def _fault_flip_learned_literal(rng: random.Random) -> FaultOutcome:
    proof = _unsat_proof()
    learned = [i for i, (kind, _) in enumerate(proof.steps)
               if kind == STEP_LEARN]

    def mutate(step: int) -> None:
        kind, lits = proof.steps[step]
        which = rng.randrange(len(lits))
        mutated = list(lits)
        mutated[which] = -mutated[which]
        steps = list(enumerate(proof.steps))
        # The flipped clause keeps the hints of the genuine one.
        steps[step] = (step, (kind, tuple(mutated)))
        check_proof(_edited(proof, steps))

    return _scan_for_caught(learned, rng, mutate,
                            lambda step: f"flipped a literal of step {step}")


def _fault_drop_learned_clause(rng: random.Random) -> FaultOutcome:
    proof = _unsat_proof()
    learned = [i for i, (kind, _) in enumerate(proof.steps)
               if kind == STEP_LEARN]

    def mutate(step: int) -> None:
        steps = [(i, s) for i, s in enumerate(proof.steps) if i != step]
        check_proof(_edited(proof, steps))

    return _scan_for_caught(learned, rng, mutate,
                            lambda step: f"dropped learned step {step}")


def _fault_inject_foreign_clause(rng: random.Random) -> FaultOutcome:
    proof = _unsat_proof()
    fresh = 1 + max(abs(lit) for _, lits in proof.steps for lit in lits)
    sign = rng.choice([1, -1])
    steps: List[Tuple[Optional[int], Tuple[str, Tuple[int, ...]]]] = \
        list(enumerate(proof.steps))
    # After the inputs, before any learning: claim a unit over a variable
    # no clause constrains — unit propagation cannot derive it.
    first_learn = next(i for i, (kind, _) in enumerate(proof.steps)
                       if kind == STEP_LEARN)
    steps.insert(first_learn, (None, (STEP_LEARN, (sign * fresh,))))
    try:
        check_proof(_edited(proof, steps))
    except CertificationError as rejected:
        return FaultOutcome("inject-foreign-clause", True, str(rejected))
    return FaultOutcome("inject-foreign-clause", False,
                        "foreign unit clause accepted as RUP")


def _fault_truncate_proof(rng: random.Random) -> FaultOutcome:
    proof = _unsat_proof()
    steps = [(i, s) for i, s in enumerate(proof.steps)
             if s[0] != STEP_LEARN]
    try:
        check_proof(_edited(proof, steps))
    except CertificationError as rejected:
        return FaultOutcome("truncate-proof", True, str(rejected))
    return FaultOutcome("truncate-proof", False,
                        "inputs alone accepted as an UNSAT proof")


def _fault_corrupt_model_bit(rng: random.Random) -> FaultOutcome:
    _, proof, n = _forced_chain()
    solver_model = {var: True for var in range(1, n + 1)}
    flipped = rng.randint(1, n)
    solver_model[flipped] = False
    try:
        check_model(proof, solver_model)
    except CertificationError as rejected:
        return FaultOutcome("corrupt-model-bit", True,
                            f"flipped variable {flipped}: {rejected}")
    return FaultOutcome("corrupt-model-bit", False,
                        f"model with flipped variable {flipped} accepted")


def _fault_truncate_core(rng: random.Random) -> FaultOutcome:
    solver, core = _minimal_core()
    dropped = rng.randrange(len(core))
    truncated = [term for i, term in enumerate(core) if i != dropped]
    lits = [solver._assumption_lit(term) for term in truncated]
    try:
        check_proof(solver.proof, core=lits)
    except CertificationError as rup_rejected:
        # Both certifiers should agree; the fresh re-prove is the one the
        # minimize_core postcondition uses, so exercise it too.
        try:
            recheck_unsat(solver.proof.input_clauses(), lits)
        except CertificationError as rejected:
            return FaultOutcome("truncate-core", True,
                                f"{rup_rejected}; re-prove: {rejected}")
        return FaultOutcome("truncate-core", False,
                            "RUP rejected the truncated core but the "
                            "fresh re-prove accepted it")
    return FaultOutcome("truncate-core", False,
                        "truncated core accepted by the RUP final check")


def _fault_corrupt_term_model(rng: random.Random) -> FaultOutcome:
    solver = SmtSolver(SolveOptions(certify=True))
    x = T.bv_var("chaos_x", 8)
    solver.add_assertion(T.mk_eq(x, T.bv_const(0x5A, 8)))
    result = solver.check()
    assert result is SmtResult.SAT
    bindings = solver.model().bindings()
    bit = rng.randrange(8)
    bindings[x] = bindings[x] ^ (1 << bit)
    try:
        solver.certify_model(bindings)
    except CertificationError as rejected:
        return FaultOutcome("corrupt-term-model", True,
                            f"corrupted bit {bit} of x: {rejected}")
    return FaultOutcome("corrupt-term-model", False,
                        f"model with corrupted bit {bit} accepted")


class _SabotagedBitBlaster(BitBlaster):
    """A bit-blaster that mis-encodes its `target`-th fresh XOR gate.

    The wrong-polarity output is a *consistent* CNF — a model of the
    corrupted clauses exists and satisfies them — so only re-evaluating
    the original terms under the extracted model can expose the bug.
    """

    def __init__(self, sat: SatSolver, target: int):
        super().__init__(sat)
        self._xor_gates = 0
        self._target = target

    def _xor2(self, a: int, b: int) -> int:
        fresh = not (("xor", min(a, b), max(a, b)) in self._gate_cache)
        gate = super()._xor2(a, b)
        if fresh and abs(gate) != self._true:
            self._xor_gates += 1
            if self._xor_gates == self._target:
                return -gate
        return gate


def _fault_sabotage_encoder(rng: random.Random) -> FaultOutcome:
    # The adder circuit for x + 1 == 3 builds one XOR tower per bit; a
    # wrong-polarity XOR output makes the solver satisfy the wrong
    # equation. Scan sabotage targets in seeded order: the certified
    # check() must reject the extracted model (term-level) or prove the
    # corrupted CNF unsatisfiable where the original is not.
    targets = list(range(1, 9))
    rng.shuffle(targets)
    for target in targets:
        solver = SmtSolver(SolveOptions(certify=True))
        solver.blaster = _SabotagedBitBlaster(solver.sat, target)
        x = T.bv_var("chaos_sab_x", 4)
        solver.add_assertion(
            T.mk_eq(T.mk_add(x, T.bv_const(1, 4)), T.bv_const(3, 4)))
        try:
            result = solver.check()
        except CertificationError as rejected:
            return FaultOutcome("sabotage-encoder", True,
                                f"xor gate {target}: {rejected}")
        if result is not SmtResult.SAT:
            # The sabotage flipped the instance to UNSAT: the *answer*
            # changed, which the term-level certifier cannot observe
            # without a model — treat as uncaught and keep scanning.
            continue
    return FaultOutcome("sabotage-encoder", False,
                        "no sabotaged encoding was rejected")


def _fault_corrupt_sanitizer(rng: random.Random) -> FaultOutcome:
    from repro.analysis.domains import chaos_wrong_transfer
    from repro.analysis.sanitize import sanitize

    # Satisfiable *and* falsifiable, so a spurious TRUE/FALSE verdict is
    # wrong somewhere; every op below appears once.
    x = T.bv_var("chaos_san_x", 4)
    y = T.bv_var("chaos_san_y", 4)
    phi = T.mk_eq(
        T.mk_add(T.mk_mul(x, y),
                 T.mk_bvand(x, T.mk_bvor(y, T.bv_const(3, 4)))),
        T.mk_bvxor(x, y))
    present = sorted({node.op for node in T.postorder(phi)
                      if not (node.is_const or node.is_var)})
    rng.shuffle(present)
    for op in present:
        with chaos_wrong_transfer(op):
            if sanitize(phi) is phi:
                # The corrupted transfer produced no rewrite to catch.
                continue
            try:
                sanitize(phi, certify=True)
            except CertificationError as rejected:
                return FaultOutcome("corrupt-sanitizer", True,
                                    f"corrupted {op} transfer: {rejected}")
    return FaultOutcome("corrupt-sanitizer", False,
                        "no corrupted transfer function was rejected")


_INJECTORS: Dict[str, Callable[[random.Random], FaultOutcome]] = {
    "flip-learned-literal": _fault_flip_learned_literal,
    "drop-learned-clause": _fault_drop_learned_clause,
    "inject-foreign-clause": _fault_inject_foreign_clause,
    "truncate-proof": _fault_truncate_proof,
    "corrupt-model-bit": _fault_corrupt_model_bit,
    "truncate-core": _fault_truncate_core,
    "corrupt-term-model": _fault_corrupt_term_model,
    "sabotage-encoder": _fault_sabotage_encoder,
    "corrupt-sanitizer": _fault_corrupt_sanitizer,
}


def inject(fault: str, seed: int = 0) -> FaultOutcome:
    """Inject one fault class; the outcome says whether it was caught."""
    if fault not in _INJECTORS:
        raise ValueError(f"unknown fault class {fault!r}; "
                         f"choose from {FAULT_CLASSES}")
    # Seeding with a string is deterministic across processes (random.seed
    # hashes str/bytes with sha512), unlike hash() of a str.
    outcome = _INJECTORS[fault](random.Random(f"{seed}:{fault}"))
    outcome.fault = fault
    return outcome


def run_chaos(seed: int = 0,
              faults: Optional[Tuple[str, ...]] = None) -> List[FaultOutcome]:
    """Run every fault class (or the given subset) under one seed."""
    return [inject(fault, seed=seed) for fault in (faults or FAULT_CLASSES)]


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: run the full sweep for one or more seeds, exit 1 on a miss.

    ``python -m repro.solver.chaos [seed ...]`` — defaults to seed 0.
    """
    import sys
    seeds = [int(arg) for arg in (argv if argv is not None else sys.argv[1:])]
    missed = 0
    for seed in seeds or [0]:
        print(f"seed {seed}:")
        for outcome in run_chaos(seed=seed):
            status = "caught" if outcome.caught else "MISSED"
            print(f"  {outcome.fault:<24} {status}")
            missed += not outcome.caught
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main())
